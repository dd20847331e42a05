"""Nested-graph chains: shift-and-suffix embeddings, the Schreier local
coset quotient, and the pancake obstruction checks.

For ell = 2 the graph on k symbols embeds into the graph on k+1 symbols by
k+1 maps kappa_j (j in [k+1]): shift every symbol by (j - k) mod (k+1), then
append the suffix jj.  The images are disjoint induced copies of the source,
and the repeat-at-last-position class of the target is exactly the disjoint
union of their neighborhoods through the position-2k transposition.

The quotient check realizes the 2-set star graph as a Schreier local coset
graph: permutation strings of Sym_{k*ell} collapse symbol s to s // ell; the
fibers are the right cosets of the within-block Young subgroup, and the star
edges with differing collapsed endpoints descend exactly to the multiset
star edges, with per-coset local generator sets.
"""

from __future__ import annotations

import math
from array import array
from itertools import chain, groupby, permutations, product
from typing import Iterator, Optional

from .domination import _mask, sigma_set, verify_efficient_domination
from .errors import CapExceeded
from .graphs import GeneratorFamily, PackedLabels, _code_array, _disjoint, _pack, _star_steps, build_graph, regular_degree
from .mstrings import DEFAULT_VERTEX_CAP, MString, Params, iter_vertices, star_neighbors
from .report import keep_witnesses

SCHREIER_SYM_CAP = 8


class ChainEmbedding:
    """kappa_j from the graph on k symbols into the one on k+1 symbols: a
    string's symbols go through `table`, then `suffix` is appended."""

    def __init__(self, source_k: int, j: int) -> None:
        if not 0 <= j <= source_k:
            raise ValueError(f"index {j} out of range [0, {source_k}]")
        self.source_k, self.j = source_k, j

    @property
    def shift(self) -> int:
        return (self.j - self.source_k) % (self.source_k + 1)

    @property
    def suffix(self) -> tuple[int, int]:
        return (self.j, self.j)

    @property
    def table(self) -> bytes:
        """The shift as a bytes.translate table on the symbols 0..k-1."""
        mod = self.source_k + 1
        return bytes((s + self.shift) % mod if s < self.source_k else s for s in range(256))


class ChainReport:
    def __init__(self, sigma_size: int) -> None:
        self.images_disjoint = self.images_induced_isomorphic = self.sigma_bijection_ok = self.blocks_partition_sigma = True
        self.cardinality_identity_ok, self.sigma_size, self.block_sizes = False, sigma_size, ()
        self.failures: list = []


def verify_chain(k: int, cap: int = DEFAULT_VERTEX_CAP) -> ChainReport:
    """Check the k+1 embeddings of the 2-set star graph on k symbols into
    the one on k+1 symbols: disjoint induced images, the one-to-one
    adjacency with the repeat-at-last-position class, and the cardinality
    identity (k+1) * (2k)!/2^k = |Sigma_{2k+1}|.

    Every edge question is a star move, the rule build_graph applies, so
    neither graph is built: the target is read as its strings alone.  The
    source, each image and Sigma_{2k+1} are ascending arrays of packed
    vertex codes, searched by bisection; a star move is computed on the
    code, and only a failure witness is unpacked to a tuple.  An image
    vertex counts once for each source string it is the image of.
    """
    width, length = 2 * k, 2 * k + 2
    last = length - 1
    # the source strings back to back, width bytes each, in lexicographic order
    strings = b"".join(map(bytes, iter_vertices(Params(k, 2), cap)))
    rows = range(0, len(strings), width)
    source = PackedLabels((_pack(strings[o : o + width]) for o in rows), width)
    # Sigma_{2k+1} read as v[last] == v[0], not through repeat_position,
    # which re-validates each well-formed string, and kept alone: the
    # ST(k+1,2) strings (7.48 M of them at k = 5) stream past
    sigma = PackedLabels(map(_pack, (v for v in iter_vertices(Params(k + 1, 2), cap) if v[last] == v[0])), length)
    rep = ChainReport(sigma_size=len(sigma))

    # kappa_j's codes by source id
    embeddings = [ChainEmbedding(k, j) for j in range(k + 1)]
    tables = [emb.table for emb in embeddings]
    images = []
    for emb, t in zip(embeddings, tables):
        body, suffix = strings.translate(t), bytes(emb.suffix)
        if emb.j in body:  # a string with three copies of j is no vertex of the target
            rep.images_induced_isomorphic = False
            bad = (body[o : o + width] for o in rows if emb.j in body[o : o + width])
            keep_witnesses(rep.failures, (("symbol-in-body", emb.j, tuple(b + suffix)) for b in bad))
        images.append(_code_array((_pack(body[o : o + width] + suffix) for o in rows), length))

    # Induced copies, first half: every source edge maps to the star move at
    # its position.  A star move is an involution, so each edge is checked
    # once, from its higher end.  A move to a string outside the source is no
    # source edge; its position is kept with the suffix positions for the
    # second half.
    source_step, step = _star_steps(width), _star_steps(length)
    suffix_moves = range(width, length)
    off_edges: dict[int, list[int]] = {}  # source id -> positions of moves off the source edges
    find = source._find_code
    for i, o in enumerate(rows):
        u = strings[o : o + width]
        c, u0 = _pack(u), u[0]
        for p in range(1, width):
            b = u[p]
            if b == u0:
                continue
            v = find(c + (b - u0) * source_step[p])
            if v < 0:
                off_edges.setdefault(i, list(suffix_moves)).append(p)
            elif v < i:
                for img, t in zip(images, tables):
                    d = t[b] - t[u0]
                    if not d or img[v] != img[i] + d * step[p]:
                        rep.images_induced_isomorphic = False

    # Each image as its ascending distinct codes: kappa_j is one-to-one when
    # there are as many as source strings.
    ordered = [PackedLabels((c for c, _ in groupby(sorted(img))), length) for img in images]
    if any(len(image) != len(source) for image in ordered):
        rep.images_induced_isomorphic = False
    rep.images_disjoint = _disjoint(ordered)

    # Induced copies, second half: no two image vertices are joined by a star
    # move off the source edges.  With kappa_j one-to-one and the first half
    # holding, such a move is off the source edges at both of its ends, so a
    # pair is looked for from its lower code only.
    # Then each image vertex's moves into Sigma_{2k+1}: the move at p lands
    # there iff w[p] == w[last] (p < last), and is looked up for its Sigma
    # position.  Blocks and degrees are kept by Sigma position: owner[x] is
    # 1 + the last block that took x, hits[x] the image vertices next to x.
    owner, hits = bytearray(len(sigma)), array("i", [0]) * len(sigma)
    find_sigma = sigma._find_code
    sizes = []
    for emb, t, img, image in zip(embeddings, tables, images, ordered):
        body, suffix = strings.translate(t), bytes(emb.suffix)
        find_image, mark, size = image._find_code, emb.j + 1, 0
        for i, o in enumerate(rows):
            w, ws = img[i], body[o : o + width] + suffix
            w0 = ws[0]
            for p in off_edges.get(i, suffix_moves):
                d = ws[p] - w0
                if d > 0 and find_image(w + d * step[p]) >= 0:
                    rep.images_induced_isomorphic = False
            a, count = ws[last], 0
            p = ws.find(a, 1, last) if a != w0 else -1
            while p >= 0:
                x = find_sigma(w + (a - w0) * step[p])
                if x >= 0:
                    hits[x] += 1
                    count, nbr = count + 1, x
                p = ws.find(a, p + 1, last)
            if count != 1:
                rep.sigma_bijection_ok = False
                keep_witnesses(rep.failures, [("image-vertex-sigma-degree", tuple(ws), count)])
            elif owner[nbr] != mark:
                owner[nbr] = mark
                size += 1
        sizes.append(size)
    rep.block_sizes = tuple(sizes)

    if hits.count(1) != len(hits):
        rep.sigma_bijection_ok = False
        keep_witnesses(rep.failures, (("sigma-vertex-image-degree", sigma[x], cnt) for x, cnt in enumerate(hits) if cnt != 1))
    rep.blocks_partition_sigma = owner.count(0) == 0 and sum(sizes) == len(sigma)
    rep.cardinality_identity_ok = (k + 1) * math.factorial(2 * k) // 2**k == len(sigma)
    return rep


# ---------------------------------------------------------------------------
# Schreier local coset quotient
# ---------------------------------------------------------------------------


def schreier_fibers(k: int, ell: int) -> Iterator[tuple[MString, tuple[tuple[int, ...], ...]]]:
    """Each string x of the ell-set graph on k symbols, in lexicographic
    order, with its fiber: the images of x's least lift (the t-th copy of
    symbol b becomes b*ell + t) under the within-block value permutations,
    as a sorted tuple of Sym_{k*ell} strings.  Capped at Sym_SCHREIER_SYM_CAP,
    checked here, at the call."""
    if k * ell > SCHREIER_SYM_CAP:
        raise CapExceeded(f"Schreier check capped at Sym_{SCHREIER_SYM_CAP}, got Sym_{k * ell}")
    return _fibers(k, ell)


def _fibers(k: int, ell: int) -> Iterator[tuple[MString, tuple[tuple[int, ...], ...]]]:
    # the (ell!)^k within-block value permutations as bytes.translate tables;
    # the lift's images under them are distinct, as its entries are
    blocks = [[tuple(b * ell + t for t in perm) for perm in permutations(range(ell))] for b in range(k)]
    tables = [bytes(chain(*images, range(k * ell, 256))) for images in product(*blocks)]
    for x in iter_vertices(Params(k, ell)):
        lift = bytes(b * ell + x[:i].count(b) for i, b in enumerate(x))
        yield x, tuple(map(tuple, sorted(lift.translate(t) for t in tables)))


class SchreierReport:
    def __init__(self) -> None:
        self.fibers_are_cosets = self.fiber_sizes_ok = self.quotient_equals_graph = self.generator_sets_ok = True
        self.failures: list = []


def schreier_quotient_check(k: int, ell: int) -> SchreierReport:
    """Realize the multiset star graph as a quotient of Sym_{k*ell}.

    Collapse symbol s to s // ell, one fiber at a time.  Verifies that every
    member of x's fiber collapses to x, that each fiber has (ell!)^k members
    and that they total (k*ell)!, so the fibers partition Sym_{k*ell} and
    each is exactly the coset of the within-block Young subgroup over x.
    Then every member's star move at position j must collapse to x's own
    move at j (x itself where x[j] = x[0]), so the local generator set, the
    positions of x's star moves, is well defined on the whole coset; and
    the members' moves, collapsed, must reach exactly the star neighbours
    of x, which decides the quotient.  The graph's edges are the star moves
    of the collapsed strings, the rule build_graph applies, so the graph
    itself is not built.
    """
    rep = SchreierReport()
    size, total = math.factorial(ell) ** k, 0
    collapse = bytes(c // ell for c in range(256))  # a bytes.translate table
    for x, fiber in schreier_fibers(k, ell):
        total += len(fiber)
        if len(fiber) != size:
            rep.fiber_sizes_ok = False
            keep_witnesses(rep.failures, [("fiber-size", x, len(fiber))])
        key = bytes(x)
        moves = {j: bytes(y) for j, y in star_neighbors(x)}
        hit = set()
        for s in fiber:
            if bytes(s).translate(collapse) != key:
                rep.fibers_are_cosets = False
                keep_witnesses(rep.failures, [("member-outside-its-fiber", x, s)])
            # entries of a Sym string are distinct, so every position j moves
            for j, t in star_neighbors(s):
                y = bytes(t).translate(collapse)
                hit.add(y)
                if y != moves.get(j, key):
                    rep.generator_sets_ok = False
                    keep_witnesses(rep.failures, [("generator-not-well-defined", x, j)])
        if hit - {key} != set(moves.values()):
            rep.quotient_equals_graph = False
            keep_witnesses(rep.failures, [("quotient-neighbours-differ", x)])
    if total != math.factorial(k * ell):
        rep.fibers_are_cosets = False
        keep_witnesses(rep.failures, [("fibers-do-not-partition-sym", total)])
    return rep


# ---------------------------------------------------------------------------
# pancake chain obstructions
# ---------------------------------------------------------------------------


class PancakeReport:
    def __init__(
        self,
        k: int,
        last_sigma_passes: bool,
        last_sigma_min_distance: Optional[int],
        failing_sigmas: dict,
        all_lower_sigmas_fail: bool,
        minus_sigma_regular_degree: Optional[int],
        remainder_regular_degree: Optional[int],
    ) -> None:
        self.k, self.last_sigma_passes, self.last_sigma_min_distance = k, last_sigma_passes, last_sigma_min_distance
        self.failing_sigmas, self.all_lower_sigmas_fail = failing_sigmas, all_lower_sigmas_fail
        self.minus_sigma_regular_degree, self.remainder_regular_degree = minus_sigma_regular_degree, remainder_regular_degree

    @property
    def degrees_drop(self) -> bool:
        """Degree 2k-3 without the last class, 2k-4 without its edges too."""
        return (self.minus_sigma_regular_degree, self.remainder_regular_degree) == (2 * self.k - 3, 2 * self.k - 4)


def pancake_chain_check(k: int, cap: int = DEFAULT_VERTEX_CAP) -> PancakeReport:
    """Obstruction checks on the 2-set pancake graph.

    The repeat-at-last-position class is an efficient dominating set; every
    other repeat class fails, each with a concrete violation witness
    (preferring an adjacent pair inside the class when one exists).
    Removing the last class drops each remaining degree by one, from 2k-2
    to 2k-3; removing the full-reversal edges as well drops it once more,
    to 2k-4, and the open neighborhoods of the removed vertices partition
    what is left.  Both removals are read from the graph's rows by vertex
    id, not copied.  The class's certificate decides the partition: a
    perfect code is a set whose closed neighborhoods partition the vertices.
    """
    pc = build_graph(Params(k, 2), GeneratorFamily.pancake(), cap=cap)
    last = 2 * k - 1

    black = sigma_set(pc, last)
    cert = verify_efficient_domination(pc, black, 1)

    failing_sigmas = {}
    for i in range(1, last):
        cert_i = verify_efficient_domination(pc, sigma_set(pc, i), 1)
        if not cert_i.passed:
            v = next(
                (w for w in cert_i.violations if w.kind == "non-independent"),
                cert_i.violations[0],
            )
            failing_sigmas[i] = (v.kind, v.where)

    # One scan: the degrees after deleting the class, then its full-reversal
    # edges too.
    inside = _mask(pc.n, black)
    minus_degrees, remainder_degrees, label_sets = set(), set(), pc.label_sets
    for x in range(pc.n):
        if inside[x]:
            continue
        kept = [label_sets[lid] for y, lid in pc.labeled_row(x) if not inside[y]]
        minus_degrees.add(len(kept))
        remainder_degrees.add(sum(last not in labels for labels in kept))
    all_fail = set(failing_sigmas) == set(range(1, last))
    minus_degree, remainder_degree = regular_degree(minus_degrees), regular_degree(remainder_degrees)
    return PancakeReport(k, cert.passed, cert.min_internal_distance, failing_sigmas, all_fail, minus_degree, remainder_degree)
