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
from dataclasses import dataclass, field
from itertools import chain, permutations, product
from typing import Iterator, Optional

from .domination import sigma_set, verify_efficient_domination
from .errors import CapExceeded
from .graphs import GeneratorFamily, build_graph
from .mstrings import MString, Params, enumerate_vertices, iter_vertices, render, star_neighbors

SCHREIER_SYM_CAP = 8


@dataclass(frozen=True)
class ChainEmbedding:
    """kappa_j from the graph on k symbols into the one on k+1 symbols."""

    source_k: int
    j: int

    def __post_init__(self) -> None:
        if not 0 <= self.j <= self.source_k:
            raise ValueError(f"index {self.j} out of range [0, {self.source_k}]")

    @property
    def shift(self) -> int:
        return (self.j - self.source_k) % (self.source_k + 1)

    @property
    def suffix(self) -> tuple[int, int]:
        return (self.j, self.j)

    def apply(self, v: MString) -> MString:
        mod = self.source_k + 1
        return tuple((s + self.shift) % mod for s in v) + self.suffix


def kappa_embed(v: MString, j: int, k: int) -> MString:
    """Image of a 2-set permutation on k symbols under kappa_j."""
    if len(v) != 2 * k:
        raise ValueError(f"expected a 2-set permutation on {k} symbols, got length {len(v)}")
    return ChainEmbedding(k, j).apply(v)


@dataclass
class ChainReport:
    k: int
    images_disjoint: bool = True
    images_induced_isomorphic: bool = True
    sigma_bijection_ok: bool = True
    blocks_partition_sigma: bool = True
    cardinality_identity_ok: bool = False
    sigma_size: int = 0
    block_sizes: tuple[int, ...] = ()
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (
            self.images_disjoint
            and self.images_induced_isomorphic
            and self.sigma_bijection_ok
            and self.blocks_partition_sigma
            and self.cardinality_identity_ok
            and not self.failures
        )


def verify_chain(k: int, cap: int = 10**7) -> ChainReport:
    """Check the k+1 embeddings of the 2-set star graph on k symbols into
    the one on k+1 symbols: disjoint induced images, the one-to-one
    adjacency with the repeat-at-last-position class, and the cardinality
    identity (k+1) * (2k)!/2^k = |Sigma_{2k+1}|.

    Every edge question is a star move, the rule build_graph applies, so
    neither graph is built: the target is read as its strings alone.
    """
    source = enumerate_vertices(Params(k, 2), cap)
    last = 2 * k + 1
    # Sigma_{2k+1} read as v[last] == v[0], not through repeat_position,
    # which re-validates each well-formed string, and kept alone: the
    # ST(k+1,2) strings (7.48 M of them at k = 5) stream past
    sigma = frozenset(v for v in iter_vertices(Params(k + 1, 2), cap) if v[last] == v[0])
    rep = ChainReport(k=k, sigma_size=len(sigma))
    source_degree_sum = sum(len(star_neighbors(v)) for v in source)

    images: list[dict[MString, MString]] = []
    all_image_vertices: set[MString] = set()
    for j in range(k + 1):
        emb = ChainEmbedding(k, j)
        img = {v: emb.apply(v) for v in source}
        for w in img.values():
            if j in w[:-2]:
                rep.failures.append(("symbol-in-body", j, w))
        image = set(img.values())
        if all_image_vertices & image:
            rep.images_disjoint = False
        all_image_vertices |= image
        # induced copy: every source edge maps to a star move, and the
        # image has no further internal ones
        internal_degree_sum = 0
        for u, w in img.items():
            moves = {x for _, x in star_neighbors(w)}
            if any(img[v] not in moves for _, v in star_neighbors(u)):
                rep.images_induced_isomorphic = False
            internal_degree_sum += len(moves & image)
        if internal_degree_sum != source_degree_sum:
            rep.images_induced_isomorphic = False
        images.append(img)

    blocks: list[frozenset] = []
    for img in images:
        block = set()
        for w in img.values():
            nbrs_in_sigma = [x for _, x in star_neighbors(w) if x in sigma]
            if len(nbrs_in_sigma) != 1:
                rep.sigma_bijection_ok = False
                rep.failures.append(("image-vertex-sigma-degree", w, len(nbrs_in_sigma)))
                continue
            block.add(nbrs_in_sigma[0])
        blocks.append(frozenset(block))
    rep.block_sizes = tuple(len(b) for b in blocks)

    for x in sigma:
        cnt = sum(1 for _, y in star_neighbors(x) if y in all_image_vertices)
        if cnt != 1:
            rep.sigma_bijection_ok = False
            rep.failures.append(("sigma-vertex-image-degree", x, cnt))

    union = frozenset().union(*blocks)
    rep.blocks_partition_sigma = union == sigma and sum(rep.block_sizes) == len(sigma)
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


@dataclass
class SchreierReport:
    fibers_are_cosets: bool = True
    fiber_sizes_ok: bool = True
    quotient_equals_graph: bool = True
    generator_sets_ok: bool = True
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (
            self.fibers_are_cosets
            and self.fiber_sizes_ok
            and self.quotient_equals_graph
            and self.generator_sets_ok
            and not self.failures
        )


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
            rep.failures.append(("fiber-size", render(x), len(fiber)))
        key = bytes(x)
        moves = {j: bytes(y) for j, y in star_neighbors(x)}
        hit = set()
        for s in fiber:
            if bytes(s).translate(collapse) != key:
                rep.fibers_are_cosets = False
                rep.failures.append(("member-outside-its-fiber", render(x), s))
            # entries of a Sym string are distinct, so every position j moves
            for j, t in star_neighbors(s):
                y = bytes(t).translate(collapse)
                hit.add(y)
                if y != moves.get(j, key):
                    rep.generator_sets_ok = False
                    rep.failures.append(("generator-not-well-defined", render(x), j))
        if hit - {key} != set(moves.values()):
            rep.quotient_equals_graph = False
            rep.failures.append(("quotient-neighbours-differ", render(x)))
    if total != math.factorial(k * ell):
        rep.fibers_are_cosets = False
        rep.failures.append(("fibers-do-not-partition-sym", total))
    return rep


# ---------------------------------------------------------------------------
# pancake chain obstructions
# ---------------------------------------------------------------------------


@dataclass
class PancakeReport:
    k: int
    last_sigma_passes: bool = False
    last_sigma_min_distance: Optional[int] = None
    failing_sigmas: dict = field(default_factory=dict)
    all_lower_sigmas_fail: bool = False
    minus_sigma_regular_degree: Optional[int] = None
    remainder_regular_degree: Optional[int] = None
    neighborhoods_partition_remainder: bool = False

    @property
    def passed(self) -> bool:
        return (
            self.last_sigma_passes
            and self.all_lower_sigmas_fail
            and self.neighborhoods_partition_remainder
        )


def pancake_chain_check(k: int, cap: int = 10**7) -> PancakeReport:
    """Obstruction checks on the 2-set pancake graph.

    The repeat-at-last-position class is an efficient dominating set; every
    other repeat class fails, each with a concrete violation witness
    (preferring an adjacent pair inside the class when one exists).
    Removing the last class drops each remaining degree by one; removing
    the full-reversal edges as well drops it once more, and the open
    neighborhoods of the removed vertices partition what is left.  Both
    removals are read from the graph's rows by vertex id, not copied.
    """
    pc = build_graph(Params(k, 2), GeneratorFamily.pancake(), cap=cap)
    rep = PancakeReport(k=k)
    last = 2 * k - 1

    black = sigma_set(pc, last)
    cert = verify_efficient_domination(pc, black, 1)
    rep.last_sigma_passes = cert.passed
    rep.last_sigma_min_distance = cert.min_internal_distance

    for i in range(1, last):
        cert_i = verify_efficient_domination(pc, sigma_set(pc, i), 1)
        if not cert_i.passed:
            v = next(
                (w for w in cert_i.violations if w.kind == "non-independent"),
                cert_i.violations[0],
            )
            rep.failing_sigmas[i] = (v.kind, v.where)
    rep.all_lower_sigmas_fail = set(rep.failing_sigmas) == set(range(1, last))

    # One scan: the degrees after deleting the class, then its full-reversal
    # edges too, and how often each vertex is the class or a neighbour of it
    # (at most its degree plus one, 2k, so a byte holds it).
    inside = bytearray(pc.n)
    for x in black:
        inside[x] = 1
    covered = bytearray(inside)
    minus_degrees, remainder_degrees, label_sets = set(), set(), pc.label_sets
    for x in range(pc.n):
        if inside[x]:
            for y in pc.row(x):
                covered[y] += 1
            continue
        kept = [label_sets[lid] for y, lid in pc.labeled_row(x) if not inside[y]]
        minus_degrees.add(len(kept))
        remainder_degrees.add(sum(last not in labels for labels in kept))
    rep.minus_sigma_regular_degree = minus_degrees.pop() if len(minus_degrees) == 1 else None
    rep.remainder_regular_degree = remainder_degrees.pop() if len(remainder_degrees) == 1 else None
    rep.neighborhoods_partition_remainder = covered.count(1) == pc.n
    return rep
