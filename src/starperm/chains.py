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
from itertools import permutations
from typing import Optional

from .domination import sigma_set, verify_efficient_domination
from .errors import CapExceeded
from .graphs import GeneratorFamily, build_graph
from .mstrings import MString, Params, render

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
    def target_k(self) -> int:
        return self.source_k + 1

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
    image_size: int = 0
    block_sizes: tuple[int, ...] = ()
    #: full open neighborhood of the image union vs the restricted
    #: (sigma-only) reading; the restricted union equals the sigma class
    full_neighborhood_size: int = 0
    restricted_union_equals_sigma: bool = False
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
    identity (k+1) * (2k)!/2^k = |Sigma_{2k+1}|."""
    source = build_graph(Params(k, 2), cap=cap)
    target = build_graph(Params(k + 1, 2), cap=cap)
    rep = ChainReport(k=k)
    last = 2 * k + 1
    sigma = sigma_set(target, last)
    rep.sigma_size = len(sigma)
    rep.image_size = source.n

    images: list[dict[MString, MString]] = []
    all_image_vertices: set[MString] = set()
    for j in range(k + 1):
        emb = ChainEmbedding(k, j)
        img = {v: emb.apply(v) for v in source.vertices}
        for v, w in img.items():
            if set(w[:-2]) & {j}:
                rep.failures.append(("symbol-in-body", j, w))
        if all_image_vertices & set(img.values()):
            rep.images_disjoint = False
        all_image_vertices.update(img.values())
        for u, v, _ in source.edges():
            if not target.has_edge(img[u], img[v]):
                rep.images_induced_isomorphic = False
        induced = target.induced_subgraph(sorted(img.values(), key=target.index))
        if induced.m != source.m:
            rep.images_induced_isomorphic = False
        images.append(img)

    blocks: list[frozenset] = []
    for img in images:
        block = set()
        for w in img.values():
            nbrs_in_sigma = [x for x in target.neighbors(w) if x in sigma]
            if len(nbrs_in_sigma) != 1:
                rep.sigma_bijection_ok = False
                rep.failures.append(("image-vertex-sigma-degree", w, len(nbrs_in_sigma)))
                continue
            block.add(nbrs_in_sigma[0])
        blocks.append(frozenset(block))
    rep.block_sizes = tuple(len(b) for b in blocks)

    for x in sigma:
        cnt = sum(1 for y in target.neighbors(x) if y in all_image_vertices)
        if cnt != 1:
            rep.sigma_bijection_ok = False
            rep.failures.append(("sigma-vertex-image-degree", x, cnt))

    union = set()
    total = 0
    for b in blocks:
        total += len(b)
        union |= b
    rep.blocks_partition_sigma = union == set(sigma) and total == len(sigma)
    rep.cardinality_identity_ok = (k + 1) * math.factorial(2 * k) // 2**k == len(sigma)

    full_nbhd = set()
    for w in all_image_vertices:
        full_nbhd.update(x for x in target.neighbors(w) if x not in all_image_vertices)
    rep.full_neighborhood_size = len(full_nbhd)
    rep.restricted_union_equals_sigma = union == set(sigma)
    return rep


# ---------------------------------------------------------------------------
# Schreier local coset quotient
# ---------------------------------------------------------------------------


@dataclass
class CosetTable:
    params: Params
    #: collapsed string -> sorted tuple of Sym strings in its fiber
    fibers: dict
    #: collapsed string -> positions j of its local generators (0 j)
    generator_sets: dict

    def format_table(self) -> str:
        """Fibers and generator sets as an aligned table, one coset per column."""
        order = sorted(self.fibers)
        cols = [[render(v) for v in self.fibers[key]] for key in order]
        depth = max(len(c) for c in cols)
        lines = []
        for row in range(depth):
            lines.append("  ".join(col[row] for col in cols))
        lines.append("  ".join(render(key) for key in order))
        lines.append(
            "  ".join(
                ",".join(f"(0 {j})" for j in self.generator_sets[key]).ljust(len(render(key)))
                for key in order
            )
        )
        return "\n".join(lines)


@dataclass
class SchreierReport:
    table: CosetTable
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

    Collapse symbol s to s // ell.  Verifies the fibers are the right cosets
    of the within-block Young subgroup (orbits of value swaps inside each
    block), all of size (ell!)^k; that collapsing the Sym star edges with
    differing endpoint symbols yields exactly the multiset star graph; and
    that each coset's local generator set is the star positions of its
    collapsed string.
    """
    p = Params(k, ell)
    n = p.length
    if n > SCHREIER_SYM_CAP:
        raise CapExceeded(f"Schreier check capped at Sym_{SCHREIER_SYM_CAP}, got Sym_{n}")
    sym = sorted(permutations(range(n)))
    collapse = {s: tuple(x // ell for x in s) for s in sym}

    fibers: dict[MString, list] = {}
    for s in sym:
        fibers.setdefault(collapse[s], []).append(s)
    fibers = {key: tuple(sorted(v)) for key, v in fibers.items()}

    # block generators swap the symbol values (b*ell + t, b*ell + t + 1)
    gens = [(b * ell + t, b * ell + t + 1) for b in range(k) for t in range(ell - 1)]

    def value_swap(s: tuple, a: int, b: int) -> tuple:
        return tuple(b if x == a else a if x == b else x for x in s)

    rep = SchreierReport(table=CosetTable(p, fibers, {}))
    size = math.factorial(ell) ** k
    for key, fiber in fibers.items():
        if len(fiber) != size:
            rep.fiber_sizes_ok = False
        orbit = {fiber[0]}
        frontier = [fiber[0]]
        while frontier:
            s = frontier.pop()
            for a, b in gens:
                t = value_swap(s, a, b)
                if t not in orbit:
                    orbit.add(t)
                    frontier.append(t)
        if orbit != set(fiber):
            rep.fibers_are_cosets = False
            rep.failures.append(("fiber-not-an-H-orbit", key))

    g = build_graph(p)
    quotient_edges: set = set()
    for s in sym:
        x = collapse[s]
        for j in range(1, n):
            t = (s[j],) + s[1:j] + (s[0],) + s[j + 1 :]
            y = collapse[t]
            if x == y:
                continue
            if x[j] == x[0]:
                rep.quotient_equals_graph = False
                rep.failures.append(("collapsed-edge-not-star", render(x), j))
            quotient_edges.add(g.edge_key(x, y))
    graph_edges = {(u, v) for u, v, _ in g.edges()}
    if quotient_edges != graph_edges:
        rep.quotient_equals_graph = False
        rep.failures.append(("edge-sets-differ", len(quotient_edges), len(graph_edges)))

    gen_sets = {}
    for key in fibers:
        positions = tuple(j for j in range(1, n) if key[j] != key[0])
        gen_sets[key] = positions
        for s in fibers[key]:
            for j in positions:
                t = (s[j],) + s[1:j] + (s[0],) + s[j + 1 :]
                if collapse[t] != (key[j],) + key[1:j] + (key[0],) + key[j + 1 :]:
                    rep.generator_sets_ok = False
                    rep.failures.append(("generator-not-well-defined", key, j))
    rep.table.generator_sets = gen_sets
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
    graph_regular_degree: Optional[int] = None
    minus_sigma_regular_degree: Optional[int] = None
    remainder_regular_degree: Optional[int] = None
    neighborhoods_partition_remainder: bool = False
    ambiguous_black_edges: int = 0

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
    neighborhoods of the removed vertices partition what is left.
    """
    if k > 4:
        raise CapExceeded(f"pancake chain check capped at k = 4, got k = {k}")
    pc = build_graph(Params(k, 2), GeneratorFamily.pancake(), cap=cap)
    rep = PancakeReport(k=k)
    last = 2 * k - 1
    rep.graph_regular_degree = pc.regular_degree()

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

    minus = pc.subgraph(delete_vertices=black)
    rep.minus_sigma_regular_degree = minus.regular_degree()
    black_edges = []
    for u, v, labels in minus.edges():
        if last in labels:
            black_edges.append((u, v))
            if len(labels) > 1:
                rep.ambiguous_black_edges += 1
    remainder = minus.subgraph(delete_edges=black_edges)
    rep.remainder_regular_degree = remainder.regular_degree()
    covered: dict = {}
    for v in black:
        for x in pc.neighbors(v):
            covered[x] = covered.get(x, 0) + 1
    rep.neighborhoods_partition_remainder = set(covered) == set(remainder.vertices) and all(
        c == 1 for c in covered.values()
    )
    return rep
