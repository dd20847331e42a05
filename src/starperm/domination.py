"""Efficient domination: SE- and Sigma-set construction, verification, and
an exhaustive search oracle.

A set S is an efficient dominating-ell set of a triangle-free graph when
every outside vertex v has exactly ell neighbors in S and, for ell > 1, v is
the unique common neighbor of those dominators.  For ell = 1 this is the
classic perfect 1-code (S independent, every outside vertex dominated once).
The star graphs carry two constructions: S_i (first entry = i, one per
symbol) and, for ell = 2, Sigma_i (repeat position = i, one per position).

`code_search` re-derives all such sets from scratch by bitmask backtracking
with unit propagation, so constructed sets can be checked against an
independent path.

A vertex set is an ascending ``array('i')`` of vertex ids throughout, and
a verifier marks it in one byte mask by vertex id; labels appear only in
the witnesses a certificate or report records.
"""

from __future__ import annotations

from array import array
from collections import Counter
from itertools import islice
from typing import Iterable, Optional

from .errors import CapExceeded, Precondition
from .graphs import Graph, PermGraph
from .report import WITNESS_CAP, keep_witnesses

CODE_SEARCH_VERTEX_CAP = 1000
CODE_SEARCH_NODE_BUDGET = 5_000_000


class Violation:
    """One failed condition; `kind` is wrong-count, non-unique-intersection,
    non-independent or distance."""

    def __init__(self, kind: str, where: tuple, detail: tuple) -> None:
        self.kind, self.where, self.detail = kind, where, detail

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Violation:
            return NotImplemented
        return vars(self) == vars(other)


class DominationCertificate:
    def __init__(self) -> None:
        self.violations: list[Violation] = []
        self.min_internal_distance: Optional[int] = None

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not DominationCertificate:
            return NotImplemented
        return vars(self) == vars(other)

    @property
    def passed(self) -> bool:
        return not self.violations

    def add(self, kind: str, where: tuple, detail: tuple = ()) -> None:
        keep_witnesses(self.violations, [Violation(kind, where, detail)])


def se_set(g: PermGraph, i: int) -> array:
    """S_i: the ids of the vertices whose first entry is the symbol i."""
    if not 0 <= i < g.params.k:
        raise ValueError(f"symbol {i} out of range [0, {g.params.k})")
    return _ids_where(g.first_symbols(), i)


def _require_ell2(g: PermGraph) -> None:
    if g.params.ell != 2:
        raise ValueError(f"sigma sets need ell = 2, got ell = {g.params.ell}")


def sigma_set(g: PermGraph, i: int) -> array:
    """Sigma_i: the ids of the vertices whose repeated first symbol sits at
    position i (ell = 2 only)."""
    _require_ell2(g)
    if not 1 <= i <= 2 * g.params.k - 1:
        raise ValueError(f"position {i} out of range [1, {2 * g.params.k - 1}]")
    return _ids_where(g.repeat_positions(), i)


def _ids_where(column, value: int) -> array:
    """The ids at which a byte column by vertex id holds value, ascending."""
    ids, find = array("i"), column.find
    x = find(value)
    while x >= 0:
        ids.append(x)
        x = find(value, x + 1)
    return ids


def _member_mask(g: Graph, s: Iterable[int]) -> tuple[bytearray, array]:
    """s as a byte mask and as ascending ids; ValueError outside range(g.n)."""
    n = g.n
    inside = bytearray(n)
    for x in s:
        if not 0 <= x < n:
            raise ValueError(f"vertex id {x!r} outside range({n})")
        inside[x] = 1
    return inside, _ids_where(inside, 1)


def _dominator_counts(g: Graph, members: array) -> array:
    """Each outside vertex's member neighbours, by vertex id, 0 for the
    members; one byte a vertex unless one has 256 member neighbours."""
    for typecode in "Bi":
        count = array(typecode, [0]) * g.n
        try:
            for x in members:
                for y in g.row(x):
                    count[y] += 1
            break
        except OverflowError:
            pass
    for x in members:  # adjacent members counted each other
        count[x] = 0
    return count


def require_girth_above_three(g: Graph) -> None:
    if g.has_triangle():
        raise Precondition("graph contains a triangle")


def _min_internal_distance(g: Graph, members: array) -> tuple[Optional[int], Optional[array]]:
    """Minimum pairwise distance inside a vertex set, by multi-source BFS
    from the ascending members, and the owning source of each vertex
    reached.  The members are expanded first, so once all of them are, a
    member's neighbour is owned by its least member neighbour; the owners
    are None if the search stopped sooner.  The queue's iterator reads the
    entries appended after it started."""
    if len(members) < 2:
        return None, None
    owner = array("i", [-1]) * g.n
    dist = array("i", [0]) * g.n
    for s in members:
        owner[s] = s
    queue = array("i", members)
    best: Optional[int] = None
    for x in queue:
        dx, ox = dist[x], owner[x]
        # a pair met from a vertex at distance dx is at least 2 dx + 1 apart:
        # a neighbour at dx - 1 met x when it was expanded
        if best is not None and 2 * dx + 1 >= best:
            if dx == 0:
                owner = None
            break
        for y in g.row(x):
            oy = owner[y]
            if oy < 0:
                owner[y] = ox
                dist[y] = dx + 1
                queue.append(y)
            elif oy != ox:
                cand = dx + dist[y] + 1
                if best is None or cand < best:
                    best = cand
    return best, owner


def verify_efficient_domination(g: Graph, s: Iterable[int], ell: int) -> DominationCertificate:
    """Full certificate for the efficient dominating-ell set predicate on
    the vertex ids s, in any order and with repeats.

    Raises ValueError unless ell >= 1, and Precondition on graphs with
    triangles (the K_5 exclusion), so the dominators of one vertex are
    never adjacent; otherwise returns the certificate, passing iff no
    violations.  Labels are looked up only for what the certificate records.
    """
    if ell < 1:
        raise ValueError(f"need ell >= 1, got ell = {ell}")
    require_girth_above_three(g)
    inside, members = _member_mask(g, s)
    cert = DominationCertificate()
    cert.min_internal_distance, owner = _min_internal_distance(g, members)
    n, row, verts = g.n, g.row, g.vertices
    count = _dominator_counts(g, members)
    if ell == 1:
        if cert.min_internal_distance == 1:
            for x in members:
                for y in row(x):
                    if y > x and inside[y]:
                        cert.add("non-independent", (verts[x], verts[y]))
        if cert.min_internal_distance is not None and cert.min_internal_distance < 3:
            cert.add("distance", (), (cert.min_internal_distance,))
    clean = count.count(ell) == n - len(members)  # every outside vertex has ell dominators
    if clean and ell == 1:
        return cert
    # With two dominators each and no two members adjacent, another common
    # neighbour of v's two has the same two: the greater one sees the lesser
    # as the owner of two neighbours.
    if clean and ell == 2 and cert.min_internal_distance == 2 and owner is not None:
        if all(len(o) == len(set(o)) for o in ([owner[y] for y in row(x) if owner[y] != x] for x in members)):
            return cert
    for v in range(n):
        if inside[v] or (ell == 1 and count[v] == 1):
            continue
        doms = [w for w in row(v) if inside[w]]
        if len(doms) != ell:
            cert.add("wrong-count", (verts[v],), tuple(verts[w] for w in doms))
        elif ell > 1:
            common = set(row(doms[0])).intersection(*map(row, doms[1:]))
            if common != {v}:
                cert.add("non-unique-intersection", (verts[v],), tuple(verts[c] for c in sorted(common)))
    return cert


# ---------------------------------------------------------------------------
# partition / edge-cover structure of the SE-family
# ---------------------------------------------------------------------------


class PartitionReport:
    """`membership_census` maps a number of dominator sets a member lies in
    to the members with that number."""

    def __init__(self, per_symbol_edge_partition_ok: Optional[bool], expected_memberships: int) -> None:
        self.is_partition, self.double_cover_ok = True, True
        self.per_symbol_edge_partition_ok = per_symbol_edge_partition_ok
        self.membership_census, self.expected_memberships = {}, expected_memberships
        self.failures: list = []

    @property
    def passed(self) -> bool:
        # per_symbol_edge_partition_ok is None where it is not decided (k > 2)
        edges_ok = self.double_cover_ok and self.per_symbol_edge_partition_ok is not False
        memberships_ok = all(c == self.expected_memberships for c in self.membership_census)
        return self.is_partition and edges_ok and memberships_ok and not self.failures


def _edges_covered_other_than(g: PermGraph, cover: bytearray, times: int) -> list[tuple[int, int]]:
    """The first WITNESS_CAP edges (u, v), u < v, in canonical order, whose
    count in `cover` (indexed as in verify_partition_and_edge_cover) is not `times`."""
    if cover.count(times) == g.m:  # only edges are counted, each at its own index
        return []
    length = g.params.length
    bad = ((u, v) for u, v, labels in g.edge_ids() if cover[u * length + labels[0]] != times)
    return list(islice(bad, WITNESS_CAP))


def verify_partition_and_edge_cover(g: PermGraph) -> PartitionReport:
    """Partition and edge-cover structure of the SE-family.

    Checks: the sets partition the vertices; over all symbols i the
    dominator stars (each a K_{1,ell}, as a star-family graph has no
    triangle, which the girth precondition decides) cover every edge
    exactly twice (the doubled-multigraph statement); for k = 2 the stars of
    a single i partition the edge set; and every member of S_i lies in
    exactly (k-1)*ell dominator sets, its degree.  Each set is read from its
    members' rows.
    """
    if g.family.kind != "star":
        raise ValueError("partition structure is defined for star-family graphs")
    k, ell = g.params.k, g.params.ell
    rep = PartitionReport(per_symbol_edge_partition_ok=True if k == 2 else None, expected_memberships=(k - 1) * ell)
    n, labeled_row, label_sets, verts = g.n, g.labeled_row, g.label_sets, g.vertices
    # A star-graph edge is fixed by its lower endpoint and the position its
    # transposition swaps, the edge's one label: cover[lower * length + j].
    length = g.params.length
    cover = bytearray(n * length)
    # sets each vertex lies in, and stars it leads (at most its degree)
    counts, memberships = bytearray(n), bytearray(n)
    for i in range(k):
        inside, members = _member_mask(g, se_set(g, i))
        for x in members:
            counts[x] += 1
        count = _dominator_counts(g, members)
        if count.count(ell) != n - len(members):
            wrong = (v for v in range(n) if not inside[v] and count[v] != ell)
            keep_witnesses(rep.failures, (("wrong-dominator-count", verts[v], count[v]) for v in wrong))
        once = bytearray(n * length) if rep.per_symbol_edge_partition_ok is not None else None
        for x in members:
            for v, lid in labeled_row(x):
                if count[v] == ell:  # never a member, whose count is 0
                    memberships[x] += 1
                    slot = (v if v < x else x) * length + label_sets[lid][0]
                    cover[slot] += 1
                    if once is not None:
                        once[slot] += 1
        if once is not None and _edges_covered_other_than(g, once, 1):
            rep.per_symbol_edge_partition_ok = False
    if counts.count(1) != n:
        rep.is_partition = False
        shared = list(islice((verts[x] for x in range(n) if counts[x] != 1), WITNESS_CAP))
        rep.failures = [("not-a-partition", shared), *rep.failures][:WITNESS_CAP]

    bad = _edges_covered_other_than(g, cover, 2)
    if bad:
        rep.double_cover_ok = False
        keep_witnesses(rep.failures, [("edge-not-double-covered", [(verts[u], verts[v]) for u, v in bad])])

    census = Counter(memberships)
    del census[0]
    rep.membership_census = dict(sorted(census.items()))
    return rep


def verify_ei_avoidance(g: PermGraph) -> dict:
    """In g, no color-i edge (one labelled i) touches a Sigma_i vertex;
    color-(2k-1) vertices have equal first and last entries.  The witnesses
    are the first offending edges, each as (i, u, v)."""
    if g.family.kind != "star":
        raise ValueError("edge colors by position are defined for star-family graphs")
    _require_ell2(g)
    # Sigma_i holds the vertices at repeat position i, so one pass over the
    # edges, by vertex id, decides all i.
    pos, verts = g.repeat_positions(), g.vertices
    bad = ((c, verts[u], verts[v]) for u, v, labels in g.edge_ids() if (c := labels[0]) in (pos[u], pos[v]))
    witnesses = list(islice(bad, WITNESS_CAP))
    return {
        "passed": not witnesses,
        "witnesses": witnesses,
        "last_position_rationale": all(v[0] == v[-1] for v in map(verts.__getitem__, sigma_set(g, 2 * g.params.k - 1))),
    }


# ---------------------------------------------------------------------------
# exhaustive oracle
# ---------------------------------------------------------------------------


def _bit_indices(x: int):
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _check_unique_intersections(nbr: list[int], in_mask: int, n: int) -> bool:
    universe = (1 << n) - 1
    for v in range(n):
        bit = 1 << v
        if in_mask & bit:
            continue
        common = universe
        for u in _bit_indices(nbr[v] & in_mask):
            common &= nbr[u]
        if common != bit:
            return False
    return True


def _neighbor_masks(g: Graph) -> list[int]:
    nbr = [0] * g.n
    for i in range(g.n):
        for j in g.row(i):
            nbr[i] |= 1 << j
    return nbr


def _is_code(nbr: list[int], in_mask: int, n: int, ell: int) -> bool:
    """The oracle's bitmask form of the efficient dominating-ell predicate."""
    ok = all(
        (nbr[v] & in_mask).bit_count() == ell
        for v in range(n)
        if not in_mask >> v & 1
    )
    if ok and ell > 1:
        ok = _check_unique_intersections(nbr, in_mask, n)
    if ok and ell == 1:
        ok = all(not nbr[v] & in_mask for v in _bit_indices(in_mask))
    return ok


def oracle_check(g: Graph, s: Iterable[int], ell: int) -> bool:
    """Re-verify one candidate set of vertex ids through the oracle's
    bitmask predicate, independent of :func:`verify_efficient_domination`'s
    set arithmetic.  Raises ValueError unless ell >= 1."""
    if ell < 1:
        raise ValueError(f"need ell >= 1, got ell = {ell}")
    require_girth_above_three(g)
    in_mask = 0
    for x in _member_mask(g, s)[1]:
        in_mask |= 1 << x
    return _is_code(_neighbor_masks(g), in_mask, g.n, ell)


def code_search(g: Graph, ell: int) -> list[array]:
    """Every vertex set satisfying the efficient dominating-ell predicate,
    as ascending vertex ids.

    Complete backtracking over bitmask states with unit propagation: an
    outside vertex with ell dominators forces its undecided neighbors out,
    one that can only just reach ell forces them in, and for ell = 1 a
    member forces its neighbors out.  Results are deduplicated,
    deterministic, and re-checked by :func:`verify_efficient_domination`
    before being returned.  Raises ValueError unless ell >= 1.
    """
    if ell < 1:
        raise ValueError(f"need ell >= 1, got ell = {ell}")
    require_girth_above_three(g)
    n = g.n
    if n > CODE_SEARCH_VERTEX_CAP:
        raise CapExceeded(f"code search capped at {CODE_SEARCH_VERTEX_CAP} vertices, graph has {n}")
    nbr = _neighbor_masks(g)
    full = (1 << n) - 1
    solutions: set[int] = set()
    nodes = 0

    def apply(v: int, member: bool, in_mask: int, out_mask: int) -> Optional[tuple[int, int]]:
        """Decide v and propagate to a fixed point; None on contradiction."""
        if member:
            in_mask |= 1 << v
        else:
            out_mask |= 1 << v
        work = [v]
        while work:
            w = work.pop()
            if in_mask >> w & 1 and ell == 1:
                if nbr[w] & in_mask:
                    return None
                forced_out = nbr[w] & ~out_mask
                out_mask |= forced_out
                work.extend(_bit_indices(forced_out))
            # recheck w (if outside) and every decided-outside neighbor of w
            recheck = nbr[w] & out_mask
            if out_mask >> w & 1:
                recheck |= 1 << w
            for u in _bit_indices(recheck):
                have = (nbr[u] & in_mask).bit_count()
                free = nbr[u] & ~(in_mask | out_mask)
                nfree = free.bit_count()
                if have > ell or have + nfree < ell:
                    return None
                if free and have == ell:
                    out_mask |= free
                    work.extend(_bit_indices(free))
                elif free and have + nfree == ell:
                    in_mask |= free
                    work.extend(_bit_indices(free))
        return in_mask, out_mask

    # Depth-first on an explicit stack, so depth is bounded by memory, not
    # by the recursion limit: each popped state is a node, and its least
    # undecided vertex's two decisions are pushed, "out" below "in".
    stack = [(0, 0)]
    while stack:
        in_mask, out_mask = stack.pop()
        nodes += 1
        if nodes > CODE_SEARCH_NODE_BUDGET:
            raise CapExceeded(f"code search exceeded node budget {CODE_SEARCH_NODE_BUDGET}")
        undecided = full & ~(in_mask | out_mask)
        if not undecided:
            if _is_code(nbr, in_mask, n, ell):
                solutions.add(in_mask)
            continue
        v = (undecided & -undecided).bit_length() - 1
        for member in (False, True):
            res = apply(v, member, in_mask, out_mask)
            if res is not None:
                stack.append(res)
    found = []
    for mask in sorted(solutions):
        ids = array("i", _bit_indices(mask))
        if verify_efficient_domination(g, ids, ell).passed:
            found.append(ids)
    return found
