"""Efficient domination: SE- and Sigma-set construction, verification, and
an exhaustive search oracle.

A set S is an efficient dominating-ell set of a triangle-free graph when
every outside vertex v has exactly ell neighbors in S and, for ell > 1, v is
the unique common neighbor of those dominators.  For ell = 1 this is the
classic perfect 1-code (S independent, every outside vertex dominated once).
The star graphs carry two constructions: S_i (first entry = i, one per
symbol) and, for ell = 2, Sigma_i (repeat position = i, one per position).

`code_search` re-derives all such sets by bitmask backtracking with unit
propagation, a path independent of the constructions; the predicate it
applies to each leaf is `verify_efficient_domination`'s, the only one.

A vertex set is an ascending ``array('i')`` of vertex ids throughout, and
a verifier keeps only byte columns by vertex id beside it; labels appear
only in the witnesses a certificate or report records.
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


class DominationCertificate:
    def __init__(self) -> None:
        self.violations: list[Violation] = []
        self.min_internal_distance: Optional[int] = None

    @property
    def passed(self) -> bool:
        return not self.violations

    def add(self, kind: str, where: tuple, detail: tuple = ()) -> None:
        keep_witnesses(self.violations, [Violation(kind, where, detail)])


def se_set(g: PermGraph, i: int) -> array:
    """S_i: the ids of the vertices whose first entry is the symbol i, one
    block in lexicographic order: from i followed by the other symbols
    ascending to i followed by them descending."""
    k, ell = g.params.k, g.params.ell
    if not 0 <= i < k:
        raise ValueError(f"symbol {i} out of range [0, {k})")
    rest = [s for s in range(k) for _ in range(ell - (s == i))]
    find = g.vertices.find
    return array("i", range(find((i, *rest)), find((i, *reversed(rest))) + 1))


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


def _member_ids(g: Graph, s: Iterable[int]) -> array:
    """s as ascending ids without repeats, s itself when it is an ascending
    ``array('i')``; ValueError for an id outside range(g.n)."""
    n = g.n
    if isinstance(s, array) and s.typecode == "i" and all(map(int.__lt__, s, islice(s, 1, None))):
        if s and not (0 <= s[0] and s[-1] < n):  # ascending: its two ends bound it
            raise ValueError(f"vertex id {s[0] if s[0] < 0 else s[-1]!r} outside range({n})")
        return s
    return _ids_where(_mask(n, s), 1)


def _mask(n: int, ids: Iterable[int]) -> bytearray:
    """A byte column by vertex id that holds 1 at ids; ValueError for an id
    outside range(n), which a bytearray index would otherwise wrap."""
    inside = bytearray(n)
    for x in ids:
        if not 0 <= x < n:
            raise ValueError(f"vertex id {x!r} outside range({n})")
        inside[x] = 1
    return inside


def _dominator_counts(g: Graph, members: array) -> tuple[array, bool]:
    """Each outside vertex's member neighbours, by vertex id, 0 for the
    members, and whether two members are adjacent; one byte a vertex unless
    the graph has a vertex of 256 neighbours or more."""
    count = array("B" if max(g.degree_census(), default=0) < 256 else "i", [0]) * g.n
    for x in members:
        for y in g.row(x):
            count[y] += 1
    adjacent = any(map(count.__getitem__, members))  # they counted each other
    for x in members:
        count[x] = 0
    return count, adjacent


def require_girth_above_three(g: Graph) -> None:
    if g.has_triangle():
        raise Precondition("graph contains a triangle")


def _min_internal_distance(g: Graph, members: array, count: array) -> Optional[int]:
    """Minimum pairwise distance inside a vertex set with no two members
    adjacent, read off its dominator counts: 2 if an outside vertex has two
    dominators, and 3 if a member's walk of two steps ends at a vertex with
    one, which is not the member, as the graph has no triangle.  Beyond 3 a
    multi-source BFS from the members decides it."""
    row = g.row
    if count.count(0) + count.count(1) < g.n:
        return 2
    if any(count[v] == 1 for x in members for u in row(x) for v in row(u)):
        return 3
    owner = array("i", [-1]) * g.n
    dist = array("i", [0]) * g.n
    for s in members:
        owner[s] = s
    queue = array("i", members)
    best: Optional[int] = None
    # the queue's iterator reads the entries appended after it started
    for x in queue:
        dx, ox = dist[x], owner[x]
        # a pair met from a vertex at distance dx is at least 2 dx + 1 apart:
        # a neighbour at dx - 1 met x when it was expanded
        if best is not None and 2 * dx + 1 >= best:
            break
        for y in row(x):
            oy = owner[y]
            if oy < 0:
                owner[y] = ox
                dist[y] = dx + 1
                queue.append(y)
            elif oy != ox:
                cand = dx + dist[y] + 1
                if best is None or cand < best:
                    best = cand
    return best


def _no_two_members_meet_twice(g: Graph, members: array, count: array) -> bool:
    """Whether no two members share two neighbours, given the dominator
    counts of a set with no two members adjacent and two dominators at every
    outside vertex, which it spends.  The first ascending member to reach a
    vertex, its lesser dominator, counts it down to 1; a later one reads it
    back as the vertex's first neighbour of count 0, a member, and finds
    those of its own neighbours distinct."""
    row = g.row
    for x in members:
        seen = set()
        for y in row(x):
            if count[y] == 2:
                count[y] = 1
                continue
            for w in row(y):
                if not count[w]:
                    break
            if w in seen:
                return False
            seen.add(w)
    return True


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
    members = _member_ids(g, s)
    cert = DominationCertificate()
    n, row, verts = g.n, g.row, g.vertices
    count, adjacent = _dominator_counts(g, members)
    cert.min_internal_distance = 1 if adjacent else _min_internal_distance(g, members, count)
    if ell == 1:
        if cert.min_internal_distance == 1:
            inside = _mask(n, members)
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
    # neighbour of v's two has the same two.
    if clean and ell == 2 and cert.min_internal_distance == 2 and _no_two_members_meet_twice(g, members, count):
        return cert
    if ell > 1:
        del count  # read below for ell = 1 only; freed before the member mask
    inside = _mask(n, members)
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


def verify_partition_and_edge_cover(g: PermGraph) -> PartitionReport:
    """Partition and edge-cover structure of the SE-family.

    Checks: the sets partition the vertices; over all symbols i the
    dominator stars (each a K_{1,ell}, as a star-family graph has no
    triangle, which the girth precondition decides) cover every edge
    exactly twice (the doubled-multigraph statement); for k = 2 the stars of
    a single i partition the edge set; and every member of S_i lies in
    exactly (k-1)*ell dominator sets, its degree.  Each set's counts are
    read from its members' rows, and the edges in one pass over all rows.
    """
    if g.family.kind != "star":
        raise ValueError("partition structure is defined for star-family graphs")
    k, ell = g.params.k, g.params.ell
    rep = PartitionReport(per_symbol_edge_partition_ok=True if k == 2 else None, expected_memberships=(k - 1) * ell)
    n, row, verts = g.n, g.row, g.vertices
    # k-bit masks by vertex id: bit i of sets[x] says S_i holds x, and of
    # mark[v] that v lies in S_i or has a wrong dominator count there, so v
    # leads a star of S_i where mark[v] lacks bit i.  mark is sets itself
    # unless a count fails; failed[v] holds those bits.
    sets = array("B" if k <= 8 else "H", [0]) * n
    failed = None
    for i in range(k):
        bit, members = 1 << i, se_set(g, i)
        for x in members:
            sets[x] |= bit
        count = _dominator_counts(g, members)[0]
        if count.count(ell) != n - len(members):
            if failed is None:
                failed = array(sets.typecode, [0]) * n
            for v in range(n):
                if not sets[v] & bit and count[v] != ell:
                    failed[v] |= bit
                    keep_witnesses(rep.failures, [("wrong-dominator-count", verts[v], count[v])])
        del members, count  # freed before the next set's are made
    mark = sets if failed is None else array(sets.typecode, map(int.__or__, sets, failed))
    del failed
    if sum(map(sets.count, (1 << i for i in range(k)))) != n:
        rep.is_partition = False
        shared = list(islice((verts[x] for x in range(n) if sets[x].bit_count() != 1), WITNESS_CAP))
        rep.failures = [("not-a-partition", shared), *rep.failures][:WITNESS_CAP]

    # Edge {u, v} lies in the stars of u's sets that lead v and of v's that
    # lead u; u leads a star for each neighbour and set of u that leads it.
    bad, census, full = [], Counter(), (1 << k) - 1
    for u in range(n):
        su, mu, stars = sets[u], mark[u], 0
        for v in row(u):
            a = su & ~mark[v]
            c = a.bit_count()
            stars += c
            if v > u:
                b = sets[v] & ~mu
                if c + b.bit_count() != 2 and len(bad) < WITNESS_CAP:
                    bad.append((verts[u], verts[v]))
                if k == 2 and a ^ b != full:  # each edge in one star of each S_i
                    rep.per_symbol_edge_partition_ok = False
        census[stars] += 1
    if bad:
        rep.double_cover_ok = False
        keep_witnesses(rep.failures, [("edge-not-double-covered", bad)])

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


def _neighbor_masks(g: Graph) -> list[int]:
    nbr = [0] * g.n
    for i in range(g.n):
        for j in g.row(i):
            nbr[i] |= 1 << j
    return nbr


def _require_searchable(n: int, ell: int) -> None:
    """code_search's refusals before any work: ValueError unless ell >= 1,
    and CapExceeded for a graph of n vertices, more than it takes."""
    if ell < 1:
        raise ValueError(f"need ell >= 1, got ell = {ell}")
    if n > CODE_SEARCH_VERTEX_CAP:
        raise CapExceeded(f"code search capped at {CODE_SEARCH_VERTEX_CAP} vertices, graph has {n}")


def code_search(g: Graph, ell: int) -> list[array]:
    """Every vertex set satisfying the efficient dominating-ell predicate,
    as ascending vertex ids.

    Complete backtracking over bitmask states with unit propagation: an
    outside vertex with ell dominators forces its undecided neighbors out,
    one that can only just reach ell forces them in, and for ell = 1 a
    member forces its neighbors out.  Each full assignment is reached once,
    and :func:`verify_efficient_domination` alone decides which are returned,
    deterministically.  Raises ValueError unless ell >= 1, and CapExceeded
    past CODE_SEARCH_VERTEX_CAP vertices, before the girth is checked.
    """
    _require_searchable(g.n, ell)
    require_girth_above_three(g)
    n = g.n
    nbr = _neighbor_masks(g)
    full = (1 << n) - 1
    leaves: list[int] = []
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
            leaves.append(in_mask)
            continue
        v = (undecided & -undecided).bit_length() - 1
        for member in (False, True):
            res = apply(v, member, in_mask, out_mask)
            if res is not None:
                stack.append(res)
    found = []
    for mask in sorted(leaves):
        ids = array("i", _bit_indices(mask))
        if verify_efficient_domination(g, ids, ell).passed:
            found.append(ids)
    return found
