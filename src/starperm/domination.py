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
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .coloring import TotalColoring
from .errors import CapExceeded, GirthPrecondition
from .graphs import Graph, PermGraph
from .mstrings import MString, render, repeat_position
from .report import WITNESS_CAP

CODE_SEARCH_VERTEX_CAP = 1000
CODE_SEARCH_NODE_BUDGET = 5_000_000


@dataclass
class Violation:
    kind: str  # wrong-count | non-unique-intersection | non-independent | distance
    where: tuple
    detail: tuple = ()


@dataclass
class DominationCertificate:
    candidate: frozenset
    ell: int
    violations: list[Violation] = field(default_factory=list)
    dominators: dict = field(default_factory=dict)
    min_internal_distance: Optional[int] = None
    truncated: bool = False

    @property
    def passed(self) -> bool:
        return not self.violations

    def add(self, kind: str, where: tuple, detail: tuple = ()) -> None:
        if len(self.violations) < WITNESS_CAP:
            self.violations.append(Violation(kind, where, detail))
        else:
            self.truncated = True


def certificate_to_json(cert: DominationCertificate) -> str:
    doc = {
        "set": sorted(render(v) for v in cert.candidate),
        "ell": cert.ell,
        "pass": cert.passed,
        "violations": [
            {
                "kind": v.kind,
                "where": [render(x) for x in v.where],
                "detail": [render(x) for x in v.detail],
            }
            for v in cert.violations
        ],
        "min_internal_distance": cert.min_internal_distance,
        "truncated": cert.truncated,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def se_set(g: PermGraph, i: int) -> frozenset:
    """S_i: all vertices whose first entry is the symbol i."""
    if not 0 <= i < g.params.k:
        raise ValueError(f"symbol {i} out of range [0, {g.params.k})")
    return frozenset(v for v in g.vertices if v[0] == i)


def sigma_set(g: PermGraph, i: int) -> frozenset:
    """Sigma_i: all vertices whose repeated first symbol sits at position i
    (ell = 2 only)."""
    if g.params.ell != 2:
        raise ValueError(f"sigma sets need ell = 2, got ell = {g.params.ell}")
    if not 1 <= i <= 2 * g.params.k - 1:
        raise ValueError(f"position {i} out of range [1, {2 * g.params.k - 1}]")
    return frozenset(v for v in g.vertices if repeat_position(v) == i)


def d_set(v: MString, s: Iterable, g: Graph) -> frozenset:
    """Dominators of v with respect to s: N(v) intersected with s."""
    s = frozenset(s)
    if v in s:
        raise ValueError(f"{render(v)} is a member of the candidate set")
    return frozenset(w for w in g.neighbors(v) if w in s)


def require_girth_above_three(g: Graph) -> None:
    if g.has_triangle():
        raise GirthPrecondition("graph contains a triangle; girth > 3 is required")


def _min_internal_distance(g: Graph, members: list[int]) -> Optional[int]:
    """Minimum pairwise distance inside a vertex set, by multi-source BFS
    keeping track of the owning source of each reached vertex."""
    if len(members) < 2:
        return None
    owner = {s: s for s in members}
    dist = {s: 0 for s in members}
    queue = deque(members)
    best: Optional[int] = None
    while queue:
        x = queue.popleft()
        if best is not None and dist[x] >= best:
            continue
        for y in g._adj[x]:
            if y not in owner:
                owner[y] = owner[x]
                dist[y] = dist[x] + 1
                queue.append(y)
            elif owner[y] != owner[x]:
                cand = dist[x] + dist[y] + 1
                if best is None or cand < best:
                    best = cand
    return best


def verify_efficient_domination(g: Graph, s: Iterable, ell: int) -> DominationCertificate:
    """Full certificate for the efficient dominating-ell set predicate.

    Raises GirthPrecondition on graphs with triangles (the K_5 exclusion);
    otherwise returns the certificate, passing iff no violations.
    """
    require_girth_above_three(g)
    sset = frozenset(s)
    for x in sset:
        g.index(x)  # raises on unknown labels
    cert = DominationCertificate(candidate=sset, ell=ell)
    member_idx = sorted(g.index(x) for x in sset)
    cert.min_internal_distance = _min_internal_distance(g, member_idx)

    nbr_sets = {v: set(g.neighbors(v)) for v in g.vertices}
    if ell == 1:
        for x in sorted(sset, key=g.index):
            for y in nbr_sets[x]:
                if y in sset and g.index(x) < g.index(y):
                    cert.add("non-independent", (x, y))
        if cert.min_internal_distance is not None and cert.min_internal_distance < 3:
            cert.add("distance", (), (cert.min_internal_distance,))

    for v in g.vertices:
        if v in sset:
            continue
        doms = frozenset(w for w in nbr_sets[v] if w in sset)
        cert.dominators[v] = doms
        if len(doms) != ell:
            cert.add("wrong-count", (v,), tuple(sorted(doms, key=g.index)))
            continue
        if ell > 1:
            common = None
            for u in doms:
                common = set(nbr_sets[u]) if common is None else common & nbr_sets[u]
            if common != {v}:
                cert.add("non-unique-intersection", (v,), tuple(sorted(common, key=g.index)))
            doms_sorted = sorted(doms, key=g.index)
            for a in range(len(doms_sorted)):
                for b in range(a + 1, len(doms_sorted)):
                    if doms_sorted[b] in nbr_sets[doms_sorted[a]]:
                        cert.add("non-independent", (doms_sorted[a], doms_sorted[b]), (v,))
    return cert


# ---------------------------------------------------------------------------
# partition / edge-cover structure of the SE- and Sigma-families
# ---------------------------------------------------------------------------


@dataclass
class PartitionReport:
    family: str
    is_partition: bool
    stars_are_k1l: bool
    double_cover_ok: bool
    per_symbol_edge_partition_ok: Optional[bool]
    memberships_per_member: dict
    expected_memberships: int
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        checks = [self.is_partition, self.stars_are_k1l, self.double_cover_ok]
        if self.per_symbol_edge_partition_ok is not None:
            checks.append(self.per_symbol_edge_partition_ok)
        checks.append(all(c == self.expected_memberships for c in self.memberships_per_member.values()))
        return all(checks) and not self.failures


def verify_partition_and_edge_cover(g: PermGraph, family: str = "SE") -> PartitionReport:
    """Partition and edge-cover structure of the SE- (or Sigma-) family.

    Checks: the sets partition the vertices; each dominator set induces a
    K_{1,ell} star (independent leaves); over all symbols i the dominator
    stars cover every edge exactly twice (the doubled-multigraph statement);
    for k = 2 the stars of a single i partition the edge set; and every
    member of S_i lies in exactly (k-1)*ell dominator sets, its degree.
    """
    if g.family.kind != "star":
        raise ValueError("partition structure is defined for star-family graphs")
    k, ell = g.params.k, g.params.ell
    if family == "SE":
        sets = [se_set(g, i) for i in range(k)]
        dom_ell = ell
    elif family in ("sigma", "Sigma"):
        sets = [sigma_set(g, i) for i in range(1, 2 * k)]
        dom_ell = 1
    else:
        raise ValueError(f"unknown family {family!r}")

    rep = PartitionReport(
        family=family,
        is_partition=True,
        stars_are_k1l=True,
        double_cover_ok=True,
        per_symbol_edge_partition_ok=(True if (family == "SE" and k == 2) else None),
        memberships_per_member={},
        expected_memberships=(k - 1) * ell if family == "SE" else 2 * (k - 1),
    )

    counts = {v: 0 for v in g.vertices}
    for sset in sets:
        for v in sset:
            counts[v] += 1
    if any(c != 1 for c in counts.values()):
        rep.is_partition = False
        rep.failures.append(("not-a-partition", [v for v, c in counts.items() if c != 1][:WITNESS_CAP]))

    edge_cover: dict = {}
    memberships: dict = {}
    for sset in sets:
        per_symbol_edges: dict = {}
        for v in g.vertices:
            if v in sset:
                continue
            doms = [w for w in g.neighbors(v) if w in sset]
            if len(doms) != dom_ell:
                rep.failures.append(("wrong-dominator-count", v, len(doms)))
                continue
            for a in range(len(doms)):
                for b in range(a + 1, len(doms)):
                    if g.has_edge(doms[a], doms[b]):
                        rep.stars_are_k1l = False
                        rep.failures.append(("dominators-adjacent", v, doms[a], doms[b]))
            for w in doms:
                memberships[w] = memberships.get(w, 0) + 1
                key = g.edge_key(v, w)
                edge_cover[key] = edge_cover.get(key, 0) + 1
                per_symbol_edges[key] = per_symbol_edges.get(key, 0) + 1
        if rep.per_symbol_edge_partition_ok is not None:
            all_edges = {(u, w) for u, w, _ in g.edges()}
            if set(per_symbol_edges) != all_edges or any(c != 1 for c in per_symbol_edges.values()):
                rep.per_symbol_edge_partition_ok = False

    all_edges = {(u, w) for u, w, _ in g.edges()}
    if set(edge_cover) != all_edges or any(c != 2 for c in edge_cover.values()):
        rep.double_cover_ok = False
        bad = [e for e in all_edges if edge_cover.get(e, 0) != 2]
        rep.failures.append(("edge-not-double-covered", bad[:WITNESS_CAP]))

    rep.memberships_per_member = memberships
    return rep


def verify_ei_avoidance(g: PermGraph, tc: TotalColoring) -> dict:
    """No color-i edge touches a Sigma_i vertex; color-(2k-1) vertices have
    equal first and last entries.  Returns per-color verdicts."""
    k = g.params.k
    out: dict = {"per_color": {}, "passed": True, "last_position_rationale": True}
    for i in range(1, 2 * k):
        sigma = sigma_set(g, i)
        bad = []
        for (u, v), c in tc.edge_colors.items():
            if c == i and (u in sigma or v in sigma):
                bad.append((u, v))
        out["per_color"][i] = {"passed": not bad, "witnesses": bad[:WITNESS_CAP]}
        if bad:
            out["passed"] = False
    last = 2 * k - 1
    for v in sigma_set(g, last):
        if v[0] != v[-1]:
            out["last_position_rationale"] = False
    return out


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
    for i, adj in enumerate(g._adj):
        for j in adj:
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


def oracle_check(g: Graph, s: Iterable, ell: int) -> bool:
    """Re-verify one candidate set through the oracle's bitmask predicate,
    independent of :func:`verify_efficient_domination`'s set arithmetic."""
    require_girth_above_three(g)
    in_mask = 0
    for x in s:
        in_mask |= 1 << g.index(x)
    return _is_code(_neighbor_masks(g), in_mask, g.n, ell)


def code_search(
    g: Graph,
    ell: int,
    vertex_cap: int = CODE_SEARCH_VERTEX_CAP,
    node_budget: int = CODE_SEARCH_NODE_BUDGET,
) -> list[frozenset]:
    """Every vertex set satisfying the efficient dominating-ell predicate.

    Complete backtracking over bitmask states with unit propagation: an
    outside vertex with ell dominators forces its undecided neighbors out,
    one that can only just reach ell forces them in, and for ell = 1 a
    member forces its neighbors out.  Results are deduplicated,
    deterministic, and re-checked by :func:`verify_efficient_domination`
    before being returned.
    """
    require_girth_above_three(g)
    n = g.n
    if n > vertex_cap:
        raise CapExceeded(f"code search capped at {vertex_cap} vertices, graph has {n}")
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

    def search(in_mask: int, out_mask: int) -> None:
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise CapExceeded(f"code search exceeded node budget {node_budget}")
        undecided = full & ~(in_mask | out_mask)
        if not undecided:
            if _is_code(nbr, in_mask, n, ell):
                solutions.add(in_mask)
            return
        v = (undecided & -undecided).bit_length() - 1
        for member in (True, False):
            res = apply(v, member, in_mask, out_mask)
            if res is not None:
                search(*res)

    search(0, 0)
    found = []
    for mask in sorted(solutions):
        labels = frozenset(g.vertices[i] for i in _bit_indices(mask))
        if verify_efficient_domination(g, labels, ell).passed:
            found.append(labels)
    return found
