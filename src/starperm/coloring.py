"""Vertex, edge and total colorings of permutation graphs, with verifiers.

Two constructions:

* the positional edge coloring of a star graph, where the edge obtained
  by transposing positions 0 and j is colored j (colors 1..k*ell-1), which
  is proper because distinct positions give distinct neighbors;
* for ell = 2 the repeat-position total coloring: each vertex is colored by
  the position of the second copy of its first symbol, edges positionally.
  On 2k-1 colors this is total and efficient (every closed neighborhood is
  rainbow over the whole palette).

Efficiency here is the closed-neighborhood rainbow property of a d-regular
graph totally colored with d+1 colors.  The verifiers report typed violation
witnesses instead of raising, capped at WITNESS_CAP per mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Optional

from .errors import CapExceeded
from .graphs import Graph, PermGraph
from .mstrings import MString, list_assignment, repeat_position
from .report import WITNESS_CAP

MODES = ("proper-edge", "proper-vertex", "total", "efficient")


@dataclass(frozen=True)
class TotalColoring:
    """Vertex and edge color assignments over a shared palette.

    Edge keys are (u, v) pairs ordered by the graph's canonical vertex
    order; use :meth:`edge_color` to look an edge up either way around.
    """

    vertex_colors: dict = field(hash=False)
    edge_colors: dict = field(hash=False)
    palette: frozenset[int] = frozenset()

    def edge_color(self, u, v) -> int:
        if (u, v) in self.edge_colors:
            return self.edge_colors[(u, v)]
        return self.edge_colors[(v, u)]

    def vertex_class(self, color: int) -> frozenset:
        return frozenset(v for v, c in self.vertex_colors.items() if c == color)

    def edge_class(self, color: int) -> frozenset:
        return frozenset(e for e, c in self.edge_colors.items() if c == color)


@dataclass
class ColoringReport:
    """Verdict flags plus the first few violation witnesses per flag."""

    mode: str
    proper_edge: Optional[bool] = None
    proper_vertex: Optional[bool] = None
    no_incidence_clash: Optional[bool] = None
    efficient: Optional[bool] = None
    witnesses: list = field(default_factory=list)
    truncated: bool = False

    @property
    def total(self) -> Optional[bool]:
        flags = (self.proper_edge, self.proper_vertex, self.no_incidence_clash)
        if any(f is None for f in flags):
            return None
        return all(flags)

    @property
    def passed(self) -> bool:
        if self.mode == "proper-edge":
            return bool(self.proper_edge)
        if self.mode == "proper-vertex":
            return bool(self.proper_vertex)
        if self.mode == "total":
            return bool(self.total)
        return bool(self.total) and bool(self.efficient)

    def _add(self, kind: str, *items) -> None:
        if len(self.witnesses) < WITNESS_CAP:
            self.witnesses.append((kind,) + items)
        else:
            self.truncated = True


def positional_edge_coloring(g: PermGraph) -> dict:
    """Edge -> transposition position.  Star family only: properness relies
    on each edge being realized by exactly one generator position."""
    if not isinstance(g, PermGraph) or g.family.kind != "star":
        raise ValueError("positional edge coloring is defined for star-family graphs")
    colors = {}
    for u, v, labels in g.edges():
        if len(labels) != 1:
            raise ValueError(f"edge ({u}, {v}) carries labels {labels}, want exactly one")
        colors[(u, v)] = labels[0]
    return colors


def sigma_total_coloring(g: PermGraph) -> TotalColoring:
    """The repeat-position total coloring of a 2-set star graph."""
    if g.params.ell != 2:
        raise ValueError(f"sigma coloring needs ell = 2, got ell = {g.params.ell}")
    edge_colors = positional_edge_coloring(g)
    vertex_colors = {v: repeat_position(v) for v in g.vertices}
    palette = frozenset(range(1, 2 * g.params.k))
    return TotalColoring(vertex_colors, edge_colors, palette)


def verify_coloring(g: Graph, tc: TotalColoring, mode: str = "total") -> ColoringReport:
    """Check properness / totality / efficiency, with witnesses.

    "efficient" additionally requires g regular of degree |palette| - 1 and
    every closed neighborhood rainbow over the full palette.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    rep = ColoringReport(mode=mode)
    for v in g.vertices:
        if v not in tc.vertex_colors:
            raise ValueError(f"uncolored vertex {v!r}")
    for u, v, _ in g.edges():
        if (u, v) not in tc.edge_colors and (v, u) not in tc.edge_colors:
            raise ValueError(f"uncolored edge ({u!r}, {v!r})")

    if mode in ("proper-edge", "total", "efficient"):
        rep.proper_edge = True
        for x in g.vertices:
            seen: dict[int, object] = {}
            for y in g.neighbors(x):
                c = tc.edge_color(x, y)
                if c in seen:
                    rep.proper_edge = False
                    rep._add("adjacent-edges", x, seen[c], y, c)
                else:
                    seen[c] = y

    if mode in ("proper-vertex", "total", "efficient"):
        rep.proper_vertex = True
        for u, v, _ in g.edges():
            if tc.vertex_colors[u] == tc.vertex_colors[v]:
                rep.proper_vertex = False
                rep._add("adjacent-vertices", u, v, tc.vertex_colors[u])

    if mode in ("total", "efficient"):
        rep.no_incidence_clash = True
        for u, v, _ in g.edges():
            c = tc.edge_color(u, v)
            for x in (u, v):
                if tc.vertex_colors[x] == c:
                    rep.no_incidence_clash = False
                    rep._add("vertex-incident-edge", x, (u, v), c)

    if mode == "efficient":
        rep.efficient = True
        kind, degs = g.regularity()
        if kind != "regular" or degs[0] + 1 != len(tc.palette):
            rep.efficient = False
            rep._add("not-regular-with-matching-palette", kind, degs, len(tc.palette))
        else:
            for v in g.vertices:
                closed = {tc.vertex_colors[v]}
                closed.update(tc.vertex_colors[w] for w in g.neighbors(v))
                if closed != set(tc.palette):
                    rep.efficient = False
                    rep._add("non-rainbow-neighborhood", v, tuple(sorted(closed)))
    return rep


# ---------------------------------------------------------------------------
# list colorings / choosability
# ---------------------------------------------------------------------------

Selector = Callable[[MString, frozenset[int]], int]


def min_selector(v: MString, colors: frozenset[int]) -> int:
    return min(colors)


def max_selector(v: MString, colors: frozenset[int]) -> int:
    return max(colors)


def choosability_suite(g: PermGraph, selector: Selector) -> tuple[bool, dict]:
    """Check L(v) and L(w) are disjoint across every edge, then apply the
    selector and verify the resulting vertex coloring is proper.

    Disjointness makes any selector proper, so the boolean comes back True
    unless the graph itself breaks the claim.
    """
    for u, v, _ in g.edges():
        if list_assignment(u) & list_assignment(v):
            return False, {}
    chosen = {}
    for v in g.vertices:
        colors = list_assignment(v)
        c = selector(v, colors)
        if c not in colors:
            raise ValueError(f"selector chose {c} outside L({v}) = {sorted(colors)}")
        chosen[v] = c
    proper = all(chosen[u] != chosen[v] for u, v, _ in g.edges())
    return proper, chosen


@dataclass
class ObstructionReport:
    """Outcome of the local no-efficient-list-coloring check at one vertex."""

    center: MString
    ball: tuple
    selection_count: int
    method: str  # "exhaustive" or "backtracking"
    passed: bool
    #: distance-2 vertices sharing the center's first symbol with exactly one
    #: differing entry among positions 1..ell-1 (the pigeonhole population)
    form_vertex_count: int = 0
    witnesses: list = field(default_factory=list)
    counterexample: Optional[dict] = None
    truncated: bool = False


def efficiency_obstruction_witness(
    g: PermGraph,
    v: MString,
    exhaustive_cap: int = 1 << 17,
    ball_cap: int = 64,
) -> ObstructionReport:
    """Show that no list selection on the distance-2 ball of v keeps all
    color classes at pairwise distance >= 3.

    Every selection must contain two same-colored vertices at distance <= 2
    (distance measured in the whole graph).  Small balls are enumerated
    exhaustively, recording a monochromatic witness pair per selection;
    larger ones are settled by complete backtracking over the conflict
    graph, which either proves no collision-free selection exists (pass) or
    returns one as a counterexample (fail).
    """
    ell = g.params.ell
    if ell < 3:
        raise ValueError(f"obstruction check needs ell >= 3, got ell = {ell}")
    dist_v = g.bfs_distances(v, limit=2)
    ball = sorted(dist_v, key=g.index)
    if len(ball) > ball_cap:
        raise CapExceeded(f"2-ball of {v} has {len(ball)} vertices, cap {ball_cap}")
    lists = {x: sorted(list_assignment(x)) for x in ball}

    form = [
        w
        for w, d in dist_v.items()
        if d == 2
        and w[0] == v[0]
        and sum(1 for i in range(1, ell) if w[i] != v[0]) == 1
    ]

    near: dict[MString, set[MString]] = {x: set() for x in ball}
    for x in ball:
        for y, d in g.bfs_distances(x, limit=2).items():
            if y in near and y != x and d <= 2:
                near[x].add(y)
    conflicts = [
        (x, y)
        for i, x in enumerate(ball)
        for y in ball[i + 1 :]
        if y in near[x] and set(lists[x]) & set(lists[y])
    ]

    total = 1
    for x in ball:
        total *= len(lists[x])
    rep = ObstructionReport(center=v, ball=tuple(ball), selection_count=total, method="", passed=True)
    rep.form_vertex_count = len(form)

    if total <= exhaustive_cap:
        rep.method = "exhaustive"
        for choice in product(*(lists[x] for x in ball)):
            sel = dict(zip(ball, choice))
            pair = next(((x, y) for x, y in conflicts if sel[x] == sel[y]), None)
            if pair is None:
                rep.passed = False
                rep.counterexample = sel
                return rep
            if len(rep.witnesses) < WITNESS_CAP:
                rep.witnesses.append((pair[0], pair[1], sel[pair[0]]))
            else:
                rep.truncated = True
        return rep

    rep.method = "backtracking"
    adj: dict[MString, list[MString]] = {x: [] for x in ball}
    for x, y in conflicts:
        adj[x].append(y)
        adj[y].append(x)
    assignment: dict[MString, int] = {}

    def free_selection(pos: int) -> bool:
        if pos == len(ball):
            return True
        x = ball[pos]
        for c in lists[x]:
            if any(assignment.get(y) == c for y in adj[x]):
                continue
            assignment[x] = c
            if free_selection(pos + 1):
                return True
            del assignment[x]
        return False

    if free_selection(0):
        rep.passed = False
        rep.counterexample = dict(assignment)
    return rep
