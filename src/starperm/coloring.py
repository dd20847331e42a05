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
witnesses instead of raising, capped at WITNESS_CAP.
"""

from __future__ import annotations

from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Optional, Sequence

from .errors import CapExceeded
from .graphs import Graph, PermGraph
from .mstrings import MString, list_assignment
from .report import WITNESS_CAP

#: The witness kinds of the efficiency flag.
EFFICIENCY_KINDS = ("not-regular-with-matching-palette", "non-rainbow-neighborhood")
#: Every witness kind, in the order a report lists them.
WITNESS_KINDS = ("adjacent-edges", "adjacent-vertices", "vertex-incident-edge", *EFFICIENCY_KINDS)


@dataclass(frozen=True)
class TotalColoring:
    """Vertex and edge color assignments over a shared palette.

    Edge keys are (u, v) pairs ordered by the graph's canonical vertex
    order; use :meth:`edge_color` to look an edge up either way around.
    """

    vertex_colors: Mapping = field(hash=False)
    edge_colors: Mapping = field(hash=False)
    palette: frozenset[int] = frozenset()

    def edge_color(self, u, v) -> int:
        c = self.edge_colors.get((u, v))
        return self.edge_colors[(v, u)] if c is None else c

    def vertex_class(self, color: int) -> frozenset:
        return frozenset(v for v, c in self.vertex_colors.items() if c == color)

    def vertex_colors_by_id(self, g: Graph) -> Sequence[int]:
        """g's vertex colors by vertex id: its own repeat-position column in
        place, else a list read once from the mapping (ValueError if partial)."""
        colors = self.vertex_colors
        if isinstance(colors, _VertexColumn) and colors._g is g:
            return colors._column
        vcol = [colors.get(v) for v in g.vertices]
        if None in vcol:
            raise ValueError(f"uncolored vertex {g.vertices[vcol.index(None)]!r}")
        return vcol

    def edge_color_reader(self, g: Graph) -> Callable[[int, int, tuple], Optional[int]]:
        """The color of g's edge between vertex ids i < j carrying `labels`,
        None if it has none.  The positional coloring of g, or of a graph g
        was cut from (sharing its label sets), answers from the labels in
        place; any other is looked up by the endpoints' labels."""
        colors = self.edge_colors
        if isinstance(colors, _PositionalColors) and colors._g.label_sets is g.label_sets:
            return lambda i, j, labels: labels[0]
        verts = g.vertices

        def color(i: int, j: int, labels: tuple) -> Optional[int]:
            u, v = verts[i], verts[j]
            c = colors.get((u, v))
            return colors.get((v, u)) if c is None else c

        return color


@dataclass
class ColoringReport:
    """Verdict flags, None where undecided, plus the first few violation
    witnesses."""

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
        """No decided flag is False."""
        flags = (self.proper_edge, self.proper_vertex, self.no_incidence_clash, self.efficient)
        return all(f is not False for f in flags)


class _InPlace(Mapping):
    """A read-only mapping read in place from a graph.  Subclasses give
    ``get``, which raises no KeyError, and ``_items``, the (key, value)
    pairs in canonical order."""

    def __getitem__(self, key):
        if (value := self.get(key)) is None:
            raise KeyError(key)
        return value

    def __contains__(self, key) -> bool:
        return self.get(key) is not None

    def __iter__(self):
        return (key for key, _ in self._items())

    def items(self):
        return _Items(self)

    def values(self):
        return _Values(self)


class _Items(ItemsView):
    def __iter__(self):
        return self._mapping._items()


class _Values(ValuesView):
    def __iter__(self):
        return (value for _, value in self._mapping._items())


class _PositionalColors(_InPlace):
    """A star graph's edge labels: canonical (u, v) pairs, in ``g.edges()``
    order, to the edge's one label."""

    def __init__(self, g: PermGraph) -> None:
        self._g = g

    def get(self, key, default=None):
        if type(key) is tuple and len(key) == 2:
            find = self._g.vertices.find
            iu, iv = find(key[0]), find(key[1])
            if 0 <= iu < iv and (labels := self._g.label(iu, iv)) is not None:
                return labels[0]
        return default

    def _items(self):
        return (((u, v), labels[0]) for u, v, labels in self._g.edges())

    def __len__(self) -> int:
        return self._g.m


class _VertexColumn(_InPlace):
    """A per-vertex column of a permutation graph, by vertex id, read as
    vertex label -> value."""

    def __init__(self, g: PermGraph, column: bytes) -> None:
        self._g, self._column = g, column

    def get(self, v, default=None):
        i = self._g.vertices.find(v)
        return self._column[i] if i >= 0 else default

    def _items(self):
        return zip(self._g.vertices, self._column)

    def __len__(self) -> int:
        return self._g.n


def positional_edge_coloring(g: PermGraph) -> Mapping:
    """Edge -> transposition position, a read-only view of g's edge labels.
    Star family only: properness needs one generator position per edge."""
    if not isinstance(g, PermGraph) or g.family.kind != "star":
        raise ValueError("positional edge coloring is defined for star-family graphs")
    for i, j, labels in g.edge_ids():
        if len(labels) != 1:
            raise ValueError(f"edge ({g.vertices[i]}, {g.vertices[j]}) carries labels {labels}, want exactly one")
    return _PositionalColors(g)


def sigma_total_coloring(g: PermGraph) -> TotalColoring:
    """The repeat-position total coloring of a 2-set star graph."""
    if g.params.ell != 2:
        raise ValueError(f"sigma coloring needs ell = 2, got ell = {g.params.ell}")
    edge_colors = positional_edge_coloring(g)
    vertex_colors = _VertexColumn(g, g.repeat_positions())
    palette = frozenset(range(1, 2 * g.params.k))
    return TotalColoring(vertex_colors, edge_colors, palette)


def verify_coloring(g: Graph, tc: TotalColoring) -> ColoringReport:
    """Check a coloring of g in one scan of its rows, with witnesses.

    Every edge must be colored, and properness of the edge colors is always
    decided.  An empty vertex mapping makes tc an edge coloring, and nothing
    more is decided.  Otherwise every vertex must be colored, and proper
    vertex colors, no vertex color on an incident edge, and efficiency are
    decided too: efficiency requires g regular of degree |palette| - 1 and
    every closed neighborhood rainbow over the full palette.
    """
    # The scan runs on vertex ids; labels are looked up only for witnesses.
    verts, label_sets, color = g.vertices, g.label_sets, tc.edge_color_reader(g)
    total = bool(tc.vertex_colors)
    if total:
        vcol = tc.vertex_colors_by_id(g)
        shape, degs = g.regularity()
        regular = shape == "regular" and degs[0] + 1 == len(tc.palette)
    # One buffer per witness kind, each capped; joined in WITNESS_KINDS order.
    kept: dict[str, list] = {kind: [] for kind in WITNESS_KINDS}
    found = dict.fromkeys(WITNESS_KINDS, 0)

    def add(kind: str, *items) -> None:
        found[kind] += 1
        if found[kind] <= WITNESS_CAP:
            kept[kind].append((kind,) + items)

    if total and not regular:
        add("not-regular-with-matching-palette", shape, degs, len(tc.palette))
    for x in range(g.n):
        seen: dict[int, int] = {}
        closed = {vcol[x]} if total else None
        for y, lid in g.labeled_row(x):
            i, j = (x, y) if x < y else (y, x)
            c = color(i, j, label_sets[lid])
            if c is None:
                raise ValueError(f"uncolored edge ({verts[i]!r}, {verts[j]!r})")
            if c in seen:
                add("adjacent-edges", verts[x], verts[seen[c]], verts[y], c)
            else:
                seen[c] = y
            if not total:
                continue
            closed.add(vcol[y])
            if x < y:  # each edge once, from its lower end
                if vcol[x] == vcol[y]:
                    add("adjacent-vertices", verts[x], verts[y], vcol[x])
                for z in (x, y):
                    if vcol[z] == c:
                        add("vertex-incident-edge", verts[z], (verts[x], verts[y]), c)
        if total and regular and closed != tc.palette:
            add("non-rainbow-neighborhood", verts[x], tuple(sorted(closed)))

    def decided(*kinds: str) -> Optional[bool]:
        return not any(found[kind] for kind in kinds) if total else None

    return ColoringReport(
        proper_edge=not found["adjacent-edges"],
        proper_vertex=decided("adjacent-vertices"),
        no_incidence_clash=decided("vertex-incident-edge"),
        efficient=decided(*EFFICIENCY_KINDS),
        witnesses=[w for kind in WITNESS_KINDS for w in kept[kind]][:WITNESS_CAP],
        truncated=sum(found.values()) > WITNESS_CAP,
    )


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


#: Most selections the obstruction check enumerates one by one; above it,
#: backtracking decides.
OBSTRUCTION_EXHAUSTIVE_CAP = 1 << 17
#: Most vertices of a 2-ball the obstruction check takes on.
OBSTRUCTION_BALL_CAP = 64


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


def efficiency_obstruction_witness(g: PermGraph, v: MString) -> ObstructionReport:
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
    if len(ball) > OBSTRUCTION_BALL_CAP:
        raise CapExceeded(f"2-ball of {v} has {len(ball)} vertices, cap {OBSTRUCTION_BALL_CAP}")
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

    if total <= OBSTRUCTION_EXHAUSTIVE_CAP:
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
