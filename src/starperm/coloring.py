"""Vertex, edge and total colorings of permutation graphs, with verifiers.

Two constructions:

* the positional edge coloring of a star graph, where the edge obtained
  by transposing positions 0 and j is colored j (colors 1..k*ell-1), which
  is proper because distinct positions give distinct neighbors;
* for ell = 2 the repeat-position total coloring: each vertex is colored by
  the position of the second copy of its first symbol, edges positionally.
  On 2k-1 colors this is total and efficient (every closed neighborhood is
  rainbow over the whole palette).

A coloring is held by vertex id on the graph it colors; labels appear only
where a coloring is given by hand (:meth:`TotalColoring.from_labels`, as
for the reference K_{2n+1}) and in witnesses.

Efficiency here is the closed-neighborhood rainbow property of a d-regular
graph totally colored with d+1 colors.  The verifiers report typed violation
witnesses instead of raising, capped at WITNESS_CAP.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from itertools import product
from typing import Callable, Iterable, Optional, Sequence

from .errors import CapExceeded
from .graphs import Graph, PermGraph
from .mstrings import MString, list_assignment
from .report import WITNESS_CAP, keep_witnesses

#: The witness kinds of the efficiency flag.
EFFICIENCY_KINDS = ("not-regular-with-matching-palette", "non-rainbow-neighborhood")
#: Every witness kind, in the order a report lists them.
WITNESS_KINDS = ("adjacent-edges", "adjacent-vertices", "vertex-incident-edge", *EFFICIENCY_KINDS)


@dataclass(frozen=True)
class TotalColoring:
    """A coloring of `graph`, held by vertex id over a shared palette.

    ``vertex_colors`` holds one color per vertex id, None for an edge
    coloring.  ``edge_colors`` maps each ascending id pair (i, j) to its
    color, None for the positional coloring, where an edge's color is its
    one label.  Labels go in through :meth:`from_labels` and come out
    through :meth:`vertex_color` and :meth:`edge_color`.
    """

    graph: Graph
    vertex_colors: Optional[Sequence[int]] = field(hash=False)
    edge_colors: Optional[dict[tuple[int, int], int]] = field(hash=False)
    palette: frozenset[int]

    @classmethod
    def from_labels(cls, g: Graph, vertex_colors: Mapping, edge_colors: Mapping, palette: Iterable[int]) -> TotalColoring:
        """A coloring of g given by labels: vertex -> color, empty for an edge
        coloring, and (u, v) -> color, either way round.  ValueError for a
        label not in g, a pair that is no edge of g or a vertex left
        uncolored."""
        vcol = None
        if vertex_colors:
            vcol = [None] * g.n
            for v, c in vertex_colors.items():
                vcol[g.index(v)] = c
            if None in vcol:
                raise ValueError(f"uncolored vertex {g.vertices[vcol.index(None)]!r}")
        ecol = {}
        for (u, v), c in edge_colors.items():
            i, j = sorted((g.index(u), g.index(v)))
            if g.label(i, j) is None:
                raise ValueError(f"unknown edge ({u!r}, {v!r})")
            ecol[(i, j)] = c
        return cls(g, vcol, ecol, frozenset(palette))

    def vertex_color(self, v) -> int:
        return self.vertex_colors[self.graph.index(v)]

    def edge_color(self, u, v) -> int:
        """The color of the edge {u, v}; KeyError if it is not a colored edge."""
        g = self.graph
        i, j = sorted((g.index(u), g.index(v)))
        if (labels := g.label(i, j)) is None or (c := self.edge_color_reader(g)(i, j, labels)) is None:
            raise KeyError((u, v))
        return c

    def vertex_colors_by_id(self, g: Graph) -> Sequence[int]:
        """g's vertex colors by vertex id: the column in place when g is the
        colored graph, else read once by label through it."""
        if g is self.graph:
            return self.vertex_colors
        return [self.vertex_color(v) for v in g.vertices]

    def edge_color_reader(self, g: Graph) -> Callable[[int, int, tuple], Optional[int]]:
        """The color of g's edge between vertex ids i < j carrying `labels`,
        None if it has none.  The positional coloring of g, or of a graph g
        was cut from (sharing its label sets), answers from the labels in
        place, and the colored graph itself from its id pairs; any other g is
        read by its endpoints' labels through the colored graph."""
        own, colors = self.graph, self.edge_colors
        if colors is None and g.label_sets is own.label_sets:
            return lambda i, j, labels: labels[0]
        if g is own:
            return lambda i, j, labels: colors.get((i, j))
        verts, index = g.vertices, own.index

        def color(i: int, j: int, labels: tuple) -> Optional[int]:
            a, b = sorted((index(verts[i]), index(verts[j])))
            if colors is not None:
                return colors.get((a, b))
            own_labels = own.label(a, b)
            return None if own_labels is None else own_labels[0]

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


def positional_edge_coloring(g: PermGraph) -> TotalColoring:
    """The edge coloring of g by transposition position, read in place from
    g's edge labels.  Star family only: properness needs one generator
    position per edge."""
    if not isinstance(g, PermGraph) or g.family.kind != "star":
        raise ValueError("positional edge coloring is defined for star-family graphs")
    for i, j, labels in g.edge_ids():
        if len(labels) != 1:
            raise ValueError(f"edge ({g.vertices[i]}, {g.vertices[j]}) carries labels {labels}, want exactly one")
    return TotalColoring(g, None, None, frozenset(range(1, g.params.length)))


def sigma_total_coloring(g: PermGraph) -> TotalColoring:
    """The repeat-position total coloring of a 2-set star graph: the
    positional edge coloring, whose palette 1..2k-1 it shares, and the
    repeat-position column in place."""
    if g.params.ell != 2:
        raise ValueError(f"sigma coloring needs ell = 2, got ell = {g.params.ell}")
    return replace(positional_edge_coloring(g), vertex_colors=g.repeat_positions())


def build_odd_complete_colored(n: int) -> tuple[Graph, TotalColoring]:
    """K_{2n+1} with its cyclic total coloring.

    Vertex j gets color j; the edge {j-i, j+i} (mod 2n+1) gets color j for
    0 < i <= n.  The coloring is total and efficient on 2n+1 colors.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    order = 2 * n + 1
    edge_colors = {((j - i) % order, (j + i) % order): j for j in range(order) for i in range(1, n + 1)}
    g = Graph(range(order), edge_colors)
    return g, TotalColoring.from_labels(g, {j: j for j in range(order)}, edge_colors, range(order))


def verify_coloring(g: Graph, tc: TotalColoring) -> ColoringReport:
    """Check a coloring of g in one scan of its rows, with witnesses.

    Every edge must be colored, and properness of the edge colors is always
    decided.  For an edge coloring (no vertex colors) nothing more is
    decided.  Otherwise proper vertex colors, no vertex color on an incident edge, and efficiency are
    decided too: efficiency requires g regular of degree |palette| - 1 and
    every closed neighborhood rainbow over the full palette.
    """
    # The scan runs on vertex ids; labels are looked up only for witnesses.
    verts, label_sets, color = g.vertices, g.label_sets, tc.edge_color_reader(g)
    total = tc.vertex_colors is not None
    if total:
        vcol = tc.vertex_colors_by_id(g)
        shape, degs = g.regularity()
        regular = shape == "regular" and degs[0] + 1 == len(tc.palette)
    # One buffer per witness kind, each capped; joined in WITNESS_KINDS order.
    kept: dict[str, list] = {kind: [] for kind in WITNESS_KINDS}
    found = dict.fromkeys(WITNESS_KINDS, 0)

    def add(kind: str, *items) -> None:
        found[kind] += 1
        keep_witnesses(kept[kind], [(kind, *items)])

    if total and not regular:
        add("not-regular-with-matching-palette", shape, list(degs), len(tc.palette))
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
            add("non-rainbow-neighborhood", verts[x], sorted(closed))

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
    """Apply the selector to every list and return whether the resulting
    vertex coloring is proper, with the coloring.

    Lists disjoint across every edge (the coloring suite's own check) make
    any selection proper; the verdict here is the selection's alone.
    """
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

    selection_count: int
    method: str  # "exhaustive" or "backtracking"
    passed: bool
    witnesses: list = field(default_factory=list)
    counterexample: Optional[dict] = None


def efficiency_obstruction_witness(g: PermGraph) -> ObstructionReport:
    """Show that no list selection on the distance-2 ball of g's first
    vertex v keeps all color classes at pairwise distance >= 3.

    One centre decides every centre: symbol permutations, and permutations
    of the positions 1.. with the colors renamed alike, are automorphisms
    of g that carry each vertex's list to its image's list, and together
    they act transitively on the vertices.

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
    v = g.vertices[0]
    dist_v = g.bfs_distances(v, limit=2)
    ball = sorted(dist_v, key=g.index)
    if len(ball) > OBSTRUCTION_BALL_CAP:
        raise CapExceeded(f"2-ball of {v} has {len(ball)} vertices, cap {OBSTRUCTION_BALL_CAP}")
    lists = {x: sorted(list_assignment(x)) for x in ball}

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
    rep = ObstructionReport(selection_count=total, method="", passed=True)

    if total <= OBSTRUCTION_EXHAUSTIVE_CAP:
        rep.method = "exhaustive"
        for choice in product(*(lists[x] for x in ball)):
            sel = dict(zip(ball, choice))
            pair = next(((x, y) for x, y in conflicts if sel[x] == sel[y]), None)
            if pair is None:
                rep.passed = False
                rep.counterexample = sel
                return rep
            keep_witnesses(rep.witnesses, [(pair[0], pair[1], sel[pair[0]])])
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
