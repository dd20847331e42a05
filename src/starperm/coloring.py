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
from itertools import product
from typing import Callable, Container, Iterable, Optional, Sequence

from .errors import CapExceeded
from .graphs import Graph, PermGraph
from .mstrings import list_assignment
from .report import WITNESS_CAP, keep_witnesses

#: The witness kinds of the efficiency flag.
EFFICIENCY_KINDS = ("not-regular-with-matching-palette", "non-rainbow-neighborhood")
#: Every witness kind, in the order a report lists them.
WITNESS_KINDS = ("adjacent-edges", "adjacent-vertices", "vertex-incident-edge", *EFFICIENCY_KINDS)


class TotalColoring:
    """A coloring of `graph`, held by vertex id over a shared palette.

    ``vertex_colors`` holds one color per vertex id, None for an edge
    coloring.  ``edge_colors`` maps each ascending id pair (i, j) to its
    color, None for the positional coloring, where an edge's color is its
    one label.  Labels go in through :meth:`from_labels` and come out
    through :meth:`vertex_color` and :meth:`edge_color`.
    """

    def __init__(
        self,
        graph: Graph,
        vertex_colors: Optional[Sequence[int]],
        edge_colors: Optional[dict[tuple[int, int], int]],
        palette: frozenset[int],
    ) -> None:
        self.graph, self.vertex_colors, self.edge_colors, self.palette = graph, vertex_colors, edge_colors, palette

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
        if self.vertex_colors is None:
            raise ValueError("an edge coloring has no vertex colors")
        return self.vertex_colors[self.graph.index(v)]

    def edge_color(self, u, v) -> int:
        """The color of the edge {u, v}; KeyError if it is not a colored edge."""
        g = self.graph
        i, j = sorted((g.index(u), g.index(v)))
        if (labels := g.label(i, j)) is None or (c := self.edge_color_reader()(i, j, labels)) is None:
            raise KeyError((u, v))
        return c

    def edge_color_reader(self) -> Callable[[int, int, tuple], Optional[int]]:
        """The color of the edge between vertex ids i < j carrying `labels`,
        None if it has none: its one label for the positional coloring,
        else read by id pair."""
        colors = self.edge_colors
        if colors is None:
            return lambda i, j, labels: labels[0]
        return lambda i, j, labels: colors.get((i, j))

    def restrict(self, keep: Sequence[int], drop: Container[tuple[int, int]] = ()) -> TotalColoring:
        """This coloring on ``graph.restrict(keep, drop)``: the vertex column
        sliced, the edge colors renumbered."""
        g, col, colors = self.graph.restrict(keep, drop), self.vertex_colors, self.edge_colors
        if col is not None:
            col = [col[x] for x in keep]
        if colors is not None:
            colors = {(i, j): c for i, j, _ in g.edge_ids() if (c := colors.get((keep[i], keep[j]))) is not None}
        return TotalColoring(g, col, colors, self.palette)


class ColoringReport:
    """Verdict flags, None where undecided, plus the first few violation
    witnesses."""

    def __init__(
        self,
        proper_edge: bool,
        proper_vertex: Optional[bool],
        no_incidence_clash: Optional[bool],
        efficient: Optional[bool],
        witnesses: list,
        truncated: bool,
    ) -> None:
        self.proper_edge, self.proper_vertex, self.no_incidence_clash = proper_edge, proper_vertex, no_incidence_clash
        self.efficient, self.truncated, self.witnesses = efficient, truncated, witnesses

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not ColoringReport:
            return NotImplemented
        return vars(self) == vars(other)

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
    # _set_rows interns a label tuple only when an edge carries it
    if any(len(labels) != 1 for labels in g.label_sets):
        i, j, labels = next(e for e in g.edge_ids() if len(e[2]) != 1)
        raise ValueError(f"edge ({g.vertices[i]}, {g.vertices[j]}) carries labels {labels}, want exactly one")
    return TotalColoring(g, None, None, frozenset(range(1, g.params.length)))


def sigma_total_coloring(g: PermGraph) -> TotalColoring:
    """The repeat-position total coloring of a 2-set star graph: the
    positional edge coloring, whose palette 1..2k-1 it shares, and the
    repeat-position column in place."""
    if g.params.ell != 2:
        raise ValueError(f"sigma coloring needs ell = 2, got ell = {g.params.ell}")
    palette = positional_edge_coloring(g).palette
    return TotalColoring(g, g.repeat_positions(), None, palette)


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


def verify_coloring(tc: TotalColoring) -> ColoringReport:
    """Check a coloring of its graph g in one scan of g's rows, with witnesses.

    Every edge must be colored, and properness of the edge colors is always
    decided.  For an edge coloring (no vertex colors) nothing more is
    decided.  Otherwise proper vertex colors, no vertex color on an incident edge, and efficiency are
    decided too: efficiency requires g regular of degree |palette| - 1 and
    every closed neighborhood rainbow over the full palette.
    """
    # The scan runs on vertex ids; labels are looked up only for witnesses.
    g, vcol, color = tc.graph, tc.vertex_colors, tc.edge_color_reader()
    verts, label_sets, total = g.vertices, g.label_sets, vcol is not None
    if total:
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

def choosability_suite(g: Graph, selection: Sequence[int]) -> bool:
    """Whether a selection, one color per vertex id (the coloring suite
    takes each from the vertex's list L(v)), is a proper vertex coloring
    of g.

    Lists disjoint across every edge (the coloring suite's own check) make
    any selection proper; the verdict here is the selection's alone.
    """
    return all(selection[i] != selection[j] for i, j, _ in g.edge_ids())


#: Most selections the obstruction check enumerates one by one; above it,
#: backtracking decides.
OBSTRUCTION_EXHAUSTIVE_CAP = 1 << 17
#: Most vertices of a 2-ball the obstruction check takes on.
OBSTRUCTION_BALL_CAP = 64


class ObstructionReport:
    """Outcome of the local no-efficient-list-coloring check at one vertex;
    `method` is "exhaustive" or "backtracking"."""

    def __init__(self, selection_count: int, method: str) -> None:
        self.selection_count, self.method, self.passed = selection_count, method, True
        self.witnesses: list = []
        self.counterexample: Optional[dict] = None


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
    # The ball is held by position; labels are looked up only for output.
    verts, ball = g.vertices, sorted(g.bfs_ids(0, limit=2))
    if len(ball) > OBSTRUCTION_BALL_CAP:
        raise CapExceeded(f"2-ball of {verts[0]} has {len(ball)} vertices, cap {OBSTRUCTION_BALL_CAP}")
    lists = [sorted(list_assignment(verts[x])) for x in ball]
    at = {x: p for p, x in enumerate(ball)}
    # ball positions p < q at distance <= 2 whose lists meet, ascending
    conflicts = [
        (p, q)
        for p, x in enumerate(ball)
        for q in sorted(at[y] for y in g.bfs_ids(x, limit=2) if at.get(y, -1) > p)
        if set(lists[p]).intersection(lists[q])
    ]

    total = 1
    for colors in lists:
        total *= len(colors)
    rep = ObstructionReport(total, "exhaustive" if total <= OBSTRUCTION_EXHAUSTIVE_CAP else "backtracking")

    if rep.method == "exhaustive":
        for sel in product(*lists):
            pair = next(((p, q) for p, q in conflicts if sel[p] == sel[q]), None)
            if pair is None:
                rep.passed = False
                rep.counterexample = {verts[x]: c for x, c in zip(ball, sel)}
                return rep
            keep_witnesses(rep.witnesses, [(verts[ball[pair[0]]], verts[ball[pair[1]]], sel[pair[0]])])
        return rep

    adj: list[list[int]] = [[] for _ in ball]
    for p, q in conflicts:
        adj[p].append(q)
        adj[q].append(p)
    chosen: list[Optional[int]] = [None] * len(ball)

    def free_selection(p: int) -> bool:
        # on False, positions p.. are left unchosen
        if p == len(ball):
            return True
        for c in lists[p]:
            if any(chosen[q] == c for q in adj[p]):
                continue
            chosen[p] = c
            if free_selection(p + 1):
                return True
        chosen[p] = None
        return False

    if free_selection(0):
        rep.passed = False
        rep.counterexample = {verts[x]: c for x, c in zip(ball, chosen)}
    return rep
