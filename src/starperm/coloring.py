"""Vertex, edge and total colorings of permutation graphs, with verifiers.

Two constructions:

* the positional edge coloring of a star graph, where the edge obtained
  by transposing positions 0 and j is colored j (colors 1..k*ell-1), which
  is proper because distinct positions give distinct neighbors;
* for ell = 2 the repeat-position total coloring: each vertex is colored by
  the position of the second copy of its first symbol, edges positionally.
  On 2k-1 colors this is total and efficient (every closed neighborhood is
  rainbow over the whole palette).

A coloring is held by vertex id on the graph it colors, and an edge's color
is its one label; vertex labels appear only in witnesses.  A coloring by
hand is a graph whose edge labels are the colors, plus a vertex column.

Efficiency here is the closed-neighborhood rainbow property of a d-regular
graph totally colored with d+1 colors.  The verifiers report typed violation
witnesses instead of raising, capped at WITNESS_CAP.
"""

from __future__ import annotations

from math import prod
from typing import Container, Iterator, Optional, Sequence

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
    coloring.  An edge's color is its one label, so the graph must carry
    exactly one label per edge: ``graph.label(i, j)[0]``.
    """

    def __init__(self, graph: Graph, vertex_colors: Optional[Sequence[int]], palette: frozenset[int]) -> None:
        # a restriction shares its parent's label sets, so an edge names the bad one
        if any(len(labels) != 1 for labels in graph.label_sets):
            for i, j, labels in graph.edge_ids():
                if len(labels) != 1:
                    raise ValueError(f"edge ({graph.vertices[i]}, {graph.vertices[j]}) carries labels {labels}, want exactly one")
        if vertex_colors is not None and len(vertex_colors) != graph.n:
            raise ValueError(f"{len(vertex_colors)} vertex colors for a graph of {graph.n} vertices")
        self.graph, self.vertex_colors, self.palette = graph, vertex_colors, palette

    def restrict(self, keep: Sequence[int], drop: Container[tuple[int, int]] = ()) -> TotalColoring:
        """This coloring on ``graph.restrict(keep, drop)``: the vertex column
        sliced, the edges keeping their labels."""
        col = self.vertex_colors
        return TotalColoring(self.graph.restrict(keep, drop), None if col is None else [col[x] for x in keep], self.palette)


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
    ) -> None:
        self.proper_edge, self.proper_vertex, self.no_incidence_clash = proper_edge, proper_vertex, no_incidence_clash
        self.efficient, self.witnesses = efficient, witnesses

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
    return TotalColoring(g, None, frozenset(range(1, g.params.length)))


def sigma_total_coloring(g: PermGraph) -> TotalColoring:
    """The repeat-position total coloring of a 2-set star graph: the
    positional edge coloring, whose palette 1..2k-1 it shares, and the
    repeat-position column in place."""
    if g.params.ell != 2:
        raise ValueError(f"sigma coloring needs ell = 2, got ell = {g.params.ell}")
    palette = positional_edge_coloring(g).palette
    return TotalColoring(g, g.repeat_positions(), palette)


def verify_coloring(tc: TotalColoring) -> ColoringReport:
    """Check a coloring of its graph g in one scan of g's rows, with witnesses.

    Properness of the edge colors is always decided.  For an edge coloring
    (no vertex colors) nothing more is decided.  Otherwise proper vertex
    colors, no vertex color on an incident edge, and efficiency are decided
    too: efficiency requires g regular of degree |palette| - 1 and every
    closed neighborhood rainbow over the full palette.
    """
    # The scan runs on vertex ids; vertex labels are looked up only for witnesses.
    g, vcol = tc.graph, tc.vertex_colors
    verts, labeled_row, total = g.vertices, g.labeled_row, vcol is not None
    position = [labels[0] for labels in g.label_sets]  # an edge's one label, by label id
    if total:
        shape, degs = g.regularity()
        regular = shape == "regular" and degs[0] + 1 == len(tc.palette)
    # One buffer per witness kind, each capped; joined in WITNESS_KINDS order.
    kept: dict[str, list] = {kind: [] for kind in WITNESS_KINDS}

    def add(kind: str, *items) -> None:
        keep_witnesses(kept[kind], [(kind, *items)])

    if total and not regular:
        add("not-regular-with-matching-palette", shape, list(degs), len(tc.palette))
    for x in range(g.n):
        seen: dict[int, int] = {}
        closed = {vcol[x]} if total else None
        for y, lid in labeled_row(x):
            c = position[lid]
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

    def decided(*kinds: str) -> Optional[bool]:  # a kind's buffer keeps its first witness
        return not any(kept[kind] for kind in kinds) if total else None

    return ColoringReport(
        proper_edge=not kept["adjacent-edges"],
        proper_vertex=decided("adjacent-vertices"),
        no_incidence_clash=decided("vertex-incident-edge"),
        efficient=decided(*EFFICIENCY_KINDS),
        witnesses=[w for kind in WITNESS_KINDS for w in kept[kind]][:WITNESS_CAP],
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


#: Most color placements the obstruction search makes before it gives up.
OBSTRUCTION_NODE_BUDGET = 10**6


class ObstructionReport:
    """Outcome of the local no-efficient-list-coloring check at one vertex:
    the selections the ball's lists allow, the color placements the search
    made, and a collision-free selection by label, None if there is none."""

    def __init__(self, selection_count: int, nodes: int, counterexample: Optional[dict]) -> None:
        self.selection_count, self.nodes, self.counterexample = selection_count, nodes, counterexample

    @property
    def passed(self) -> bool:
        return self.counterexample is None


def efficiency_obstruction_witness(g: PermGraph) -> ObstructionReport:
    """Show that no list selection on the distance-2 ball of g's first
    vertex v keeps all color classes at pairwise distance >= 3.

    One centre decides every centre: symbol permutations, and permutations
    of the positions 1.. with the colors renamed alike, are automorphisms
    of g that carry each vertex's list to its image's list, and together
    they act transitively on the vertices.

    Every selection must contain two same-colored vertices at distance <= 2
    (distance measured in the whole graph).  A complete depth-first search
    chooses the ball's positions in ascending vertex id, each from its list
    in ascending order, and places a color only where no earlier position
    at distance <= 2 holds it.  It either proves no collision-free
    selection exists (pass) or returns one as a counterexample (fail), and
    raises CapExceeded past OBSTRUCTION_NODE_BUDGET placements.
    """
    ell = g.params.ell
    if ell < 3:
        raise ValueError(f"obstruction check needs ell >= 3, got ell = {ell}")
    # The ball is held by position; labels are looked up only for output.
    verts, ball = g.vertices, sorted(g.bfs_ids(0, limit=2))
    lists = [sorted(list_assignment(verts[x])) for x in ball]
    at = {x: p for p, x in enumerate(ball)}
    # for each position, the earlier ones at distance <= 2 whose lists meet its own
    earlier: list[list[int]] = [[] for _ in ball]
    for p, x in enumerate(ball):
        for y in g.bfs_ids(x, limit=2):
            if at.get(y, -1) > p and set(lists[p]).intersection(lists[at[y]]):
                earlier[at[y]].append(p)

    # Backtracking with an explicit stack, one color iterator per position
    # the search has reached, so the depth is not bounded by the recursion
    # limit; each color placed is a node.
    chosen: list[int] = []
    stack: list[Iterator[int]] = []
    nodes = 0
    while len(chosen) < len(ball):
        p = len(chosen)
        if len(stack) == p:
            stack.append(iter(lists[p]))
        c = next((c for c in stack[-1] if all(chosen[q] != c for q in earlier[p])), None)
        if c is None:
            stack.pop()
            if not stack:
                break
            chosen.pop()
            continue
        nodes += 1
        if nodes > OBSTRUCTION_NODE_BUDGET:
            raise CapExceeded(f"obstruction search at {verts.text(0)} exceeded node budget {OBSTRUCTION_NODE_BUDGET}")
        chosen.append(c)
    counterexample = {verts[x]: c for x, c in zip(ball, chosen)} if chosen else None
    return ObstructionReport(prod(len(colors) for colors in lists), nodes, counterexample)
