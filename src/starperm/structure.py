"""Structural decompositions of efficiently colored regular graphs.

Given a connected (h-2)-regular graph with an efficient total coloring on
h-1 colors (h even, h > 4), deleting a vertex color class W_i leaves a
connected (h-3)-regular graph; further deleting the color-i edges E_i
splits it into (h-4)-regular components, each totally colored by the
remaining h-3 colors; deleting only E_i leaves a non-bipartite
(h-2, h-3)-biregular graph whose degree-(h-2) side is exactly W_i.  The
suite here checks all of that per color on ST(k,2) (h = 2k) and reports,
per component, its size, its regularity, whether the coloring restricted to
it is total, and its type: an explicit isomorphism onto ST(k-1,2).  W_i is
read off the vertex colors by id, and G - W_i and G - E_i are read from the
graph's rows, not copied.

Also here: the two-type classification of 6-cycles under the repeat-position
coloring, and the toroidal union of type-2 cycles sharing a color.
"""

from __future__ import annotations

from array import array
from typing import Optional, Sequence

from .coloring import ColoringReport, TotalColoring, verify_coloring
from .errors import Precondition
from .graphs import Graph, Params, PermGraph, build_graph, regular_degree, six_cycles
from .iso import ISO_CAP, isomorphic
from .report import keep_witnesses


# ---------------------------------------------------------------------------
# color-class decomposition
# ---------------------------------------------------------------------------


class ComponentAudit:
    def __init__(self, n: int, regular_degree: Optional[int], coloring_total: bool, isomorphic_to_reference: bool) -> None:
        self.n, self.regular_degree = n, regular_degree
        self.coloring_total, self.isomorphic_to_reference = coloring_total, isomorphic_to_reference


class ColorCaseReport:
    def __init__(
        self,
        color: int,
        minus_class_connected: bool,
        minus_class_regular_degree: Optional[int],
        components: list[ComponentAudit],
        minus_edges_degrees: tuple[int, ...],
        minus_edges_big_side_is_class: bool,
        minus_edges_class_independent: bool,
        odd_closed_walk: Optional[list],
    ) -> None:
        self.color, self.minus_class_connected = color, minus_class_connected
        self.minus_class_regular_degree, self.components = minus_class_regular_degree, components
        self.minus_edges_degrees, self.minus_edges_big_side_is_class = minus_edges_degrees, minus_edges_big_side_is_class
        self.minus_edges_class_independent, self.odd_closed_walk = minus_edges_class_independent, odd_closed_walk

    def item1_ok(self, h: int) -> bool:
        return self.minus_class_connected and self.minus_class_regular_degree == h - 3

    def item2_ok(self, h: int) -> bool:
        return all(c.regular_degree == h - 4 and c.coloring_total for c in self.components)

    def item3_ok(self, h: int) -> bool:
        return (
            set(self.minus_edges_degrees) == {h - 2, h - 3}
            and self.minus_edges_big_side_is_class
            and self.minus_edges_class_independent
            and self.odd_closed_walk is not None
        )


class DecompositionReport:
    def __init__(self, h: int, cases: list[ColorCaseReport]) -> None:
        self.h, self.cases = h, cases


def color_class_decomposition(tc: TotalColoring, checked: Optional[ColoringReport] = None) -> DecompositionReport:
    """Run the per-color decomposition checks on tc's graph g = ST(k,2);
    raises Precondition when a hypothesis fails.  `checked` is
    ``verify_coloring(tc)`` when the caller already has it; otherwise the
    efficiency hypothesis runs it.

    In ST(k,2) - W_i - E_i neither s = v[i] nor its other copy at p moves: a
    move at i is an E_i edge, and a move at p puts s in front, into W_i.  So
    each component has one key (s, p), and phi, deleting positions i and p
    and renumbering the symbols above s one down, maps it onto ST(k-1,2),
    the move at j onto the move at rho(j) = j - [j > i] - [j > p].  One scan
    per color finds the components, checks phi on each and takes the
    degrees of G - W_i and G - E_i; the coloring of the first component per
    color is also cut out, by vertex id, for verify_coloring and isomorphic.
    """
    g = tc.graph
    if not (isinstance(g, PermGraph) and g.family.kind == "star" and g.params.ell == 2):
        raise Precondition("need a 2-set star graph")
    h = 2 * g.params.k  # ST(k,2) is connected and (h-2)-regular
    if h <= 4:
        raise Precondition(f"need even h > 4, got h = {h}")
    if len(tc.palette) != h - 1:
        raise Precondition(f"palette has {len(tc.palette)} colors, want {h - 1}")
    eff = checked if checked is not None else verify_coloring(tc)
    if not (eff.passed and eff.efficient):
        raise Precondition("coloring is not efficient")

    n, verts, label_sets, vcol = g.n, g.vertices, g.label_sets, tc.vertex_colors
    size = Params(g.params.k - 1, 2).vertex_count()
    reference = build_graph(Params(g.params.k - 1, 2)) if size <= ISO_CAP else None
    cases = []
    for i in sorted(tc.palette):
        components: list[ComponentAudit] = []
        masked = bytes(c == i for c in vcol)  # W_i by vertex id
        e_ids = array("i")  # E_i edges outside W_i, by vertex id, x < y in pairs
        part = array("i", [-1]) * n  # component index by vertex id
        minus_w_degrees: set[int] = set()
        # G - E_i: its degrees, whether W_i is its degree-(h-2) side, and
        # whether W_i stays independent in it
        minus_e_degrees: set[int] = set()
        big_side_is_class = independent = True
        for root in range(n):
            if masked[root]:
                kept = [y for y, lid in g.labeled_row(root) if label_sets[lid][0] != i]
                minus_e_degrees.add(len(kept))
                big_side_is_class = big_side_is_class and len(kept) == h - 2
                independent = independent and not any(masked[y] for y in kept)
                continue
            if part[root] >= 0:
                continue
            part[root] = len(components)
            comp, degrees = [root], set()
            key, image = _keyed(verts[root], i)
            images, typed = {root: image}, True
            for x in comp:  # grows as the traversal finds vertices
                degree = w_degree = cross = 0
                for y, lid in g.labeled_row(x):
                    j = label_sets[lid][0]
                    if j == i:
                        if x < y and not masked[y]:
                            e_ids.extend((x, y))
                        w_degree += not masked[y]
                        continue
                    if masked[y]:
                        cross += 1
                        continue
                    degree += 1
                    if part[y] < 0:
                        part[y] = part[root]
                        comp.append(y)
                        y_key, images[y] = _keyed(verts[y], i)
                        typed = typed and y_key == key
                    if x < y:  # the move at j must map to the move at rho(j)
                        a = images[x]
                        r = j - (j > i) - (j > key[1])
                        if j in (i, key[1]) or images[y] != (a[r],) + a[1:r] + (a[0],) + a[r + 1 :]:
                            typed = False
                degrees.add(degree)
                minus_w_degrees.add(w_degree + degree)
                minus_e_degrees.add(cross + degree)
                big_side_is_class = big_side_is_class and cross + degree != h - 2
            regular = regular_degree(degrees)
            # phi is one-to-one on the component, onto |ST(k-1,2)| strings,
            # and maps edges to edges; equal degrees then give equal edge
            # counts, so phi is an isomorphism onto ST(k-1,2).
            typed = typed and len(set(images.values())) == len(comp) == size and regular == h - 4
            # A restriction of a total coloring is total; verify_coloring
            # confirms it on the first component's coloring.
            total = True
            if not components:
                # the E_i edges found so far are this component's or lead out of it
                drop = {e for x, y in zip(e_ids[::2], e_ids[1::2]) if part[x] == part[y] for e in ((x, y), (y, x))}
                sub = tc.restrict(sorted(comp), drop)
                total = bool(verify_coloring(sub).total)
                typed = typed and (reference is None or isomorphic(sub.graph, reference)[0])
            components.append(ComponentAudit(len(comp), regular, total, typed))
        # G - W_i is the components joined by their E_i edges.
        links = {(part[x], part[y]) for x, y in zip(e_ids[::2], e_ids[1::2]) if part[x] != part[y]}
        connected = Graph(range(len(components)), links).is_connected()
        minus_w, minus_e = regular_degree(minus_w_degrees), tuple(sorted(minus_e_degrees))
        walk = g.odd_closed_walk(skip=lambda labels: labels[0] == i)
        cases.append(ColorCaseReport(i, connected, minus_w, components, minus_e, big_side_is_class, independent, walk))
    return DecompositionReport(h, cases)


def _keyed(v: tuple, i: int) -> tuple[tuple[int, int], tuple[int, ...]]:
    """The key (s, p) of a string v outside W_i, s = v[i] and p the other
    position of s, and phi(v): v without positions i and p, the symbols
    above s one down."""
    s = v[i]
    p = v.index(s) if v.index(s) != i else v.index(s, i + 1)
    return (s, p), tuple(t - (t > s) for j, t in enumerate(v) if j != i and j != p)


# ---------------------------------------------------------------------------
# 6-cycle types
# ---------------------------------------------------------------------------


#: 6-cycles grouped by (kind, sorted colors): one flat array of 6 vertex ids
#: per cycle, in enumeration order.  Kind is "type1", "type2" or "other".
CycleGroups = dict[tuple[str, tuple[int, ...]], array]


def classify_six_cycles(tc: TotalColoring) -> tuple[CycleGroups, dict[str, int]]:
    """Classify every 6-cycle of a 2-set star graph under its coloring tc.

    Type 1: the three opposite edge pairs are monochromatic in 3 distinct
    colors.  Type 2: edge colors alternate between two distinct colors.
    Returns the cycles grouped by (kind, colors) and the census of kinds.
    """
    groups: CycleGroups = {}
    census = {"type1": 0, "type2": 0, "other": 0}
    g = tc.graph
    for cyc in six_cycles(g):
        ec = [g.label(i, j)[0] for i, j in _cycle_edges(cyc)]
        if ec[0] == ec[3] and ec[1] == ec[4] and ec[2] == ec[5] and len({ec[0], ec[1], ec[2]}) == 3:
            kind, colors = "type1", tuple(sorted({ec[0], ec[1], ec[2]}))
        elif ec[0] == ec[2] == ec[4] and ec[1] == ec[3] == ec[5] and ec[0] != ec[1]:
            kind, colors = "type2", tuple(sorted({ec[0], ec[1]}))
        else:
            kind, colors = "other", tuple(sorted(set(ec)))
        census[kind] += 1
        groups.setdefault((kind, colors), array("i")).extend(cyc)
    return groups, census


def _cycle_edges(cycle: Sequence[int]) -> list[tuple[int, int]]:
    """A cycle's edges, from each vertex id to the next, as ascending id pairs."""
    return [(a, b) if a < b else (b, a) for a, b in zip(cycle, (*cycle[1:], cycle[0]))]


def _cycles_of(groups: CycleGroups, kind: str, keep) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(colors, cycle) for each cycle of the given kind whose colors keep() accepts."""
    return [
        (colors, tuple(ids[i : i + 6]))
        for (kd, colors), ids in groups.items()
        if kd == kind and keep(set(colors))
        for i in range(0, len(ids), 6)
    ]


class ToroidalReport:
    def __init__(self, d1: int, union_vertex_count: int, type2_cycle_count: int) -> None:
        self.d1 = d1
        #: vertices of the union of those type-2 cycles
        self.union_vertex_count = union_vertex_count
        self.type2_cycle_count = type2_cycle_count
        self.contained_type1: list[tuple[int, ...]] = []
        self.type1_disjoint, self.departures_ok = False, True
        self.departure_failures: list = []
        #: how many contained type-1 cycles land their departure sextuple in
        #: each vertex color class; on 5 colors the only possible class is d1
        self.landing_class_census: dict = {}
        self.all_land_in_d1 = False
        #: landing vertices have the first = last shape when their class is the
        #: last position, hang pendant off each departure star, and never lie
        #: inside the union itself
        self.sigma_pendant_ok = False
        self.landing_min_distance_3, self.landing_distance_values = True, ()


def toroidal_colors(tc: TotalColoring, d1: int, quad: Sequence[int]) -> tuple[int, ...]:
    """quad as a tuple; ValueError unless d1 and the four of quad are five
    distinct colors of tc."""
    quad = tuple(quad)
    if len(quad) != 4 or len({d1, *quad}) != 5:
        raise ValueError("need d1 and four further pairwise distinct colors")
    unknown = (set(quad) | {d1}) - set(tc.palette)
    if unknown:
        raise ValueError(f"colors {sorted(unknown)} not in the palette")
    return quad


def toroidal_assembly(tc: TotalColoring, groups: CycleGroups, d1: int, quad: Sequence[int]) -> ToroidalReport:
    """Union of the type-2 cycles pairing d1 with each quad color, audited.

    `groups` is what classify_six_cycles(tc) returned.  Checks: the
    contained type-1 cycles on quad colors are vertex-disjoint;
    from each of them exactly six edges of its left-over quad color depart,
    landing on six distinct vertices of the d1 class (so the class hangs
    off each departure star pendant-style, and never lies inside the cycle
    union itself, no d1-colored edge being available at its vertices); and
    each landing sextuple has minimum pairwise distance exactly 3 in the
    host graph.
    """
    quad = toroidal_colors(tc, d1, quad)
    type2 = _cycles_of(groups, "type2", lambda cs: d1 in cs and cs - {d1} <= set(quad))
    g, vcol = tc.graph, tc.vertex_colors
    verts, label_sets = g.vertices, g.label_sets
    edge_set = {e for _, c in type2 for e in _cycle_edges(c)}
    union = {x for e in edge_set for x in e}

    rep = ToroidalReport(d1, len(union), len(type2))

    contained = [
        (colors, c)
        for colors, c in _cycles_of(groups, "type1", lambda cs: cs <= set(quad))
        if all(e in edge_set for e in _cycle_edges(c))
    ]
    rep.contained_type1 = [c for _, c in contained]
    rep.type1_disjoint = len({x for c in rep.contained_type1 for x in c}) == 6 * len(contained)

    last = len(tc.palette)  # highest position label; shape check applies to that class
    rep.sigma_pendant_ok = not any(vcol[x] == d1 for x in union)
    dist_values: set[int] = set()
    census: dict[int, int] = {}
    for colors, c in contained:
        # three distinct colors inside quad leave exactly one
        (d,) = set(quad) - set(colors)
        shown = tuple(map(verts.__getitem__, c))
        landing = [
            y
            for x in c
            for y, lid in g.labeled_row(x)
            if y not in c and label_sets[lid][0] == d
        ]
        if len(landing) != 6 or len(set(landing)) != 6:
            rep.departures_ok = False
            keep_witnesses(rep.departure_failures, [("departure-count", shown, d, len(landing))])
            continue
        classes_hit = {vcol[y] for y in landing}
        if len(classes_hit) != 1:
            rep.departures_ok = False
            keep_witnesses(rep.departure_failures, [("landing-not-monochromatic", shown, d, sorted(classes_hit))])
            continue
        hit = classes_hit.pop()
        census[hit] = census.get(hit, 0) + 1
        if hit == last and not all(x[0] == x[-1] for x in map(verts.__getitem__, landing)):
            rep.sigma_pendant_ok = False
            keep_witnesses(rep.departure_failures, [("landing-shape", shown, d)])
        # Each landing vertex hangs off the 6-cycle, whose vertices are at
        # most 3 apart, so two landing vertices are at most 1 + 3 + 1 apart.
        pair_dists = set()
        for i, x in enumerate(landing[:-1]):
            dists = g.bfs_ids(x, limit=5)
            pair_dists.update(dists[y] for y in landing[i + 1 :])
        dist_values |= pair_dists
        if min(pair_dists) != 3:
            rep.landing_min_distance_3 = False
    rep.landing_class_census = dict(sorted(census.items()))
    rep.all_land_in_d1 = set(census) == {d1} and bool(census)
    rep.landing_distance_values = tuple(sorted(dist_values))
    return rep
