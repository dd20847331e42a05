"""Structural decompositions of efficiently colored regular graphs.

Given a connected (h-2)-regular graph with an efficient total coloring on
h-1 colors (h even, h > 4), deleting a vertex color class W_i leaves a
connected (h-3)-regular graph; further deleting the color-i edges E_i
splits it into (h-4)-regular components, each totally colored by the
remaining h-3 colors; deleting only E_i leaves a non-bipartite
(h-2, h-3)-biregular graph whose degree-(h-2) side is exactly W_i.  The
suite here checks all of that per color on ST(k,2) (h = 2k) and reports,
per component, the regularity, a coloring audit, a missing-color census and
its type: an explicit isomorphism onto ST(k-1,2).

Also here: the two-type classification of 6-cycles under the repeat-position
coloring, the toroidal union of type-2 cycles sharing a color, and the apex
augmentation showing the E-set partition survives but no efficient coloring
completion exists.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Optional, Sequence

from .coloring import TotalColoring, verify_coloring
from .domination import se_set, sigma_set, verify_efficient_domination
from .graphs import Graph, Params, PermGraph, build_graph, six_cycles
from .iso import ISO_CAP, isomorphic


# ---------------------------------------------------------------------------
# color-class decomposition
# ---------------------------------------------------------------------------


@dataclass
class ComponentAudit:
    n: int
    regular_degree: Optional[int]
    coloring_total: bool
    coloring_efficient: bool
    missing_color: Optional[int]
    isomorphic_to_reference: bool


@dataclass
class ColorCaseReport:
    color: int
    minus_class_connected: bool
    minus_class_regular_degree: Optional[int]
    components: list[ComponentAudit] = field(default_factory=list)
    minus_edges_degrees: tuple[int, ...] = ()
    minus_edges_big_side_is_class: bool = False
    minus_edges_class_independent: bool = False
    odd_closed_walk: Optional[list] = None

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


@dataclass
class DecompositionReport:
    h: int
    precondition_ok: bool
    precondition_detail: str = ""
    cases: list[ColorCaseReport] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        if not self.precondition_ok:
            return False
        return all(
            c.item1_ok(self.h) and c.item2_ok(self.h) and c.item3_ok(self.h)
            for c in self.cases
        )


def color_class_decomposition(g: Graph, tc: TotalColoring) -> DecompositionReport:
    """Run the per-color decomposition checks on ST(k,2); hypothesis failures
    come back as a precondition report, not an exception.

    In ST(k,2) - W_i - E_i neither s = v[i] nor its other copy at p moves: a
    move at i is an E_i edge, and a move at p puts s in front, into W_i.  So
    each component has one key (s, p), and phi, deleting positions i and p
    and renumbering the symbols above s one down, maps it onto ST(k-1,2),
    the move at j onto the move at rho(j) = j - [j > i] - [j > p].  One scan
    per color finds the components and checks phi on each; the first one per
    color is also copied for verify_coloring and isomorphic.
    """
    if not (isinstance(g, PermGraph) and g.family.kind == "star" and g.params.ell == 2):
        return DecompositionReport(h=0, precondition_ok=False, precondition_detail="need a 2-set star graph")
    h = 2 * g.params.k  # ST(k,2) is connected and (h-2)-regular
    rep = DecompositionReport(h=h, precondition_ok=True)
    if h <= 4:
        return DecompositionReport(h=h, precondition_ok=False, precondition_detail=f"need even h > 4, got h = {h}")
    if len(tc.palette) != h - 1:
        return DecompositionReport(h=h, precondition_ok=False, precondition_detail=f"palette has {len(tc.palette)} colors, want {h - 1}")
    eff = verify_coloring(g, tc)
    if not (eff.passed and eff.efficient):
        return DecompositionReport(h=h, precondition_ok=False, precondition_detail="coloring is not efficient")

    n, verts, label_sets, color = g.n, g.vertices, g.label_sets, tc.edge_color_reader(g)
    vcol = tc.vertex_colors_by_id(g)
    size = Params(g.params.k - 1, 2).vertex_count()
    reference = build_graph(Params(g.params.k - 1, 2)) if size <= ISO_CAP else None
    for i in sorted(tc.palette):
        case = ColorCaseReport(color=i, minus_class_connected=False, minus_class_regular_degree=None)
        w_ids = {g.index(v) for v in tc.vertex_class(i)}
        masked = bytes(x in w_ids for x in range(n))
        # E_i by vertex id, each edge from an end outside W_i: no vertex
        # color is on an incident edge, so W_i's rows hold none of it.
        e_ids: list[tuple[int, int]] = []
        part = array("i", [-1]) * n  # component index by vertex id
        minus_w_degrees: set[int] = set()
        for root in range(n):
            if masked[root] or part[root] >= 0:
                continue
            part[root] = len(case.components)
            comp, degrees, used = [root], set(), set()
            key, image = _keyed(verts[root], i)
            images, typed = {root: image}, True
            for x in comp:  # grows as the traversal finds vertices
                used.add(vcol[x])
                degree = w_degree = 0
                for y, lid in g.labeled_row(x):
                    labels = label_sets[lid]
                    c = color(x, y, labels)
                    if c == i:
                        if x < y or masked[y]:  # each once
                            e_ids.append((x, y))
                        w_degree += not masked[y]
                        continue
                    if masked[y]:
                        continue
                    degree += 1
                    used.add(c)
                    if part[y] < 0:
                        part[y] = part[root]
                        comp.append(y)
                        y_key, images[y] = _keyed(verts[y], i)
                        typed = typed and y_key == key
                    if x < y:  # the move at j must map to the move at rho(j)
                        j, a = labels[0], images[x]
                        r = j - (j > i) - (j > key[1])
                        if j in (i, key[1]) or images[y] != (a[r],) + a[1:r] + (a[0],) + a[r + 1 :]:
                            typed = False
                degrees.add(degree)
                minus_w_degrees.add(w_degree + degree)
            regular = degrees.pop() if len(degrees) == 1 else None
            # phi is one-to-one on the component, onto |ST(k-1,2)| strings,
            # and maps edges to edges; equal degrees then give equal edge
            # counts, so phi is an isomorphism onto ST(k-1,2).
            typed = typed and len(set(images.values())) == len(comp) == size and regular == h - 4
            # A restriction of a total coloring is total.  The parent's
            # closed neighborhoods are rainbow, so each of the component's
            # has degree + 1 distinct colors, all observed: it is rainbow
            # over the observed colors iff there are degree + 1 of them
            # (palette - {i, p}, with p missing, when the key is (s, p)).
            total, efficient = True, regular is not None and len(used) == regular + 1
            if not case.components:
                sub = g.induced_subgraph(verts[x] for x in comp)
                sub = sub.subgraph(delete_edges=[(u, v) for u, v, _ in sub.edges() if tc.edge_color(u, v) == i])
                audit = verify_coloring(sub, TotalColoring(tc.vertex_colors, tc.edge_colors, frozenset(used)))
                total, efficient = bool(audit.total), efficient and bool(audit.efficient)
                typed = typed and (reference is None or isomorphic(sub, reference)[0])
            missing = tc.palette - used - {i}
            missing_color = min(missing) if len(missing) == 1 else None
            case.components.append(ComponentAudit(len(comp), regular, total, efficient, missing_color, typed))
        # G - W_i is the components joined by their E_i edges.
        links = {(part[x], part[y]) for x, y in e_ids if not masked[y] and part[x] != part[y]}
        case.minus_class_connected = Graph(range(len(case.components)), links).is_connected()
        case.minus_class_regular_degree = minus_w_degrees.pop() if len(minus_w_degrees) == 1 else None

        minus_e = g.subgraph(delete_edges=[(verts[x], verts[y]) for x, y in e_ids])
        case.minus_edges_degrees = tuple(sorted(minus_e.degree_census()))
        case.minus_edges_big_side_is_class = {x for x in range(n) if len(minus_e.row(x)) == h - 2} == w_ids
        case.minus_edges_class_independent = not any(masked[y] for x in w_ids for y in minus_e.row(x))
        case.odd_closed_walk = minus_e.odd_closed_walk()
        rep.cases.append(case)
    return rep


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


@dataclass(frozen=True)
class SixCycleClass:
    cycle: tuple
    kind: str  # "type1" | "type2" | "other"
    colors: tuple[int, ...]
    edge_colors: tuple[int, ...]


def classify_six_cycles(g: PermGraph, tc: TotalColoring) -> tuple[list[SixCycleClass], dict[str, int]]:
    """Classify every 6-cycle of a 2-set star graph under its coloring.

    Type 1: the three opposite edge pairs are monochromatic in 3 distinct
    colors.  Type 2: edge colors alternate between two distinct colors.
    """
    classes = []
    census = {"type1": 0, "type2": 0, "other": 0}
    label, color = g.label, tc.edge_color_reader(g)
    for cyc in six_cycles(g):
        ec = tuple(color(i, j, label(i, j)) for i, j in _cycle_edges(g, cyc))
        if ec[0] == ec[3] and ec[1] == ec[4] and ec[2] == ec[5] and len({ec[0], ec[1], ec[2]}) == 3:
            kind, colors = "type1", tuple(sorted({ec[0], ec[1], ec[2]}))
        elif ec[0] == ec[2] == ec[4] and ec[1] == ec[3] == ec[5] and ec[0] != ec[1]:
            kind, colors = "type2", tuple(sorted({ec[0], ec[1]}))
        else:
            kind, colors = "other", tuple(sorted(set(ec)))
        census[kind] += 1
        classes.append(SixCycleClass(cycle=cyc, kind=kind, colors=colors, edge_colors=ec))
    return classes, census


def _cycle_edges(g: Graph, cycle: tuple) -> list[tuple[int, int]]:
    """A cycle's edges, from each vertex to the next, as ascending vertex id pairs."""
    ids = [g.index(v) for v in cycle]
    return [(a, b) if a < b else (b, a) for a, b in zip(ids, ids[1:] + ids[:1])]


@dataclass
class ToroidalReport:
    d1: int
    quad: tuple[int, ...]
    assembly: Graph
    type2_cycle_count: int
    contained_type1: list[SixCycleClass] = field(default_factory=list)
    type1_disjoint: bool = False
    departures_ok: bool = True
    departure_failures: list = field(default_factory=list)
    #: how many contained type-1 cycles land their departure sextuple in
    #: each vertex color class; on 5 colors the only possible class is d1
    landing_class_census: dict = field(default_factory=dict)
    all_land_in_d1: bool = False
    #: landing vertices have the first = last shape when their class is the
    #: last position, hang pendant off each departure star, and never lie
    #: inside the assembly itself
    sigma_pendant_ok: bool = False
    landing_min_distance_3: bool = True
    landing_distance_values: tuple[int, ...] = ()

    @property
    def passed(self) -> bool:
        return (
            self.type2_cycle_count > 0
            and bool(self.contained_type1)
            and self.type1_disjoint
            and self.departures_ok
            and self.sigma_pendant_ok
            and self.landing_min_distance_3
        )


def toroidal_assembly(g: PermGraph, tc: TotalColoring, d1: int, quad: Sequence[int]) -> ToroidalReport:
    """Union of the type-2 cycles pairing d1 with each quad color, audited.

    Checks: the contained type-1 cycles on quad colors are vertex-disjoint;
    from each of them exactly six edges of its left-over quad color depart,
    landing on six distinct vertices of the d1 class (so the class hangs
    off each departure star pendant-style, and never lies inside the cycle
    union itself, no d1-colored edge being available at its vertices); and
    each landing sextuple has minimum pairwise distance exactly 3 in the
    host graph.
    """
    quad = tuple(quad)
    if len(set(quad) | {d1}) != 5 or d1 in quad:
        raise ValueError("need d1 and four further pairwise distinct colors")
    unknown = (set(quad) | {d1}) - set(tc.palette)
    if unknown:
        raise ValueError(f"colors {sorted(unknown)} not in the palette")

    classes, _ = classify_six_cycles(g, tc)
    type2 = [c for c in classes if c.kind == "type2" and d1 in c.colors and (set(c.colors) - {d1}) <= set(quad)]
    # The union and the departures are read by vertex id.
    verts, index, label_sets, color = g.vertices, g.index, g.label_sets, tc.edge_color_reader(g)
    vcol = tc.vertex_colors_by_id(g)
    edge_set = {e for c in type2 for e in _cycle_edges(g, c.cycle)}
    assembly = Graph(
        [verts[i] for i in sorted({i for e in edge_set for i in e})],
        [(verts[i], verts[j], g.label(i, j)) for i, j in sorted(edge_set)],
    )

    rep = ToroidalReport(d1=d1, quad=quad, assembly=assembly, type2_cycle_count=len(type2))

    contained = []
    for c in classes:
        if c.kind != "type1" or not set(c.colors) <= set(quad):
            continue
        if all(e in edge_set for e in _cycle_edges(g, c.cycle)):
            contained.append(c)
    rep.contained_type1 = contained
    used: set = set()
    rep.type1_disjoint = True
    for c in contained:
        if used & set(c.cycle):
            rep.type1_disjoint = False
        used.update(c.cycle)

    sigma_class = tc.vertex_class(d1)
    last = len(tc.palette)  # highest position label; shape check applies to that class
    rep.sigma_pendant_ok = not any(v in sigma_class for v in assembly.vertices)
    dist_values: set[int] = set()
    census: dict[int, int] = {}
    for c in contained:
        leftover = set(quad) - set(c.colors)
        if len(leftover) != 1:
            rep.departures_ok = False
            rep.departure_failures.append(("no-leftover-color", c.cycle))
            continue
        d = leftover.pop()
        cyc_ids = [index(x) for x in c.cycle]
        landing = [
            y
            for x in cyc_ids
            for y, lid in g.labeled_row(x)
            if y not in cyc_ids and (color(x, y, label_sets[lid]) if x < y else color(y, x, label_sets[lid])) == d
        ]
        if len(landing) != 6 or len(set(landing)) != 6:
            rep.departures_ok = False
            rep.departure_failures.append(("departure-count", c.cycle, d, len(landing)))
            continue
        classes_hit = {vcol[y] for y in landing}
        if len(classes_hit) != 1:
            rep.departures_ok = False
            rep.departure_failures.append(("landing-not-monochromatic", c.cycle, d, sorted(classes_hit)))
            continue
        hit = classes_hit.pop()
        census[hit] = census.get(hit, 0) + 1
        if hit == last and not all(x[0] == x[-1] for x in map(verts.__getitem__, landing)):
            rep.sigma_pendant_ok = False
            rep.departure_failures.append(("landing-shape", c.cycle, d))
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


# ---------------------------------------------------------------------------
# apex augmentation
# ---------------------------------------------------------------------------


#: Most colorings of the apex edges the completion search tries; above it
#: the completion stays undecided.
AUGMENT_EXHAUSTIVE_CAP = 1 << 20


@dataclass
class AugmentReport:
    graph: Graph
    apexes: tuple
    partition_classes: list = field(default_factory=list)
    partition_ok: bool = True
    classes_still_e_sets: bool = True
    completion_exists: Optional[bool] = None
    completions_tried: int = 0

    @property
    def passed(self) -> bool:
        return self.partition_ok and self.classes_still_e_sets and self.completion_exists is not True


def augment_supergraph(
    g: PermGraph,
    tc: TotalColoring,
    apex_classes: Optional[Iterable[frozenset]] = None,
) -> AugmentReport:
    """Add one apex vertex per chosen class, joined to all its members.

    Defaults to the first-entry classes of a 2-set star graph (for k = 2
    this completes the 6-cycle into a cube).  Audits that the repeat-position
    classes together with the apex set still partition the new graph into
    E-sets, and exhaustively confirms (for k = 2 scale) that no assignment of
    palette-plus-new colors to the new edges extends the coloring totally.
    """
    k = g.params.k
    if apex_classes is None:
        apex_classes = [se_set(g, i) for i in range(k)]
    apex_classes = [frozenset(c) for c in apex_classes]
    apexes = tuple(("apex", i) for i in range(len(apex_classes)))

    vertices = list(g.vertices) + list(apexes)
    edges = [(u, v, labels) for u, v, labels in g.edges()]
    for apex, members in zip(apexes, apex_classes):
        for v in sorted(members, key=g.index):
            edges.append((apex, v, ()))
    aug = Graph(vertices, edges)

    rep = AugmentReport(graph=aug, apexes=apexes)
    if not apex_classes:
        return rep

    sigma_classes = [sigma_set(g, i) for i in range(1, 2 * k)]
    new_class = frozenset(apexes)
    rep.partition_classes = sigma_classes + [new_class]
    covered: dict = {}
    for cls in rep.partition_classes:
        for v in cls:
            covered[v] = covered.get(v, 0) + 1
    rep.partition_ok = set(covered) == set(aug.vertices) and all(c == 1 for c in covered.values())
    for cls in rep.partition_classes:
        if not verify_efficient_domination(aug, cls, 1).passed:
            rep.classes_still_e_sets = False

    h = 2 * k
    new_color = h
    palette = sorted(tc.palette) + [new_color]
    new_edges = [(apex, v) for apex, members in zip(apexes, apex_classes) for v in sorted(members, key=g.index)]
    if len(palette) ** len(new_edges) > AUGMENT_EXHAUSTIVE_CAP:
        rep.completion_exists = None
        return rep

    old_edge_colors_at: dict = {v: set() for v in g.vertices}
    for (u, v), c in tc.edge_colors.items():
        old_edge_colors_at[u].add(c)
        old_edge_colors_at[v].add(c)

    found = False
    tried = 0
    for assignment in product(palette, repeat=len(new_edges)):
        tried += 1
        by_apex: dict = {}
        ok = True
        for (apex, v), c in zip(new_edges, assignment):
            if c == new_color or c == tc.vertex_colors[v]:
                ok = False
                break
            if c in old_edge_colors_at[v]:
                ok = False
                break
            if c in by_apex.setdefault(apex, set()):
                ok = False
                break
            by_apex[apex].add(c)
        if ok:
            found = True
            break
    rep.completions_tried = tried
    rep.completion_exists = found
    return rep
