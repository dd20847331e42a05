import tracemalloc

import pytest

import starperm.structure
from starperm import (
    PermGraph,
    Precondition,
    TotalColoring,
    classify_six_cycles,
    mstring,
    color_class_decomposition,
    toroidal_assembly,
    verify_coloring,
)

from starperm.cli import main
from starperm.graphs import PackedLabels
from starperm.structure import toroidal_colors

from .faults import add_to_w1
from .oracles import brute_component_keys, brute_move_graph

ms = mstring


def test_chi_suite_st32(tc32):
    rep = color_class_decomposition(tc32, verify_coloring(tc32))
    assert rep.h == 6 and [case.color for case in rep.cases] == [1, 2, 3, 4, 5]
    assert all(case.item1_ok(6) and case.item2_ok(6) and case.item3_ok(6) for case in rep.cases)
    for case in rep.cases:
        assert case.minus_class_connected
        assert case.minus_class_regular_degree == 3
        assert len(case.components) == 12
        for comp in case.components:
            assert comp.n == 6
            assert comp.regular_degree == 2
            assert comp.coloring_total
            assert comp.isomorphic_to_reference
        assert case.minus_edges_degrees == (3, 4)
        assert case.minus_edges_big_side_is_class
        assert case.minus_edges_class_independent
        walk = case.odd_closed_walk
        assert walk is not None and walk[0] == walk[-1] and len(walk) % 2 == 0
        # a walk in G - E_i: each step is an edge, none of color i
        g = tc32.graph
        steps = [g.label(g.index(a), g.index(b)) for a, b in zip(walk, walk[1:])]
        assert None not in steps and (case.color,) not in steps


def test_chi_suite_st42_actual_structure(tc42):
    rep = color_class_decomposition(tc42, verify_coloring(tc42))
    assert rep.h == 8 and len(rep.cases) == 7
    assert all(case.item1_ok(8) and case.item2_ok(8) and case.item3_ok(8) for case in rep.cases)
    for case in rep.cases:
        assert case.minus_class_regular_degree == 5 and case.minus_class_connected
        # 2k(k-1) components, each a copy of the graph one symbol down
        assert len(case.components) == 24
        assert all(c.n == 90 and c.regular_degree == 4 for c in case.components)
        assert all(c.isomorphic_to_reference for c in case.components)
        assert all(c.coloring_total for c in case.components)
        assert case.minus_edges_degrees == (5, 6)
        assert case.minus_edges_big_side_is_class
        assert case.odd_closed_walk is not None


def test_chi_copies_a_component_without_looking_up_edge_colors(monkeypatch, tc42):
    # catches a copy cut out by label, or one that finds its E_i edges again
    # by label: the scan has its vertices and edges by vertex id
    def refuse(self, v):
        raise AssertionError("the component copy looked a vertex label up")

    monkeypatch.setattr(PermGraph, "index", refuse)
    monkeypatch.setattr(PackedLabels, "find", refuse)
    rep = color_class_decomposition(tc42, verify_coloring(tc42))
    assert all(case.item1_ok(8) and case.item2_ok(8) and case.item3_ok(8) for case in rep.cases)
    assert all(case.components[0].coloring_total and case.components[0].isomorphic_to_reference for case in rep.cases)


def test_chi_independence_sees_an_edge_inside_the_class(monkeypatch, tc32):
    # catches an independence check that never looks at W_i's edges:
    # W_1 gains a neighbour of its first vertex
    tc = add_to_w1(monkeypatch, tc32, lambda g, column: g.row(column.index(1))[0])
    rep = color_class_decomposition(tc, starperm.structure.verify_coloring(tc))
    independent = {case.color: case.minus_edges_class_independent for case in rep.cases}
    assert independent == {1: False, 2: True, 3: True, 4: True, 5: True}


def test_chi_types_a_component_by_the_edges_phi_maps(monkeypatch, capsys):
    # phi with the images 0011 and 1100 swapped at colour 1 stays one-to-one
    # and onto ST(2,2), and the first component's isomorphism cross-check
    # does not read it: only the check that phi maps each edge to an edge
    # can see the fault
    keyed, swap = starperm.structure._keyed, {"0011": "1100", "1100": "0011"}

    def swapped(v, i):
        key, image = keyed(v, i)
        return key, swap.get(image, image) if i == 1 else image

    monkeypatch.setattr(starperm.structure, "_keyed", swapped)
    assert main(["verify", "--suite", "chi", "--k", "3", "--l", "2"]) == 1
    failed = [line.split() for line in capsys.readouterr().out.splitlines() if line.startswith("  FAIL")]
    assert [(words[1], words[3:]) for words in failed] == [("color-1-component-count-and-type", ["count=12", "expected=12"])]


def test_chi_hypotheses_raise_precondition(tc22, pc32, tc32):
    with pytest.raises(Precondition, match="^need even h > 4, got h = 4$"):
        color_class_decomposition(tc22, verify_coloring(tc22))
    # the key map needs star moves
    with pytest.raises(Precondition, match="^need a 2-set star graph$"):
        tc = TotalColoring(pc32, tc32.vertex_colors, tc32.palette)
        color_class_decomposition(tc, verify_coloring(tc))
    # the same colouring over a sixth, unused colour
    with pytest.raises(Precondition, match="^palette has 6 colors, want 5$"):
        tc = TotalColoring(tc32.graph, tc32.vertex_colors, tc32.palette | {6})
        color_class_decomposition(tc, verify_coloring(tc))
    # one vertex recoloured
    column = list(tc32.vertex_colors)
    column[0] = column[0] % 5 + 1
    with pytest.raises(Precondition, match="^coloring is not efficient$"):
        tc = TotalColoring(tc32.graph, column, tc32.palette)
        color_class_decomposition(tc, verify_coloring(tc))


@pytest.mark.parametrize("k", [3, 4])
def test_chi_components_agree_with_the_key_oracle(request, k):
    g, tc = request.getfixturevalue(f"st{k}2"), request.getfixturevalue(f"tc{k}2")
    rep = color_class_decomposition(tc, verify_coloring(tc))
    adj = brute_move_graph(k, 2)
    for case in rep.cases:
        keyed = brute_component_keys(adj, case.color)
        assert None not in {key for key, _ in keyed}
        assert len({key for key, _ in keyed}) == len(keyed) == 2 * k * (k - 1)
        assert [c.n for c in case.components] == [size for _, size in keyed]
        assert all(c.isomorphic_to_reference for c in case.components)


def test_classify_six_cycles_st22(st22, tc22):
    groups, census = classify_six_cycles(tc22)
    assert census == {"type1": 1, "type2": 0, "other": 0}
    assert list(groups) == [("type1", (1, 2, 3))]
    ids = list(groups["type1", (1, 2, 3)])
    assert tuple(st22.label(x, y)[0] for x, y in zip(ids, ids[1:] + ids[:1])) == (2, 1, 3, 2, 1, 3)
    only = [st22.vertices[x] for x in ids]
    assert only == [ms(s) for s in ("0011", "1001", "0101", "1100", "0110", "1010")]


def test_classify_six_cycles_st32(tc32):
    groups, census = classify_six_cycles(tc32)
    assert census["other"] == 0
    assert census == {"type1": 30, "type2": 60, "other": 0}
    assert ("type1", (2, 3, 4)) in groups
    assert {kind: sum(len(ids) for (kd, _), ids in groups.items() if kd == kind) // 6 for kind in census} == census


def test_classify_six_cycles_st42(tc42):
    _, census = classify_six_cycles(tc42)
    assert census["other"] == 0
    assert census["type1"] + census["type2"] == 6300


def test_classify_six_cycles_streams_the_cycles(tc42):
    # the tracemalloc peak at k = 4 was 1.43 MiB with all 6,300 cycles
    # listed as tuples before grouping, 0.43 MiB with one root's cycles at a
    # time beside the grouped arrays
    tracemalloc.start()
    try:
        _, census = classify_six_cycles(tc42)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert census["type1"] + census["type2"] == 6300 and peak < 2**20


def test_toroidal_t5(tc32):
    rep = toroidal_assembly(tc32, classify_six_cycles(tc32)[0], 5, (1, 2, 3, 4))
    assert rep.type2_cycle_count == 24
    assert rep.union_vertex_count == 72
    assert len(rep.contained_type1) == 12 and rep.type1_disjoint
    assert rep.departures_ok
    assert rep.all_land_in_d1 and rep.landing_class_census == {5: 12}
    assert rep.sigma_pendant_ok
    assert rep.landing_min_distance_3
    assert rep.landing_distance_values == (3, 5)


def test_toroidal_failure_branches(tc32):
    # the cycles stay those of the true coloring; only vertex colors change
    groups = classify_six_cycles(tc32)[0]
    cycle = toroidal_assembly(tc32, groups, 5, (1, 2, 3, 4)).contained_type1[0]

    def recolored(x, c):
        column = list(tc32.vertex_colors)
        column[x] = c
        return TotalColoring(tc32.graph, column, tc32.palette)

    # one of the cycle's departures now lands in class 1, the others in class 5
    landing = next(y for x in cycle for y in tc32.graph.row(x) if tc32.vertex_colors[y] == 5)
    rep = toroidal_assembly(recolored(landing, 1), groups, 5, (1, 2, 3, 4))
    assert not rep.departures_ok
    assert "landing-not-monochromatic" in [w[0] for w in rep.departure_failures]
    # a class-5 vertex inside the type-2 union
    rep = toroidal_assembly(recolored(cycle[0], 5), groups, 5, (1, 2, 3, 4))
    assert not rep.sigma_pendant_ok


def test_toroidal_dual_color_sextuples(st32, tc32):
    groups, _ = classify_six_cycles(tc32)
    cyc_set = {st32.vertices[x] for x in groups["type1", (2, 3, 4)][:6]}
    for d, landing_color in ((1, 5), (5, 1)):
        landings = set()
        for u, v, labels in st32.edges():
            if labels == (d,) and ((u in cyc_set) != (v in cyc_set)):
                landings.add(v if u in cyc_set else u)
        assert len(landings) == 6
        assert {tc32.vertex_colors[st32.index(x)] for x in landings} == {landing_color}


def test_toroidal_rejects_bad_colors(tc32):
    groups, _ = classify_six_cycles(tc32)
    with pytest.raises(ValueError):
        toroidal_assembly(tc32, groups, 5, (1, 2, 3, 5))
    with pytest.raises(ValueError):
        toroidal_assembly(tc32, groups, 9, (1, 2, 3, 4))


def test_toroidal_colors_want_exactly_four(tc32):
    # a repeated color makes five entries but only four distinct ones
    assert toroidal_colors(tc32, 5, [1, 2, 3, 4]) == (1, 2, 3, 4)
    for quad in ((1, 2, 3, 4, 4), (1, 2, 3)):
        with pytest.raises(ValueError, match="need d1 and four further pairwise distinct colors"):
            toroidal_colors(tc32, 5, quad)
