import pytest

from starperm import (
    Graph,
    TotalColoring,
    augment_supergraph,
    classify_six_cycles,
    isomorphic,
    mstring,
    se_set,
    color_class_decomposition,
    toroidal_assembly,
    verify_efficient_domination,
)

from .oracles import brute_component_keys, brute_move_graph

ms = mstring


def test_chi_suite_st32(st32, tc32):
    rep = color_class_decomposition(st32, tc32)
    assert rep.precondition_ok and rep.h == 6
    assert rep.passed
    for case in rep.cases:
        assert case.minus_class_connected
        assert case.minus_class_regular_degree == 3
        assert len(case.components) == 12
        for comp in case.components:
            assert comp.n == 6
            assert comp.regular_degree == 2
            assert comp.coloring_total and comp.coloring_efficient
            assert comp.isomorphic_to_reference
            assert comp.missing_color is not None and comp.missing_color != case.color
        assert case.minus_edges_degrees == (3, 4)
        assert case.minus_edges_big_side_is_class
        assert case.minus_edges_class_independent
        walk = case.odd_closed_walk
        assert walk is not None and walk[0] == walk[-1] and len(walk) % 2 == 0


def test_chi_suite_st42_actual_structure(st42, tc42):
    rep = color_class_decomposition(st42, tc42)
    assert rep.precondition_ok and rep.h == 8
    assert rep.passed
    for case in rep.cases:
        assert case.minus_class_regular_degree == 5 and case.minus_class_connected
        # 2k(k-1) components, each a copy of the graph one symbol down
        assert len(case.components) == 24
        assert all(c.n == 90 and c.regular_degree == 4 for c in case.components)
        assert all(c.isomorphic_to_reference for c in case.components)
        assert all(c.coloring_total and c.coloring_efficient for c in case.components)
        assert case.minus_edges_degrees == (5, 6)
        assert case.minus_edges_big_side_is_class
        assert case.odd_closed_walk is not None


def test_chi_independence_sees_an_edge_inside_the_class(monkeypatch, st32, tc32):
    # catches an independence check that never looks at W_i's edges
    vertex_class = TotalColoring.vertex_class

    def with_neighbor(self, color):
        members = vertex_class(self, color)
        if color != 1:
            return members
        first = min(members, key=st32.index)
        return members | {st32.neighbors(first)[0]}

    monkeypatch.setattr(TotalColoring, "vertex_class", with_neighbor)
    rep = color_class_decomposition(st32, tc32)
    independent = {case.color: case.minus_edges_class_independent for case in rep.cases}
    assert independent == {1: False, 2: True, 3: True, 4: True, 5: True}


def test_chi_preconditions_reported_not_raised(st22, tc22, pc32, tc32):
    rep = color_class_decomposition(st22, tc22)
    assert not rep.precondition_ok  # h = 4 is outside the hypothesis
    assert "h = 4" in rep.precondition_detail
    assert not rep.passed
    rep = color_class_decomposition(pc32, tc32)  # the key map needs star moves
    assert not rep.precondition_ok and rep.precondition_detail == "need a 2-set star graph"


@pytest.mark.parametrize("k", [3, 4])
def test_chi_components_agree_with_the_key_oracle(request, k):
    g, tc = request.getfixturevalue(f"st{k}2"), request.getfixturevalue(f"tc{k}2")
    rep = color_class_decomposition(g, tc)
    adj = brute_move_graph(k, 2)
    for case in rep.cases:
        keyed = brute_component_keys(adj, case.color)
        assert None not in {key for key, _ in keyed}
        assert len({key for key, _ in keyed}) == len(keyed) == 2 * k * (k - 1)
        assert [c.n for c in case.components] == [size for _, size in keyed]
        assert all(c.isomorphic_to_reference for c in case.components)


def test_classify_six_cycles_st22(st22, tc22):
    classes, census = classify_six_cycles(st22, tc22)
    assert census == {"type1": 1, "type2": 0, "other": 0}
    only = classes[0]
    assert only.kind == "type1"
    assert only.colors == (1, 2, 3)
    assert only.edge_colors == (2, 1, 3, 2, 1, 3)
    assert [c for c in only.cycle] == [ms(s) for s in ("0011", "1001", "0101", "1100", "0110", "1010")]


def test_classify_six_cycles_st32(st32, tc32):
    classes, census = classify_six_cycles(st32, tc32)
    assert census["other"] == 0
    assert census == {"type1": 30, "type2": 60, "other": 0}
    assert any(c.kind == "type1" and c.colors == (2, 3, 4) for c in classes)


def test_classify_six_cycles_st42(st42, tc42):
    _, census = classify_six_cycles(st42, tc42)
    assert census["other"] == 0
    assert census["type1"] + census["type2"] == 6300


def test_toroidal_t5(st32, tc32):
    rep = toroidal_assembly(st32, tc32, 5, (1, 2, 3, 4))
    assert rep.passed
    assert rep.type2_cycle_count == 24
    assert rep.assembly.n == 72
    assert len(rep.contained_type1) == 12 and rep.type1_disjoint
    assert rep.departures_ok
    assert rep.all_land_in_d1 and rep.landing_class_census == {5: 12}
    assert rep.sigma_pendant_ok
    assert rep.landing_min_distance_3
    assert rep.landing_distance_values == (3, 5)


def test_toroidal_dual_color_sextuples(st32, tc32):
    classes, _ = classify_six_cycles(st32, tc32)
    cyc = next(c for c in classes if c.kind == "type1" and c.colors == (2, 3, 4))
    cyc_set = set(cyc.cycle)
    for d, landing_color in ((1, 5), (5, 1)):
        landings = set()
        for (u, v), color in tc32.edge_colors.items():
            if color == d and ((u in cyc_set) != (v in cyc_set)):
                landings.add(v if u in cyc_set else u)
        assert len(landings) == 6
        assert {tc32.vertex_colors[x] for x in landings} == {landing_color}


def test_toroidal_rejects_bad_colors(st32, tc32):
    with pytest.raises(ValueError):
        toroidal_assembly(st32, tc32, 5, (1, 2, 3, 5))
    with pytest.raises(ValueError):
        toroidal_assembly(st32, tc32, 9, (1, 2, 3, 4))


def _cube():
    verts = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    edges = [(u, v) for u in verts for v in verts if u < v and sum(x != y for x, y in zip(u, v)) == 1]
    return Graph(verts, edges)


def test_augment_st22_is_cube(st22, tc22):
    rep = augment_supergraph(st22, tc22)
    assert rep.graph.n == 8 and rep.graph.m == 12
    ok, _ = isomorphic(rep.graph, _cube())
    assert ok
    for apex, cls in zip(rep.apexes, (se_set(st22, 0), se_set(st22, 1))):
        assert set(rep.graph.neighbors(apex)) == cls


def test_augment_partition_still_e_sets(st22, tc22):
    rep = augment_supergraph(st22, tc22)
    assert rep.partition_ok and rep.classes_still_e_sets
    for cls in rep.partition_classes:
        assert verify_efficient_domination(rep.graph, cls, 1).passed


def test_augment_no_total_completion(st22, tc22):
    rep = augment_supergraph(st22, tc22)
    assert rep.completion_exists is False
    assert rep.completions_tried == 4**6
    assert rep.passed


def test_augment_zero_apexes(st22, tc22):
    rep = augment_supergraph(st22, tc22, apex_classes=[])
    assert rep.passed
    assert rep.graph.n == st22.n
    assert {(u, v) for u, v, _ in rep.graph.edges()} == {(u, v) for u, v, _ in st22.edges()}
