import json
import random

import pytest

import starperm.coloring
from starperm import (
    Graph,
    TotalColoring,
    build_odd_complete_colored,
    choosability_suite,
    efficiency_obstruction_witness,
    list_assignment,
    max_selector,
    min_selector,
    mstring,
    positional_edge_coloring,
    repeat_position,
    sigma_total_coloring,
    verify_coloring,
)
from starperm.graphs import Params, build_graph

from .oracles import adjacency_dict, brute_coloring_flags

ms = mstring


def test_positional_colors_examples(st22):
    tc = positional_edge_coloring(st22)
    assert tc.edge_color(ms("0011"), ms("1001")) == 2
    assert tc.edge_color(ms("0011"), ms("1010")) == 3


def test_positional_incident_colors_at_100122(st32):
    tc = positional_edge_coloring(st32)
    v = ms("100122")
    incident = {tc.edge_color(v, w) for w in st32.neighbors(v)}
    assert incident == {1, 2, 4, 5}
    assert incident == {j for j in range(1, 6) if v[j] != v[0]}


def test_positional_properness_exhaustive(st32):
    tc = positional_edge_coloring(st32)
    assert tc.palette == frozenset(range(1, 6)) and tc.vertex_colors is None
    assert verify_coloring(st32, tc).proper_edge


def test_positional_rejects_pancake(pc22):
    with pytest.raises(ValueError):
        positional_edge_coloring(pc22)


def test_sigma_vertex_colors_st22(st22, tc22):
    want = {"0011": 1, "1100": 1, "0101": 2, "1010": 2, "0110": 3, "1001": 3}
    assert {k: tc22.vertex_color(ms(k)) for k in want} == want
    assert {k: tc22.vertex_colors[st22.index(ms(k))] for k in want} == want


def test_sigma_coloring_requires_ell_2(st23):
    with pytest.raises(ValueError):
        sigma_total_coloring(st23)


def test_sigma_total_and_efficient(st32, tc32):
    rep = verify_coloring(st32, tc32)
    assert rep.total and rep.efficient and rep.passed


def test_rainbow_closed_neighborhoods(st32, tc32):
    for v in st32.vertices:
        seen = {tc32.vertex_color(v)}
        seen.update(tc32.vertex_color(w) for w in st32.neighbors(v))
        assert seen == set(range(1, 6))


def test_vertex_color_never_on_incident_edge(st32, tc32):
    for v in st32.vertices:
        for w in st32.neighbors(v):
            assert tc32.edge_color(v, w) != tc32.vertex_color(v)


def test_sigma_color_classes_are_sigma_sets(st32, tc32):
    from starperm import sigma_set

    for i in range(1, 6):
        assert {v for v, c in zip(st32.vertices, tc32.vertex_colors) if c == i} == {st32.vertices[x] for x in sigma_set(st32, i)}


def test_verify_coloring_negative_witness(st22):
    vertex_colors = {v: 1 for v in st22.vertices}
    edge_colors = {(u, v): 2 for u, v, _ in st22.edges()}
    tc = TotalColoring.from_labels(st22, vertex_colors, edge_colors, {1, 2})
    rep = verify_coloring(st22, tc)
    assert not rep.proper_vertex and not rep.passed
    # every flag fails; the adjacent-vertices witnesses follow the adjacent-edges ones
    kind, u, v, c = next(w for w in rep.witnesses if w[0] == "adjacent-vertices")
    assert st22.has_edge(u, v) and c == 1


def _labeled(g, tc):
    """tc's vertex and edge colors as label dicts."""
    vertex_colors = {v: tc.vertex_color(v) for v in g.vertices} if tc.vertex_colors is not None else {}
    return vertex_colors, {(u, v): tc.edge_color(u, v) for u, v, _ in g.edges()}


def test_verify_coloring_uncolored_element(st22, tc22):
    vertex_colors, edge_colors = _labeled(st22, tc22)
    del vertex_colors[st22.vertices[-1]]
    with pytest.raises(ValueError, match="uncolored vertex"):
        TotalColoring.from_labels(st22, vertex_colors, edge_colors, tc22.palette)


def test_proper_edge_mode_reads_no_vertex_color(st32, tc32):
    # an empty vertex mapping is an edge coloring: only proper_edge is decided
    _, edge_colors = _labeled(st32, tc32)
    tc = TotalColoring.from_labels(st32, {}, edge_colors, range(1, 6))
    assert tc.vertex_colors is None
    rep = verify_coloring(st32, tc)
    assert rep.passed and rep.proper_edge
    assert (rep.proper_vertex, rep.no_incidence_clash, rep.efficient, rep.total) == (None, None, None, None)
    # a vertex mapping that is not empty must color every vertex
    v = st32.vertices[0]
    with pytest.raises(ValueError, match="uncolored vertex"):
        TotalColoring.from_labels(st32, {v: tc32.vertex_color(v)}, edge_colors, tc.palette)


def test_from_labels_round_trip(st22, tc22):
    vertex_colors, edge_colors = _labeled(st22, tc22)
    # pair keys either way round
    flipped = {(v, u): c for (u, v), c in list(edge_colors.items())[::2]}
    tc = TotalColoring.from_labels(st22, vertex_colors, dict(list(edge_colors.items())[1::2]) | flipped, tc22.palette)
    assert tc.graph is st22 and tc.palette == tc22.palette
    assert all(tc.vertex_color(v) == c for v, c in vertex_colors.items())
    assert all(tc.edge_color(u, v) == c == tc.edge_color(v, u) for (u, v), c in edge_colors.items())
    assert list(tc.vertex_colors) == list(tc22.vertex_colors)
    color = tc.edge_color_reader(st22)
    assert tc.edge_colors == {(i, j): labels[0] for i, j, labels in st22.edge_ids()}
    assert all(color(i, j, labels) == labels[0] for i, j, labels in st22.edge_ids())
    assert verify_coloring(st22, tc) == verify_coloring(st22, tc22)
    with pytest.raises(KeyError):
        tc.edge_color(ms("0011"), ms("1100"))


def test_from_labels_refuses_a_label_not_in_the_graph(st22, tc22):
    vertex_colors, edge_colors = _labeled(st22, tc22)
    with pytest.raises(ValueError, match="unknown vertex"):
        TotalColoring.from_labels(st22, vertex_colors | {ms("0000"): 1}, edge_colors, tc22.palette)
    with pytest.raises(ValueError, match="unknown vertex"):
        TotalColoring.from_labels(st22, vertex_colors, edge_colors | {(ms("0011"), ms("0000")): 1}, tc22.palette)
    with pytest.raises(ValueError, match="unknown edge"):
        TotalColoring.from_labels(st22, vertex_colors, edge_colors | {(ms("0011"), ms("1100")): 1}, tc22.palette)


@pytest.mark.parametrize("k", [2, 3])
def test_verify_coloring_on_a_second_build_reads_by_label(k):
    # a graph equal to the colored one but not it: read through the labels
    g, again = build_graph(Params(k, 2)), build_graph(Params(k, 2))
    tc = sigma_total_coloring(g)
    assert again is not g and again.label_sets is not g.label_sets
    assert verify_coloring(again, tc) == verify_coloring(g, tc)
    recolored = _recolored(g, tc, 3)
    assert not verify_coloring(g, recolored).passed
    assert verify_coloring(again, recolored) == verify_coloring(g, recolored)


def _non_regular():
    g = Graph(range(6), [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 5)])
    return g, TotalColoring.from_labels(
        g,
        {0: 0, 1: 1, 2: 0, 3: 2, 4: 3, 5: 0},
        {(0, 1): 2, (1, 2): 3, (2, 3): 1, (0, 3): 1, (0, 4): 4, (4, 5): 2},
        range(5),
    )


#: The colorings checked against the oracle, by name: (graph, coloring).
ORACLE_COLORINGS = {
    "st22": lambda request: (request.getfixturevalue("st22"), request.getfixturevalue("tc22")),
    "st32": lambda request: (request.getfixturevalue("st32"), request.getfixturevalue("tc32")),
    "st23-edges": lambda request: (
        request.getfixturevalue("st23"),
        positional_edge_coloring(request.getfixturevalue("st23")),
    ),
    "k5": lambda request: build_odd_complete_colored(2),
    "non-regular": lambda request: _non_regular(),
}
#: The witness kinds in report order, and the flag each one refutes.
KIND_FLAGS = {
    "adjacent-edges": "proper_edge",
    "adjacent-vertices": "proper_vertex",
    "vertex-incident-edge": "no_incidence_clash",
    "not-regular-with-matching-palette": "efficient",
    "non-rainbow-neighborhood": "efficient",
}


def _recolored(g, tc, seed):
    """tc with 1 to 200 seeded vertices and edges given random palette colors."""
    rng = random.Random(seed)
    vertex_colors, edge_colors = _labeled(g, tc)
    palette = sorted(tc.palette)
    for _ in range((1, 2, 5, 40, 200)[seed % 5]):
        if vertex_colors and rng.random() < 0.5:
            vertex_colors[rng.choice(list(vertex_colors))] = rng.choice(palette)
        else:
            edge_colors[rng.choice(list(edge_colors))] = rng.choice(palette)
    return TotalColoring.from_labels(g, vertex_colors, edge_colors, tc.palette)


@pytest.mark.parametrize("seed", [None, 1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("name", list(ORACLE_COLORINGS))
def test_verify_coloring_flags_match_the_oracle(request, name, seed):
    g, tc = ORACLE_COLORINGS[name](request)
    if seed is not None:
        tc = _recolored(g, tc, seed)
    rep = verify_coloring(g, tc)
    edge_color = {frozenset((u, v)): tc.edge_color(u, v) for u, v, _ in g.edges()}
    flags = brute_coloring_flags(adjacency_dict(g), _labeled(g, tc)[0], edge_color, tc.palette)
    assert (rep.proper_edge, rep.proper_vertex, rep.no_incidence_clash, rep.efficient) == flags
    assert rep.passed == (False not in flags)
    kinds = [w[0] for w in rep.witnesses]
    assert kinds == sorted(kinds, key=list(KIND_FLAGS).index)  # grouped, in kind order
    if not rep.truncated:
        assert {KIND_FLAGS[kind] for kind in kinds} == {f for f in set(KIND_FLAGS.values()) if getattr(rep, f) is False}


def test_choosability_desargues(st23):
    ok_min, chosen_min = choosability_suite(st23, min_selector)
    ok_max, chosen_max = choosability_suite(st23, max_selector)
    assert ok_min and ok_max
    assert chosen_min != chosen_max
    for v, c in chosen_min.items():
        assert c in list_assignment(v)


def test_choosability_verdict_is_the_selection_alone(st23, monkeypatch):
    # lists that meet on every edge: the min selection stays proper, the max
    # selection picks 99 everywhere
    lists = starperm.coloring.list_assignment
    monkeypatch.setattr(starperm.coloring, "list_assignment", lambda v: lists(v) | {99})
    assert choosability_suite(st23, min_selector)[0]
    assert not choosability_suite(st23, max_selector)[0]


def test_choosability_selector_out_of_list(st23):
    with pytest.raises(ValueError):
        choosability_suite(st23, lambda v, colors: -1)


def test_choosability_degenerate_ell2(st22, tc22):
    ok, chosen = choosability_suite(st22, min_selector)
    assert ok
    assert chosen == {v: repeat_position(v) for v in st22.vertices}
    assert chosen == {v: tc22.vertex_color(v) for v in st22.vertices}


def test_obstruction_st23_exhaustive(st23):
    rep = efficiency_obstruction_witness(st23)
    assert rep.passed
    assert rep.method == "exhaustive"
    assert rep.selection_count == 2**10
    assert rep.counterexample is None
    assert rep.witnesses  # one monochromatic pair per enumerated selection


def test_obstruction_witnesses_are_close_pairs(st23):
    rep = efficiency_obstruction_witness(st23)
    for x, y, c in rep.witnesses:
        assert c in list_assignment(x) and c in list_assignment(y)
        assert st23.distance(x, y) <= 2


def test_obstruction_st24_backtracking():
    g = build_graph(Params(2, 4))
    rep = efficiency_obstruction_witness(g)
    assert rep.passed
    assert rep.method == "backtracking"
    assert rep.selection_count == 3**17


def test_obstruction_requires_ell_3(st32):
    with pytest.raises(ValueError):
        efficiency_obstruction_witness(st32)


@pytest.mark.parametrize("k,ell", [(2, 3), (3, 2), (2, 4), (3, 3)])
def test_adjacent_lists_disjoint_everywhere(k, ell):
    g = build_graph(Params(k, ell))
    for u, v, _ in g.edges():
        assert not list_assignment(u) & list_assignment(v)


def test_coloring_witness_colors_and_degrees_read_as_lists_in_json(st22, tc22):
    # a tuple of small ints renders as a vertex label; colors and degrees must not
    from starperm.report import CheckResult, SuiteReport

    vertex_colors, edge_colors = _labeled(st22, tc22)
    vertex_colors[ms("0011")] = 3  # its neighbours 1001 and 1010 have 3 and 2
    clashing = verify_coloring(st22, TotalColoring.from_labels(st22, vertex_colors, edge_colors, tc22.palette))
    uneven = verify_coloring(*_non_regular())
    kinds = ("non-rainbow-neighborhood", "not-regular-with-matching-palette")
    witnesses = [next(w for w in clashing.witnesses + uneven.witnesses if w[0] == kind) for kind in kinds]
    report = SuiteReport("coloring", {}, "0", [CheckResult("c", "fail", witnesses=witnesses)])
    assert json.loads(report.to_json())["checks"][0]["witnesses"] == [
        ["non-rainbow-neighborhood", "0011", [2, 3]],
        ["not-regular-with-matching-palette", "irregular", [1, 2, 3], 5],
    ]
