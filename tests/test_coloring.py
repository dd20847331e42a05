import json
import random
import re

import pytest

import starperm.coloring
import starperm.suites
from starperm import (
    Graph,
    TotalColoring,
    build_odd_complete_colored,
    choosability_suite,
    efficiency_obstruction_witness,
    list_assignment,
    mstring,
    positional_edge_coloring,
    sigma_total_coloring,
    verify_coloring,
)
from starperm.errors import CapExceeded
from starperm.graphs import Params, build_graph
from starperm.suites import run_suite

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
    assert verify_coloring(tc).proper_edge


def test_vertex_color_on_an_edge_coloring_says_so(st23):
    tc = positional_edge_coloring(st23)
    with pytest.raises(ValueError, match="an edge coloring has no vertex colors"):
        tc.vertex_color(st23.vertices[0])


def test_positional_decides_one_label_per_edge_without_an_edge_walk(monkeypatch):
    # the graph's distinct label tuples decide it; the edges are not read
    g = build_graph(Params(3, 2))

    def no_walk(self):
        raise AssertionError("positional_edge_coloring walked the edges")

    monkeypatch.setattr(Graph, "edge_ids", no_walk)
    tc = positional_edge_coloring(g)
    assert tc.graph is g and tc.palette == frozenset(range(1, 6))


def test_positional_names_an_edge_that_carries_two_labels():
    g = build_graph(Params(3, 2))
    g._labels = ((1, 2), *g._labels[1:])
    i, j, _ = next(e for e in g.edge_ids() if len(e[2]) == 2)
    with pytest.raises(ValueError, match=re.escape(f"edge ({g.vertices[i]}, {g.vertices[j]}) carries labels (1, 2)")):
        positional_edge_coloring(g)


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


def test_sigma_total_and_efficient(tc32):
    rep = verify_coloring(tc32)
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
    rep = verify_coloring(tc)
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


def test_from_labels_refuses_an_uncolored_edge(st22, tc22):
    vertex_colors, edge_colors = _labeled(st22, tc22)
    (u, v), _ = edge_colors.popitem()
    with pytest.raises(ValueError, match=re.escape(f"uncolored edge ({u!r}, {v!r})")):
        TotalColoring.from_labels(st22, vertex_colors, edge_colors, tc22.palette)


def test_a_coloring_needs_one_label_per_edge():
    with pytest.raises(ValueError, match=re.escape("edge (0, 1) carries labels (), want exactly one")):
        TotalColoring(Graph(range(3), [(0, 1), (1, 2)]), None, frozenset({1}))
    g = Graph(range(3), [(0, 1, (1,)), (1, 2, (1, 2))])
    with pytest.raises(ValueError, match=re.escape("edge (1, 2) carries labels (1, 2), want exactly one")):
        TotalColoring(g, None, frozenset({1, 2}))
    # a restriction shares its parent's label sets; only its own edges count
    assert TotalColoring(g.restrict([0, 1]), None, frozenset({1})).edge_color(0, 1) == 1


def test_proper_edge_mode_reads_no_vertex_color(st32, tc32):
    # an empty vertex mapping is an edge coloring: only proper_edge is decided
    _, edge_colors = _labeled(st32, tc32)
    tc = TotalColoring.from_labels(st32, {}, edge_colors, range(1, 6))
    assert tc.vertex_colors is None
    rep = verify_coloring(tc)
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
    # a plain copy of st22 whose edge labels are the colors
    assert tc.graph is not st22 and tc.palette == tc22.palette
    assert tc.graph.vertices == tuple(st22.vertices) and list(tc.graph.edge_ids()) == list(st22.edge_ids())
    assert all(tc.vertex_color(v) == c for v, c in vertex_colors.items())
    assert all(tc.edge_color(u, v) == c == tc.edge_color(v, u) for (u, v), c in edge_colors.items())
    assert list(tc.vertex_colors) == list(tc22.vertex_colors)
    assert verify_coloring(tc) == verify_coloring(tc22)
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
    rep = verify_coloring(tc)
    edge_color = {frozenset((u, v)): tc.edge_color(u, v) for u, v, _ in g.edges()}
    flags = brute_coloring_flags(adjacency_dict(g), _labeled(g, tc)[0], edge_color, tc.palette)
    assert (rep.proper_edge, rep.proper_vertex, rep.no_incidence_clash, rep.efficient) == flags
    assert rep.passed == (False not in flags)
    kinds = [w[0] for w in rep.witnesses]
    assert kinds == sorted(kinds, key=list(KIND_FLAGS).index)  # grouped, in kind order
    if not rep.truncated:
        assert {KIND_FLAGS[kind] for kind in kinds} == {f for f in set(KIND_FLAGS.values()) if getattr(rep, f) is False}


@pytest.mark.parametrize("seed", [2, 4])
@pytest.mark.parametrize("name", ["st32", "st23-edges"])
def test_restrict_keeps_every_color(request, name, seed):
    g, tc = ORACLE_COLORINGS[name](request)
    tc = _recolored(g, tc, seed)
    keep = [x for x in range(g.n) if x % 5]
    kept = [(i, j) for i, j, _ in g.edge_ids() if i % 5 and j % 5]
    drop = {e for i, j in kept[::7] for e in ((i, j), (j, i))}
    sub = tc.restrict(keep, drop)
    assert sub.graph.vertices == tuple(g.vertices[x] for x in keep) and sub.palette == tc.palette
    assert sorted((u, v) for u, v, _ in sub.graph.edges()) == sorted(
        (g.vertices[i], g.vertices[j]) for i, j in kept if (i, j) not in drop
    )
    if tc.vertex_colors is None:
        assert sub.vertex_colors is None
    else:
        assert all(sub.vertex_color(v) == tc.vertex_color(v) for v in sub.graph.vertices)
    assert all(sub.edge_color(u, v) == tc.edge_color(u, v) for u, v, _ in sub.graph.edges())


def _column(g, pick):
    return [pick(list_assignment(v)) for v in g.vertices]


def test_choosability_desargues(st23):
    chosen_min, chosen_max = _column(st23, min), _column(st23, max)
    ok_min, ok_max = choosability_suite(st23, chosen_min), choosability_suite(st23, chosen_max)
    assert ok_min and ok_max
    assert chosen_min != chosen_max
    for v, c in zip(st23.vertices, chosen_min):
        assert c in list_assignment(v)


def test_choosability_verdict_is_the_selection_alone(st23, monkeypatch):
    # lists that meet on every edge: the min selection stays proper, the max
    # selection picks 99 everywhere
    lists = starperm.suites.list_assignment
    monkeypatch.setattr(starperm.suites, "list_assignment", lambda v: lists(v) | {99})
    checks = {c.name: c.status for c in run_suite("coloring", 2, 3, st23).checks}
    assert checks["list-disjointness"] == "fail"
    assert checks["selector-min-proper"] == "pass"
    assert checks["selector-max-proper"] == "fail"


def test_choosability_degenerate_ell2(st22, tc22):
    chosen = _column(st22, min)
    assert choosability_suite(st22, chosen)
    assert chosen == list(st22.repeat_positions())
    assert chosen == list(tc22.vertex_colors)


def test_obstruction_st23(st23):
    rep = efficiency_obstruction_witness(st23)
    assert rep.passed
    assert rep.selection_count == 2**10
    assert rep.nodes == 16
    assert rep.counterexample is None


def test_obstruction_st24():
    g = build_graph(Params(2, 4))
    rep = efficiency_obstruction_witness(g)
    assert rep.passed
    assert rep.selection_count == 3**17
    assert rep.nodes == 158


def test_obstruction_st34_is_decided_on_its_65_vertex_ball():
    g = build_graph(Params(3, 4))
    assert len(g.bfs_distances(g.vertices[0], limit=2)) == 65
    rep = efficiency_obstruction_witness(g)
    assert rep.passed and rep.nodes == 2306 and rep.counterexample is None


@pytest.mark.parametrize("k,ell", [(2, 3), (2, 4)])
def test_obstruction_fails_on_lists_no_two_vertices_share(k, ell, monkeypatch):
    # then no two ball vertices can collide, and the first selection tried
    # is a counterexample over the whole ball, one placement per position
    g = build_graph(Params(k, ell))
    lists = starperm.coloring.list_assignment

    def disjoint(v):
        return frozenset(c + 100 * g.index(v) for c in lists(v))

    monkeypatch.setattr(starperm.coloring, "list_assignment", disjoint)
    rep = efficiency_obstruction_witness(g)
    ball = g.bfs_distances(g.vertices[0], limit=2)
    assert not rep.passed and rep.nodes == len(ball)
    assert set(rep.counterexample) == set(ball)
    assert all(c in disjoint(x) for x, c in rep.counterexample.items())


def test_obstruction_past_its_node_budget_is_a_skip(monkeypatch):
    monkeypatch.setattr(starperm.coloring, "OBSTRUCTION_NODE_BUDGET", 100)
    g = build_graph(Params(2, 4))
    with pytest.raises(CapExceeded, match="obstruction search at 00001111 exceeded node budget 100"):
        efficiency_obstruction_witness(g)
    checks = {c.name: c for c in run_suite("coloring", 2, 4, g).checks}
    skipped = checks.pop("efficiency-obstruction")
    assert skipped.status == "skip" and "node budget 100" in skipped.detail
    assert [c.status for c in checks.values()] == ["pass"] * 4


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
    clashing = verify_coloring(TotalColoring.from_labels(st22, vertex_colors, edge_colors, tc22.palette))
    uneven = verify_coloring(_non_regular()[1])
    kinds = ("non-rainbow-neighborhood", "not-regular-with-matching-palette")
    witnesses = [next(w for w in clashing.witnesses + uneven.witnesses if w[0] == kind) for kind in kinds]
    report = SuiteReport("coloring", {}, "0", None)
    report.checks.append(CheckResult("c", "fail", "", witnesses, 0.0, False))
    assert json.loads(report.to_json())["checks"][0]["witnesses"] == [
        ["non-rainbow-neighborhood", "0011", [2, 3]],
        ["not-regular-with-matching-palette", "irregular", [1, 2, 3], 5],
    ]
