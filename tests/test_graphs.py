import ast
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import starperm
from starperm import (
    CapExceeded,
    GeneratorFamily,
    Graph,
    Params,
    TotalColoring,
    build_graph,
    enumerate_vertices,
    isomorphic,
    iter_vertices,
    mstring,
    render,
    six_cycles,
    verify_coloring,
)
from starperm.graphs import PackedLabels

from .oracles import (
    adjacency_dict,
    brute_component_sizes,
    brute_count_six_cycles,
    brute_cut,
    brute_edge_adjacency,
    brute_move_graph,
    brute_multiset_perms,
    odd_complete_total_coloring,
)

ms = mstring

STAR_CYCLE_ORDER = ["0011", "1001", "0101", "1100", "0110", "1010"]
PANCAKE_CYCLE = ["0011", "1001", "0101", "1010", "0110", "1100"]


def _adjacent(g, u, v):
    return g.label(g.index(u), g.index(v)) is not None


def _is_exactly_cycle(g, order):
    verts = [ms(s) for s in order]
    wanted = {frozenset((verts[i], verts[(i + 1) % len(verts)])) for i in range(len(verts))}
    return {frozenset((u, v)) for u, v, _ in g.edges()} == wanted


def test_st22_is_expected_six_cycle(st22):
    assert st22.n == 6 and st22.m == 6
    assert _is_exactly_cycle(st22, STAR_CYCLE_ORDER)


def test_pc22_is_pancake_six_cycle(pc22):
    assert pc22.n == 6 and pc22.m == 6
    assert _is_exactly_cycle(pc22, PANCAKE_CYCLE)


def test_st23_is_desargues_shaped(st23):
    assert (st23.n, st23.m) == (20, 30)
    assert st23.regularity() == ("regular", (3,))
    assert st23.girth() == 6
    assert st23.is_bipartite() and st23.is_connected()


def test_st32_metrics(st32):
    assert (st32.n, st32.m) == (90, 180)
    assert st32.regularity() == ("regular", (4,))
    assert st32.girth() == 6 and st32.is_connected()


@pytest.mark.parametrize("k,ell", [(2, 2), (3, 1), (3, 2), (4, 1), (4, 2), (2, 3), (3, 3)])
def test_st_regular_connected(k, ell):
    g = build_graph(Params(k, ell))
    assert g.regularity() == ("regular", ((k - 1) * ell,))
    assert g.is_connected()
    assert not g.has_triangle()


def test_has_triangle_follows_edge_changes():
    g = Graph(range(3), [(0, 1), (1, 2), (0, 2)])
    assert g.has_triangle()
    path = g.subgraph(delete_edges=[(0, 2)])
    assert not path.has_triangle() and g.has_triangle()
    assert Graph(*odd_complete_total_coloring(1)[:2]).has_triangle()


def test_parallel_edges_merge_their_labels():
    g = Graph("abc", [("a", "b", (2,)), ("b", "a", (1, 2)), ("c", "b")])
    assert list(g.edges()) == [("a", "b", (1, 2)), ("b", "c", ())]
    with pytest.raises(ValueError):
        Graph("ab", [("a", "a")])


def test_more_than_256_label_sets_keep_their_ids():
    # label ids are one byte each up to 256 distinct label tuples, then widen
    g = Graph(range(301), [(i, i + 1, (i,)) for i in range(300)])
    assert len(g.label_sets) == 300
    assert all(labels == (i,) for i, (_, _, labels) in enumerate(g.edges()))
    h = g.subgraph(delete_vertices=[0])
    assert [labels for _, _, labels in h.edges()] == [(i,) for i in range(1, 300)]


def test_pc_same_vertex_set(st32, pc32):
    assert tuple(st32.vertices) == tuple(pc32.vertices)


def test_edge_labels_agree_from_both_ends(st32):
    for i, j, labels in st32.edge_ids():
        assert st32.label(j, i) == labels
        assert len(labels) == 1


def test_six_cycles_counts(st22, st23, st32):
    assert len(list(six_cycles(st22))) == 1
    assert len(list(six_cycles(st23))) == 20
    cycles = list(six_cycles(st32))
    assert len(cycles) == 90 and cycles == sorted(cycles)


def test_six_cycles_against_brute_force(st23, st32, pc32):
    for g in (st23, st32, pc32):
        assert len(list(six_cycles(g))) == brute_count_six_cycles(adjacency_dict(g))


def test_six_cycles_are_cycles(st32):
    for cyc in six_cycles(st32):
        assert len(set(cyc)) == 6 and all(0 <= x < st32.n for x in cyc)
        for i in range(6):
            assert st32.label(cyc[i], cyc[(i + 1) % 6]) is not None


def test_six_cycle_cap(monkeypatch):
    monkeypatch.setattr(starperm.graphs, "SIX_CYCLE_CAP", 100)
    g = build_graph(Params(4, 2))
    with pytest.raises(CapExceeded):
        six_cycles(g)


def test_subgraph_and_components(st32):
    from starperm import sigma_set, sigma_total_coloring

    sigma5 = [st32.vertices[x] for x in sigma_set(st32, 5)]
    minus = st32.subgraph(delete_vertices=sigma5)
    assert minus.n == 72
    assert minus.regularity() == ("regular", (3,))
    assert minus.is_connected()

    tc = sigma_total_coloring(st32)
    left = set(minus.vertices)
    kept = [(u, v) for u, v, labels in tc.graph.edges() if labels == (5,) and u in left and v in left]
    comps = minus.subgraph(delete_edges=kept).components()
    assert len(comps) == 12
    assert all(c.n == 6 and c.regularity() == ("regular", (2,)) for c in comps)


def test_subgraph_identity_and_errors(st22):
    same = st22.subgraph()
    assert same.vertices == tuple(st22.vertices)
    assert {(u, v) for u, v, _ in same.edges()} == {(u, v) for u, v, _ in st22.edges()}
    with pytest.raises(ValueError):
        st22.subgraph(delete_vertices=[ms("0000")])
    with pytest.raises(ValueError):
        st22.subgraph(delete_edges=[(ms("0011"), ms("0101"))])


def test_isomorphic_basics(st22):
    ok, mapping = isomorphic(st22, st22)
    assert ok
    assert all(mapping[u] == u or True for u in mapping)  # bijection exists
    assert set(mapping) == set(st22.vertices) and set(mapping.values()) == set(st22.vertices)

    c6 = Graph(range(6), [(i, (i + 1) % 6) for i in range(6)])
    two_triangles = Graph(range(6), [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert isomorphic(c6, two_triangles) == (False, None)
    ok, mapping = isomorphic(st22, c6)
    assert ok
    for u, v, _ in st22.edges():
        assert _adjacent(c6, mapping[u], mapping[v])


def test_isomorphic_depth_is_not_bounded_by_the_recursion_limit():
    # a search that recursed once per mapped vertex would need 1,000 frames
    n = 1000
    cycle = Graph(range(n), [(i, (i + 1) % n) for i in range(n)])
    relabel = [(7 * i + 3) % n for i in range(n)]
    copy = Graph(range(n), [(relabel[i], relabel[(i + 1) % n]) for i in range(n)])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        ok, mapping = isomorphic(cycle, copy)
    finally:
        sys.setrecursionlimit(limit)
    assert ok and sorted(mapping.values()) == list(range(n))
    assert all(_adjacent(copy, mapping[u], mapping[v]) for u, v, _ in cycle.edges())


def test_isomorphic_st32_components(st32, st22):
    from starperm import sigma_set, sigma_total_coloring

    tc = sigma_total_coloring(st32)
    minus = st32.subgraph(delete_vertices=[st32.vertices[x] for x in sigma_set(st32, 5)])
    left = set(minus.vertices)
    e5 = [(u, v) for u, v, labels in tc.graph.edges() if labels == (5,) and u in left and v in left]
    for comp in minus.subgraph(delete_edges=e5).components():
        ok, mapping = isomorphic(comp, st22)
        assert ok
        for u, v, _ in comp.edges():
            assert _adjacent(st22, mapping[u], mapping[v])


def test_odd_complete_k5_colors():
    verts, edges, colors = odd_complete_total_coloring(2)
    g = Graph(verts, edges)
    pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (1, 3), (2, 4), (3, 0), (4, 1)]
    assert [g.label(u, v)[0] for u, v in pairs] == [3, 4, 0, 1, 2, 1, 2, 3, 4, 0]
    assert colors == list(range(5))
    assert g.girth() == 3
    assert verify_coloring(TotalColoring(g, colors, frozenset(verts))).passed


def test_odd_complete_k3_formula():
    g = Graph(*odd_complete_total_coloring(1)[:2])
    for j in range(3):
        assert g.label((j - 1) % 3, (j + 1) % 3) == (j,)


def test_custom_identity_family_equals_star(st32):
    fam = GeneratorFamily.custom([[]] * 5)
    g = build_graph(Params(3, 2), fam)
    assert list(g.edges()) == list(st32.edges())


def test_custom_family_keeps_the_edges_of_moves_that_fix_the_first_symbol():
    # with pi_4 = (1 3), move 4 on a string with v[4] == v[0] swaps entries 1
    # and 3 only: an edge no star move makes, labelled 4 all the same
    fam = GeneratorFamily.custom([[], [], [], [(1, 3)], []])
    g = build_graph(Params(3, 2), fam)
    adj = brute_move_graph(3, 2, "custom", [[], [], [], [(1, 3)], []])
    fixed = [(u, w, j) for u in adj for w, labels in adj[u].items() for j in labels if u[j] == u[0]]
    assert fixed and {j for _, _, j in fixed} == {4}
    for u, w, j in fixed:
        assert j in g.label(g.index(u), g.index(w))


def test_position_maps_are_the_custom_rule_only():
    # catches a revived star or pancake branch beside star_neighbors and prefix_reversal
    fam = GeneratorFamily.custom([[], [], [], [(1, 3)], []])
    maps = fam.position_maps(6)
    assert maps[0] == (1, 0, 2, 3, 4, 5)
    assert maps[3] == (4, 3, 2, 1, 0, 5)
    for other in (GeneratorFamily.star(), GeneratorFamily.pancake()):
        with pytest.raises(ValueError):
            other.position_maps(6)


def test_families_print_by_value():
    # the benchmark tracer counts distinct builds by (Params, repr(family))
    star, pancake = GeneratorFamily.star(), GeneratorFamily.pancake()
    assert repr(star) == repr(GeneratorFamily.star())
    assert repr(star) != repr(pancake)
    pis = [[], [], [], [(1, 3)], []]
    custom = GeneratorFamily.custom(pis)
    assert repr(custom) == repr(GeneratorFamily.custom(pis))
    assert repr(custom) != repr(GeneratorFamily.custom([[]] * 5)) and repr(custom) != repr(star)


def test_custom_family_validation():
    with pytest.raises(ValueError):
        GeneratorFamily.custom([[(1, 2)], [], [], [], []])  # pi_1 must be identity
    with pytest.raises(ValueError):
        GeneratorFamily.custom([[], [], [(1, 3)], [], []])  # 3 outside {1..i-1}
    with pytest.raises(ValueError):
        GeneratorFamily.custom([[], [], [], [(1, 2), (2, 3)], []])  # not independent


def test_pancake_collapse_keeps_label_sets():
    g = build_graph(Params(2, 3), GeneratorFamily.pancake())
    assert all(len(labels) >= 1 for _, _, labels in g.edges())
    kind, degs = g.regularity()
    assert kind == "regular"


# ---------------------------------------------------------------------------
# the compressed-row core against the string-level oracle
# ---------------------------------------------------------------------------

CUSTOM_PIS = [[], [], [], [(1, 3)], []]
CORE_CASES = [("star", 2, 2), ("star", 3, 2), ("star", 2, 3), ("star", 3, 3), ("pancake", 3, 2), ("custom", 3, 2)]


def _core_and_oracle(family, k, ell):
    fam = GeneratorFamily.custom(CUSTOM_PIS) if family == "custom" else getattr(GeneratorFamily, family)()
    return build_graph(Params(k, ell), fam), brute_move_graph(k, ell, family, CUSTOM_PIS)


@pytest.mark.parametrize("family,k,ell", CORE_CASES)
def test_core_matches_string_oracle(family, k, ell):
    g, adj = _core_and_oracle(family, k, ell)
    assert tuple(g.vertices) == tuple(sorted(adj))  # canonical order is lexicographic
    edges = [(u, v, adj[u][v]) for u in g.vertices for v in sorted(adj[u]) if v > u]
    assert list(g.edges()) == edges and g.m == len(edges)
    for i, u in enumerate(g.vertices):
        assert list(g.row(i)) == [g.index(v) for v in sorted(adj[u])]
        for v, labels in adj[u].items():
            assert g.label(i, g.index(v)) == labels
        for v in {x for w in adj[u] for x in adj[w]} - set(adj[u]):  # u itself, or at distance 2
            assert g.label(i, g.index(v)) is None
    assert sorted(c.n for c in g.components()) == brute_component_sizes(adj)


@pytest.mark.parametrize("family,k,ell", CORE_CASES)
def test_subgraph_matches_string_oracle(family, k, ell):
    g, labeled = _core_and_oracle(family, k, ell)
    gone = [v for v in g.vertices if v[0] == v[-1]]
    adj = {u: {v for v in labeled[u] if v not in gone} for u in g.vertices if u not in gone}
    cut = [(u, v) for u in sorted(adj) for v in sorted(adj[u]) if v > u][::3]
    for u, v in cut:
        adj[u].discard(v)
        adj[v].discard(u)
    h = g.subgraph(delete_vertices=gone, delete_edges=[(v, u) for u, v in cut])
    assert h.vertices == tuple(sorted(adj))
    assert adjacency_dict(h) == adj
    assert all(labels == labeled[u][v] for u, v, labels in h.edges())
    assert sorted(c.n for c in h.components()) == brute_component_sizes(adj)


# ---------------------------------------------------------------------------
# the two row layouts: a fixed stride for regular graphs, offsets otherwise
# ---------------------------------------------------------------------------


def _assert_core_is(g, adj):
    """Every reader of g's core agrees with the oracle adjacency adj, a
    {u: {v: labels}} dict in g's vertex order, and g keeps row offsets
    exactly when its degrees differ."""
    assert tuple(g.vertices) == tuple(adj)
    pos = {u: i for i, u in enumerate(adj)}
    rows = [sorted((pos[v], labels) for v, labels in adj[u].items()) for u in adj]
    degrees = Counter(map(len, rows))
    for i, row in enumerate(rows):
        assert list(g.row(i)) == [j for j, _ in row]
        assert [(j, g.label_sets[lid]) for j, lid in g.labeled_row(i)] == row
        for p, (j, labels) in enumerate(row):
            assert g.label(i, j) == labels and g.row_index(i, j) == p and g.row_entry(i, p) == j
        for j in set(range(g.n)) - {j for j, _ in row}:
            assert g.label(i, j) is None
            with pytest.raises(ValueError):
                g.row_index(i, j)
    assert list(g.edge_ids()) == [(i, j, labels) for i, row in enumerate(rows) for j, labels in row if j > i]
    assert g.degree_census() == dict(sorted(degrees.items()))
    kind = {1: "regular", 2: "biregular"}.get(len(degrees), "irregular")
    assert g.regularity() == (kind, tuple(sorted(degrees)))
    assert g.m == sum(degrees[d] * d for d in degrees) // 2
    if len(degrees) > 1:
        assert g._stride is None and g._start is not None
    else:  # one degree, or no vertex: a stride and no offsets
        assert g._stride == max(degrees, default=0) and g._start is None


# C_4 on 0..3 with a pendant 4 at 3: rows 0-2 share degree 2, so the
# layout switches to offsets at row 3
SWITCH = (range(5), [(0, 1, (1,)), (1, 2, (2,)), (2, 3, (1,)), (3, 0, (2,)), (3, 4, (3,)), (4, 3, (1,))])


@pytest.mark.parametrize(
    "vertices,edges",
    [
        ("abcde", [("a", "b", (1,)), ("b", "c"), ("c", "d", (2, 1)), ("d", "e", (1,)), ("e", "a", (3,))]),  # C_5
        SWITCH,
        (range(3), []),  # degree 0
        ((), []),  # no vertex
    ],
    ids=["regular", "switches-to-offsets", "degree-0", "empty"],
)
def test_core_layouts_match_the_edge_list(vertices, edges):
    _assert_core_is(Graph(vertices, edges), brute_edge_adjacency(vertices, edges))


@pytest.mark.parametrize("family,k,ell", [("star", 3, 2), ("custom", 3, 2), ("star", 1, 2)])
def test_built_core_layouts_match_the_string_oracle(family, k, ell):
    g, adj = _core_and_oracle(family, k, ell)
    _assert_core_is(g, adj)
    # the custom pi_4 = (1 3) makes ST(3,2) irregular: 78 vertices of degree 4, 12 of 5
    assert g.degree_census() == ({4: 78, 5: 12} if family == "custom" else {(k - 1) * ell: g.n})


# ---------------------------------------------------------------------------
# a permutation graph stores the rows of ids 0..ceil(n/2)-1, the others
# read as mirrors under the symbol reversal
# ---------------------------------------------------------------------------

MIRROR_SIZES = [(1, 2), (2, 2), (3, 2), (2, 3), (4, 2)]
PI_4, PI_5 = {4: [(1, 3)]}, {5: [(1, 2)]}  # custom involutions pi_j, by generator j
MIRROR_CASES = (
    [(family, {}, k, ell) for family in ("star", "pancake", "custom") for k, ell in MIRROR_SIZES]
    + [("custom", PI_4, k, ell) for k, ell in ((3, 2), (2, 3), (4, 2))]  # irregular: {4: 78, 5: 12} at (3,2)
    + [("custom", PI_5, 2, 3)]  # has triangles
)


@pytest.mark.parametrize("family,moved,k,ell", MIRROR_CASES)
def test_every_core_reader_agrees_with_the_oracle_in_both_halves(family, moved, k, ell):
    pis = [moved.get(j, []) for j in range(1, k * ell)]
    fam = GeneratorFamily.custom(pis) if family == "custom" else getattr(GeneratorFamily, family)()
    g, adj = build_graph(Params(k, ell), fam), brute_move_graph(k, ell, family, pis)
    verts = brute_multiset_perms(k, ell)  # the canonical order, by id
    pos = {v: i for i, v in enumerate(verts)}
    rows = [sorted((pos[w], labels) for w, labels in adj[v].items()) for v in verts]
    n = len(verts)
    assert g.n == n and g._stored == (n + 1) // 2  # ids from ceil(n/2) on are mirrored
    for i, row in enumerate(rows):
        ids = [j for j, _ in row]
        assert list(g.row(i)) == ids
        assert [(j, g.label_sets[lid]) for j, lid in g.labeled_row(i)] == row
        for p, (j, labels) in enumerate(row):
            assert g.row_index(i, j) == p and g.row_entry(i, p) == j and g.label(i, j) == labels
        # a non-adjacent pair: i itself, and one at distance 2 where there is one
        far = [x for j in ids for x in map(pos.get, adj[verts[j]]) if x != i and x not in ids]
        for j in [i] + far[:1]:
            assert g.label(i, j) is None
            with pytest.raises(ValueError):
                g.row_index(i, j)
    assert list(g.edge_ids()) == [(i, j, labels) for i, row in enumerate(rows) for j, labels in row if j > i]
    assert g.m == sum(map(len, rows)) // 2
    assert g.degree_census() == dict(sorted(Counter(map(len, rows)).items()))
    triangle = any(set(adj[u]) & set(adj[v]) for u in adj for v in adj[u])
    assert g.has_triangle() == triangle
    if moved is PI_5:  # the scan meets a yes as well as a no
        assert triangle


def test_restrict_lays_out_its_own_rows(st32):
    adj = brute_move_graph(3, 2)
    # without its first vertex ST(3,2) is irregular; the other cuts are regular
    for keep in (range(1, st32.n), range(st32.n), range(0)):
        _assert_core_is(st32.restrict(keep), brute_cut(adj, [st32.vertices[i] for i in keep]))
    vertices, edges = SWITCH
    g, adj = Graph(vertices, edges), brute_edge_adjacency(vertices, edges)
    _assert_core_is(g.restrict([0, 1, 2, 3]), brute_cut(adj, [0, 1, 2, 3]))  # irregular to regular: C_4
    _assert_core_is(g.restrict([0, 1, 2, 3], {(0, 3), (3, 0)}), brute_cut(adj, [0, 1, 2, 3], [(0, 3)]))  # a path
    _assert_core_is(g.restrict([1, 3, 4]), brute_cut(adj, [1, 3, 4]))  # 1 isolated, 3-4 an edge


# ---------------------------------------------------------------------------
# star labels read off the codes
# ---------------------------------------------------------------------------


def _assert_labels_are(h, adj):
    """h's labels, read through labeled_row, label and edge_ids, are the
    oracle adjacency adj's, a {u: {v: labels}} dict keyed by h's vertices."""
    verts = h.vertices
    for i, u in enumerate(verts):
        row = [(verts[j], h.label_sets[lid]) for j, lid in h.labeled_row(i)]
        assert row == sorted(adj[u].items())
        assert [(verts[j], h.label(i, j)) for j in h.row(i)] == row
    edges = [(u, v, adj[u][v]) for u in verts for v in sorted(adj[u]) if v > u]
    assert [(verts[i], verts[j], labels) for i, j, labels in h.edge_ids()] == edges


@pytest.mark.parametrize("k,ell", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 4)])
def test_star_labels_are_the_transposition_positions(k, ell):
    # a star graph keeps no label column: the edge (0 j) carries (j,),
    # label id j - 1, read off its ends' codes
    g, adj = build_graph(Params(k, ell)), brute_move_graph(k, ell)
    assert g._lab is None and g.label_sets == tuple((j,) for j in range(1, k * ell))
    _assert_labels_are(g, adj)
    # a restricted copy stores the labels it read, in a column of its own
    keep = [i for i in range(g.n) if i % 3]
    sub = g.restrict(keep)
    assert sub._lab is not None and sub.label_sets is g.label_sets
    _assert_labels_are(sub, brute_cut(adj, dict.fromkeys(g.vertices[i] for i in keep)))


class _EveryChange(dict):
    """A star move table that holds every code difference, as label id 0."""

    def __missing__(self, key):
        return 0

    def get(self, key, default=None):
        return self[key]

    def __contains__(self, key):
        return True


@pytest.mark.parametrize("k,ell", [(2, 2), (3, 2), (2, 3)])
def test_only_the_row_decides_star_adjacency(k, ell):
    # Below k = 9 no two non-adjacent strings' codes differ by a move's
    # change (it changes digits 0 and j only, and no borrow leaves a digit
    # under k), so the second pass makes every code difference a table entry.
    g = build_graph(Params(k, ell))
    rows = [set(g.row(i)) for i in range(g.n)]
    labels = [[g.label(i, j) for j in sorted(rows[i])] for i in range(g.n)]
    for moves in (g._moves, _EveryChange(g._moves)):
        g._moves = moves
        for i in range(g.n):
            assert [g.label(i, j) for j in sorted(rows[i])] == labels[i]
            assert all(g.label(i, j) is None for j in range(g.n) if j not in rows[i])


@pytest.mark.parametrize("ell", [2, 3])
def test_an_edgeless_star_graph_has_no_label_sets(ell):
    g = build_graph(Params(1, ell))  # what build --k 1 writes: one vertex
    assert g.n == 1 and g.m == 0 and g.label_sets == () and list(g.edge_ids()) == []


@pytest.mark.parametrize("k,ell", [(3, 2), (2, 3)])
def test_pancake_graph_keeps_its_stored_labels(k, ell):
    g = build_graph(Params(k, ell), GeneratorFamily.pancake())
    # the stored rows, ids 0..n/2-1, hold half of the 2m row entries and label ids
    assert g._moves is None and len(g._lab) == len(g._nbr) == g.m
    _assert_labels_are(g, brute_move_graph(k, ell, "pancake"))


def _family(name, length):
    if name == "custom":  # pi_4 = (1 3) where there is a pi_4
        return GeneratorFamily.custom(([[], [], [], [(1, 3)]] + [[]] * (length - 5))[: length - 1])
    return getattr(GeneratorFamily, name)()


def _code(v) -> int:
    """The packed code of a string: its symbols as hex digits."""
    return int("".join(f"{s:x}" for s in v), 16)


@pytest.mark.parametrize("family", ["star", "pancake", "custom"])
@pytest.mark.parametrize("k,ell", [(1, 2), (1, 5), (2, 2), (3, 2), (2, 3), (3, 3), (4, 2), (2, 9)])
def test_packed_labels_match_the_enumeration(family, k, ell):
    p = Params(k, ell)
    g = build_graph(p, _family(family, p.length))
    verts = enumerate_vertices(p)
    if p.length <= 9:
        assert verts == brute_multiset_perms(k, ell)
    # the lower half of the codes is stored, the upper half read as its mirror
    assert len(g.vertices._codes) == (g.n + 1) // 2
    assert list(g.vertices) == verts and len(g.vertices) == g.n == len(verts)
    assert tuple(g.vertices) == tuple(iter_vertices(p))
    mid = g.n // 2  # ids from ceil(n/2) on are read as mirrors of stored codes
    assert [g.vertices[i] for i in range(max(mid - 2, 0), min(mid + 3, g.n))] == verts[max(mid - 2, 0) : mid + 3]
    assert [g.vertices[i] for i in reversed(range(g.n))] == verts[::-1]
    assert [g.vertices[i] for i in range(-1, -g.n - 1, -1)] == verts[::-1]  # every negative int
    with pytest.raises(TypeError):  # ids only: no slices
        g.vertices[1:3]
    for i, v in enumerate(verts):
        assert g.index(v) == i and g.vertices[i] == v == g.vertices[i - g.n] and v in g.vertices
        assert g.vertices.find_text(render(v)) == i == g.vertices.find_text(",".join(map(str, v)))
        assert g.vertices.text(i) == render(v)
        assert g.vertices.digits(i) == "".join(f"{s:x}" for s in v)
    for i in (g.n, -g.n - 1):
        with pytest.raises(IndexError):
            g.vertices[i]
    for read in (g.vertices.text, g.vertices.digits):  # by id, 0 <= id < n
        for i in (g.n, -1):
            with pytest.raises(IndexError):
                read(i)
    v = verts[-1]
    strangers = [
        v[:-1],  # wrong length
        v + (0,),
        (v[0],) * p.length if k > 1 else (1,) * p.length,  # wrong multiplicity, or a symbol past k - 1
        v[:-1] + (k,),  # out of range
        v[:-1] + (16,),  # one past the last hex digit
        v[:-1] + (48,),  # ASCII "0"
        v[:-1] + (256,),
        v[:-1] + (-1,),
        v[:-1] + ("0",),
        list(v),  # not a tuple
        bytes(v),
        render(v),
    ] + ([(0,) * p.length] if k > 1 else [])  # below the first label
    for x in strangers:
        assert x not in g.vertices and g.vertices.find(x) == -1, x
        with pytest.raises(ValueError):
            g.index(x)
    assert g.vertices.find_text("9" * p.length) == g.vertices.find_text(render(v)[:-1]) == -1
    # strings of symbols 0..k-1 with a wrong multiplicity, on both sides of
    # the reversal's centre K/2, K being the code of the string of k - 1s
    top = _code((k - 1,) * p.length)
    near = {u[:j] + (s,) + u[j + 1 :] for u in verts[max(mid - 3, 0) : mid + 3] for j in range(p.length) for s in range(k)}
    wrong = near.difference(verts)
    sides = {2 * _code(u) < top for u in wrong}
    assert sides == ({False, True} if k > 1 else set())
    for u in wrong:
        assert g.vertices.find(u) == g.vertices.find_text(render(u)) == -1, u


def test_packed_labels_index_and_count_through_find(monkeypatch):
    # the Sequence mixin's index and count would unpack every label in turn
    g = build_graph(Params(3, 2))
    verts, n = g.vertices, g.n
    labels = [verts[i] for i in range(n)]

    def unpacked(*args):
        raise AssertionError("a label was unpacked")

    monkeypatch.setattr(PackedLabels, "__getitem__", unpacked)
    monkeypatch.setattr(PackedLabels, "__iter__", unpacked)
    for i in (0, n // 2 - 1, n // 2, n - 1):  # first, either side of the middle, last
        v = labels[i]
        assert verts.index(v) == verts.find(v) == i and verts.count(v) == 1
        assert verts.index(v, i) == verts.index(v, 0, i + 1) == verts.index(v, i - n) == i
        for start, stop in ((i + 1, None), (0, i), (0, i - n)):
            with pytest.raises(ValueError):
                verts.index(v, start, stop)
    for x in ((0,) * 6, (3, 0, 0, 1, 1, 2), (0, 0, 1, 1, 2), list(labels[0]), "001122", None):
        assert verts.find(x) == -1 and verts.count(x) == 0, x
        with pytest.raises(ValueError):
            verts.index(x)


@pytest.mark.parametrize("family", ["star", "pancake", "custom"])
@pytest.mark.parametrize("k,ell", [(2, 2), (3, 2), (2, 3), (2, 9)])
def test_a_vertex_stream_that_is_not_its_own_reversal_is_refused(family, k, ell, monkeypatch):
    # the build stores half the codes and checks each string past them
    # against its mirror, so a changed, lost or extra string raises
    p = Params(k, ell)
    verts = enumerate_vertices(p)
    n = len(verts)
    other = tuple(reversed(verts[0]))  # a vertex, out of its place
    changes = {
        "upper": lambda vs: vs[: n - 2] + [other] + vs[n - 1 :],
        "lower": lambda vs: vs[:1] + [other] + vs[2:],
        "lost": lambda vs: vs[:-1],
        "extra": lambda vs: vs + [vs[-1]],
    }
    for change in changes.values():
        monkeypatch.setattr(starperm.graphs, "iter_vertices", lambda p, cap: iter(change(verts)))
        with pytest.raises(RuntimeError):
            build_graph(p, _family(family, p.length))


def test_packed_label_text_takes_the_comma_form_past_symbol_nine():
    # no graph at desk scale has k > 10, so the codes are written out here, odd length and all
    strings = [(0, 1, 2, 3, 4), (0, 10, 15, 3, 1), (9, 9, 0, 1, 2), (11, 12, 13, 14, 15), (15, 0, 0, 0, 0)]
    labels = PackedLabels([int("".join(f"{s:x}" for s in v), 16) for v in strings], 5)
    texts = [labels.text(i) for i in range(len(strings))]
    assert texts == list(map(render, strings)) == ["01234", "0,10,15,3,1", "99012", "11,12,13,14,15", "15,0,0,0,0"]
    assert list(labels) == strings and [labels.find_text(t) for t in texts] == [0, 1, 2, 3, 4]


def test_build_refuses_more_than_sixteen_symbols():
    # a code holds one hex digit per symbol; refused before the vertex cap
    with pytest.raises(ValueError, match="k <= 16"):
        build_graph(Params(17, 1))


def _retained_by_build(p):
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = build_graph(p)
        return g, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_built_graph_holds_no_per_vertex_containers():
    # ST(4,2) held 1.37 MB with one neighbour dict per vertex, 0.57 MB with
    # one label tuple per vertex and a label -> id dict, 0.25 MB as a list
    # of int codes with 4-byte label ids, 115 KB with 4-byte row offsets and
    # 104 KB with 1-byte label ids, one stride for its rows and a list of
    # every 16th code, 86 KB as 8 bytes of code per vertex and a stride, its
    # labels read off the codes; it retains 76 KB with the codes of half the
    # vertices, the others read as their mirrors, and 45.7 KB with the rows
    # of half the vertices too
    g, retained = _retained_by_build(Params(4, 2))
    assert g.n == 2520 and retained < 0.0485e6  # 6% above the measured 45.7 KB


def test_st52_core_fits_in_seven_megabytes():
    # 13.7 MB with a list of int codes, 4-byte label ids and 8-byte row
    # offsets, 6.5 MB with 4-byte ones, 6.0 MB at a fixed stride, 4.78 MB
    # with no label column and no list of every 16th code, 4.33 MB with the
    # codes of half the vertices; 2.34 MB measured with their rows halved too
    g, retained = _retained_by_build(Params(5, 2))
    assert g.n == 113400 and retained <= 2.45e6


def test_only_graphs_reads_the_core():
    core = {"_adj", "_stored", "_stride", "_start", "_span", "_nbr", "_lab", "_label_ids", "_labels", "_moves", "_index"}
    core |= {"_codes", "_n", "_top"}
    package = Path(starperm.__file__).parent
    reads = [
        f"{path.name}:{node.lineno} .{node.attr}"
        for path in sorted(package.glob("*.py"))
        if path.name != "graphs.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in core
    ]
    assert not reads
    assert not hasattr(build_graph(Params(2, 2)), "_adj")


#: Public names that nothing in src/ calls but the benchmark pins; each goes
#: with the perfbench change of ROADMAP item 9.
BENCHMARK_PINS = {
    # perfbench/tests reads the edge-list round trip through Graph.edges()
    "graphs.Graph.edges",
    # the tracer's METHODS: install reads Graph.__dict__[name] for each
    "graphs.Graph.components",
    "graphs.Graph.distance",
    "graphs.Graph.induced_subgraph",
    "graphs.Graph.subgraph",
    "graphs.Graph.girth",
    "graphs.Graph.is_bipartite",
    # BENCHMARK.json names mstrings.enumerate_vertices.s
    "mstrings.enumerate_vertices",
}


def test_src_keeps_no_uncalled_public_api():
    # a public function must be named, and a method read as an attribute,
    # somewhere in src/ outside its own definition; dunders are exempt.  A
    # plain method whose name is also stored as a field (chi's case reports
    # keep `components`) counts as used only where it is called.
    package = Path(starperm.__file__).parent
    trees = {path: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    uses: dict[tuple[bool, str], list] = {}
    calls: dict[str, list] = {}
    fields = set()
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = node.func
                name = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", None)
                calls.setdefault(name, []).append((path, node.lineno))
            if isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Store):
                    fields.add(node.attr)
                for method in (False, True):
                    uses.setdefault((method, node.attr), []).append((path, node.lineno))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                uses.setdefault((False, node.id), []).append((path, node.lineno))
    defined, uncalled = set(), set()
    for path, tree in trees.items():
        scopes = [(tree.body, path.stem)]
        while scopes:
            body, prefix = scopes.pop()
            for node in body:
                if isinstance(node, ast.ClassDef):
                    scopes.append((node.body, f"{prefix}.{node.name}"))
                elif isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    name = f"{prefix}.{node.name}"
                    defined.add(name)
                    method = prefix != path.stem
                    decorators = {getattr(d, "id", None) for d in node.decorator_list}
                    plain = method and not decorators & {"property", "cached_property"}
                    seen = calls.get(node.name, []) if plain and node.name in fields else uses.get((method, node.name), [])
                    inside = range(node.lineno, node.end_lineno + 1)
                    if all(p == path and line in inside for p, line in seen):
                        uncalled.add(name)
    assert BENCHMARK_PINS <= defined
    assert uncalled - BENCHMARK_PINS == set()
    # a pin that src/ calls is no longer kept for the benchmark alone
    assert {pin.rsplit(".", 1)[1] for pin in BENCHMARK_PINS}.isdisjoint(calls)


def test_src_stores_no_attribute_it_never_reads():
    # name-level: an attribute that src/ sets (x.attr = ...) must be read as
    # an attribute somewhere in src/, or it is state only tests reach
    package = Path(starperm.__file__).parent
    stored, loaded = {}, set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
                loaded.add(node.target.attr)  # x.attr += ... reads it too
            if isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Store):
                    stored.setdefault(node.attr, f"{path.name}:{node.lineno}")
                else:
                    loaded.add(node.attr)
    assert stored
    assert {name: where for name, where in stored.items() if name not in loaded} == {}


def test_record_constructors_declare_no_defaults():
    # each record takes exactly what its one caller passes; a field filled
    # in later starts in the constructor body
    records = {
        "chains.py": {"ChainReport", "SchreierReport", "PancakeReport"},
        "structure.py": {"ToroidalReport", "ColorCaseReport", "DecompositionReport", "ComponentAudit"},
        "domination.py": {"PartitionReport", "DominationCertificate", "Violation"},
        "coloring.py": {"ColoringReport", "ObstructionReport"},
        "report.py": {"CheckResult", "SuiteReport"},
    }
    package = Path(starperm.__file__).parent
    found, defaulted = set(), []
    for name, classes in records.items():
        for node in ast.parse((package / name).read_text()).body:
            if isinstance(node, ast.ClassDef) and node.name in classes:
                init = next(f for f in node.body if isinstance(f, ast.FunctionDef) and f.name == "__init__")
                found.add(node.name)
                args = init.args
                if args.defaults or any(d is not None for d in args.kw_defaults):
                    defaulted.append(node.name)
    assert found == set().union(*records.values())
    assert defaulted == []


def test_every_package_export_resolves_once():
    names = starperm.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(starperm, n)] == []


def test_readme_library_entry_points_run_as_commented():
    # each expression line whose comment starts with a value, "# 2: ...",
    # evaluates to that value
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = re.search(r"## Library entry points\s+```python\n(.*?)```", readme, re.S).group(1)
    scope: dict = {}
    checked = 0
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        try:
            want = ast.literal_eval(comment.split(":")[0].strip())
        except (ValueError, SyntaxError):
            exec(code, scope)
            continue
        assert eval(code, scope) == want, line
        checked += 1
    assert checked == 4


def test_importing_the_cli_loads_no_code_introspection_modules():
    # dataclasses brings in inspect, ast, dis and tokenize: about 1 MB on
    # every CLI process's peak
    src = str(Path(starperm.__file__).parent.parent)
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import starperm.cli, starperm; "
        f"print(' '.join(m for m in {heavy!r} if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == []
