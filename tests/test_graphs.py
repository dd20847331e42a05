import ast
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import starperm
from starperm import (
    CapExceeded,
    GeneratorFamily,
    Graph,
    Params,
    build_graph,
    build_odd_complete_colored,
    enumerate_vertices,
    isomorphic,
    mstring,
    render,
    six_cycles,
    verify_coloring,
)
from starperm.graphs import PackedLabels

from .oracles import adjacency_dict, brute_component_sizes, brute_count_six_cycles, brute_move_graph

ms = mstring

STAR_CYCLE_ORDER = ["0011", "1001", "0101", "1100", "0110", "1010"]
PANCAKE_CYCLE = ["0011", "1001", "0101", "1010", "0110", "1100"]


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
    assert build_odd_complete_colored(1)[0].has_triangle()


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
    assert st32.vertices == pc32.vertices


def test_edge_labels_agree_from_both_ends(st32):
    for u, v, labels in st32.edges():
        assert st32.edge_labels(v, u) == labels
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
            assert st32.has_edge(st32.vertices[cyc[i]], st32.vertices[cyc[(i + 1) % 6]])


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
    e5 = [(u, v) for u, v, _ in st32.edges() if tc.edge_color(u, v) == 5]
    kept = [e for e in e5 if minus.has_vertex(e[0]) and minus.has_vertex(e[1])]
    comps = minus.subgraph(delete_edges=kept).components()
    assert len(comps) == 12
    assert all(c.n == 6 and c.regularity() == ("regular", (2,)) for c in comps)


def test_subgraph_identity_and_errors(st22):
    same = st22.subgraph()
    assert same.vertices == st22.vertices
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
        assert c6.has_edge(mapping[u], mapping[v])


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
    assert all(copy.has_edge(mapping[u], mapping[v]) for u, v, _ in cycle.edges())


def test_isomorphic_st32_components(st32, st22):
    from starperm import sigma_set, sigma_total_coloring

    tc = sigma_total_coloring(st32)
    minus = st32.subgraph(delete_vertices=[st32.vertices[x] for x in sigma_set(st32, 5)])
    e5 = [(u, v) for u, v, _ in st32.edges() if tc.edge_color(u, v) == 5 and minus.has_vertex(u) and minus.has_vertex(v)]
    for comp in minus.subgraph(delete_edges=e5).components():
        ok, mapping = isomorphic(comp, st22)
        assert ok
        for u, v, _ in comp.edges():
            assert st22.has_edge(mapping[u], mapping[v])


def test_odd_complete_k5_colors():
    g, tc = build_odd_complete_colored(2)
    pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (1, 3), (2, 4), (3, 0), (4, 1)]
    assert [tc.edge_color(u, v) for u, v in pairs] == [3, 4, 0, 1, 2, 1, 2, 3, 4, 0]
    assert [tc.vertex_color(j) for j in range(5)] == list(tc.vertex_colors) == list(range(5))
    assert g.girth() == 3
    assert verify_coloring(tc).passed


def test_odd_complete_k3_formula():
    g, tc = build_odd_complete_colored(1)
    for j in range(3):
        assert tc.edge_color((j - 1) % 3, (j + 1) % 3) == j
    with pytest.raises(ValueError):
        build_odd_complete_colored(0)


def test_custom_identity_family_equals_star(st32):
    fam = GeneratorFamily.custom([[]] * 5)
    g = build_graph(Params(3, 2), fam)
    assert {(u, v) for u, v, _ in g.edges()} == {(u, v) for u, v, _ in st32.edges()}
    assert not g.nonstar_edges


def test_custom_family_flags_nonstar_edges():
    fam = GeneratorFamily.custom([[], [], [], [(1, 3)], []])
    g = build_graph(Params(3, 2), fam)
    assert g.nonstar_edges
    for i, j in g.nonstar_edges:
        assert i < j and g.label(i, j) is not None


def test_position_maps_are_the_custom_rule_only():
    # catches a revived star or pancake branch beside star_neighbors and prefix_reversal
    fam = GeneratorFamily.custom([[], [], [], [(1, 3)], []])
    maps = fam.position_maps(6)
    assert maps[0] == (1, 0, 2, 3, 4, 5)
    assert maps[3] == (4, 3, 2, 1, 0, 5)
    for other in (GeneratorFamily.star(), GeneratorFamily.pancake()):
        with pytest.raises(ValueError):
            other.position_maps(6)


def test_families_compare_hash_and_print_by_value():
    # the benchmark tracer counts distinct builds by (Params, repr(family))
    star, pancake = GeneratorFamily.star(), GeneratorFamily.pancake()
    assert star == GeneratorFamily.star() and hash(star) == hash(GeneratorFamily.star())
    assert repr(star) == repr(GeneratorFamily.star())
    assert star != pancake and repr(star) != repr(pancake)
    pis = [[], [], [], [(1, 3)], []]
    custom = GeneratorFamily.custom(pis)
    assert custom == GeneratorFamily.custom(pis) and hash(custom) == hash(GeneratorFamily.custom(pis))
    assert repr(custom) == repr(GeneratorFamily.custom(pis))
    assert custom != GeneratorFamily.custom([[]] * 5) and custom != star


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
    assert g.vertices == tuple(sorted(adj))  # canonical order is lexicographic
    edges = [(u, v, adj[u][v]) for u in g.vertices for v in sorted(adj[u]) if v > u]
    assert list(g.edges()) == edges and g.m == len(edges)
    for u in g.vertices:
        assert g.neighbors(u) == tuple(sorted(adj[u])) and g.degree(u) == len(adj[u])
        for v, labels in adj[u].items():
            assert g.has_edge(u, v) and g.edge_labels(u, v) == labels
        for v in {x for w in adj[u] for x in adj[w]} - set(adj[u]):  # u itself, or at distance 2
            assert not g.has_edge(u, v)
            with pytest.raises(ValueError):
                g.edge_labels(u, v)
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
    assert {u: set(h.neighbors(u)) for u in h.vertices} == adj
    assert all(labels == labeled[u][v] for u, v, labels in h.edges())
    assert sorted(c.n for c in h.components()) == brute_component_sizes(adj)


def _family(name, length):
    if name == "custom":  # pi_4 = (1 3) where there is a pi_4
        return GeneratorFamily.custom(([[], [], [], [(1, 3)]] + [[]] * (length - 5))[: length - 1])
    return getattr(GeneratorFamily, name)()


@pytest.mark.parametrize("family", ["star", "pancake", "custom"])
@pytest.mark.parametrize("k,ell", [(1, 5), (2, 2), (3, 2), (2, 3), (3, 3), (4, 2), (2, 9)])
def test_packed_labels_match_the_enumeration(family, k, ell):
    p = Params(k, ell)
    g = build_graph(p, _family(family, p.length))
    verts = enumerate_vertices(p)
    assert list(g.vertices) == verts and len(g.vertices) == g.n == len(verts)
    assert g.vertices == tuple(verts) and tuple(verts) == g.vertices
    assert g.vertices[1:3] == tuple(verts[1:3]) and g.vertices[-1] == verts[-1]
    for i, v in enumerate(verts):
        assert g.index(v) == i and g.vertices[i] == v and g.has_vertex(v) and v in g.vertices
        assert g.vertices.find_text(render(v)) == i == g.vertices.find_text(",".join(map(str, v)))
        assert g.vertices.text(i) == render(v)
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
        assert not g.has_vertex(x) and x not in g.vertices and g.vertices.find(x) == -1, x
        with pytest.raises(ValueError):
            g.index(x)
    assert g.vertices.find_text("9" * p.length) == g.vertices.find_text(render(v)[:-1]) == -1


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
    # one label tuple per vertex and a label -> id dict, and 0.25 MB as a
    # list of int codes with 4-byte label ids; it retains 115 KB as 8 bytes
    # of code per vertex, 1-byte label ids and 4-byte row offsets
    g, retained = _retained_by_build(Params(4, 2))
    assert g.n == 2520 and retained < 0.14e6  # 20% above the measured 115 KB


def test_st52_core_fits_in_seven_megabytes():
    # 13.7 MB with a list of int codes, 4-byte label ids and 8-byte row
    # offsets; 6.5 MB measured
    g, retained = _retained_by_build(Params(5, 2))
    assert g.n == 113400 and retained <= 7e6


def test_only_graphs_reads_the_core():
    core = {"_adj", "_start", "_nbr", "_lab", "_labels", "_index", "_codes"}
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
