"""Acceptance criteria, one test per criterion, at stated time budgets.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Criterion 6 asserts the component count the color-class split
actually has, 2k(k-1), at k = 3 and k = 4, and checks it against the vertex
count (n - |W_i|) / |ST(k-1,2)| and an independent brute-force count.  The
published count k*2^(k-1) is refuted by the vertex count: at k = 4 its 32
copies of ST(3,2) would need 2880 vertices, while the split leaves 2160.
"""

import time

from starperm import (
    Graph,
    Params,
    build_graph,
    build_odd_complete_colored,
    choosability_suite,
    code_search,
    efficiency_obstruction_witness,
    list_assignment,
    mstring,
    oracle_check,
    se_set,
    sigma_set,
    sigma_total_coloring,
    color_class_decomposition,
    toroidal_assembly,
    verify_chain,
    verify_coloring,
    verify_efficient_domination,
    classify_six_cycles,
    schreier_fibers,
    schreier_quotient_check,
)
from starperm.chains import pancake_chain_check

from .oracles import adjacency_dict, brute_color_class_components, brute_local_generators, labels_of

ms = mstring


class _Criterion:
    def __init__(self, num, name, budget):
        self.num, self.name, self.budget = num, name, budget
        self.t0 = time.perf_counter()

    def done(self, ok=True, enforce_budget=True):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if ok else "FAIL"
        print(f"[criterion {self.num:02d}] {self.name}: {status} ({elapsed:.2f}s / budget {self.budget}s)")
        if enforce_budget:
            assert elapsed < self.budget, f"criterion {self.num} exceeded its {self.budget}s budget ({elapsed:.1f}s)"


def test_c01_construction_exactness(st22, st23, st32):
    c = _Criterion(1, "construction exactness", 1.0)
    cycle = [ms(s) for s in ("0011", "1001", "0101", "1100", "0110", "1010")]
    wanted = {frozenset((cycle[i], cycle[(i + 1) % 6])) for i in range(6)}
    assert {frozenset((u, v)) for u, v, _ in st22.edges()} == wanted

    assert (st23.n, st23.regularity(), st23.is_bipartite(), st23.girth()) == (20, ("regular", (3,)), True, 6)
    assert (st32.n, st32.regularity()) == (90, ("regular", (4,)))
    c.done()


def test_c02_dominator_sets_of_010122(st32):
    c = _Criterion(2, "dominator sets of 010122", 1.0)
    s0 = labels_of(st32, se_set(st32, 0))

    def dominators(v):
        return frozenset(st32.neighbors(ms(v))) & s0

    assert dominators("100122") == {ms("010122"), ms("001122")}
    assert dominators("110022") == {ms("010122"), ms("011022")}
    assert dominators("210102") == {ms("010122"), ms("012102")}
    assert dominators("210120") == {ms("010122"), ms("012120")}
    c.done()


def test_c03_se_suite(st32, st23, st42):
    c = _Criterion(3, "first-entry classes dominate efficiently", 10.0)
    for g, ell, k in ((st32, 2, 3), (st23, 3, 2), (st42, 2, 4)):
        for i in range(k):
            assert verify_efficient_domination(g, se_set(g, i), ell).passed
    k23 = Graph(["w0", "w1", "v0", "v1", "v2"], [(w, v) for w in ("w0", "w1") for v in ("v0", "v1", "v2")])
    cert = verify_efficient_domination(k23, [0, 1], 2)  # w0, w1
    assert not cert.passed
    bad = [v for v in cert.violations if v.kind == "non-unique-intersection"]
    assert bad and set(bad[0].detail) == {"v0", "v1", "v2"}
    c.done()


def test_c04_sigma_suite(st22, st32, st42):
    c = _Criterion(4, "repeat classes partition into distance-3 codes", 30.0)
    for g, k in ((st22, 2), (st32, 3), (st42, 4)):
        sigmas = [sigma_set(g, i) for i in range(1, 2 * k)]
        assert len(sigmas) == 2 * k - 1
        union, total = set(), 0
        for s in sigmas:
            union.update(s)
            total += len(s)
        assert union == set(range(g.n)) and total == g.n
        for s in sigmas:
            cert = verify_efficient_domination(g, s, 1)
            assert cert.passed and cert.min_internal_distance == 3
    c.done()


def test_c05_coloring_suite(st22, st32, st42):
    c = _Criterion(5, "repeat-position coloring total and efficient", 30.0)
    for g, k in ((st22, 2), (st32, 3), (st42, 4)):
        tc = sigma_total_coloring(g)
        rep = verify_coloring(tc)
        assert rep.total and rep.efficient
        used = set(tc.vertex_colors) | {tc.edge_color(u, v) for u, v, _ in g.edges()}
        assert used == set(range(1, 2 * k)) and len(used) == 2 * k - 1
    k5, k5tc = build_odd_complete_colored(2)
    pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (1, 3), (2, 4), (3, 0), (4, 1)]
    assert [k5tc.edge_color(u, v) for u, v in pairs] == [3, 4, 0, 1, 2, 1, 2, 3, 4, 0]
    assert verify_coloring(k5tc).passed
    c.done()


def test_c06_color_class_decomposition(st32, st42, st22, tc32, tc42):
    c = _Criterion(6, "color-class decomposition", 60.0)
    found = {}
    for g, tc, k, ref in ((st32, tc32, 3, st22), (st42, tc42, 4, st32)):
        rep = color_class_decomposition(tc)
        h = 2 * k
        assert rep.h == h
        adj = adjacency_dict(g)
        for case in rep.cases:
            assert case.minus_class_connected and case.minus_class_regular_degree == h - 3
            assert all(comp.isomorphic_to_reference for comp in case.components)
            assert all(comp.regular_degree == h - 4 and comp.coloring_total for comp in case.components)
            assert case.minus_edges_degrees == (h - 3, h - 2)
            assert case.minus_edges_big_side_is_class
            walk = case.odd_closed_walk
            assert walk is not None and walk[0] == walk[-1]
            left = g.n - sum(c == case.color for c in tc.vertex_colors)
            sizes = sorted(comp.n for comp in case.components)
            found[k, case.color] = (
                len(sizes),
                left / ref.n,
                sizes == [ref.n] * len(sizes),
                sizes == brute_color_class_components(adj, case.color),
                k * 2 ** (k - 1) * ref.n > left,
            )
    # (count, vertices left / |ST(k-1,2)|, sizes all |ST(k-1,2)|, oracle agrees,
    #  published k*2^(k-1) copies exceed the vertices left): the count is
    # 2k(k-1), and the published count fits only at k = 3, where the two agree
    wanted = {
        (k, color): (2 * k * (k - 1), 2 * k * (k - 1), True, True, k == 4)
        for k in (3, 4)
        for color in range(1, 2 * k)
    }
    ok = found == wanted
    c.done(ok)
    assert ok, f"color-class split per (k, color): {found}, want {wanted}"


def test_c07_cycle_classification_and_toroidal(tc32):
    c = _Criterion(7, "6-cycle types and toroidal audit", 60.0)
    groups, census = classify_six_cycles(tc32)
    assert census["other"] == 0 and census["type1"] + census["type2"] == sum(map(len, groups.values())) // 6
    assert ("type1", (2, 3, 4)) in groups
    rep = toroidal_assembly(tc32, groups, 5, (1, 2, 3, 4))
    assert rep.departures_ok and rep.all_land_in_d1
    assert rep.sigma_pendant_ok  # audit (c)
    assert rep.landing_min_distance_3  # audit (d)
    assert rep.type2_cycle_count > 0 and rep.contained_type1 and rep.type1_disjoint
    c.done()


def test_c08_chains_and_schreier():
    c = _Criterion(8, "chain embeddings and coset quotient", 10.0)
    rep = verify_chain(2)
    assert rep.images_disjoint and rep.images_induced_isomorphic
    assert rep.sigma_bijection_ok and rep.blocks_partition_sigma
    assert rep.sigma_size == 18 and rep.block_sizes == (6, 6, 6)
    assert rep.cardinality_identity_ok

    srep = schreier_quotient_check(2, 2)
    assert srep.fibers_are_cosets and srep.fiber_sizes_ok
    assert srep.quotient_equals_graph and srep.generator_sets_ok
    fibers = dict(schreier_fibers(2, 2))
    assert len(fibers) == 6 and all(len(f) == 4 for f in fibers.values())
    assert fibers[ms("0011")] == tuple(map(ms, ("0123", "0132", "1023", "1032")))
    gens = brute_local_generators(fibers, 2)
    assert gens[ms("0011")] == (2, 3)
    assert gens[ms("0101")] == (1, 3)
    assert gens[ms("0110")] == (1, 2)
    c.done()


def test_c09_pancake(pc22):
    c = _Criterion(9, "pancake obstructions", 30.0)
    cycle = [ms(s) for s in ("0011", "1001", "0101", "1010", "0110", "1100")]
    wanted = {frozenset((cycle[i], cycle[(i + 1) % 6])) for i in range(6)}
    assert {frozenset((u, v)) for u, v, _ in pc22.edges()} == wanted

    assert verify_efficient_domination(pc22, sigma_set(pc22, 3), 1).passed
    cert = verify_efficient_domination(pc22, sigma_set(pc22, 1), 1)
    assert not cert.passed
    adj = [v for v in cert.violations if v.kind == "non-independent"]
    assert adj and set(adj[0].where) == {ms("0011"), ms("1100")}

    rep = pancake_chain_check(3)
    assert rep.last_sigma_passes
    assert rep.failing_sigmas and set(rep.failing_sigmas) <= set(range(1, 5))
    assert any(rep.failing_sigmas.values())
    c.done()


def test_c10_oracle_agreement(st22, st32, st23):
    c = _Criterion(10, "oracle agreement", 60.0)
    ones = code_search(st22, 1)
    assert all(sigma_set(st22, i) in ones for i in (1, 2, 3))
    twos = code_search(st22, 2)
    assert se_set(st22, 0) in twos and se_set(st22, 1) in twos

    # constructed sets from criteria 3-4 re-verified through the bitmask path
    for i in range(3):
        assert oracle_check(st32, se_set(st32, i), 2)
    for i in range(2):
        assert oracle_check(st23, se_set(st23, i), 3)
    for i in range(1, 6):
        assert oracle_check(st32, sigma_set(st32, i), 1)
    for i in range(1, 4):
        assert oracle_check(st22, sigma_set(st22, i), 1)
        if i < 2:
            assert oracle_check(st22, se_set(st22, i), 2)

    # where full enumeration is tractable, the constructions are members
    st32_codes = code_search(st32, 1)
    assert all(sigma_set(st32, i) in st32_codes for i in range(1, 6))
    st23_codes = code_search(st23, 3)
    assert all(se_set(st23, i) in st23_codes for i in range(2))
    c.done()


def test_c11_choosability(st23):
    c = _Criterion(11, "list disjointness and obstruction", 10.0)
    edges = list(st23.edges())
    assert len(edges) == 30
    for u, v, _ in edges:
        assert not list_assignment(u) & list_assignment(v)
    chosen_min = [min(list_assignment(v)) for v in st23.vertices]
    chosen_max = [max(list_assignment(v)) for v in st23.vertices]
    ok_min, ok_max = choosability_suite(st23, chosen_min), choosability_suite(st23, chosen_max)
    assert ok_min and ok_max and chosen_min != chosen_max
    rep = efficiency_obstruction_witness(st23)
    assert rep.passed and rep.method == "exhaustive"
    assert rep.selection_count == 2**10 and rep.counterexample is None
    c.done()


def test_c12_performance_smoke():
    c = _Criterion(12, "113400-vertex build and verification smoke", 300.0)
    t0 = time.perf_counter()
    g = build_graph(Params(5, 2))
    assert g.n == 113400 and g.regularity() == ("regular", (8,))
    sigmas = [sigma_set(g, i) for i in range(1, 10)]
    union, total = set(), 0
    for s in sigmas:
        union.update(s)
        total += len(s)
    assert union == set(range(g.n)) and total == g.n
    tc = sigma_total_coloring(g)
    rep = verify_coloring(tc)
    assert rep.total and rep.efficient
    print(f"[criterion 12] smoke timing: {time.perf_counter() - t0:.1f}s for build + partition + coloring")
    c.done(enforce_budget=False)  # the 5-minute target is recorded, not enforced
