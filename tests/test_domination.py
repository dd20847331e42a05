import random
import tracemalloc
from array import array
from collections import Counter
from itertools import combinations

import pytest

import starperm.domination

from starperm import (
    Graph,
    Params,
    Precondition,
    build_graph,
    code_search,
    color_class_decomposition,
    mstring,
    pancake_chain_check,
    se_set,
    sigma_set,
    verify_coloring,
    verify_efficient_domination,
    verify_ei_avoidance,
    verify_partition_and_edge_cover,
)

from .oracles import adjacency_dict, brute_distance, brute_is_e_ell_set, brute_multiset_perms, labels_of

ms = mstring


def k23():
    return Graph(["w0", "w1", "v0", "v1", "v2"], [(w, v) for w in ("w0", "w1") for v in ("v0", "v1", "v2")])


def k5():
    return Graph(range(5), [(i, j) for i in range(5) for j in range(i + 1, 5)])


def brute_min_distance(adj, s):
    """The least brute_distance over pairs of s; None if no pair is connected."""
    best = None
    for u, v in combinations(sorted(s), 2):
        d = brute_distance(adj, u, v)
        if d is not None and (best is None or d < best):
            best = d
            if best == 1:
                break
    return best


def test_se_set_examples(st22, st32):
    assert labels_of(st22, se_set(st22, 0)) == {ms("0011"), ms("0101"), ms("0110")}
    assert len(se_set(st32, 0)) == 30
    union = {*se_set(st32, 0), *se_set(st32, 1), *se_set(st32, 2)}
    assert union == set(range(st32.n))
    with pytest.raises(ValueError):
        se_set(st22, 2)


def test_sigma_set_examples(st22, st32):
    assert labels_of(st22, sigma_set(st22, 1)) == {ms("0011"), ms("1100")}
    for i in range(1, 6):
        assert len(sigma_set(st32, i)) == 18
    assert {*sigma_set(st22, 1), *sigma_set(st22, 2), *sigma_set(st22, 3)} == set(range(st22.n))
    with pytest.raises(ValueError):
        sigma_set(st22, 4)


def test_d_set_shared_dominator_values(st32):
    s0, adj = labels_of(st32, se_set(st32, 0)), adjacency_dict(st32)

    def dominators(v):
        return adj[ms(v)] & s0

    assert dominators("100122") == {ms("010122"), ms("001122")}
    assert dominators("210120") == {ms("010122"), ms("012120")}
    assert dominators("120120") == {ms("021120"), ms("020121")}


def test_verify_se_sets_pass(st32):
    adj = adjacency_dict(st32)
    for i in range(3):
        s = se_set(st32, i)
        assert verify_efficient_domination(st32, s, 2).passed
        labels = labels_of(st32, s)
        assert all(len(adj[v] & labels) == 2 for v in st32.vertices if v not in labels)


def test_verify_k23_negative():
    g = k23()
    cert = verify_efficient_domination(g, [0, 1], 2)  # w0, w1
    assert not cert.passed
    bad = [v for v in cert.violations if v.kind == "non-unique-intersection"]
    assert bad and set(bad[0].detail) == {"v0", "v1", "v2"}


def test_verify_sigma1_st22(st22):
    cert = verify_efficient_domination(st22, sigma_set(st22, 1), 1)
    assert cert.passed and cert.min_internal_distance == 3


def test_girth_precondition_k5():
    with pytest.raises(Precondition):
        verify_efficient_domination(k5(), [0], 1)
    with pytest.raises(Precondition):
        code_search(k5(), 1)


def test_verifier_matches_oracle_on_every_subset_of_st22(st22):
    adj = adjacency_dict(st22)
    for mask in range(1 << st22.n):
        ids = frozenset(i for i in range(st22.n) if mask >> i & 1)
        s = labels_of(st22, ids)
        for ell in (1, 2):
            assert verify_efficient_domination(st22, ids, ell).passed == brute_is_e_ell_set(adj, s, ell), (sorted(s), ell)


@pytest.mark.parametrize("graph,ells", [("st32", (1, 2)), ("st23", (2, 3)), ("pc32", (1,))])
def test_verifier_matches_oracle_on_random_subsets(graph, ells, request):
    g = request.getfixturevalue(graph)
    adj = adjacency_dict(g)
    rng = random.Random(20260)
    for _ in range(300):
        density = rng.uniform(0.05, 0.5)
        ids = frozenset(i for i in range(g.n) if rng.random() < density)
        s = labels_of(g, ids)
        for ell in ells:
            assert verify_efficient_domination(g, ids, ell).passed == brute_is_e_ell_set(adj, s, ell), (sorted(s), ell)
        assert verify_efficient_domination(g, ids, ells[0]).min_internal_distance == brute_min_distance(adj, s)


def cycle(n):
    return Graph(range(n), [(i, (i + 1) % n) for i in range(n)])


@pytest.mark.parametrize(
    "g,s,distance",
    [
        (cycle(6), [0, 1], 1),  # adjacent members
        (cycle(6), [0, 2], 2),  # an outside vertex with two dominators
        (cycle(6), [0, 3], 3),  # a walk of two steps to a vertex with one
        (cycle(8), [0, 4], 4),  # the BFS
        (cycle(10), [0, 5], 5),
        (Graph(range(8), [(i, (i + 1) % 4) for i in range(4)] + [(4 + i, 4 + (i + 1) % 4) for i in range(4)]), [0, 4], None),
        (cycle(6), [2], None),
        (cycle(6), [], None),
    ],
)
def test_min_internal_distance_matches_the_oracle(g, s, distance):
    assert brute_min_distance(adjacency_dict(g), s) == distance
    for ell in (1, 2):
        assert verify_efficient_domination(g, s, ell).min_internal_distance == distance


def test_two_dominators_read_past_index_255_of_a_row():
    # y's row holds z_0..z_299 and then a and b, its two dominators, so a sits
    # at index 300; each z_i has its own two dominators c_i and d_i.
    zs, cs, ds = [("z", i) for i in range(300)], [("c", i) for i in range(300)], [("d", i) for i in range(300)]
    edges = [("y", "a"), ("y", "b")] + [("y", z) for z in zs]
    edges += [(z, c) for z, c in zip(zs, cs)] + [(z, d) for z, d in zip(zs, ds)]
    s = ["a", "b", *cs, *ds]
    for second, verdict in ((False, True), (True, False)):  # a second common neighbour of a and b
        g = Graph([*zs, "a", "b", "y", *cs, *ds, *["y2"] * second], edges + [("y2", "a"), ("y2", "b")] * second)
        assert g.row(g.index("y")).index(g.index("a")) == 300
        cert = verify_efficient_domination(g, [g.index(v) for v in s], 2)
        assert cert.passed is verdict is brute_is_e_ell_set(adjacency_dict(g), s, 2)
        if second:
            assert [(v.kind, v.where, v.detail) for v in cert.violations] == [
                ("non-unique-intersection", ("y",), ("y", "y2")),
                ("non-unique-intersection", ("y2",), ("y", "y2")),
            ]


def test_partition_and_edge_cover_reports_an_overlap(st32, monkeypatch):
    se = starperm.domination.se_set
    extra = min(se(st32, 2))
    monkeypatch.setattr(starperm.domination, "se_set", lambda g, i: array("i", sorted({*se(g, i), extra})) if i == 1 else se(g, i))
    rep = verify_partition_and_edge_cover(st32)
    assert not rep.is_partition and not rep.double_cover_ok and not rep.passed
    assert [f[0] for f in rep.failures] == [
        "not-a-partition",
        "wrong-dominator-count",
        "wrong-dominator-count",
        "edge-not-double-covered",
    ]
    assert rep.failures[0][1] == [st32.vertices[extra]]
    uncovered = rep.failures[-1][1]
    assert len(uncovered) == 6
    assert uncovered == sorted(uncovered, key=lambda e: (st32.index(e[0]), st32.index(e[1])))


def test_per_symbol_edge_partition_can_fail(st22, monkeypatch):
    se = starperm.domination.se_set
    extra = min(se(st22, 1))
    monkeypatch.setattr(starperm.domination, "se_set", lambda g, i: array("i", sorted({*se(g, i), extra})) if i == 0 else se(g, i))
    rep = verify_partition_and_edge_cover(st22)
    assert rep.per_symbol_edge_partition_ok is False and not rep.passed


@pytest.mark.parametrize("overlap", [False, True])
def test_membership_census_counts_the_stars_of_well_dominated_vertices(st32, monkeypatch, overlap):
    # a vertex with a wrong dominator count in S_i leads no star of S_i
    se = starperm.domination.se_set
    sets = [se(st32, i) for i in range(3)]
    if overlap:
        sets[1] = array("i", sorted({*sets[1], min(sets[2])}))
    monkeypatch.setattr(starperm.domination, "se_set", lambda g, i: sets[i])
    adj, ell = adjacency_dict(st32), 2
    members = [labels_of(st32, s) for s in sets]
    stars = Counter(sum(len(adj[v] & s) == ell for s in members if u in s for v in adj[u] - s) for u in adj)
    del stars[0]
    rep = verify_partition_and_edge_cover(st32)
    assert rep.membership_census == dict(sorted(stars.items()))
    assert rep.passed is not overlap


def test_domination_verifiers_allocate_little(st42):
    # The ST(4,2) graph itself is about 2 MB. The passing checks keep one
    # or two byte columns by vertex id, 2,520 entries each, and no copy of
    # the members' ids: 4.1-4.6, 8.7 and 4.0-4.4 KB measured on Python
    # 3.11-3.13. One more byte column, such as a member mask, breaks each
    # bound; int arrays by vertex id take 36 KB or more.
    s0, sigma1 = se_set(st42, 0), sigma_set(st42, 1)
    checks = (
        (lambda: verify_efficient_domination(st42, s0, 2), 6_000),
        (lambda: verify_partition_and_edge_cover(st42), 10_000),
        (lambda: verify_efficient_domination(st42, sigma1, 1), 6_000),
    )
    for check, bound in checks:
        tracemalloc.start()
        try:
            assert check().passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


def test_pancake_and_chi_copy_no_whole_graph(tc42):
    # a copy of PC(4,2) or ST(4,2) less a vertex or edge class takes about
    # 1 MB more; the checks peak near 0.5 MB without one (tracemalloc)
    # each check with the fields its suite lines read
    checks = (
        (lambda: pancake_chain_check(4), lambda rep: rep.last_sigma_passes and rep.all_lower_sigmas_fail and rep.degrees_drop),
        (
            lambda: color_class_decomposition(tc42, verify_coloring(tc42)),
            lambda rep: all(c.item1_ok(8) and c.item2_ok(8) and c.item3_ok(8) for c in rep.cases),
        ),
    )
    for check, holds in checks:
        tracemalloc.start()
        try:
            rep = check()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert holds(rep)
        assert peak < 2**20


def test_domination_verifiers_refuse_an_id_outside_the_graph(st22):
    # -1 would otherwise mark the last vertex through a bytearray index; an
    # ascending array is checked at its two ends
    for s in ([0, -1], [0, st22.n], array("i", [-1, 0]), array("i", [0, st22.n])):
        with pytest.raises(ValueError, match="outside range"):
            verify_efficient_domination(st22, s, 1)


@pytest.mark.parametrize("k,ell", [(1, 2), (2, 1), (2, 2), (3, 2), (2, 3), (3, 3)])
def test_se_sets_are_the_strings_of_each_first_symbol(k, ell):
    g = build_graph(Params(k, ell))
    for i in range(k):
        assert labels_of(g, se_set(g, i)) == {v for v in brute_multiset_perms(k, ell) if v[0] == i}


def test_an_ascending_id_array_is_checked_without_a_copy(st32):
    s = se_set(st32, 0)
    assert starperm.domination._member_ids(st32, s) is s
    for other in (list(s), array("i", reversed(s)), array("i", [*s, s[-1]]), array("l", s)):
        members = starperm.domination._member_ids(st32, other)
        assert members is not other and members == s


def test_constructed_sets_are_ascending_id_arrays(st22, st32):
    sets = [se_set(st32, i) for i in range(3)] + [sigma_set(st32, i) for i in range(1, 6)]
    sets += code_search(st22, 1) + code_search(st22, 2)
    for ids in sets:
        assert isinstance(ids, array) and ids.typecode == "i"
        assert list(ids) == sorted(set(ids))


def _facts(cert):
    """What a certificate records: its distance and its violations."""
    return cert.min_internal_distance, [(v.kind, v.where, v.detail) for v in cert.violations]


@pytest.mark.parametrize("graph,ell", [("st32", 2), ("st32", 1), ("st23", 3), ("pc32", 1)])
def test_certificate_ignores_the_order_and_repeats_of_the_ids(graph, ell, request):
    g = request.getfixturevalue(graph)
    rng = random.Random(ell)
    for ids in ([0], se_set(g, 0), sorted(rng.sample(range(g.n), g.n // 4))):
        shuffled = list(ids) * 2
        rng.shuffle(shuffled)
        assert _facts(verify_efficient_domination(g, shuffled, ell)) == _facts(verify_efficient_domination(g, ids, ell))
        for x in (-1, g.n):
            with pytest.raises(ValueError, match="outside range"):
                verify_efficient_domination(g, shuffled + [x], ell)


def test_a_second_common_neighbour_of_two_dominators_is_found():
    # In the 4-cycle 0-1-2-3, {0, 2} gives 1 and 3 two dominators each, the
    # same two: every count is right, and the intersection test still fails.
    g = Graph(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
    cert = verify_efficient_domination(g, [2, 0], 2)
    assert [(v.kind, v.where, v.detail) for v in cert.violations] == [
        ("non-unique-intersection", (1,), (1, 3)),
        ("non-unique-intersection", (3,), (1, 3)),
    ]
    assert cert.min_internal_distance == 2


def test_partition_and_edge_cover_st22(st22):
    rep = verify_partition_and_edge_cover(st22)
    assert rep.passed
    assert rep.per_symbol_edge_partition_ok
    # doubled multigraph: 3 dominator stars per symbol, 2 edges each, 2 symbols
    assert rep.expected_memberships == 2
    assert all(c == 2 for c in rep.membership_census)


def test_partition_and_edge_cover_st32(st32):
    rep = verify_partition_and_edge_cover(st32)
    assert rep.passed
    assert rep.expected_memberships == 4
    assert all(c == 4 for c in rep.membership_census)


def test_code_search_st22_exact():
    # independent cross-check: direct enumeration of all 2^6 subsets
    from starperm import Params, build_graph

    g = build_graph(Params(2, 2))
    adj = adjacency_dict(g)
    verts = list(g.vertices)
    for ell in (1, 2):
        brute = []
        for mask in range(1 << 6):
            s = frozenset(verts[i] for i in range(6) if mask >> i & 1)
            if brute_is_e_ell_set(adj, s, ell):
                brute.append(s)
        found = [labels_of(g, ids) for ids in code_search(g, ell)]
        assert sorted(map(sorted, found)) == sorted(map(sorted, brute))


SMALL_GRAPHS = {
    "c4": Graph(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)]),
    "k23": Graph(range(5), [(u, v) for u in (0, 1) for v in (2, 3, 4)]),
}


@pytest.mark.parametrize("ell", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
def test_code_search_matches_the_oracle_on_every_subset(name, ell):
    # unlike ST(2,2) and a matching, these have leaves whose counts all hold
    # but whose dominators share a second neighbour
    g = SMALL_GRAPHS[name]
    adj = adjacency_dict(g)
    subsets = ([i for i in range(g.n) if mask >> i & 1] for mask in range(1 << g.n))
    brute = sorted(s for s in subsets if brute_is_e_ell_set(adj, s, ell))
    found = [list(ids) for ids in code_search(g, ell)]
    assert sorted(found) == brute
    if ell == 2:
        assert found == [list(range(g.n))]


def test_code_search_leaves_are_decided_by_the_verifier(monkeypatch):
    # in C_4, {0, 1, 2} gives vertex 3 its two dominators 0 and 2, which
    # also share vertex 1: the search reaches it, and the verifier rejects it
    c4 = SMALL_GRAPHS["c4"]
    cert = verify_efficient_domination(c4, [0, 1, 2], 2)
    assert [(v.kind, v.where) for v in cert.violations] == [("non-unique-intersection", (3,))]
    decided = []

    def verify(g, ids, ell):
        decided.append(list(ids))
        return verify_efficient_domination(g, ids, ell)

    monkeypatch.setattr(starperm.domination, "verify_efficient_domination", verify)
    assert code_search(c4, 2) == [array("i", range(4))]
    assert [0, 1, 2] in decided


def test_code_search_finds_constructions(st22):
    ones = code_search(st22, 1)
    assert all(sigma_set(st22, i) in ones for i in (1, 2, 3))
    twos = code_search(st22, 2)
    assert se_set(st22, 0) in twos and se_set(st22, 1) in twos


def test_code_search_depth_is_not_bounded_by_the_recursion_limit():
    # a perfect matching on 1000 vertices: every vertex is decided in turn,
    # 1000 levels deep, and the whole vertex set is the one 2-set
    n = 1000
    g = Graph(range(n), [(i, i + 1) for i in range(0, n, 2)])
    assert code_search(g, 2) == [array("i", range(n))]


def test_ell_below_one_is_refused_before_any_work(st22):
    triangle = Graph(range(3), [(0, 1), (1, 2), (0, 2)])  # would otherwise raise Precondition
    for g in (st22, triangle):
        with pytest.raises(ValueError, match="need ell >= 1, got ell = 0"):
            code_search(g, 0)
        with pytest.raises(ValueError, match="need ell >= 1, got ell = 0"):
            verify_efficient_domination(g, [], 0)


def test_code_search_st32_perfect_codes(st32):
    codes = code_search(st32, 1)
    assert len(codes) == 65
    for i in range(1, 6):
        assert sigma_set(st32, i) in codes
    assert all(len(c) == 18 for c in codes)


def test_ei_avoidance(monkeypatch, st22, st32, pc22):
    rep = verify_ei_avoidance(st22)
    # facts only: the suite line decides
    assert set(rep) == {"witnesses", "last_position_rationale"}
    assert rep["witnesses"] == [] and rep["last_position_rationale"]
    # a prefix reversal's label is no color
    with pytest.raises(ValueError, match="star-family"):
        verify_ei_avoidance(pc22)
    e1 = {(u, v) for u, v, labels in st22.edges() if labels == (1,)}
    assert e1 == {(ms("0101"), ms("1001")), (ms("0110"), ms("1010"))}
    assert verify_ei_avoidance(st32)["witnesses"] == []
    # the lower end of the first edge given that edge's color as its repeat
    # position is the one witness
    u, v, (c,) = next(st22.edges())
    pos = bytearray(st22.repeat_positions())
    pos[st22.index(u)] = c
    monkeypatch.setattr(type(st22), "repeat_positions", lambda g: bytes(pos))
    rep = verify_ei_avoidance(st22)
    assert rep["witnesses"] == [(c, u, v)]


def test_sigma_total_coloring_feeds_ei(st22, tc22):
    sigma1 = labels_of(st22, sigma_set(st22, 1))
    for u, v, labels in tc22.graph.edges():
        if labels == (1,):
            assert u not in sigma1 and v not in sigma1
