import tracemalloc
from itertools import permutations

import pytest

import starperm.chains
from starperm import (
    CapExceeded,
    GeneratorFamily,
    Params,
    build_graph,
    kappa_embed,
    mstring,
    pancake_chain_check,
    schreier_fibers,
    schreier_quotient_check,
    sigma_set,
    star_neighbors,
    verify_chain,
    verify_efficient_domination,
)
from starperm.mstrings import prefix_reversal, render, repeat_position
from starperm.report import PASS, WITNESS_CAP
from starperm.suites import run_suite

from .faults import drop_source_string, lose_first_fiber, move_sym_strings, shift_one_embedding
from .oracles import brute_local_generators, labels_of

ms = mstring


def test_kappa_examples():
    assert render(kappa_embed(ms("0011"), 2, 2)) == "001122"
    assert render(kappa_embed(ms("0011"), 0, 2)) == "112200"
    assert render(kappa_embed(ms("0011"), 1, 2)) == "220011"
    with pytest.raises(ValueError):
        kappa_embed(ms("0011"), 3, 2)
    with pytest.raises(ValueError):
        kappa_embed(ms("001122"), 0, 2)


def test_kappa_suffix_symbol_only_in_suffix():
    source = build_graph(Params(2, 2))
    for j in range(3):
        for v in source.vertices:
            w = kappa_embed(v, j, 2)
            assert w[-2:] == (j, j)
            assert j not in w[:-2]


def test_kappa_neighbor_positions(st32):
    # swapping position 2k lands in the last repeat class, 2k+1 does not
    for v in build_graph(Params(2, 2)).vertices:
        w = kappa_embed(v, 2, 2)
        via_4 = (w[4],) + w[1:4] + (w[0],) + w[5:]
        via_5 = (w[5],) + w[1:5] + (w[0],)
        assert repeat_position(via_4) == 5
        assert repeat_position(via_5) == 4


def test_verify_chain_k2():
    rep = verify_chain(2)
    assert rep.images_disjoint and rep.images_induced_isomorphic
    assert rep.sigma_bijection_ok and rep.blocks_partition_sigma
    assert rep.block_sizes == (6, 6, 6)
    assert rep.sigma_size == 18
    assert rep.cardinality_identity_ok


def test_verify_chain_k2_images_are_six_cycles(st32):
    source = build_graph(Params(2, 2))
    for j in range(3):
        image = [kappa_embed(v, j, 2) for v in source.vertices]
        induced = st32.induced_subgraph(sorted(image, key=st32.index))
        assert induced.n == 6 and induced.m == 6
        assert induced.regularity() == ("regular", (2,))


def test_verify_chain_k3():
    rep = verify_chain(3)
    assert rep.images_disjoint and rep.images_induced_isomorphic
    assert rep.sigma_bijection_ok and rep.blocks_partition_sigma and rep.cardinality_identity_ok
    assert rep.block_sizes == (90, 90, 90, 90)
    assert rep.sigma_size == 360


def test_verify_chain_builds_no_graph(monkeypatch):
    # catches a verify_chain that builds the source or target graph again
    def refuse(*args, **kwargs):
        raise AssertionError("verify_chain reads strings and star moves only")

    monkeypatch.setattr(starperm.chains, "build_graph", refuse)
    lines = [(c.name, c.status) for c in run_suite("chains", 3, 2).checks]
    assert lines == [("images-disjoint-induced", PASS), ("sigma-bijection", PASS), ("cardinality-identity", PASS)]


@pytest.mark.parametrize("k", [2, 3])
def test_verify_chain_counts_match_target_graph(k):
    # catches a star-move reading that strays from build_graph's edges
    target = build_graph(Params(k + 1, 2))
    sigma = labels_of(target, sigma_set(target, 2 * k + 1))
    source = build_graph(Params(k, 2)).vertices
    images = [{kappa_embed(v, j, k) for v in source} for j in range(k + 1)]
    blocks = [{x for w in image for x in target.neighbors(w) if x in sigma} for image in images]
    rep = verify_chain(k)
    assert rep.block_sizes == tuple(map(len, blocks))
    assert rep.sigma_size == len(sigma)


def test_verify_chain_k4_values_and_peak():
    # the label tuples of the images and Sigma_9, held in dicts, sets and
    # frozensets, peaked at 7.6 MiB
    verify_chain(2)  # warm every import and cache first
    tracemalloc.start()
    try:
        rep = verify_chain(4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.images_disjoint and rep.images_induced_isomorphic
    assert rep.sigma_bijection_ok and rep.blocks_partition_sigma and rep.cardinality_identity_ok
    assert rep.block_sizes == (2520,) * 5
    assert rep.sigma_size == 12600
    assert peak < 1.5 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_verify_chain_wrong_shift_is_no_induced_copy(monkeypatch):
    # kappa_1 shifts by 3, not 2: it still maps source edges to star moves,
    # but its images hold 1 in the body, so they are no vertices of ST(4,2)
    shift_one_embedding(monkeypatch, 1)
    rep = verify_chain(3)
    assert not rep.images_induced_isomorphic
    assert rep.images_disjoint and rep.cardinality_identity_ok
    assert ("symbol-in-body", 1, ms("33001111")) in rep.failures
    assert rep.block_sizes == (90, 0, 90, 90)


def test_verify_chain_keeps_at_most_the_witness_cap_of_failures(monkeypatch):
    # a wrong shift at k = 4 finds 7,560 failures; all were kept, 1.85 MiB
    shift_one_embedding(monkeypatch, 1)
    rep = verify_chain(4)
    assert len(rep.failures) == WITNESS_CAP
    assert not rep.images_induced_isomorphic and not rep.sigma_bijection_ok and not rep.blocks_partition_sigma
    assert rep.images_disjoint and rep.cardinality_identity_ok


def test_verify_chain_lost_source_string_breaks_the_bijection(monkeypatch):
    # 001122 is not streamed: its four images are missing, and so are the
    # Sigma_7 neighbours they would have had
    drop_source_string(monkeypatch, 3, 0)
    rep = verify_chain(3)
    assert not rep.sigma_bijection_ok and not rep.blocks_partition_sigma
    assert rep.images_disjoint and rep.images_induced_isomorphic and rep.cardinality_identity_ok
    assert rep.block_sizes == (89,) * 4 and rep.sigma_size == 360
    lost = sorted(
        x for j in range(4) for _, x in star_neighbors(kappa_embed(ms("001122"), j, 3)) if repeat_position(x) == 7
    )
    assert rep.failures == [("sigma-vertex-image-degree", x, 0) for x in lost]


def test_schreier_coset_table_values():
    rep = schreier_quotient_check(2, 2)
    assert rep.fibers_are_cosets and rep.fiber_sizes_ok
    assert rep.quotient_equals_graph and rep.generator_sets_ok
    fibers = dict(schreier_fibers(2, 2))
    assert fibers[ms("0011")] == tuple(map(ms, ("0123", "0132", "1023", "1032")))
    assert fibers[ms("1100")] == tuple(map(ms, ("2301", "2310", "3201", "3210")))
    assert fibers[ms("0101")] == tuple(map(ms, ("0213", "0312", "1203", "1302")))
    assert fibers[ms("1010")] == tuple(map(ms, ("2031", "2130", "3021", "3120")))
    assert fibers[ms("0110")] == tuple(map(ms, ("0231", "0321", "1230", "1320")))
    assert fibers[ms("1001")] == tuple(map(ms, ("2013", "2103", "3012", "3102")))
    gens = brute_local_generators(fibers, 2)
    assert gens[ms("0011")] == (2, 3) and gens[ms("1100")] == (2, 3)
    assert gens[ms("0101")] == (1, 3) and gens[ms("1010")] == (1, 3)
    assert gens[ms("0110")] == (1, 2) and gens[ms("1001")] == (1, 2)
    assert all(len(f) == 4 for f in fibers.values())


@pytest.mark.parametrize("k,ell,size", [(3, 2, 8), (2, 3, 36)])
def test_schreier_other_params(k, ell, size):
    rep = schreier_quotient_check(k, ell)
    assert rep.fibers_are_cosets and rep.fiber_sizes_ok
    assert rep.quotient_equals_graph and rep.generator_sets_ok
    assert all(len(f) == size for _, f in schreier_fibers(k, ell))


def test_schreier_fibers_partition_sym():
    # an independent count: every permutation of range(k*ell) in one fiber
    for k, ell in ((2, 2), (3, 2), (2, 3)):
        members = [s for _, f in schreier_fibers(k, ell) for s in f]
        assert sorted(members) == sorted(permutations(range(k * ell)))
    with pytest.raises(CapExceeded):
        schreier_fibers(3, 3)  # at the call, before the first fiber


def test_schreier_streams_one_fiber_at_a_time():
    # the whole of Sym_8 (40,320 strings) held at once took 12.9 MiB
    schreier_quotient_check(3, 2)  # warm every import and cache first
    tracemalloc.start()
    try:
        rep = schreier_quotient_check(4, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.fibers_are_cosets and rep.fiber_sizes_ok
    assert rep.quotient_equals_graph and rep.generator_sets_ok
    assert peak <= 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_schreier_fiber_count_check_can_fail(monkeypatch):
    # one fiber lost: each fiber still looks right, their total does not
    lose_first_fiber(monkeypatch)
    rep = schreier_quotient_check(2, 2)
    assert not rep.fibers_are_cosets and rep.fiber_sizes_ok
    assert rep.quotient_equals_graph and rep.generator_sets_ok
    assert rep.failures == [("fibers-do-not-partition-sym", 20)]


def test_schreier_per_position_check_can_fail(monkeypatch):
    # position j carries the star move at position n - j: every fiber still
    # reaches its star neighbours, but not by x's own move at j
    move_sym_strings(monkeypatch, lambda v, j: dict(star_neighbors(v))[len(v) - j])
    rep = schreier_quotient_check(2, 2)
    assert not rep.generator_sets_ok
    assert rep.quotient_equals_graph and rep.fibers_are_cosets and rep.fiber_sizes_ok


def test_schreier_quotient_check_can_fail(monkeypatch):
    # position j swaps entries j-1 and j (the bubble-sort move), whose
    # collapse is no star edge of the multiset graph
    move_sym_strings(monkeypatch, lambda v, j: v[: j - 1] + (v[j], v[j - 1]) + v[j + 1 :])
    rep = schreier_quotient_check(2, 2)
    assert not rep.quotient_equals_graph
    assert rep.fibers_are_cosets and rep.fiber_sizes_ok


def test_schreier_keeps_at_most_the_witness_cap_of_failures(monkeypatch):
    # prefix reversals on the Sym strings fail 189,912 times at (4,2); all
    # were kept, with a peak of 23.9 MiB
    move_sym_strings(monkeypatch, prefix_reversal)
    schreier_quotient_check(3, 2)  # warm every import and cache first
    tracemalloc.start()
    try:
        rep = schreier_quotient_check(4, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rep.failures) == WITNESS_CAP
    assert not rep.quotient_equals_graph and not rep.generator_sets_ok
    assert rep.fibers_are_cosets and rep.fiber_sizes_ok
    assert peak < 2 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_schreier_cap():
    with pytest.raises(CapExceeded):
        schreier_quotient_check(3, 3)


@pytest.mark.parametrize("k,ell", [(2, 2), (3, 2), (2, 3)])
def test_schreier_builds_no_graph(monkeypatch, k, ell):
    # catches a quotient check that builds the multiset star graph again
    def refuse(*args, **kwargs):
        raise AssertionError("the quotient is compared with star moves, not a built graph")

    monkeypatch.setattr(starperm.chains, "build_graph", refuse)
    lines = [(c.name, c.status) for c in run_suite("schreier", k, ell).checks]
    assert lines == [("fibers-are-cosets", PASS), ("quotient-matches-graph", PASS), ("local-generator-sets", PASS)]


def test_pancake_k2(pc22):
    rep = pancake_chain_check(2)
    assert rep.degrees_drop
    assert rep.last_sigma_passes and rep.last_sigma_min_distance == 3
    kind, where = rep.failing_sigmas[1]
    assert kind == "non-independent" and set(where) == {ms("0011"), ms("1100")}
    assert rep.all_lower_sigmas_fail
    assert rep.remainder_regular_degree == 0


def test_pancake_k3(pc32):
    rep = pancake_chain_check(3)
    assert rep.all_lower_sigmas_fail and rep.degrees_drop
    assert rep.last_sigma_passes and rep.last_sigma_min_distance == 3
    assert set(rep.failing_sigmas) == {1, 2, 3, 4}
    assert pc32.regularity() == ("regular", (4,))
    assert rep.minus_sigma_regular_degree == 3
    assert rep.remainder_regular_degree == 2
    # no full-reversal edge is also another generator's edge
    assert all(labels == (5,) for _, _, labels in pc32.edges() if 5 in labels)


def test_pancake_is_bounded_by_the_vertex_cap_alone():
    # catches a guard on k in front of build_graph's vertex cap
    with pytest.raises(CapExceeded, match="instance too large"):
        pancake_chain_check(5, cap=1000)


def test_pancake_sigma1_adjacency_witness(pc22):
    cert = verify_efficient_domination(pc22, sigma_set(pc22, 1), 1)
    assert not cert.passed
    kinds = {v.kind for v in cert.violations}
    assert "non-independent" in kinds and "wrong-count" in kinds


def test_custom_family_chain_behavior():
    # one not-all-identity family: last repeat class still works, some lower fails
    fam = GeneratorFamily.custom([[], [], [], [(1, 3)], []])
    g = build_graph(Params(3, 2), fam)
    assert verify_efficient_domination(g, sigma_set(g, 5), 1).passed
    failing = [i for i in range(1, 5) if not verify_efficient_domination(g, sigma_set(g, i), 1).passed]
    assert failing  # obstruction appears as soon as some involution moves symbols
