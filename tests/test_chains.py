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
    schreier_quotient_check,
    sigma_set,
    verify_chain,
    verify_efficient_domination,
)
from starperm.mstrings import render, repeat_position

from .oracles import labels_of

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
    assert rep.passed
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
    assert rep.passed
    assert rep.block_sizes == (90, 90, 90, 90)
    assert rep.sigma_size == 360


def test_verify_chain_builds_no_graph(monkeypatch):
    # catches a verify_chain that builds the source or target graph again
    def refuse(*args, **kwargs):
        raise AssertionError("verify_chain reads strings and star moves only")

    monkeypatch.setattr(starperm.chains, "build_graph", refuse)
    assert verify_chain(3).passed


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


def test_schreier_coset_table_values():
    rep = schreier_quotient_check(2, 2)
    assert rep.passed
    fibers = rep.table.fibers
    assert fibers[ms("0011")] == tuple(map(ms, ("0123", "0132", "1023", "1032")))
    assert fibers[ms("1100")] == tuple(map(ms, ("2301", "2310", "3201", "3210")))
    assert fibers[ms("0101")] == tuple(map(ms, ("0213", "0312", "1203", "1302")))
    assert fibers[ms("1010")] == tuple(map(ms, ("2031", "2130", "3021", "3120")))
    assert fibers[ms("0110")] == tuple(map(ms, ("0231", "0321", "1230", "1320")))
    assert fibers[ms("1001")] == tuple(map(ms, ("2013", "2103", "3012", "3102")))
    gens = rep.table.generator_sets
    assert gens[ms("0011")] == (2, 3) and gens[ms("1100")] == (2, 3)
    assert gens[ms("0101")] == (1, 3) and gens[ms("1010")] == (1, 3)
    assert gens[ms("0110")] == (1, 2) and gens[ms("1001")] == (1, 2)
    assert all(len(f) == 4 for f in fibers.values())


@pytest.mark.parametrize("k,ell,size", [(3, 2, 8), (2, 3, 36)])
def test_schreier_other_params(k, ell, size):
    rep = schreier_quotient_check(k, ell)
    assert rep.passed
    assert all(len(f) == size for f in rep.table.fibers.values())


def test_schreier_cap():
    with pytest.raises(CapExceeded):
        schreier_quotient_check(3, 3)


@pytest.mark.parametrize("k,ell", [(2, 2), (3, 2), (2, 3)])
def test_schreier_builds_no_graph(monkeypatch, k, ell):
    # catches a quotient check that builds the multiset star graph again
    def refuse(*args, **kwargs):
        raise AssertionError("the quotient is compared with star moves, not a built graph")

    monkeypatch.setattr(starperm.chains, "build_graph", refuse)
    assert schreier_quotient_check(k, ell).passed


def test_pancake_k2(pc22):
    rep = pancake_chain_check(2)
    assert rep.passed
    assert rep.last_sigma_passes and rep.last_sigma_min_distance == 3
    kind, where = rep.failing_sigmas[1]
    assert kind == "non-independent" and set(where) == {ms("0011"), ms("1100")}
    assert rep.all_lower_sigmas_fail
    assert rep.remainder_regular_degree == 0


def test_pancake_k3(pc32):
    rep = pancake_chain_check(3)
    assert rep.passed
    assert rep.last_sigma_passes and rep.last_sigma_min_distance == 3
    assert set(rep.failing_sigmas) == {1, 2, 3, 4}
    assert pc32.regularity() == ("regular", (4,))
    assert rep.minus_sigma_regular_degree == 3
    assert rep.remainder_regular_degree == 2
    assert rep.neighborhoods_partition_remainder
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
