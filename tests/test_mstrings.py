import pytest

from starperm import (
    CapExceeded,
    Params,
    enumerate_vertices,
    iter_vertices,
    list_assignment,
    mstring,
    prefix_reversal,
    render,
    repeat_position,
    star_neighbors,
)
from starperm.mstrings import infer_params

from .oracles import brute_multiset_perms

ms = mstring


def test_params_validation():
    with pytest.raises(ValueError):
        Params(0, 2)
    with pytest.raises(ValueError):
        Params(2, 0)
    assert Params(3, 2).length == 6


def test_enumeration_k2_l2_exact():
    got = enumerate_vertices(Params(2, 2))
    assert [render(v) for v in got] == ["0011", "0101", "0110", "1001", "1010", "1100"]


def test_enumeration_k1_l5_single():
    assert enumerate_vertices(Params(1, 5)) == [(0, 0, 0, 0, 0)]


@pytest.mark.parametrize("k,ell", [(2, 1), (2, 2), (3, 1), (3, 2), (2, 3), (4, 2), (3, 3)])
def test_enumeration_matches_brute_force(k, ell):
    got = enumerate_vertices(Params(k, ell))
    assert got == brute_multiset_perms(k, ell)
    assert len(got) == Params(k, ell).vertex_count()


def test_count_formula_k3_l2():
    assert Params(3, 2).vertex_count() == 90


def test_cap_guard():
    with pytest.raises(CapExceeded):
        enumerate_vertices(Params(3, 2), cap=10)
    with pytest.raises(CapExceeded):
        iter_vertices(Params(3, 2), cap=10)  # at the call, before a string is asked for


def test_star_neighbors_examples():
    assert {(j, render(w)) for j, w in star_neighbors(ms("0011"))} == {(2, "1001"), (3, "1010")}
    got = {(j, render(w)) for j, w in star_neighbors(ms("100122"))}
    assert got == {(1, "010122"), (2, "001122"), (4, "200112"), (5, "200121")}
    assert star_neighbors(ms("00000")) == ()


def test_star_neighbors_symmetric_with_same_label():
    for v in enumerate_vertices(Params(3, 2)):
        for j, w in star_neighbors(v):
            assert (j, v) in star_neighbors(w)
        assert len(star_neighbors(v)) == 2 * 2  # (k-1) * ell


def test_prefix_reversal_examples():
    assert render(prefix_reversal(ms("0011"), 3)) == "1100"
    assert render(prefix_reversal(ms("001122"), 2)) == "100122"
    assert render(prefix_reversal(ms("0101"), 2)) == "0101"  # fixed point
    with pytest.raises(ValueError):
        prefix_reversal(ms("0011"), 0)
    with pytest.raises(ValueError):
        prefix_reversal(ms("0011"), 4)


def test_prefix_reversal_involution():
    for v in enumerate_vertices(Params(2, 3)):
        for j in range(1, 6):
            assert prefix_reversal(prefix_reversal(v, j), j) == v


def test_repeat_position_examples():
    assert repeat_position(ms("0011")) == 1
    assert repeat_position(ms("0101")) == 2
    assert repeat_position(ms("0110")) == 3
    with pytest.raises(ValueError):
        repeat_position(ms("000111"))


def test_list_assignment_examples():
    assert list_assignment(ms("010011")) == frozenset({2, 3})
    assert list_assignment(ms("0011")) == frozenset({1})
    with pytest.raises(ValueError):
        list_assignment(ms("01"))


def test_list_assignment_degenerates_to_repeat_position():
    for v in enumerate_vertices(Params(3, 2)):
        assert list_assignment(v) == frozenset({repeat_position(v)})


def test_render_parse_roundtrip():
    assert ms("0011") == (0, 0, 1, 1)
    big = tuple(range(12)) + tuple(range(12))
    assert mstring(render(big)) == big
    assert "," in render(big)


def test_infer_params_rejects_malformed():
    with pytest.raises(ValueError):
        infer_params((0, 0, 1))
    with pytest.raises(ValueError):
        infer_params((0, 2, 0, 2))
    assert infer_params((0, 1, 0, 1)) == Params(2, 2)
