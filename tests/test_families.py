import pytest

from bhr import families
from bhr.core import LengthMultiset, verify_realization
from bhr.families import construct_1x, seed_for_residue


def test_basic_x8_fixtures():
    c = construct_1x(8, 9)
    assert c.path.vertices == (
        1, 9, 0, 16, 8, 7, 15, 14, 6, 5, 13, 12, 4, 3, 11, 10, 2,
    )
    assert c.multiset == LengthMultiset.parse("1^7 8^9")
    c = construct_1x(8, 10)
    assert c.path.vertices == (
        8, 16, 0, 9, 1, 10, 2, 3, 11, 12, 4, 5, 13, 14, 6, 7, 15,
    )
    assert c.multiset == LengthMultiset.parse("1^6 8^10")
    c = construct_1x(8, 16)
    assert c.path.vertices == (
        0, 8, 16, 17, 9, 1, 2, 10, 18, 19, 11, 3, 4, 12, 20, 5, 13,
        14, 6, 21, 22, 7, 15,
    )
    assert c.multiset == LengthMultiset.parse("1^6 8^16")


def test_basic_x9_fixtures():
    c = construct_1x(9, 10)
    assert c.path.vertices == (
        9, 10, 1, 0, 18, 8, 17, 7, 16, 15, 6, 5, 14, 13, 4, 3, 12,
        11, 2,
    )
    c = construct_1x(9, 11)
    assert c.path.vertices == (
        0, 9, 8, 18, 17, 7, 16, 6, 15, 14, 5, 4, 13, 12, 3, 2, 11,
        10, 1,
    )
    c = construct_1x(9, 18)
    assert c.path.vertices == (
        25, 8, 17, 18, 9, 0, 1, 10, 19, 20, 11, 2, 3, 12, 21, 22,
        13, 4, 5, 14, 23, 6, 15, 16, 7, 24,
    )


def test_basic_rejects_bad_args():
    with pytest.raises(ValueError, match="x must be at least 4"):
        construct_1x(3, 4)
    for b in (8, 17):
        with pytest.raises(ValueError, match=f"b={b} outside range 9..16"):
            construct_1x(8, b)
    for x in (0, 3):
        with pytest.raises(ValueError, match="x must be at least 4"):
            seed_for_residue(x, 1)


def test_even_lemma_fixtures():
    c = construct_1x(8, 13)
    assert c.path.vertices == (
        3, 11, 12, 4, 5, 13, 14, 6, 18, 10, 2, 1, 9, 17, 16, 8, 0,
        19, 7, 15,
    )
    assert c.multiset == LengthMultiset.parse("1^6 8^13")
    assert {(gp.x, gp.m) for gp in c.grow_points} >= {(1, 18), (8, 7)}
    c = construct_1x(10, 16)
    assert c.path.vertices == (
        17, 7, 8, 18, 19, 9, 10, 20, 21, 11, 1, 16, 6, 5, 15, 0, 24,
        14, 4, 3, 13, 23, 22, 12, 2,
    )
    assert {(gp.x, gp.m) for gp in c.grow_points} >= {(1, 1), (10, 10)}


def test_odd_lemma_fixtures():
    c = construct_1x(13, 21)
    assert c.path.vertices == (
        30, 17, 4, 3, 16, 29, 28, 15, 2, 1, 14, 27, 26, 13, 0, 32,
        12, 25, 24, 11, 31, 18, 5, 6, 19, 20, 7, 8, 21, 22, 9, 10, 23,
    )
    assert {(gp.x, gp.m) for gp in c.grow_points} >= {(1, 31), (13, 12)}
    c = construct_1x(9, 14)
    assert c.path.vertices == (
        12, 3, 4, 13, 14, 5, 6, 15, 16, 7, 20, 11, 2, 1, 10, 19, 18,
        9, 0, 21, 8, 17,
    )
    assert {(gp.x, gp.m) for gp in c.grow_points} >= {(1, 20), (9, 8)}


def test_family_params_derive():
    r, s = families._params(8, 13)
    assert 8 == 2 * r + 2 * s + 4 and 13 == 8 + 2 * r + 3
    r, s = families._params(8, 12)
    assert 8 == 2 * r + 2 * s + 6 and 12 == 8 + 2 * r + 4
    r, s = families._params(9, 13)
    assert 9 == 2 * r + 2 * s + 5 and 13 == 9 + 2 * r + 4
    r, s = families._params(9, 12)
    assert 9 == 2 * r + 2 * s + 5 and 12 == 9 + 2 * r + 3


def test_family_sweep_verifies():
    for x in range(4, 16):
        for b in range(x + 1, 2 * x + 1):
            cert = construct_1x(x, b)
            assert cert.multiset.multiplicity(x) == b
            assert cert.multiset.underlying_set == frozenset({1, x})
            assert verify_realization(cert.path, cert.multiset)
            assert {gp.x for gp in cert.grow_points} == {1, x}


def test_seed_for_residue():
    for x in [4, 5, 7, 10]:
        seen = set()
        for residue in range(x):
            cert = seed_for_residue(x, residue)
            b = cert.multiset.multiplicity(x)
            assert b % x == residue
            assert {gp.x for gp in cert.grow_points} == {1, x}
            seen.add(b % x)
        assert seen == set(range(x))


def test_seed_for_residue_is_built_once_per_argument_pair():
    assert seed_for_residue(6, 2) is seed_for_residue(6, 2)
