import math
from itertools import chain

import pytest

from lchoose.lam import INFINITE, Lambda, phi_bounds, phi_exact, precedes, refines

from helpers import naive_precedes, naive_refines


def partitions(k: int):
    def rec(rem, mx):
        if rem == 0:
            yield ()
            return
        for p in range(min(rem, mx), 0, -1):
            for rest in rec(rem - p, p):
                yield (p,) + rest

    return [Lambda(p) for p in rec(k, k)]


def test_normalisation_and_accessors():
    lam = Lambda((3, 1, 2))
    assert lam.parts == (1, 2, 3)
    assert lam.total == 6
    assert lam.size == 3
    assert lam.m_one == 1
    assert lam.m_odd == 2
    assert lam.multiplicity(2) == 1
    assert lam.multiplicity(5) == 0
    assert str(lam) == "1,2,3"
    assert (lam.total, lam.size, lam.m_one, lam.m_odd) == (6, 3, 1, 2)


def test_parse_forms():
    assert Lambda.parse("1,3").parts == (1, 3)
    assert Lambda.parse("2*3").parts == (2, 2, 2)
    assert Lambda.parse("1*2, 3").parts == (1, 1, 3)
    assert Lambda.parse(" 2 ").parts == (2,)


@pytest.mark.parametrize("text", ["", "0", "-1", "a", "1,", "2*0", "2*-1", "1,x"])
def test_parse_rejects(text):
    with pytest.raises(ValueError):
        Lambda.parse(text)


def test_empty_and_nonpositive_rejected():
    with pytest.raises(ValueError):
        Lambda(())
    with pytest.raises(ValueError):
        Lambda((0, 1))


def test_trivial_flag():
    assert Lambda((1, 1, 1)).is_trivial
    assert not Lambda((1, 2)).is_trivial


def test_phi_exact_known_values():
    # smallest refutable sizes for the standard quota shapes
    assert phi_exact(Lambda((2,))) == 6
    assert phi_exact(Lambda((1, 2))) == 9
    assert phi_exact(Lambda((1, 3))) == 12
    assert phi_exact(Lambda((3, 3))) == 15
    assert phi_exact(Lambda((1, 1))) is INFINITE
    assert phi_exact(Lambda((1,))) is INFINITE
    assert math.isinf(phi_exact(Lambda((1, 1, 1))))


def test_phi_bounds_known_values():
    assert phi_bounds(Lambda((1, 3))) == (11, 12)
    assert phi_bounds(Lambda((3, 3))) == (14, 15)
    assert phi_bounds(Lambda((2, 2))) == (10, 10)
    assert phi_bounds(Lambda((2,))) == (6, 6)


def test_phi_bounds_rejects_trivial():
    with pytest.raises(ValueError):
        phi_bounds(Lambda((1, 1)))


def test_phi_bounds_bracket_exact():
    for k in range(2, 11):
        for lam in partitions(k):
            if lam.is_trivial:
                continue
            lo, hi = phi_bounds(lam)
            assert lo <= phi_exact(lam) <= hi, lam


def test_order_relations_match_brute_force():
    lams = list(chain.from_iterable(partitions(k) for k in range(1, 7)))
    for a in lams:
        for b in lams:
            assert refines(a, b) == naive_refines(a, b), (a, b)
            assert precedes(a, b) == naive_precedes(a, b), (a, b)


def test_order_relation_basics():
    two, ones = Lambda((2,)), Lambda((1, 1))
    assert precedes(two, ones) and not precedes(ones, two)
    assert precedes(Lambda((3,)), Lambda((1, 2)))
    assert precedes(Lambda((1, 2)), Lambda((1, 1, 1)))
    assert refines(Lambda((1, 2)), Lambda((3,)))
    assert not refines(Lambda((3,)), Lambda((1, 2)))
    # reflexive on both
    for lam in (two, ones, Lambda((1, 2, 4))):
        assert refines(lam, lam) and precedes(lam, lam)
    # the bitmask search refuses more than 16 parts rather than build 2^17 sums
    with pytest.raises(ValueError, match="too large for the exhaustive order check"):
        refines(Lambda((1,) * 17), Lambda((17,)))
    with pytest.raises(ValueError, match="too large for the exhaustive order check"):
        precedes(Lambda((2,)), Lambda((1,) * 17))


def test_precedes_allows_spare_parts():
    # spare parts of the right multiset may be left unused
    assert precedes(Lambda((2,)), Lambda((1, 1, 5)))
    assert precedes(Lambda((2, 3)), Lambda((3, 3)))
    assert not precedes(Lambda((4, 4)), Lambda((3, 3, 1)))
