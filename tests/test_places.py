import random
from fractions import Fraction

import pytest

from gcdlab.logreal import LogReal, logreal_sum
from gcdlab.places import (
    DomainError,
    Place,
    PlaceSet,
    format_rational,
    log_abs,
    parse_rational,
    support,
    valuation,
)


def rand_rational(rng, bound=10**6):
    num = rng.randint(-bound, bound)
    den = rng.randint(1, bound)
    if num == 0:
        num = 1
    return Fraction(num, den)


def test_valuation_examples():
    assert valuation(Fraction(12), 2) == 2
    assert valuation(Fraction(3, 8), 2) == -3
    assert valuation(Fraction(7), 5) == 0
    with pytest.raises(DomainError):
        valuation(Fraction(0), 2)
    with pytest.raises(DomainError):
        valuation(Fraction(3), 4)


def test_valuation_matches_sympy():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    sympy = pytest.importorskip("sympy")
    smooth = st.builds(
        lambda e2, e3, e7, k: 2**e2 * 3**e3 * 7**e7 * k,
        st.integers(0, 20), st.integers(0, 9), st.integers(0, 5), st.integers(1, 10**5),
    )

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        num=smooth, den=smooth, sign=st.sampled_from((-1, 1)),
        p=st.sampled_from((2, 3, 5, 7, 101)),
    )
    def check(num, den, sign, p):
        x = Fraction(sign * num, den)
        want = sympy.multiplicity(p, x.numerator) - sympy.multiplicity(p, x.denominator)
        assert valuation(x, p) == want

    check()


def test_log_abs_examples():
    assert log_abs(Fraction(6), Place.finite(2)) == LogReal({2: -1})
    assert log_abs(Fraction(6), Place.archimedean()) == LogReal({2: 1, 3: 1})
    assert log_abs(Fraction(-3, 2), Place.archimedean()) == LogReal({3: 1, 2: -1})
    with pytest.raises(DomainError):
        log_abs(Fraction(0), Place.archimedean())


def test_logreal_sign_examples():
    assert LogReal({3: 1, 2: -1}).sign() == 1
    assert LogReal({2: 2, 4: -1}).sign() == 0
    assert LogReal({2: 1, 3: -1}).sign() == -1


def test_support_examples():
    assert support(Fraction(6)) == {
        Place.archimedean(), Place.finite(2), Place.finite(3)
    }
    assert support(Fraction(1)) == set()
    assert support(Fraction(-1)) == set()
    assert support(Fraction(5, 3)) == {
        Place.archimedean(), Place.finite(3), Place.finite(5)
    }


def test_product_formula_random():
    rng = random.Random(2024)
    for _ in range(300):
        x = rand_rational(rng, 10**4)
        places = support(x) | {Place.archimedean()}
        assert logreal_sum(log_abs(x, v) for v in places).is_zero


def test_log_abs_multiplicative():
    rng = random.Random(11)
    for _ in range(100):
        x, y = rand_rational(rng, 999), rand_rational(rng, 999)
        for v in [Place.archimedean(), Place.finite(2), Place.finite(7)]:
            assert log_abs(x * y, v) == log_abs(x, v) + log_abs(y, v)


def test_ultrametric():
    rng = random.Random(12)
    for _ in range(300):
        x, y = rand_rational(rng, 999), rand_rational(rng, 999)
        if x + y == 0:
            continue
        for p in (2, 3, 5):
            vx, vy = valuation(x, p), valuation(y, p)
            vxy = valuation(x + y, p)
            assert vxy >= min(vx, vy)
            if vx != vy:
                assert vxy == min(vx, vy)


def test_place_and_placeset():
    assert Place.finite(7).prime == 7
    with pytest.raises(DomainError):
        Place.finite(8)
    S = PlaceSet.of(3, 2)
    assert S.finite_primes == (2, 3)
    assert Place.archimedean() in S
    assert Place.finite(2) in S
    assert Place.finite(5) not in S
    S2 = PlaceSet(False, (5,))
    assert Place.archimedean() not in S2
    assert str(S) == "{oo, 2, 3}"
    assert S.union(S2).finite_primes == (2, 3, 5)
    assert sorted([Place.finite(3), Place.archimedean(), Place.finite(2)]) == [
        Place.archimedean(), Place.finite(2), Place.finite(3)
    ]


def test_rational_parse_format():
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational(" -7 ") == Fraction(-7)
    assert format_rational(Fraction(3, 2)) == "3/2"
    assert format_rational(Fraction(-7)) == "-7"
    for bad in ("1.5", "2e3", "x", "1/0"):
        with pytest.raises(DomainError):
            parse_rational(bad)
