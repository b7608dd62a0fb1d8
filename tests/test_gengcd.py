import math
import random
from fractions import Fraction

import pytest

from gcdlab.gengcd import _finite_core, log_gcd, log_gcd_outside, log_gcd_within
from gcdlab.heights import height
from gcdlab.logreal import LogReal
from gcdlab.places import DomainError, PlaceSet


def rand_rational(rng, bound=999):
    return Fraction(rng.randint(-bound, bound) or 1, rng.randint(1, bound))


def test_total_examples():
    assert log_gcd(Fraction(12), Fraction(18)) == LogReal({2: 1, 3: 1})
    assert log_gcd(Fraction(123456), Fraction(1)).is_zero
    assert log_gcd(Fraction(3, 2), Fraction(9, 4)) == LogReal({3: 1})


def test_outside_examples():
    assert log_gcd_outside(Fraction(12), Fraction(18), PlaceSet.of(2)) == LogReal({3: 1})
    assert log_gcd_outside(Fraction(12), Fraction(18), PlaceSet.of()) == LogReal({6: 1})
    assert log_gcd_outside(Fraction(1, 5), Fraction(1, 7), PlaceSet.of()).is_zero


def test_within_examples():
    assert log_gcd_within(Fraction(1, 2), Fraction(1, 3), PlaceSet.of()) == LogReal({2: 1})
    assert log_gcd_within(Fraction(2), Fraction(3), PlaceSet.of()).is_zero
    assert log_gcd_within(Fraction(12), Fraction(18), PlaceSet.of(2)) == LogReal({2: 1})


def test_zero_pair_rejected():
    with pytest.raises(DomainError):
        log_gcd(Fraction(0), Fraction(0))


def test_single_zero_matches_inverse_height():
    # with one argument zero the formula degenerates to the height of the
    # inverse of the other
    rng = random.Random(1)
    for _ in range(50):
        a = rand_rational(rng)
        assert log_gcd(a, Fraction(0)) == height(1 / a)
        assert log_gcd(Fraction(0), a) == height(1 / a)


def test_integer_euclid_oracle():
    rng = random.Random(2)
    for _ in range(400):
        a, b = rng.randint(1, 10**9), rng.randint(1, 10**9)
        g = math.gcd(a, b)
        assert log_gcd(Fraction(a), Fraction(b)) == LogReal.log_of_int(g)


def test_partition_identity():
    rng = random.Random(3)
    primes = [2, 3, 5, 7, 11, 13]
    for _ in range(200):
        a, b = rand_rational(rng), rand_rational(rng)
        S = PlaceSet.of(
            *rng.sample(primes, k=rng.randint(0, 4)),
            archimedean=rng.random() < 0.7,
        )
        total = log_gcd(a, b)
        split = log_gcd_outside(a, b, S) + log_gcd_within(a, b, S)
        assert total == split


def test_symmetry():
    rng = random.Random(4)
    for _ in range(100):
        a, b = rand_rational(rng), rand_rational(rng)
        assert log_gcd(a, b) == log_gcd(b, a)


def test_s_unit_scaling_outside_s():
    S = PlaceSet.of(2, 3)
    rng = random.Random(5)
    for _ in range(100):
        a, b = rand_rational(rng), rand_rational(rng)
        u = Fraction(2) ** rng.randint(-5, 5) * Fraction(3) ** rng.randint(-5, 5)
        if rng.random() < 0.5:
            u = -u
        assert (
            log_gcd_outside(u * a, u * b, S)
            == log_gcd_outside(a, b, S)
        )


def test_gcd_bounded_by_heights():
    rng = random.Random(6)
    for _ in range(150):
        a, b = rand_rational(rng), rand_rational(rng)
        total = log_gcd(a, b)
        assert (height(a) - total).sign() >= 0
        assert (height(b) - total).sign() >= 0


def test_nonnegativity():
    rng = random.Random(7)
    for _ in range(100):
        a, b = rand_rational(rng), rand_rational(rng)
        assert log_gcd(a, b).sign() >= 0
        assert log_gcd_within(a, b, PlaceSet.of(2)).sign() >= 0
        assert log_gcd_outside(a, b, PlaceSet.of(2)).sign() >= 0


def test_finite_core_matches_valuation_oracle():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    sympy = pytest.importorskip("sympy")

    def v(x, p):
        # p-adic valuation; infinite for zero
        if x == 0:
            return math.inf
        return sympy.multiplicity(p, x.numerator) - sympy.multiplicity(p, x.denominator)

    smooth = st.builds(
        lambda e2, e3, e5, k: 2**e2 * 3**e3 * 5**e5 * k,
        st.integers(0, 12), st.integers(0, 8), st.integers(0, 6), st.integers(1, 10**4),
    )
    rationals = st.builds(
        lambda sign, num, den: Fraction(sign * num, den),
        st.sampled_from((-1, 0, 1)), smooth, smooth,
    )

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(a=rationals, b=rationals)
    def check(a, b):
        hypothesis.assume(a != 0 or b != 0)
        primes = set()
        for x in (a, b):
            primes.update(sympy.factorint(x.numerator))
            primes.update(sympy.factorint(x.denominator))
        primes.discard(-1)
        primes.discard(0)
        M = 1
        for p in primes:
            M *= p ** max(0, min(v(a, p), v(b, p)))
        L = math.lcm(a.denominator, b.denominator)
        assert _finite_core(a, b) == (M, L)
        if a.denominator == b.denominator == 1:
            assert _finite_core(a.numerator, b.numerator) == (M, 1)

    check()
