import random
from fractions import Fraction

import pytest

from gcdlab.heights import (
    AlmostUnitConfig,
    TorusPoint,
    h_sbar,
    height,
    is_almost_unit,
    is_quasi_s_integer,
    local_height,
    relevant_places,
    standard_height,
    torus_local_height,
    torus_height,
)
from gcdlab.logreal import LogReal, logreal_sum
from gcdlab.places import DomainError, Place, PlaceSet


def rand_rational(rng, bound=10**4):
    num = rng.randint(-bound, bound) or 1
    return Fraction(num, rng.randint(1, bound))


def test_height_examples():
    assert height(Fraction(1)).is_zero
    assert height(Fraction(3, 2)) == LogReal({3: 1})
    assert height(Fraction(-5)) == LogReal({5: 1})
    assert height(Fraction(0)).is_zero


def test_local_height_examples():
    assert local_height(Fraction(3, 2), Place.finite(2)) == LogReal({2: 1})
    assert local_height(Fraction(3, 2), Place.finite(3)).is_zero
    assert local_height(Fraction(3, 2), Place.archimedean()) == LogReal({3: 1, 2: -1})


def test_local_global_exact():
    rng = random.Random(31)
    for _ in range(200):
        x = rand_rational(rng)
        total = logreal_sum(local_height(x, v) for v in relevant_places(x))
        assert total == height(x)


def test_height_power_rule():
    rng = random.Random(32)
    for _ in range(50):
        x = rand_rational(rng, 99)
        if abs(x) == 1:
            continue
        for n in (-3, -1, 2, 5):
            assert height(x**n) == abs(n) * height(x)


def test_tuple_heights_examples():
    # the torus height of a tuple and its coordinate-sum (standard) height
    assert torus_height(TorusPoint([2, 3])) == LogReal({3: 1})
    assert standard_height(TorusPoint([2, 3])) == LogReal({2: 1, 3: 1})
    assert torus_height(TorusPoint([1, 1])).is_zero
    assert torus_height(TorusPoint([Fraction(1, 2), Fraction(1, 3)])) == LogReal({2: 1, 3: 1})
    with pytest.raises(DomainError):
        TorusPoint([1, 0])


def test_h_sbar_examples():
    S2 = PlaceSet.of(2)
    assert h_sbar(Fraction(8), S2).is_zero
    assert h_sbar(Fraction(3072), S2) == LogReal({3: 1})
    assert h_sbar(Fraction(6), PlaceSet.of()) == LogReal({2: 1, 3: 1})


def test_h_sbar_at_most_twice_height():
    rng = random.Random(34)
    S = PlaceSet.of(2, 5)
    for _ in range(100):
        x = rand_rational(rng, 999)
        assert (2 * height(x) - h_sbar(x, S)).sign() >= 0


def test_s_units_have_zero_h_sbar():
    S = PlaceSet.of(2, 3)
    rng = random.Random(35)
    for _ in range(50):
        u = Fraction(2) ** rng.randint(-6, 6) * Fraction(3) ** rng.randint(-6, 6)
        if rng.random() < 0.5:
            u = -u
        assert h_sbar(u, S).is_zero
        # delta = 0 recovers exactly the S-unit tuples
        pt = TorusPoint([u, Fraction(3) ** rng.randint(-3, 3)])
        assert h_sbar(pt, S).is_zero
        assert is_almost_unit(pt, AlmostUnitConfig(S, Fraction(0)))
    # and a non-unit has positive tuple h_sbar
    assert h_sbar(TorusPoint([Fraction(5), Fraction(2)]), S).sign() > 0


def test_is_almost_unit_examples():
    assert is_almost_unit(Fraction(3072), AlmostUnitConfig(PlaceSet.of(2), Fraction(1, 5)))
    assert not is_almost_unit(Fraction(6), AlmostUnitConfig(PlaceSet.of(), Fraction(1, 10)))
    assert is_almost_unit(Fraction(-8), AlmostUnitConfig(PlaceSet.of(2), Fraction(0)))


def test_coordinatewise_almost_units_give_tuple_almost_unit():
    # scalar (S, delta)-units in every coordinate land in the n*delta tuple class
    S = PlaceSet.of(2)
    delta = Fraction(1, 5)
    rng = random.Random(36)
    for _ in range(40):
        coords = []
        for _ in range(3):
            u = Fraction(2) ** rng.randint(1, 8) * rng.choice([1, 3])
            coords.append(u)
        if not all(is_almost_unit(c, AlmostUnitConfig(S, delta)) for c in coords):
            continue
        pt = TorusPoint(coords)
        assert is_almost_unit(pt, AlmostUnitConfig(S, 3 * delta))


def test_standard_height_bridge_chain():
    # tuple (S, delta)-unit implies the standard-height chain:
    # sum_{v not in S} lambda_stand + lambda_stand(1/.) <= n * h_sbar(u)
    #   <= n delta h(u) <= n delta h_stand(u)
    S = PlaceSet.of(2, 3)
    delta = Fraction(1, 4)
    rng = random.Random(37)
    n = 3
    checked = 0
    while checked < 25:
        coords = [
            Fraction(2) ** rng.randint(-5, 5)
            * Fraction(3) ** rng.randint(-5, 5)
            * rng.choice([1, 1, 5])
            for _ in range(n)
        ]
        pt = TorusPoint(coords)
        if not is_almost_unit(pt, AlmostUnitConfig(S, delta)):
            continue
        checked += 1
        lhs = logreal_sum(h_sbar(c, S) for c in pt)
        mid1 = n * h_sbar(pt, S)
        mid2 = n * delta * torus_height(pt)
        rhs = n * delta * standard_height(pt)
        assert (mid1 - lhs).sign() >= 0
        assert (mid2 - mid1).sign() >= 0
        assert (rhs - mid2).sign() >= 0


def test_quasi_s_integer_inclusions():
    # x in the (S, 1-eps) almost-unit class  =>  quasi-S-integer at eps
    # x quasi-S-integer at eps              =>  (S, 2-eps) almost-unit... the
    # second inclusion needs 2-eps < 1 to be a real constraint; assert the
    # raw height inequality instead.
    S = PlaceSet.of(2)
    eps = Fraction(1, 3)
    rng = random.Random(38)
    for _ in range(100):
        num = rng.randint(1, 999)
        x = Fraction(num, rng.randint(1, 999))
        if x == 0:
            continue
        if is_almost_unit(x, AlmostUnitConfig(S, 1 - eps)):
            assert is_quasi_s_integer(x, S, eps)
        if is_quasi_s_integer(x, S, eps):
            assert (h_sbar(x, S) - (2 - eps) * height(x)).sign() <= 0


def _outside(S, places):
    return [v for v in places if v not in S]


def test_closed_forms_match_per_place_sums():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    rationals = st.builds(
        Fraction,
        st.integers(-10**8, 10**8).filter(bool),
        st.integers(1, 10**8),
    )
    place_sets = st.builds(
        lambda primes, arch: PlaceSet.of(*primes, archimedean=arch),
        st.sets(st.sampled_from((2, 3, 5, 7, 11))),
        st.booleans(),
    )

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        coords=st.lists(rationals, min_size=1, max_size=4),
        S=place_sets,
        eps=st.fractions(min_value=0, max_value=2, max_denominator=50),
    )
    def check(coords, S, eps):
        u = TorusPoint(coords)
        places = relevant_places(*coords)
        assert torus_height(u) == logreal_sum(torus_local_height(u, v) for v in places)
        inv = TorusPoint([1 / c for c in coords])
        assert h_sbar(u, S) == logreal_sum(
            torus_local_height(u, v) + torus_local_height(inv, v)
            for v in _outside(S, places)
        )
        assert logreal_sum(h_sbar(c, S) for c in coords) == logreal_sum(
            local_height(c, v) + local_height(1 / c, v)
            for v in _outside(S, places) for c in coords
        )
        x = coords[0]
        in_S = logreal_sum(local_height(x, v) for v in relevant_places(x) if v in S)
        assert is_quasi_s_integer(x, S, eps) == ((in_S - eps * height(x)).sign() >= 0)

    check()


def test_sharpness_at_m_start_120_finishes():
    # P = (2^m, 2^n (2^m + 1)) with S = {oo, 2}: h(P) = n log 2 + log(2^m + 1)
    # and h_sbar(P) = log(2^m + 1); the finite parts were once found by
    # factoring 2^m + 1
    from gcdlab.harness import run_sharpness

    report = run_sharpness(2, Fraction(1, 5), 1, m_start=120)
    [row] = report.rows
    tail = LogReal.log_of_int(2**row.m + 1)
    assert (row.m, row.bound_ok) == (120, True)
    assert row.h_P == LogReal({2: row.n}) + tail
    assert row.h_sbar_P == tail


def test_heights_with_200_bit_prime_factors():
    sympy = pytest.importorskip("sympy")
    p = sympy.nextprime(2**200)
    q = sympy.nextprime(2**199)
    r = sympy.nextprime(2**199 + 2**198)
    u = TorusPoint([Fraction(4 * p, 3 * q), Fraction(r, 8)])
    S = PlaceSet.of(2)
    # lcm(3q, 8) * lcm(4p, r) = 96pqr; r/8 is the largest coordinate
    assert torus_height(u) == LogReal({3: 1, q: 1, r: 1})
    assert h_sbar(u, S) == LogReal({3: 1, p: 1, q: 1, r: 1})
    assert logreal_sum(h_sbar(c, S) for c in u) == LogReal({3: 1, p: 1, q: 1, r: 1})
    # without oo in S the archimedean terms of u and 1/u join: log(r/8) + 0
    no_oo = PlaceSet.of(2, archimedean=False)
    assert h_sbar(u, no_oo) == LogReal({2: -3, 3: 1, p: 1, q: 1, r: 2})
    assert h_sbar(Fraction(9 * p, 2 * q), PlaceSet.of(3)) == LogReal({2: 1, p: 1, q: 1})
    # the S-part of the denominator of x = r / (8q) is 8, and h(x) = log 8q
    x = Fraction(r, 8 * q)
    assert is_quasi_s_integer(x, S, Fraction(1, 100))
    assert not is_quasi_s_integer(x, S, Fraction(1, 50))
