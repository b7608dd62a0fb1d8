import random
from fractions import Fraction

import pytest

from gcdlab.logreal import LogReal
from gcdlab.lrs import (
    PowerSum,
    compute_S0,
    empirical_height_ratio,
    from_recurrence,
    laurent_identity_holds,
    lrs_coprime,
    monomial_height,
    multiplicative_independence,
    power_sum_from_json,
    power_sum_to_json,
    root_group,
    to_laurent,
    zero_scan,
)
from gcdlab.multipoly import LaurentPoly
from gcdlab.places import DomainError, PlaceSet


def rand_power_sum(rng, max_terms=3, max_deg=2):
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        root = Fraction(rng.randint(-5, 5) or 2, rng.randint(1, 3))
        coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, max_deg + 1))]
        terms.append((coeffs, root))
    return PowerSum(terms)


def test_eval_examples():
    F = PowerSum.of(([0, 1], 2), ([1], 1))  # n 2^n + 1
    G = PowerSum.of(([1], 2), ([1], 1))     # 2^n + 1
    assert F.eval(4) == 65
    assert G.eval(6) == 65
    assert PowerSum.zero().eval(12) == 0


def test_ring_operations_examples():
    assert PowerSum.geometric(2) * PowerSum.geometric(3) == PowerSum.geometric(6)
    assert (PowerSum.geometric(2) + PowerSum.geometric(2, -1)).is_zero
    assert PowerSum.of(([0, 1], 2)) * PowerSum.geometric(2) == PowerSum.of(([0, 1], 4))


def test_ring_homomorphism_random():
    rng = random.Random(61)
    for _ in range(30):
        F, G = rand_power_sum(rng), rand_power_sum(rng)
        for n in range(0, 25):
            assert (F + G).eval(n) == F.eval(n) + G.eval(n)
            assert (F * G).eval(n) == F.eval(n) * G.eval(n)


def test_compose_ap_examples():
    assert PowerSum.geometric(2).compose_ap(2, 1) == PowerSum.of(([2], 4))
    F = PowerSum.of(([0, 1], 2))
    for t in range(10):
        assert F.compose_ap(2, 1).eval(t) == F.eval(2 * t + 1)
    assert F.compose_ap(1, 0) == F


def test_compose_ap_random():
    rng = random.Random(62)
    for _ in range(20):
        F = rand_power_sum(rng)
        a, b = rng.randint(1, 4), rng.randint(0, 5)
        H = F.compose_ap(a, b)
        for t in range(0, 31, 3):
            assert H.eval(t) == F.eval(a * t + b)


def test_degeneracy():
    assert PowerSum.of(([1], 2), ([1], -2)).is_degenerate()
    assert not PowerSum.of(([1], 2), ([1], 3)).is_degenerate()
    assert not PowerSum.of(([0, 0, 1], 5)).is_degenerate()


def test_zero_scan_examples():
    zs = zero_scan(PowerSum.of(([1], 2), ([1], -2)), 200)
    assert zs.progressions == ((1, 2),)
    assert zs.sporadic == ()
    assert zs.zeros == tuple(range(1, 201, 2))

    zs2 = zero_scan(PowerSum.of(([1], 2), ([-4], 1)), 20)
    assert zs2.zeros == (2,) and zs2.progressions == () and zs2.sporadic == (2,)

    zs3 = zero_scan(PowerSum.of(([1], 2), ([1], 3)), 50)
    assert zs3.zeros == () and zs3.progressions == ()


def test_zero_scan_nondegenerate_corpus_is_finite():
    corpus = [
        PowerSum.of(([1], 2), ([-1], 1)),
        PowerSum.of(([-6], 1), ([1, 1], 2)),
        PowerSum.of(([1], 3), ([-1], 2), ([1], 1)),
        from_recurrence([3, -2], [0, 1]),
    ]
    for F in corpus:
        assert not F.is_degenerate()
        zs = zero_scan(F, 100)
        assert zs.progressions == ()
        assert zs.sporadic == zs.zeros


def test_root_group_examples():
    rg = root_group([Fraction(4), Fraction(8)])
    assert rg.generators == (Fraction(2),)
    assert rg.rank == 1 and not rg.has_torsion
    assert root_group([Fraction(2), Fraction(3)]).rank == 2
    # true torsion examples over Q
    assert root_group([Fraction(-2), Fraction(2)]).has_torsion
    assert root_group([Fraction(-1), Fraction(3)]).has_torsion
    # <-2, 4> = <-2> is torsion-free of rank 1 (the square of -2 is +4)
    rg3 = root_group([Fraction(-2), Fraction(4)])
    assert rg3.rank == 1 and not rg3.has_torsion


def test_root_group_reconstruction():
    rng = random.Random(63)
    for _ in range(40):
        roots = [
            Fraction(rng.randint(-12, 12) or 5, rng.randint(1, 12))
            for _ in range(rng.randint(1, 4))
        ]
        rg = root_group(roots)
        if rg.has_torsion:
            continue
        for r in roots:
            exps = rg.express(r)
            val = Fraction(1)
            for g, e in zip(rg.generators, exps):
                val *= g**e
            assert val == r


def test_multiplicative_independence_examples():
    assert multiplicative_independence([Fraction(2)], [Fraction(3)])
    assert not multiplicative_independence([Fraction(2), Fraction(3)], [Fraction(6)])
    assert not multiplicative_independence([Fraction(2)], [Fraction(1, 2)])


def test_compute_S0_examples():
    assert compute_S0([Fraction(2)], [Fraction(3)]) == PlaceSet(False, ())
    assert compute_S0([Fraction(1, 2)], [Fraction(1, 3)]) == PlaceSet(True, ())
    assert compute_S0([Fraction(2, 5), Fraction(4, 5)], [Fraction(3, 5)]) == PlaceSet(True, ())
    assert compute_S0([Fraction(2, 3), Fraction(4, 5)], [Fraction(2, 7)]) == PlaceSet(True, (2,))


def test_compute_S0_matches_definition():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(480)
    for _ in range(200):
        roots_f, roots_g = (
            [Fraction(rng.choice((-1, 1)) * rng.randint(1, 400), rng.randint(1, 60))
             for _ in range(rng.randint(1, 3))]
            for _ in range(2)
        )
        roots = roots_f + roots_g
        candidates = set()
        for r in roots:
            candidates.update(sympy.primefactors(r.numerator))
            candidates.update(sympy.primefactors(r.denominator))
        # every root has |r|_p < 1, that is v_p(r) > 0
        want = sorted(
            p for p in candidates
            if all(sympy.multiplicity(p, r.numerator) > sympy.multiplicity(p, r.denominator)
                   for r in roots)
        )
        arch = all(abs(r) < 1 for r in roots)
        assert compute_S0(roots_f, roots_g) == PlaceSet(arch, tuple(want))


def test_exponent_vector_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(384)
    for _ in range(100):
        roots = [
            Fraction(rng.randint(-30, 30) or 7, rng.randint(1, 30))
            for _ in range(rng.randint(1, 3))
        ]
        rg = root_group(roots)
        for _ in range(5):
            x = Fraction(rng.choice((-1, 1)))
            for p in rg.primes:
                x *= Fraction(p) ** rng.randint(-6, 6)
            want = [
                sympy.multiplicity(p, x.numerator) - sympy.multiplicity(p, x.denominator)
                for p in rg.primes
            ]
            assert rg.exponent_vector(x) == want
            # a prime outside the support, in the numerator or denominator
            outside = next(q for q in (31, 37, 41) if q not in rg.primes)
            for y in (x * outside, x / outside):
                with pytest.raises(DomainError, match="not supported"):
                    rg.exponent_vector(y)


def test_to_laurent_examples():
    rg = root_group([Fraction(2)])
    f = to_laurent(PowerSum.of(([0, 1], 2), ([1], 1)), rg)
    assert f == LaurentPoly(2, {(1, 1): 1, (0, 0): 1})
    f2 = to_laurent(PowerSum.of(([1], 2), ([1], Fraction(1, 2))), rg)
    assert f2 == LaurentPoly(2, {(0, 1): 1, (0, -1): 1})
    assert to_laurent(PowerSum.geometric(6), root_group([Fraction(6)])) == LaurentPoly(
        2, {(0, 1): 1}
    )
    with pytest.raises(DomainError):
        to_laurent(PowerSum.geometric(5), rg)
    with pytest.raises(DomainError):
        to_laurent(PowerSum.geometric(2), root_group([Fraction(-2), Fraction(2)]))


def test_to_laurent_identity():
    rng = random.Random(64)
    done = 0
    while done < 15:
        F = rand_power_sum(rng)
        if F.is_zero:
            continue
        rg = root_group(F.roots)
        if rg.has_torsion:
            continue
        assert laurent_identity_holds(F, rg, upto=20)
        done += 1


def test_lrs_coprime_examples():
    A = PowerSum.of(([1], 2), ([-1], 1))
    B = PowerSum.of(([1], 3), ([-1], 1))
    assert lrs_coprime(A, B)
    C = A * PowerSum.of(([1], 3), ([1], 1))
    D = A * PowerSum.of(([1], 5), ([1], 1))
    assert not lrs_coprime(C, D)
    assert lrs_coprime(PowerSum.of(([0, 1], 2), ([1], 1)), PowerSum.of(([1], 2), ([1], 1)))
    with pytest.raises(DomainError):
        lrs_coprime(PowerSum.of(([1], 2), ([1], -2)), B)


def test_monomial_height_examples():
    rg = root_group([Fraction(2), Fraction(3)])
    assert monomial_height(root_group([Fraction(2)]), [5]) == LogReal({2: 5})
    assert monomial_height(rg, [1, -1]) == LogReal({3: 1})
    best = empirical_height_ratio(rg, 3)
    assert best[0].sign() > 0


def test_empirical_ratio_nonincreasing_in_box():
    rg = root_group([Fraction(2), Fraction(3)])
    prev = None
    for bound in (1, 2, 3, 4):
        h, scale, _ = empirical_height_ratio(rg, bound)
        if prev is not None:
            ph, ps = prev
            # h/scale <= ph/ps as exact sign
            assert (h * ps - ph * scale).sign() <= 0
        prev = (h, scale)


def test_from_recurrence():
    ps = from_recurrence([3, -2], [0, 1])
    assert ps == PowerSum.of(([1], 2), ([-1], 1))
    assert [ps.eval(n) for n in range(6)] == [0, 1, 3, 7, 15, 31]
    # repeated root: a(n) = (n+1) 2^n satisfies a(n+2) = 4a(n+1) - 4a(n)
    ps2 = from_recurrence([4, -4], [1, 4])
    assert ps2 == PowerSum.of(([1, 1], 2))
    with pytest.raises(DomainError):
        from_recurrence([1, 1], [0, 1])  # golden-ratio roots


def test_from_recurrence_matches_direct_iteration():
    rng = random.Random(31)
    for _ in range(40):
        # characteristic polynomial prod (X - r)^mult over rational roots,
        # repeated roots included: X^d - rel[0] X^(d-1) - ... - rel[d-1]
        char = [Fraction(1)]  # descending coefficients
        for _ in range(rng.randint(1, 3)):
            root = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
            for _ in range(rng.randint(1, 2)):
                char = [a - root * b for a, b in zip(char + [0], [0] + char)]
        rel = [-c for c in char[1:]]
        d = len(rel)
        seq = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(d)]
        while len(seq) < 30:
            seq.append(sum(c * a for c, a in zip(rel, reversed(seq[-d:]))))
        ps = from_recurrence(rel, seq[:d])
        assert [ps.eval(n) for n in range(30)] == seq


def test_json_roundtrip():
    F = PowerSum.of(([0, 1], 2), ([1], 1))
    blob = power_sum_to_json(F)
    assert blob == {
        "terms": [
            {"coeff": ["1"], "root": "1"},
            {"coeff": ["0", "1"], "root": "2"},
        ]
    }
    assert power_sum_from_json(blob) == F
    assert power_sum_from_json({"terms": []}).is_zero
    G = PowerSum.of(([Fraction(1, 2)], Fraction(3, 2)))
    assert power_sum_from_json(power_sum_to_json(G)) == G


@pytest.mark.parametrize(
    "data",
    [
        [1, 2],
        7,
        {"terms": "x"},
        {"terms": [{"coeff": ["1"], "root": "2"}], "term": []},
        {"terms": [["1", "2"]]},
        {"terms": [{"coeff": ["1"]}]},
        {"terms": [{"root": "2"}]},
        {"terms": [{"coeff": "1", "root": "2"}]},
        {"terms": [{"coeff": [1.5], "root": "2"}]},
        {"terms": [{"coeff": ["1"], "root": 2.0}]},
        {"terms": [{"coeff": ["1"], "root": None}]},
        {"terms": [{"coeff": ["1"], "root": True}]},
        {"terms": [{"coeff": ["1"], "root": "2", "roots": "3"}]},
    ],
)
def test_json_of_the_wrong_shape_raises_domain_error(data):
    with pytest.raises(DomainError):
        power_sum_from_json(data)


def test_json_rationals_may_be_ints():
    data = {"terms": [{"coeff": [0, 1], "root": 2}, {"coeff": ["1"], "root": "1"}]}
    assert power_sum_from_json(data) == PowerSum.of(([0, 1], 2), ([1], 1))


def test_root_group_rows_match_sympy_multiplicity():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    sympy = pytest.importorskip("sympy")
    from gcdlab.arith import hnf_with_transform
    from gcdlab.lrs import _exponent_vector

    nonzero = st.integers(-5000, 5000).filter(bool)

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.lists(st.tuples(nonzero, st.integers(1, 3000)), min_size=1, max_size=5))
    def check(pairs):
        roots = [Fraction(a, b) for a, b in pairs]
        rg = root_group(roots)
        want_primes = set()
        for r in roots:
            want_primes.update(sympy.primefactors(r.numerator))
            want_primes.update(sympy.primefactors(r.denominator))
        assert set(rg.primes) == want_primes
        rows = [
            [sympy.multiplicity(p, r.numerator) - sympy.multiplicity(p, r.denominator)
             for p in rg.primes]
            for r in roots
        ]
        assert [_exponent_vector(r, rg.primes) for r in roots] == rows
        H, _ = hnf_with_transform(rows)
        assert rg.basis == tuple(tuple(h) for h in H if any(h))

    check()
