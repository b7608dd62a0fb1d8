"""Acceptance suite: one test per criterion, every comparison exact (the
only tolerances are the stated runtime budgets).  Each test prints a single
PASS line with its timing so the suite doubles as a report."""

import random
import time
from fractions import Fraction

from gcdlab.arith import factorize
from gcdlab.gengcd import log_gcd, log_gcd_outside, log_gcd_within
from gcdlab.harness import (
    ScanConfig,
    pk_sequences,
    random_coprime_forms,
    run_lrs_scan,
    run_sharpness,
    run_rec1_scan,
    solve_unit_equation,
)
from gcdlab.heights import TorusPoint, height, local_height, relevant_places
from gcdlab.hilbert import (
    dim_quotient_bruteforce,
    dim_quotient_formula,
    greedy_dominance_violations,
    greedy_monomial_basis,
    monomials_upto,
    multiindex_sum,
    multiindex_sum_closed_form,
    ord_sum_check,
    quotient_monomial_basis,
    truncated_ideal,
)
from gcdlab.logreal import LogReal, logreal_sum
from gcdlab.lrs import PowerSum, from_recurrence, lrs_coprime, zero_scan
from gcdlab.multipoly import MultiPoly, coprime
from gcdlab.places import Place, PlaceSet, log_abs, support


def report(number: int, detail: str, elapsed: float, budget: float | None = None):
    budget_note = f" [budget {budget:.0f}s]" if budget else ""
    print(f"ACCEPTANCE {number}: PASS - {detail} ({elapsed:.2f}s{budget_note})")


def test_criterion_01_product_formula_and_local_global():
    rng = random.Random(20240101)
    t0 = time.monotonic()
    for _ in range(1000):
        x = Fraction(rng.randint(-10**6, 10**6) or 1, rng.randint(1, 10**6))
        places = support(x) | {Place.archimedean()}
        assert logreal_sum(log_abs(x, v) for v in places).is_zero
        total = logreal_sum(local_height(x, v) for v in relevant_places(x))
        assert total == height(x)
    elapsed = time.monotonic() - t0
    assert elapsed < 2.0
    report(1, "product formula and local-global identity on 1000 rationals", elapsed, 2)


def _euclid(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return abs(a)


def test_criterion_02_generalized_gcd_vs_euclid():
    rng = random.Random(20240102)
    t0 = time.monotonic()
    primes = [2, 3, 5, 7, 11, 13, 17]
    for _ in range(1000):
        a, b = rng.randint(1, 10**9), rng.randint(1, 10**9)
        g = _euclid(a, b)
        assert log_gcd(Fraction(a), Fraction(b)) == LogReal.log_of_int(g)
        for _ in range(5):
            S = PlaceSet.of(
                *rng.sample(primes, k=rng.randint(0, 4)),
                archimedean=rng.random() < 0.8,
            )
            total = log_gcd(Fraction(a), Fraction(b))
            split = (
                log_gcd_outside(Fraction(a), Fraction(b), S)
                + log_gcd_within(Fraction(a), Fraction(b), S)
            )
            assert total == split
    elapsed = time.monotonic() - t0
    report(2, "log gcd = Euclid on 1000 integer pairs + partition over 5 S each", elapsed)


def test_criterion_03_multiindex_sum_identity():
    t0 = time.monotonic()
    checked = 0
    for n in range(1, 6):
        for m in range(1, 11):
            assert multiindex_sum(n, m) == multiindex_sum_closed_form(n, m)
            checked += 1
    elapsed = time.monotonic() - t0
    report(3, f"enumerated multi-index sum equals closed form ({checked} cells)", elapsed)


def test_criterion_04_dimension_formula_vs_bruteforce():
    rng = random.Random(20240104)
    t0 = time.monotonic()
    cells = 0
    for n in (1, 2, 3):
        for d1 in (1, 2, 3):
            for d2 in (1, 2, 3):
                for _ in range(5):
                    F1, F2 = random_coprime_forms(rng, n + 1, d1, d2)
                    for l in range(d1 + d2 + 4):
                        assert dim_quotient_formula(n, l, d1, d2) == dim_quotient_bruteforce(F1, F2, l)
                        cells += 1
                    # quotient monomial basis at degree m = d1 + d2 + 1 and
                    # the order-sum bound in every variable
                    m = d1 + d2 + 1
                    B = quotient_monomial_basis(F1, F2, m)
                    for i in range(n + 1):
                        assert ord_sum_check(B, i, d1, d2, m, n)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(4, f"quotient dimension formula vs exact rank ({cells} graded pieces), order-sum bounds", elapsed, 60)


def test_criterion_05_greedy_dominance():
    rng = random.Random(20240105)
    t0 = time.monotonic()
    made = 0
    while made < 50:
        monos = monomials_upto(2, rng.randint(1, 2))
        f = MultiPoly(2, {e: Fraction(rng.choice([-2, -1, 1, 2]))
                          for e in rng.sample(monos, min(len(monos), 4))})
        monos = monomials_upto(2, rng.randint(1, 2))
        g = MultiPoly(2, {e: Fraction(rng.choice([-2, -1, 1, 2]))
                          for e in rng.sample(monos, min(len(monos), 4))})
        if f.is_zero or g.is_zero or f.is_constant() or g.is_constant():
            continue
        if not coprime(f, g):
            continue
        m = rng.randint(max(f.degree(), g.degree()), 5)
        u = TorusPoint([
            Fraction(rng.choice([-1, 1]))
            * Fraction(2) ** rng.randint(-5, 5)
            * Fraction(3) ** rng.randint(-5, 5)
            for _ in range(2)
        ])
        v = rng.choice([Place.archimedean(), Place.finite(2), Place.finite(3)])
        T = truncated_ideal(f, g, m)
        if T.Nprime == 0:
            continue
        gb = greedy_monomial_basis(T, u, v)
        assert greedy_dominance_violations(gb) == []
        made += 1
    elapsed = time.monotonic() - t0
    report(5, "greedy dominance holds on 50 random place-adapted bases", elapsed)


def test_criterion_06_coincidence_family_and_log_tube():
    t0 = time.monotonic()
    F, G = pk_sequences(2)
    for k in range(1, 11):
        m, n = 2**k, 2**k + k
        assert F.eval(m) == G.eval(n)
    rep = run_lrs_scan(ScanConfig(F, G, Fraction(3, 5), 1100, keep_rows=False))
    family = {(2**k, 2**k + k) for k in range(1, 11)}
    flagged = set(rep.flagged_pairs())
    assert family <= flagged, family - flagged
    # every flagged pair lies in |m-n| <= 2 log2 max(m,n): 2^|m-n| <= max^2
    outside = [(m, n) for m, n in flagged if 2 ** abs(m - n) > max(m, n) ** 2]
    assert outside == [], outside
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    report(
        6,
        f"family reproduced exactly for k=1..10; all {len(flagged)} flagged pairs "
        f"of the 1100-grid lie in the log tube",
        elapsed,
        300,
    )


def test_criterion_07_sharpness_lower_bound():
    t0 = time.monotonic()
    for delta in (Fraction(1, 5), Fraction(1, 10)):
        rep = run_sharpness(2, delta, 10, m_start=6)
        assert len(rep.rows) == 10
        for r in rep.rows:
            assert r.bound_ok  # log gcd >= delta/2 * h(P), exact sign
    elapsed = time.monotonic() - t0
    report(7, "sharpness construction: 10 window-certified pairs at each delta", elapsed)


def test_criterion_08_common_factor_and_independent_control():
    t0 = time.monotonic()
    base = PowerSum.of(([1], 2), ([-1], 1))
    F = base * PowerSum.of(([1], 3), ([1], 1))
    G = base * PowerSum.of(([1], 5), ([1], 1))
    assert lrs_coprime(F, G) is False
    rep = run_lrs_scan(ScanConfig(F, G, Fraction(1, 2), 300, mode="diagonal", keep_rows=False))
    flagged_n = {r.m for r in rep.flagged}
    assert flagged_n >= set(range(2, 301))
    for r in rep.flagged:
        assert (r.lhs - LogReal.log_of_int(2**r.m - 1)).sign() >= 0

    Fc = PowerSum.of(([1], 2), ([1], 1))
    Gc = PowerSum.of(([1], 3), ([1], 1))
    ctrl = run_lrs_scan(ScanConfig(Fc, Gc, Fraction(1, 2), 200, keep_rows=False))
    offenders = [(r.m, r.n) for r in ctrl.flagged if max(r.m, r.n) > 50]
    assert offenders == [], f"control-scan counterexamples: {offenders}"
    elapsed = time.monotonic() - t0
    report(
        8,
        f"common-factor diagonal flags all n>=2; independent control flags "
        f"{len(ctrl.flagged)} pairs, max extent {ctrl.max_flagged_extent} <= 50",
        elapsed,
    )


def test_criterion_09_zero_structure():
    t0 = time.monotonic()
    zs = zero_scan(PowerSum.of(([1], 2), ([1], -2)), 200)
    assert zs.progressions == ((1, 2),)
    assert zs.sporadic == ()
    corpus = [
        PowerSum.of(([1], 2), ([-1], 1)),
        PowerSum.of(([1], 2), ([-4], 1)),
        PowerSum.of(([1], 3), ([-1], 2), ([1], 1)),
        from_recurrence([3, -2], [0, 1]),
        PowerSum.of(([-6], 1), ([1, 1], 2)),
    ]
    for Fs in corpus:
        assert not Fs.is_degenerate()
        z = zero_scan(Fs, 200)
        assert z.progressions == ()
    elapsed = time.monotonic() - t0
    report(9, "zero structure: 1 mod 2 progression recovered; nondegenerate corpus finite", elapsed)


def test_criterion_10_place_decay_scan():
    t0 = time.monotonic()
    F = PowerSum.of(([1], 2), ([-1], 3))
    rep1 = run_rec1_scan(F, Place.finite(5), Fraction(1, 10), 500)
    rep2 = run_rec1_scan(F, Place.finite(5), Fraction(1, 10), 500)
    assert rep1.violators == rep2.violators
    assert rep1.max_violator is not None
    assert rep1.max_violator == rep2.max_violator == max(rep1.violators)
    elapsed = time.monotonic() - t0
    report(
        10,
        f"decay violators at the 5-adic place: {len(rep1.violators)} indices, "
        f"max {rep1.max_violator}, stable across runs",
        elapsed,
    )


def _oracle_unit_solutions(bound: int):
    """Independent enumeration for S = {oo, 2, 3}, n = 1: iterate x0 over the
    exponent box directly and certify x1 = 1 - x0 by factorization."""

    def in_box(q: Fraction) -> bool:
        if q == 0:
            return False
        f = {}
        if abs(q.numerator) != 1:
            f.update(factorize(abs(q.numerator)))
        for p, e in (factorize(q.denominator) if q.denominator != 1 else {}).items():
            f[p] = f.get(p, 0) - e
        return set(f) <= {2, 3} and all(abs(e) <= bound for e in f.values())

    out = set()
    for e2 in range(-bound, bound + 1):
        for e3 in range(-bound, bound + 1):
            for sign in (1, -1):
                x0 = sign * Fraction(2) ** e2 * Fraction(3) ** e3
                x1 = 1 - x0
                if x1 != 0 and in_box(x1):
                    out.add((x0, x1))
    return out


def test_criterion_11_unit_equation_vs_oracle():
    t0 = time.monotonic()
    rep = solve_unit_equation(PlaceSet.of(2, 3), 1, 1)
    oracle = _oracle_unit_solutions(1)
    assert set(rep.solutions) | set(rep.degenerate) == oracle
    assert rep.degenerate == []  # n = 1 has no proper subsums beyond nonzero coords
    for x in rep.solutions:
        for c in x:
            assert rep.coordinate_frequency[c] >= 1
    elapsed = time.monotonic() - t0
    report(
        11,
        f"unit equation matches the independent oracle exactly "
        f"({len(rep.solutions)} solutions); coordinates present in frequency report",
        elapsed,
    )
