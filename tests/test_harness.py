import csv
import io
import itertools
import math
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import mpmath
import pytest

from gcdlab.gengcd import log_gcd, log_gcd_outside, log_gcd_within
from gcdlab import harness
from gcdlab.harness import (
    LN2_UPPER,
    SampleConfig,
    ScanConfig,
    pk_sequences,
    run_example_pk,
    run_lrs_scan,
    run_poly_gcd_experiment,
    run_rec1_scan,
    run_sharpness,
    sharpness_window_holds,
    solve_unit_equation,
    _unflagged_bits,
    tube_inequality_holds,
)
from gcdlab.heights import height
from gcdlab.logreal import LogReal
from gcdlab.lrs import PowerSum, zero_scan
from gcdlab.multipoly import parse_poly
from gcdlab.places import DomainError, Place, PlaceSet, log_abs

from conftest import time_limit


def test_scan_pk_small_grid():
    F, G = pk_sequences(2)
    rep = run_lrs_scan(ScanConfig(F, G, Fraction(3, 5), 70))
    flagged = rep.flagged_pairs()
    assert (4, 6) in flagged
    assert (2, 3) in flagged
    assert rep.S0 == PlaceSet(False, ())
    # the coincidence family is collected by the diagonal tube
    assert len(rep.clusters) == 1
    c = rep.clusters[0]
    assert (c.a, c.b) == (1, 1)
    assert rep.sporadic == []


@pytest.mark.parametrize("run", [
    lambda F, G: run_sharpness(trials=10**400),
    lambda F, G: run_sharpness(m_start=10**400),
    lambda F, G: run_sharpness(m_start=-10**400, trials=1),
    lambda F, G: run_rec1_scan(G, N=10**400),
    lambda F, G: run_lrs_scan(ScanConfig(F, G, N=10**400)),
    lambda F, G: run_example_pk(p=1000003, kmax=64),
    lambda F, G: run_example_pk(p=2, kmax=10**400),
    lambda F, G: run_lrs_scan(ScanConfig(F, G, N=5, tube_max_ab=10**400)),
    lambda F, G: parse_poly("x1 + 1", nvars=10**400),
    lambda F, G: _sample_config(count=10**400),
    lambda F, G: _sample_config(perturbation_bound=10**400),
    lambda F, G: _sample_config(S=PlaceSet.of(2), generator_exponent_bound=10**400),
])
def test_work_estimates_past_a_float_raise_domain_error(run):
    """The work estimates are ints: sizes no float holds are refused by
    their bound, not crashed on with an OverflowError."""
    F, G = pk_sequences(2)
    with time_limit(2), pytest.raises(DomainError, match="work estimated at 2"):
        run(F, G)


def _sample_config(**keys):
    return SampleConfig(parse_poly("x1 + 1", nvars=2), parse_poly("x2", nvars=2), **keys)


def test_value_bits_rounds_the_float_estimate_up():
    for F in (*pk_sequences(3), PowerSum.of(([1, 2], Fraction(1, 3)), ([5], -1))):
        for n in (0, 1, 7, 100, 12345):
            lg = [math.log2(max(abs(r.numerator), r.denominator)) for _, r in F.terms]
            assert isinstance(F.value_bits(n), int)
            assert 0 <= F.value_bits(n) - max(
                n * lg[i] + max(math.log2(max(abs(c.numerator), c.denominator)) for c in cs)
                + (len(cs) - 1) * n.bit_length() for i, (cs, _) in enumerate(F.terms)) < 1
    assert PowerSum.geometric(2).value_bits(10**400) == 10**400


def test_scan_row_partition_and_height_bound():
    F, G = pk_sequences(2)
    rep = run_lrs_scan(ScanConfig(F, G, Fraction(3, 5), 12))
    S = rep.S_used
    for row in rep.rows:
        if row.note:
            continue
        a, b = F.eval(row.m), G.eval(row.n)
        total = log_gcd(a, b)
        assert total == log_gcd_outside(a, b, S) + log_gcd_within(a, b, S)
        assert row.lhs == log_gcd_outside(a, b, S)
        # scan value never exceeds either height
        assert (height(a) - row.lhs).sign() >= 0
        assert (height(b) - row.lhs).sign() >= 0


def test_scan_flag_monotone_in_epsilon():
    F, G = pk_sequences(2)
    small = run_lrs_scan(ScanConfig(F, G, Fraction(2, 5), 40))
    large = run_lrs_scan(ScanConfig(F, G, Fraction(3, 5), 40))
    assert set(large.flagged_pairs()) <= set(small.flagged_pairs())


def test_scan_diagonal_identity_family():
    A = PowerSum.of(([1], 2), ([-1], 1))
    rep = run_lrs_scan(ScanConfig(A, A, Fraction(1, 2), 30, mode="diagonal"))
    assert [r.m for r in rep.flagged] == list(range(2, 31))
    assert rep.clusters[0].kappa_hat == 0.0
    assert rep.clusters[0].a == rep.clusters[0].b == 1


def test_scan_zero_rows_routed_to_zero_section():
    # F(n) = 2^n - 4 vanishes at n = 2
    F = PowerSum.of(([1], 2), ([-4], 1))
    G = PowerSum.of(([1], 3), ([1], 1))
    rep = run_lrs_scan(ScanConfig(F, G, Fraction(1, 2), 6))
    assert all(m == 2 for m, n, note in rep.zero_rows)
    assert len(rep.zero_rows) == 6
    assert (2,) == rep.zero_structure_F.sporadic


def test_scan_clustering_soundness():
    F, G = pk_sequences(2)
    rep = run_lrs_scan(ScanConfig(F, G, Fraction(3, 5), 70))
    for cluster in rep.clusters:
        for m, n in cluster.members:
            assert tube_inequality_holds(cluster.a, cluster.b, cluster.kappa, m, n)


def test_scan_keep_rows_false():
    F, G = pk_sequences(2)
    rep = run_lrs_scan(ScanConfig(F, G, Fraction(3, 5), 40, keep_rows=False))
    assert rep.rows is None
    assert rep.flagged_pairs()
    with pytest.raises(DomainError):
        from gcdlab.harness import scan_csv_rows

        list(scan_csv_rows(rep))


def test_scan_determinism():
    from gcdlab.harness import SCAN_CSV_HEADER, scan_csv_rows

    F, G = pk_sequences(2)
    a = list(scan_csv_rows(run_lrs_scan(ScanConfig(F, G, Fraction(3, 5), 25))))
    b = list(scan_csv_rows(run_lrs_scan(ScanConfig(F, G, Fraction(3, 5), 25))))
    assert a == b
    assert len(SCAN_CSV_HEADER) == len(next(csv.reader(a[:1])))


def _oracle_scans():
    """Small scans whose every row the oracle below recomputes: rational
    roots, extra primes and the archimedean place in S, zero rows (also
    with a prime in S, whose operands are split value by value), a family
    whose every row has an archimedean term, one where that term alone can
    flag a row, and one where only F(m) lies inside the unit interval."""
    F, G = pk_sequences(2)
    R1 = PowerSum.of(([1], Fraction(3, 2)), ([1], Fraction(-1, 5)))
    R2 = PowerSum.of(([2], Fraction(2, 7)), ([1], 4))
    Z1 = PowerSum.of(([1], 2), ([-4], 1))     # zero at n = 2
    Z2 = PowerSum.of(([1], 2), ([1], -2))     # zero at every odd n
    Z3 = PowerSum.of(([3], 2), ([3], -2))     # 3 Z2, so 3 divides some cores
    H2 = PowerSum.of(([1], 1), ([-1], Fraction(1, 2)))   # 1 - 2^-n
    H3 = PowerSum.of(([1], 1), ([-1], Fraction(1, 3)))   # 1 - 3^-n
    T1 = PowerSum.of(([1], Fraction(1, 2)), ([1], Fraction(1, 3)))
    U1 = PowerSum.of(([-5, 1], 1), ([1], Fraction(1, 2)))   # n - 5 + 2^-n
    U2 = PowerSum.of(([-7, 1], 1), ([1], Fraction(1, 3)))   # n - 7 + 3^-n
    yield ScanConfig(F, G, Fraction(3, 5), 30)
    yield ScanConfig(F, G, Fraction(1, 4), 40, mode="diagonal", extra_S=PlaceSet.of(3))
    yield ScanConfig(R1, R2, Fraction(1, 4), 25)
    yield ScanConfig(R1, R2, Fraction(1, 4), 25, extra_S=PlaceSet(False, (11, 13)))
    yield ScanConfig(R1, R2, Fraction(1, 8), 60, mode="diagonal")
    yield ScanConfig(Z1, Z2, Fraction(1, 3), 20)
    yield ScanConfig(Z1, Z3, Fraction(1, 3), 20, extra_S=PlaceSet.of(3))
    yield ScanConfig(Z2, Z2, Fraction(1, 2), 30, mode="diagonal")
    yield ScanConfig(H2, H3, Fraction(1, 100), 40)
    yield ScanConfig(H2, H3, Fraction(1, 100), 20, extra_S=PlaceSet(True, (7,)))
    yield ScanConfig(H2, H3, Fraction(1, 100), 40, mode="diagonal")
    yield ScanConfig(U1, U2, Fraction(1, 4), 12)   # (5, 7): core 1, arch 32
    yield ScanConfig(T1, R1, Fraction(1, 4), 20)


def test_scan_rows_match_log_gcd_outside_oracle():
    saw_arch = False
    for cfg in _oracle_scans():
        rep = run_lrs_scan(cfg)
        N = cfg.N
        if cfg.mode == "diagonal":
            grid = [(i, i) for i in range(1, N + 1)]
        else:
            grid = [(m, n) for m in range(1, N + 1) for n in range(1, N + 1)]
        assert [(r.m, r.n) for r in rep.rows] == grid
        flagged = []
        for row in rep.rows:
            a, b = cfg.F.eval(row.m), cfg.G.eval(row.n)
            if a == 0 or b == 0:
                assert row.note and not row.flagged
                continue
            lhs = log_gcd_outside(a, b, rep.S_used)
            assert row.lhs == lhs
            assert row.flagged == (lhs.cmp(cfg.epsilon * max(row.m, row.n)) > 0)
            saw_arch = saw_arch or row.arch is not None
            if row.flagged:
                flagged.append((row.m, row.n))
        assert rep.flagged_pairs() == flagged
        assert rep.nrows == len(grid) - len(rep.zero_rows)
        assert rep.zero_structure_F == zero_scan(cfg.F, N)
        assert rep.zero_structure_G == zero_scan(cfg.G, N)
    assert saw_arch


def _csv_line(fields) -> str:
    """One row as the CLI's csv.writer writes it."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(fields)
    return out.getvalue()


def test_csv_encoder_quotes_each_field_as_the_csv_module_does():
    from gcdlab.harness import _csv_encoder

    encode = _csv_encoder()
    fields = ("a,b", 'say "hi"', "two\nlines", "", " pad ", 7, "plain")
    assert encode(fields) + "\n" == _csv_line(fields)
    # parts joined by commas give the row, as scan_csv_rows joins them
    for cut in range(1, len(fields)):
        head, tail = fields[:cut], fields[cut:]
        if ("",) not in (head, tail):
            assert f"{encode(head)},{encode(tail)}\n" == _csv_line(fields), cut
    # a lone empty field is quoted, so it is never a part of its own
    assert encode(("",)) == '""'
    assert list(csv.reader(io.StringIO(encode(fields), newline=""))) == \
        [[str(f) for f in fields]]


def test_scan_csv_rows_match_per_row_rendering():
    from gcdlab.harness import CSV_DIGITS, scan_csv_rows

    F, G = pk_sequences(2)
    # a tube too narrow for most flagged pairs, so some rows are sporadic
    narrow = ScanConfig(F, G, Fraction(3, 5), 30, tube_max_ab=1, tube_kappa=1)
    saw_arch = saw_zero = saw_sporadic = False
    for cfg in (*_oracle_scans(), narrow):
        rep = run_lrs_scan(cfg)
        rendered = list(scan_csv_rows(rep))
        assert len(rendered) == len(rep.rows)
        for out, r in zip(rendered, rep.rows):
            lhs = r.lhs
            t = cfg.epsilon * max(r.m, r.n)
            assert out == _csv_line((
                r.m, r.n, str(lhs), lhs.decimal(CSV_DIGITS),
                mpmath.nstr(mpmath.mpf(t.numerator) / t.denominator, CSV_DIGITS),
                int(r.flagged), "" if r.cluster is None else r.cluster, r.note,
            ))
        saw_arch = saw_arch or any(r.arch is not None for r in rep.rows)
        saw_zero = saw_zero or bool(rep.zero_rows)
        saw_sporadic = saw_sporadic or bool(rep.sporadic)
    assert saw_arch and saw_zero and saw_sporadic


def test_kept_rows_carry_the_flagged_rows_cluster_ids():
    F, G = pk_sequences(2)
    narrow = ScanConfig(F, G, Fraction(3, 5), 30, tube_max_ab=1, tube_kappa=1)
    for cfg in (*_oracle_scans(), narrow):
        rep = run_lrs_scan(cfg)
        by_key = {(r.m, r.n): r for r in rep.flagged}
        assert rep.rows == [by_key.get((r.m, r.n), r) for r in rep.rows]
        assert [r for r in rep.rows if r.flagged] == rep.flagged
        cluster_of = {mn: c.cluster_id for c in rep.clusters for mn in c.members}
        for r in rep.flagged:
            assert r.cluster == cluster_of.get((r.m, r.n))
            assert r.note == ("sporadic" if r.cluster is None else "")
        assert rep.sporadic == [r for r in rep.flagged if r.cluster is None]
        zero_notes = {(m, n): note for m, n, note in rep.zero_rows}
        for r in rep.rows:
            if not r.flagged:
                assert r.cluster is None and r.note == zero_notes.get((r.m, r.n), "")


def test_ln2_upper_bound_exceeds_ln2():
    with mpmath.workdps(60):
        gap = mpmath.mpf(LN2_UPPER.numerator) / LN2_UPPER.denominator - mpmath.log(2)
        assert gap > 0


def test_bit_length_prefilter_never_hides_a_flagged_row():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        eps=st.fractions(min_value=Fraction(1, 1000), max_value=5, max_denominator=1000),
        mx=st.integers(1, 1200),
        shift=st.integers(-2, 1),
        delta=st.sampled_from((-1, 0, 1)),
    )
    def check(eps, mx, shift, delta):
        bits = _unflagged_bits(eps, mx)
        # 2^k - 1, 2^k and 2^k + 1 around the largest accepted bit length
        core = max(2 ** max(bits + shift, 0) + delta, 1)
        if core.bit_length() <= bits:
            assert LogReal.log_of_int(core).cmp(eps * mx) <= 0

    check()


def test_unflagged_bits_is_the_floor_of_the_rational_bound():
    for a in range(1, 30):
        for b in range(1, 30):
            q = Fraction(a, b) / LN2_UPPER
            assert [_unflagged_bits(Fraction(a, b), mx) for mx in range(400)] == \
                [math.floor(q * mx) for mx in range(400)], (a, b)


def _report_summary(rep):
    """Everything a scan reports besides its configuration and kept rows."""
    return (rep.flagged, rep.clusters, rep.sporadic, rep.zero_rows, rep.nrows,
            rep.max_flagged_extent)


def test_candidate_scan_matches_full_grid_scan():
    for cfg in _oracle_scans():
        full = run_lrs_scan(replace(cfg, keep_rows=True))
        assert _report_summary(run_lrs_scan(replace(cfg, keep_rows=False))) == \
            _report_summary(full)


def test_candidate_scan_keeps_pairs_one_bit_over_the_bound():
    # gcd(2^k - 1, 2^j - 1) = 2^gcd(k, j) - 1, which has k bits when j = k and
    # is flagged at eps = 69/100 from k = 6 on: log(2^k - 1) > 69/100 * k,
    # though k is only one more than the unflagged bit length k - 1
    A = PowerSum.of(([1], 2), ([-1], 1))   # 2^n - 1
    B = PowerSum.of(([2], 2), ([-1], 1))   # 2^(n+1) - 1
    eps, N = Fraction(69, 100), 60
    assert all(_unflagged_bits(eps, k) == k - 1 for k in range(1, N + 1))
    for F, G, pair in ((A, B, lambda k: (k, k - 1)), (B, A, lambda k: (k - 1, k))):
        cfg = ScanConfig(F, G, eps, N, keep_rows=False)
        rep = run_lrs_scan(cfg)
        assert {pair(k) for k in range(6, N + 1)} <= set(rep.flagged_pairs())
        assert _report_summary(rep) == _report_summary(run_lrs_scan(replace(cfg, keep_rows=True)))


def _brute_force_scan(cfg, S):
    """Flagged pairs, zero rows and the core of each nonzero pair of the scan
    grid, from math.gcd, trial division and log_gcd_outside."""
    N = cfg.N
    if cfg.mode == "diagonal":
        grid = [(i, i) for i in range(1, N + 1)]
    else:
        grid = [(m, n) for m in range(1, N + 1) for n in range(1, N + 1)]
    flagged, zero_rows, cores = [], [], {}
    for m, n in grid:
        a, b = cfg.F.eval(m), cfg.G.eval(n)
        if a == 0 or b == 0:
            zero_rows.append((m, n))
            continue
        core = math.gcd(a.numerator, b.numerator)
        for p in S.finite_primes:
            while core % p == 0:
                core //= p
        cores[(m, n)] = core
        if log_gcd_outside(a, b, S).cmp(cfg.epsilon * max(m, n)) > 0:
            flagged.append((m, n))
    return flagged, zero_rows, cores


def test_candidate_scan_matches_brute_force_oracle():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    roots = st.sampled_from((
        1, -1, 2, -2, 3, 4, 6, 10, Fraction(1, 2), Fraction(-1, 3), Fraction(2, 3),
        Fraction(3, 2), Fraction(5, 4), Fraction(-7, 6),
    ))
    terms = st.lists(
        st.tuples(st.lists(st.integers(-3, 3), min_size=1, max_size=2), roots),
        min_size=1, max_size=3,
    )

    def power_sum(draw_terms, zero_at, scale):
        # a large scale puts the early values inside the unit interval
        F = PowerSum.of(*(([Fraction(c, scale) for c in cs], r) for cs, r in draw_terms))
        if zero_at is not None:
            F = F - PowerSum.constant(F.eval(zero_at))   # F(zero_at) = 0
        return F

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        F_terms=terms, G_terms=terms,
        F_zero=st.one_of(st.none(), st.integers(1, 10)),
        G_zero=st.one_of(st.none(), st.integers(1, 10)),
        F_scale=st.sampled_from((1, 1000)),
        G_scale=st.sampled_from((1, 1000)),
        eps=st.fractions(min_value=Fraction(1, 50), max_value=2, max_denominator=50),
        N=st.integers(1, 10),
        arch=st.booleans(),
        primes=st.lists(st.sampled_from((2, 3, 5, 7, 11)), unique=True, max_size=2),
        mode=st.sampled_from(("full-grid", "diagonal")),
    )
    def check(F_terms, G_terms, F_zero, G_zero, F_scale, G_scale, eps, N, arch, primes,
              mode):
        cfg = ScanConfig(power_sum(F_terms, F_zero, F_scale),
                         power_sum(G_terms, G_zero, G_scale), eps, N,
                         extra_S=PlaceSet(arch, tuple(primes)), mode=mode)
        full = run_lrs_scan(cfg)
        sparse = run_lrs_scan(replace(cfg, keep_rows=False))
        assert _report_summary(sparse) == _report_summary(full)
        flagged, zero_rows, cores = _brute_force_scan(cfg, full.S_used)
        assert sparse.flagged_pairs() == flagged
        assert [(m, n) for m, n, _ in sparse.zero_rows] == zero_rows
        assert sparse.nrows == len(cores)
        assert {(r.m, r.n): r.core for r in full.rows if not r.note} == cores
        seen.update(
            name for name, hit in (
                ("zero", zero_rows), ("flagged", flagged),
                ("arch", any(r.arch is not None for r in full.rows)),
                ("arch flagged", any(r.arch is not None for r in full.flagged)),
                ("S core", any(r.core != math.gcd(cfg.F.eval(r.m).numerator,
                                                  cfg.G.eval(r.n).numerator)
                               for r in full.rows if not r.note)),
            ) if hit
        )

    seen: set[str] = set()
    check()
    assert seen == {"zero", "flagged", "arch", "arch flagged", "S core"}


def test_candidate_scan_skips_most_pairs_of_the_pk_family(monkeypatch):
    calls = []
    scan_row = harness._scan_row

    def counted(*args):
        calls.append(args)
        return scan_row(*args)

    monkeypatch.setattr(harness, "_scan_row", counted)
    F, G = pk_sequences(2)
    N = 200
    rep = run_lrs_scan(ScanConfig(F, G, Fraction(3, 5), N, keep_rows=False))
    assert rep.nrows == N * N
    assert len(rep.flagged) <= len(calls) < N * N // 4


def test_pk_scan_visits_about_the_same_pairs_for_every_epsilon(monkeypatch):
    # the bit-length bound alone leaves 6.5-56% of the N^2 pairs, more the
    # smaller eps is; the dominant-root bounds leave a band near the
    # diagonal, a few pairs wide, whatever eps is
    calls = []
    scan_row = harness._scan_row

    def counted(*args):
        calls.append(args)
        return scan_row(*args)

    monkeypatch.setattr(harness, "_scan_row", counted)
    N = 200
    for p, menu in ((2, ("1/2", "3/5", "2/3", "13/20")), (3, ("1/2", "3/4", "4/5", "1")),
                    (5, ("1", "6/5", "5/4", "3/2"))):
        F, G = pk_sequences(p)
        counts = []
        for eps in menu:
            calls.clear()
            rep = run_lrs_scan(ScanConfig(F, G, Fraction(eps), N, keep_rows=False))
            counts.append(len(calls))
            assert rep.flagged_pairs() == run_lrs_scan(
                ScanConfig(F, G, Fraction(eps), N)).flagged_pairs()
        assert max(counts) < 10 * N
        assert max(counts) - min(counts) < 2 * N


def test_dominant_term_needs_one_integer_root_of_largest_size():
    from gcdlab.harness import _dominant_term

    assert _dominant_term(PowerSum.of(([0, 1], 3), ([1], 1))) == (3, (0, 1))
    assert _dominant_term(PowerSum.of(([1], -2), ([5], 1))) == (-2, (1,))
    assert _dominant_term(PowerSum.of(([1], 2), ([1], -2))) is None
    assert _dominant_term(PowerSum.of(([1], Fraction(5, 2)), ([1], 1))) is None
    assert _dominant_term(PowerSum.of(([Fraction(1, 2)], 2), ([1], 1))) is None
    assert _dominant_term(PowerSum.zero()) is None


def _eliminants(F, G, m, n):
    """The two integers of _DominantRootBounds for the pair (m, n), from their
    definition: Q(n) F(m) - r^(m-n) P(m) G(n), or P(m) G(n) - r^(n-m) Q(n) F(m)
    for n > m, and one more step of the same kind against the value of the
    smaller index."""
    from gcdlab.harness import _dominant_term, _int_poly

    (r, P), (_, Q) = _dominant_term(F), _dominant_term(G)
    a, b = F.eval(m).numerator, G.eval(n).numerator
    p, q = _int_poly(P, m), _int_poly(Q, n)
    if n <= m:
        D = q * a - r**(m - n) * p * b
        # D = A r^(m-n) + B; eliminate r against b = q r^n + (b - q r^n)
        A, B, k, C, E, y = -p * (b - q * r**n), q * (a - p * r**m), m - n, q, b - q * r**n, n
    else:
        D = p * b - r**(n - m) * q * a
        A, B, k, C, E, y = -q * (a - p * r**m), p * (b - q * r**n), n - m, p, a - p * r**m, m
    assert D == A * r**k + B
    Y = C * r**y + E
    Z = A * Y - C * r**(y - k) * D if y >= k else C * D - A * r**(k - y) * Y
    return D, Z


def _check_skipped_pairs(F, G, eps, N, seen):
    """A keep_rows=False scan reports what a visit of every pair reports, and
    each pair it skips has a numerator within the bit bound or, in a regular
    row and column, a nonzero eliminant within it."""
    from gcdlab.harness import _candidate_columns, _elimination

    cfg = ScanConfig(F, G, eps, N, keep_rows=False)
    sparse = run_lrs_scan(cfg)
    assert _report_summary(sparse) == _report_summary(run_lrs_scan(replace(cfg, keep_rows=True)))
    F_vals = [F.eval(i).numerator for i in range(N + 1)]
    G_vals = [G.eval(i).numerator for i in range(N + 1)]
    T = [_unflagged_bits(eps, i) for i in range(N + 1)]
    bounds = _elimination(F, G, F_vals, G_vals, T)
    visited = {(m, n) for m, ns in _candidate_columns(F_vals, G_vals, T, False, bounds)
               for n in ns}
    for m in range(1, N + 1):
        for n in range(1, N + 1):
            if (m, n) in visited:
                continue
            a, b, t = F_vals[m], G_vals[n], T[max(m, n)]
            assert a != 0 and b != 0, (m, n)
            if min(a.bit_length(), b.bit_length()) <= t:
                continue
            assert bounds is not None and bounds.row_ok[m], (m, n)
            assert n not in bounds.irregular, (m, n)
            D, Z = _eliminants(F, G, m, n)
            g = math.gcd(a, b)
            assert D % g == 0 and Z % g == 0
            assert min(z.bit_length() for z in (D, Z) if z) <= t, (m, n)
            seen.add("skipped by an eliminant")
    if bounds is not None and bounds.irregular:
        seen.add("irregular column")
    if sparse.flagged:
        seen.add("flagged")


def test_skipped_pairs_are_proven_on_lines_where_an_eliminant_vanishes():
    # along each line below an eliminant is 0 and G(n) divides F(m) or F(m)
    # divides G(n): opposite signs of P and Ft (2n - m = 2), of Q and Gt
    # (2m - n = 2, and n - 2m = 3), and a negative root (2n - m = 1); the
    # last pair has an irregular column, Gt(20) = 0, inside an excluded
    # interval
    two_plus_one = PowerSum.of(([1], 2), ([1], 1))
    pairs = (
        (PowerSum.of(([-4], 2), ([1], 1)), two_plus_one),
        (two_plus_one, PowerSum.of(([-4], 2), ([1], 1))),
        (two_plus_one, PowerSum.of(([1], 2), ([-8], 1))),
        (PowerSum.of(([2], -2), ([1], 1)), PowerSum.of(([1], -2), ([1], 1))),
        (two_plus_one, PowerSum.of(([1], 2), ([-20, 1], 1))),
    )
    seen: set[str] = set()
    for F, G in pairs:
        for eps in (Fraction(1, 4), Fraction(1, 2)):
            _check_skipped_pairs(F, G, eps, 60, seen)
    assert seen == {"skipped by an eliminant", "irregular column", "flagged"}


def test_skipped_pairs_are_proven_for_shared_dominant_roots():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    coeffs = st.lists(st.integers(-3, 3), min_size=1, max_size=2).filter(any)

    @st.composite
    def shared_root_pair(draw):
        r = draw(st.sampled_from((2, 3, 4, -2, -3)))
        small = [s for s in (1, -1, 2, -2, 3) if abs(s) < abs(r)]
        tail = st.lists(st.tuples(coeffs, st.sampled_from(small)), max_size=2)
        F = PowerSum.of((draw(coeffs), r), *draw(tail))
        G = PowerSum.of((draw(coeffs), r), *draw(tail))
        return F, G

    # the eliminants beat the bit bound once max_bits exceeds the tables' bit
    # sums, which takes N of a few dozen
    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        pair=shared_root_pair(),
        eps=st.fractions(min_value=Fraction(1, 20), max_value=2, max_denominator=20),
        N=st.integers(1, 70),
    )
    def check(pair, eps, N):
        _check_skipped_pairs(*pair, eps, N, seen)

    seen: set[str] = set()
    check()
    assert seen == {"skipped by an eliminant", "irregular column", "flagged"}


def test_scan_config_sizes_must_be_ints():
    F, G = pk_sequences(2)
    for key, value in (("N", 10.0), ("N", True), ("tube_max_ab", 8.0),
                       ("tube_kappa", "16"), ("tube_kappa", False)):
        with pytest.raises(DomainError, match=key):
            ScanConfig(F, G, Fraction(1, 2), **{"N": 10, key: value})


def test_poly_gcd_experiment_pure_units():
    cfg = SampleConfig(
        f=parse_poly("x1 + 1", nvars=2),
        g=parse_poly("x2", nvars=2),
        S=PlaceSet.of(2),
        delta=Fraction(1, 25),
        count=40,
        generator_exponent_bound=6,
        perturbation_bound=1,
    )
    rep = run_poly_gcd_experiment(cfg, seed=7)
    assert len(rep.rows) + len(rep.degenerate) + rep.sampler_failures == 40
    assert all(r.main_ok for r in rep.rows)
    assert all(r.spart_ok for r in rep.rows)
    assert all(r.combined_ok for r in rep.rows)
    assert rep.violations == []


def test_poly_gcd_experiment_perturbed_irrational_delta():
    cfg = SampleConfig(
        f=parse_poly("x1 + 1", nvars=2),
        g=parse_poly("x2", nvars=2),
        S=PlaceSet.of(2, 3),
        delta=Fraction(1, 10),
        count=25,
        generator_exponent_bound=5,
        perturbation_bound=3,
    )
    rep = run_poly_gcd_experiment(cfg, seed=11)
    assert rep.rows
    assert all(r.main_ok for r in rep.rows)


def test_poly_gcd_non_square_delta_decides_every_row():
    # sqrt(1/5) is irrational, so main and combined go through the interval
    # ladder; both must come back decided
    cfg = SampleConfig(
        f=parse_poly("x1 + 1", nvars=2),
        g=parse_poly("x2", nvars=2),
        S=PlaceSet.of(2),
        delta=Fraction(1, 5),
        count=4,
    )
    rep = run_poly_gcd_experiment(cfg, seed=0)
    assert len(rep.rows) == 4
    assert all(r.main_ok is True and r.combined_ok is True for r in rep.rows)
    assert rep.violations == []


def test_poly_gcd_determinism():
    cfg = SampleConfig(
        f=parse_poly("x1 + 1", nvars=2),
        g=parse_poly("x2", nvars=2),
        S=PlaceSet.of(2),
        delta=Fraction(1, 25),
        count=10,
    )
    r1 = run_poly_gcd_experiment(cfg, seed=5)
    r2 = run_poly_gcd_experiment(cfg, seed=5)
    assert [r.u for r in r1.rows] == [r.u for r in r2.rows]


def test_poly_gcd_exceptional_family_produces_candidates():
    # g vanishes on the translate x2 = x1 + 1 where f = x1 + 1 is large;
    # sampling near it yields recorded exceptional-set candidates
    cfg = SampleConfig(
        f=parse_poly("x1 + 1", nvars=2),
        g=parse_poly("x2 - x1 - 1", nvars=2),
        S=PlaceSet.of(2),
        delta=Fraction(1, 25),
        count=30,
        generator_exponent_bound=4,
    )
    rep = run_poly_gcd_experiment(cfg, seed=3)
    assert len(rep.rows) + len(rep.degenerate) + rep.sampler_failures == 30


def test_poly_gcd_rejects_non_coprime():
    with pytest.raises(DomainError):
        SampleConfig(
            f=parse_poly("x1^2 - x2^2", nvars=2),
            g=parse_poly("x1 - x2", nvars=2),
            S=PlaceSet.of(2),
            delta=Fraction(1, 25),
        )


def test_poly_gcd_rejects_variable_count_mismatch():
    # the nvars check runs before coprime, which cannot take the pair
    with pytest.raises(DomainError, match="variables"):
        SampleConfig(f=parse_poly("x1 + 1", nvars=2), g=parse_poly("x1", nvars=3))


def _mp_q(q):
    return mpmath.mpf(q.numerator) / q.denominator


def _mp_log_sum(terms):
    return mpmath.fsum(_mp_q(c) * mpmath.log(b) for b, c in terms.items())


def _sqrt_scaled_oracle(lhs_terms, coeff, delta, h_terms):
    """Sign of lhs - coeff * sqrt(delta) * H at 4096 bits; a nonzero value
    here is far above 2^-3900."""
    with mpmath.workprec(4096):
        value = _mp_log_sum(lhs_terms) - _mp_q(coeff) * mpmath.sqrt(_mp_q(delta)) * _mp_log_sum(h_terms)
        return 0 if abs(value) < mpmath.mpf(2) ** -3900 else int(mpmath.sign(value))


def _random_terms(rng):
    return {rng.choice((rng.randint(2, 10**6), rng.getrandbits(300) | 1)):
            Fraction(rng.randint(-60, 60), rng.randint(1, 25))
            for _ in range(rng.randint(1, 6))}


def _near_tie(coeff, delta, h_terms, offset):
    """lhs terms c * log 3 within |offset| * log 3 of coeff * sqrt(delta) * H."""
    with mpmath.workprec(4096):
        c = _mp_q(coeff) * mpmath.sqrt(_mp_q(delta)) * _mp_log_sum(h_terms) / mpmath.log(3)
        return {3: Fraction(int(mpmath.nint(c * 10**80)), 10**80) + offset}


@pytest.fixture
def ladder_calls(monkeypatch):
    """The arguments of every interval-ladder call _sqrt_scaled_cmp makes,
    directly or through LogReal.sign."""
    from gcdlab import logreal

    calls = []
    ladder = logreal.escalating_sign

    def counted(fn):
        calls.append(fn)
        return ladder(fn)

    monkeypatch.setattr(harness, "escalating_sign", counted)
    monkeypatch.setattr(logreal, "escalating_sign", counted)
    return calls


SQRT_SCALED_DELTAS = (Fraction(1, 5), Fraction(1, 7), Fraction(2, 7),   # audit deltas
                      Fraction(1, 4), Fraction(4, 9))                   # perfect squares


@pytest.mark.parametrize("delta", SQRT_SCALED_DELTAS)
def test_sqrt_scaled_cmp_matches_mpmath_and_skips_the_ladder_when_separated(delta, ladder_calls):
    rng = random.Random(delta.denominator * 31 + delta.numerator)
    for _ in range(60):
        lhs_terms, h_terms = _random_terms(rng), _random_terms(rng)
        coeff = Fraction(rng.randint(1, 400), rng.randint(1, 7))
        want = _sqrt_scaled_oracle(lhs_terms, coeff, delta, h_terms)
        k = float(coeff) * math.sqrt(float(delta))
        value = sum(float(c) * math.log(b) for b, c in lhs_terms.items()) \
            - k * sum(float(c) * math.log(b) for b, c in h_terms.items())
        size = (sum(abs(float(c) * math.log(b)) for b, c in lhs_terms.items())
                + k * sum(abs(float(c) * math.log(b)) for b, c in h_terms.items()) + 1 + k)
        del ladder_calls[:]
        got = harness._sqrt_scaled_cmp(LogReal(lhs_terms), coeff, delta, LogReal(h_terms))
        assert got == want
        if abs(value) > 1e-9 * size:   # far outside the filter's error budget
            assert ladder_calls == []


@pytest.mark.parametrize("delta", SQRT_SCALED_DELTAS)
@pytest.mark.parametrize("offset", (Fraction(1, 10**31), Fraction(-1, 10**31),
                                    Fraction(7, 10**45), Fraction(-7, 10**45)))
def test_sqrt_scaled_cmp_near_ties_go_to_the_ladder(delta, offset, ladder_calls):
    coeff = Fraction(14)
    h_terms = {2: Fraction(3), 5: Fraction(-1, 2), 10**30 + 1: Fraction(1, 3)}
    lhs_terms = _near_tie(coeff, delta, h_terms, offset)
    want = _sqrt_scaled_oracle(lhs_terms, coeff, delta, h_terms)
    assert want == (1 if offset > 0 else -1)
    assert harness._sqrt_scaled_cmp(LogReal(lhs_terms), coeff, delta, LogReal(h_terms)) == want
    assert ladder_calls


@pytest.mark.parametrize("delta", SQRT_SCALED_DELTAS)
def test_sqrt_scaled_cmp_zeros(delta, ladder_calls):
    zeros = ({}, {8: Fraction(1), 2: Fraction(-3)}, {6: Fraction(1), 2: Fraction(-1), 3: Fraction(-1)})
    for lhs_terms in zeros:
        for h_terms in zeros:
            assert harness._sqrt_scaled_cmp(LogReal(lhs_terms), Fraction(6), delta, LogReal(h_terms)) == 0
    assert ladder_calls == []
    # H = 0 with lhs != 0: the sign of lhs, from the filter when it is clear of 0
    for h_terms in zeros:
        for lhs_terms, want in (({3: Fraction(2)}, 1), ({2: Fraction(-1, 9)}, -1),
                                ({2**200 + 1: Fraction(1), 2: Fraction(-200)}, 1)):
            assert _sqrt_scaled_oracle(lhs_terms, Fraction(6), delta, h_terms) == want
            assert harness._sqrt_scaled_cmp(LogReal(lhs_terms), Fraction(6), delta, LogReal(h_terms)) == want


@pytest.mark.parametrize("coeff, delta, h_terms", (
    (Fraction(10**400, 3), Fraction(1, 5), {2: Fraction(1)}),         # coeff overflows a float
    (Fraction(10**300), Fraction(2, 7), {2: Fraction(10**10)}),       # so does k * H
    (Fraction(1), Fraction(1, 5), {2: Fraction(10**400)}),            # and H itself
))
def test_sqrt_scaled_cmp_overflow_leaves_the_sign_to_the_ladder(coeff, delta, h_terms, ladder_calls):
    lhs_terms = {3: Fraction(1)}
    want = _sqrt_scaled_oracle(lhs_terms, coeff, delta, h_terms)
    assert want == -1
    assert harness._sqrt_scaled_cmp(LogReal(lhs_terms), coeff, delta, LogReal(h_terms)) == want
    assert len(ladder_calls) == 1


def test_sqrt_scaled_cmp_does_not_trust_a_subnormal_delta(ladder_calls):
    # float(delta) is subnormal and off by about 1e-5, so the filter would
    # misjudge a value 1e-9 away from a tie
    coeff, delta = Fraction(1), Fraction(1, 3 * 10**319)
    h_terms = {2: Fraction(10**170)}
    with mpmath.workprec(4096):
        exact = mpmath.sqrt(_mp_q(delta))
        rounded = math.sqrt(delta.numerator / delta.denominator)
        assert abs(rounded - exact) > 1e-7 * exact
        offset = 1e-9 if rounded > exact else -1e-9
        c = exact * _mp_log_sum(h_terms) * (1 + offset) / mpmath.log(3)
        lhs_terms = {3: Fraction(int(mpmath.nint(c * 10**20)), 10**20)}
    want = _sqrt_scaled_oracle(lhs_terms, coeff, delta, h_terms)
    assert want == (1 if offset > 0 else -1)
    assert harness._sqrt_scaled_cmp(LogReal(lhs_terms), coeff, delta, LogReal(h_terms)) == want
    assert len(ladder_calls) == 1


def test_example_pk():
    rep = run_example_pk(2, Fraction(3, 5), 6)
    assert all(r.value_equal for r in rep.rows)
    assert all(r.flagged for r in rep.rows)
    assert all(r.in_tube for r in rep.rows)
    assert rep.rows[1].m == 4 and rep.rows[1].n == 6
    assert rep.max_collinear == 2
    # general p: 3*3^3 + 1 == 3^4 + 1 == 82
    rep3 = run_example_pk(3, Fraction(1), 3)
    assert rep3.rows[0].m == 3 and rep3.rows[0].n == 4 and rep3.rows[0].value_equal
    with pytest.raises(DomainError):
        run_example_pk(2, Fraction(7, 10), 2)  # 7/10 > log 2


def test_sharpness_window_and_bound():
    # at p=2, delta=1/5, m=10 the window starts at n=41: 4 log(1025) vs
    # 40 log 2 fails by exactly 1025 > 1024
    ok40, *_ = sharpness_window_holds(2, 10, 40, Fraction(1, 5))
    ok41, *_ = sharpness_window_holds(2, 10, 41, Fraction(1, 5))
    assert not ok40 and ok41
    rep = run_sharpness(2, Fraction(1, 5), 4, m_start=10)
    assert [r.m for r in rep.rows] == [10, 11, 12, 13]
    assert rep.rows[0].n == 41
    assert all(r.bound_ok for r in rep.rows)
    assert all(0.5 <= r.ratio <= 1.0 for r in rep.rows)
    # h_sbar equals the gcd lower bound h(x+1) in this construction
    for r in rep.rows:
        assert r.lhs == r.h_sbar_P


def test_sharpness_at_a_negative_m_start():
    """For m < 0, h(P) = n log p + L and h_sbar(P) = L with
    L = log(1 + p^|m|) > |m| log p, so each window starts above
    |m| (1 - delta)/delta: the walk finds the first n a walk from n = 1
    finds, and a start past the cap is refused before any walk."""
    delta = Fraction(1, 5)
    rep = run_sharpness(2, delta, 3, m_start=-12)
    assert [r.m for r in rep.rows] == [-12, -11, -10]
    for r in rep.rows:
        assert r.n == next(n for n in range(1, r.n + 1)
                           if sharpness_window_holds(2, r.m, n, delta)[0])
    with time_limit(2):
        with pytest.raises(DomainError, match="m = -3000 starts past n = 10000"):
            run_sharpness(2, delta, 1, m_start=-3000)


def test_rec1_scan():
    F = PowerSum.of(([1], 2), ([-1], 3))
    rep = run_rec1_scan(F, Place.finite(5), Fraction(1, 10), 500)
    assert rep.violators
    assert rep.max_violator == 30
    assert rep.zero_indices == [0]
    # stable across runs
    rep2 = run_rec1_scan(F, Place.finite(5), Fraction(1, 10), 500)
    assert rep.violators == rep2.violators
    # archimedean growth: no violators for n >= 1
    repa = run_rec1_scan(F, Place.archimedean(), Fraction(1, 10), 200)
    assert [n for n in repa.violators if n >= 1] == []
    with pytest.raises(DomainError):
        run_rec1_scan(PowerSum.of(([1], 2), ([1], -2)), Place.archimedean(), Fraction(1, 10), 10)
    with pytest.raises(DomainError):
        run_rec1_scan(PowerSum.of(([1], Fraction(1, 2))), Place.archimedean(), Fraction(1, 10), 10)


def test_rec1_scan_matches_log_abs_oracle():
    cases = (
        (PowerSum.of(([1], 2), ([-1], 3)), Place.finite(5), Fraction(1, 10), 200),
        (PowerSum.of(([1], 2), ([-1], 3)), Place.finite(7), Fraction(1, 50), 120),
        (PowerSum.of(([1], 2), ([-1], 3)), Place.archimedean(), Fraction(1, 10), 60),
        (PowerSum.of(([1], 6), ([-1], 1)), Place.finite(5), Fraction(1, 40), 150),
        (PowerSum.of(([3], Fraction(3, 2)), ([-2], Fraction(1, 2))), Place.archimedean(),
         Fraction(1, 20), 80),
        (PowerSum.of(([1], Fraction(5, 4)), ([-1], Fraction(-1, 3))), Place.finite(3),
         Fraction(1, 10), 80),
        (PowerSum.of(([0, 1], 1), ([-4], 1), ([1], Fraction(1, 2))), Place.archimedean(),
         Fraction(1, 30), 40),
    )
    for F, v, eps, N in cases:
        want = [
            n for n in range(N + 1)
            if F.eval(n) != 0 and (-log_abs(F.eval(n), v)).cmp(eps * n) >= 0
        ]
        rep = run_rec1_scan(F, v, eps, N)
        assert rep.violators == want
        assert rep.zero_indices == [n for n in range(N + 1) if F.eval(n) == 0]


def test_scans_evaluate_each_sequence_in_one_pass(monkeypatch):
    """Scans take all their values from PowerSum.values, never from eval one
    index at a time."""
    F, G = pk_sequences(2)
    H = PowerSum.of(([3], Fraction(3, 2)), ([-2], Fraction(1, 2)))

    def scans():
        return [
            _report_summary(run_lrs_scan(ScanConfig(F, G, Fraction(3, 5), 40, **kw)))
            for kw in ({}, {"mode": "diagonal"}, {"keep_rows": True})
        ] + [run_lrs_scan(ScanConfig(H, G, Fraction(1, 2), 30)).flagged] + [
            run_rec1_scan(H, v, Fraction(1, 20), 80).violators
            for v in (Place.archimedean(), Place.finite(3))
        ]

    want = scans()

    def no_eval(self, n):
        raise AssertionError("PowerSum.eval called by a scan")

    monkeypatch.setattr(PowerSum, "eval", no_eval)
    assert scans() == want


def test_unit_equation_small():
    rep = solve_unit_equation(PlaceSet.of(2, 3), 1, 1)
    expect = {
        (Fraction(-2), Fraction(3)),
        (Fraction(-1), Fraction(2)),
        (Fraction(-1, 2), Fraction(3, 2)),
        (Fraction(1, 3), Fraction(2, 3)),
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(2, 3), Fraction(1, 3)),
        (Fraction(3, 2), Fraction(-1, 2)),
        (Fraction(2), Fraction(-1)),
        (Fraction(3), Fraction(-2)),
    }
    assert set(rep.solutions) == expect
    assert rep.degenerate == []
    assert not rep.truncated
    for x in rep.solutions:
        for c in x:
            assert rep.coordinate_frequency[c] >= 1


def test_unit_equation_degenerate_subsums():
    rep = solve_unit_equation(PlaceSet.of(2, 3), 2, 1)
    assert (Fraction(1), Fraction(2), Fraction(-2)) in rep.degenerate
    for x in rep.solutions:
        assert sum(x) == 1
    for x in rep.degenerate:
        assert sum(x) == 1


def test_unit_equation_budget_truncation():
    rep = solve_unit_equation(PlaceSet.of(2, 3, 5), 2, 2, budget=50)
    assert rep.truncated


def _unit_equation_oracle(S, n, bound, budget):
    """solutions, degenerate, truncated and frequencies by Fraction sums over
    the unscaled box, every proper subset summed by itertools.combinations."""
    box = [Fraction(1)]
    for p in S.finite_primes:
        box = [v * Fraction(p) ** e for v in box for e in range(-bound, bound + 1)]
    values = sorted({*box, *(-v for v in box)})
    value_set = set(values)
    solutions, degenerate = [], []
    for count, head in enumerate(itertools.product(values, repeat=n)):
        if count >= budget:
            break
        last = 1 - sum(head)
        if last in value_set:
            x = (*head, last)
            vanishes = any(sum(sub) == 0 for size in range(1, n + 1)
                           for sub in itertools.combinations(x, size))
            (degenerate if vanishes else solutions).append(x)
    freq = Counter(c for x in solutions for c in x)
    return sorted(solutions), sorted(degenerate), len(values) ** n > budget, freq


def _unit_equation_summary(rep):
    return rep.solutions, rep.degenerate, rep.truncated, rep.coordinate_frequency


def test_unit_equation_matches_the_fraction_oracle():
    rng = random.Random(25)
    for primes in [(), (2,), (3,), (2, 3), (2, 5), (3, 7), (5, 11), (2, 3, 5), (3, 7, 11)] * 5:
        S = PlaceSet.of(*primes)
        n, bound = rng.randint(1, 4), rng.randint(1, 2)
        budget = rng.choice([1, 50, 3000, 20000])
        assert (_unit_equation_summary(solve_unit_equation(S, n, bound, budget))
                == _unit_equation_oracle(S, n, bound, budget)), (S, n, bound, budget)


@pytest.mark.parametrize("budget, truncated", [(0, True), (-1, True), (2**70, False)])
def test_unit_equation_budgets_outside_islice_range(budget, truncated):
    S = PlaceSet.of(2, 3)
    rep = solve_unit_equation(S, 2, 1, budget)
    assert _unit_equation_summary(rep) == _unit_equation_oracle(S, 2, 1, budget)
    assert rep.truncated == truncated
    assert (rep.solutions == rep.degenerate == []) == truncated


def test_proper_subsum_vanishes_matches_combinations():
    rng = random.Random(11)
    for _ in range(3000):
        x = tuple(rng.randint(-6, 6) for _ in range(rng.randint(1, 10)))
        if sum(x) == 0:
            continue
        want = any(sum(sub) == 0 for size in range(1, len(x))
                   for sub in itertools.combinations(x, size))
        assert harness._proper_subsum_vanishes(x) == want, x


def test_spart_log_gcd_within_matches_log_abs_sum():
    """The poly-gcd S-part, sum over v in S of log^+(1/|x|_v), is
    log_gcd_within(x, 0, S): max(|x|_v, |0|_v) = |x|_v at every place."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    smooth = st.builds(
        lambda e2, e3, e5, k: 2**e2 * 3**e3 * 5**e5 * k,
        st.integers(0, 10), st.integers(0, 6), st.integers(0, 4), st.integers(1, 500),
    )
    place_sets = st.builds(
        lambda arch, primes: PlaceSet(arch, tuple(primes)),
        st.booleans(), st.lists(st.sampled_from((2, 3, 5, 7, 11)), unique=True),
    )

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(num=smooth, den=smooth, sign=st.sampled_from((-1, 1)), S=place_sets)
    def check(num, den, sign, S):
        x = Fraction(sign * num, den)
        # sum over v in S of min(0, log|x|_v)
        want = LogReal.zero()
        for v in S.places():
            term = log_abs(x, v)
            if term.sign() < 0:
                want = want + term
        assert log_gcd_within(x, 0, S) == -want

    check()


# SHA-256 of the instances run_hilbert_verify draws, one line per coprime
# pair and per greedy instance, recorded before the coprimality certificate
# and the monomial tables: a change that consumes the RNG differently shows
HILBERT_DRAW_DIGESTS = {
    0: "bc0b64bb5153c46404f2644db1a80d83e63381b5b97043153f8df00a35133d98",
    1: "ea2b9e0d0a8b185830dbe069a3879bdb7ec794eba4f910f87e35bccb80f39ecd",
    2: "5e72d1d7edb4933cc49076c8c4c5b7b1b025f7bf21db09c75031b5aa90c8eee0",
    3: "5c34ffb088fe2e1d21bf6f4c01aa416f4bc6ba3d2b7d87d42f58ea09654327ae",
}


@pytest.mark.parametrize("seed", sorted(HILBERT_DRAW_DIGESTS))
def test_hilbert_verify_draws_are_pinned(seed, monkeypatch):
    import hashlib

    from gcdlab import hilbert

    lines = []
    draw_forms, build_greedy = harness.random_coprime_forms, hilbert.greedy_monomial_basis

    def forms(rng, nvars, d1, d2):
        F1, F2 = draw_forms(rng, nvars, d1, d2)
        lines.append(f"{F1} | {F2}")
        return F1, F2

    def greedy(T, u, v):
        lines.append(f"{T.f} | {T.g} | {T.m} | {u} | {v}")
        return build_greedy(T, u, v)

    monkeypatch.setattr(harness, "random_coprime_forms", forms)
    monkeypatch.setattr(hilbert, "greedy_monomial_basis", greedy)
    checks = harness.run_hilbert_verify(seed)
    assert all(c.ok for c in checks)
    assert len(lines) == 135 + 8 + 50
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == HILBERT_DRAW_DIGESTS[seed]


# SHA-256 of the monomials each greedy instance of run_hilbert_verify
# chooses, one line per instance, recorded with the greedy order taken by a
# sort on the exact LogReal comparison alone
GREEDY_BASIS_DIGESTS = {
    0: "24783e187197c8968b6927e01ce8d48a9dda99b378fabe472ae77cf173f61cee",
    1: "c69ad0e3996c28eb071b364b6f279ed1388f4bfdfa1e9b20066cc91ba102cbe5",
    2: "57908ffa83dc0466f60600171ea5fde95494a43fc2da1eba4330b9b6eaf2ba23",
    3: "c198a0a3d382e1757360006df0cb83c0833a074e46cb8e7d20a9f783a764ed2a",
}


@pytest.mark.parametrize("seed", sorted(GREEDY_BASIS_DIGESTS))
def test_hilbert_verify_greedy_bases_are_pinned(seed, monkeypatch):
    import hashlib

    from gcdlab import hilbert

    lines = []
    build_greedy = hilbert.greedy_monomial_basis

    def greedy(T, u, v):
        gb = build_greedy(T, u, v)
        lines.append(f"{gb.monomials}")
        return gb

    monkeypatch.setattr(hilbert, "greedy_monomial_basis", greedy)
    harness.run_hilbert_verify(seed)
    assert len(lines) == 50
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == GREEDY_BASIS_DIGESTS[seed]
