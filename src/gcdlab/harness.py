"""Experiment runners: exact grid scans of gcds of two linear recurrences
with log-tube clustering of the violating pairs, sampling audits of the
polynomial gcd inequalities over almost-unit points, the prime-power
coincidence family, the sharpness construction, single-place decay scans,
and desk-scale unit-equation enumeration.

Each runner returns a plain report object; CSV rendering is separate.  All
randomness flows through an explicit seed and reports are assembled in
canonical order, so identical configurations produce identical output."""

from __future__ import annotations

import csv
import io
import itertools
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, gcd as igcd, log, log2, sqrt
from sys import float_info
from typing import NamedTuple

from .gengcd import _finite_core, log_gcd, log_gcd_outside, log_gcd_within
from .heights import (
    AlmostUnitConfig,
    TorusPoint,
    h_sbar,
    is_almost_unit,
    standard_height,
    torus_height,
)
from .hilbert import (
    _monomial_count,
    dim_quotient_formula,
    graded_ideal_ranks,
    greedy_dominance_violations,
    greedy_monomial_basis,
    inequality_constants,
    multiindex_sum,
    multiindex_sum_closed_form,
    ord_sum_check,
    quotient_monomial_basis,
    truncated_ideal,
)
from .logreal import LogReal, enclosure_sign, escalating_sign, fraction_interval
from .lrs import PowerSum, _poly_eval as _int_poly, _zero_structure, compute_S0
from .multipoly import MultiPoly, _monomial_table, coprime, monomials_upto
from .places import DomainError, Place, PlaceSet, _refuse_past, format_rational, valuation
from .arith import _split_primes, is_prime, sqrt_fraction_exact


# Checked before any evaluation: the estimated bits of all values a run
# evaluates (at the bound an example-pk run takes up to about 2.5 s) and the
# rows a scan keeps.
MAX_BITS = 1 << 25
MAX_KEPT_ROWS = 1 << 20


def _bound_work(bits: int, rows: int = 0) -> None:
    _refuse_past(bits, MAX_BITS, "bits of values")
    _refuse_past(rows, MAX_KEPT_ROWS, "kept rows")


# ---------------------------------------------------------------------
# recurrence gcd grid scans
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class ScanConfig:
    F: PowerSum
    G: PowerSum
    epsilon: Fraction = Fraction(1, 2)
    N: int = 100
    extra_S: PlaceSet = PlaceSet(False, ())
    mode: str = "full-grid"  # or "diagonal"
    tube_max_ab: int = 8
    tube_kappa: int = 16
    keep_rows: bool = True

    def __post_init__(self):
        object.__setattr__(self, "epsilon", Fraction(self.epsilon))
        if self.epsilon <= 0:
            raise DomainError("epsilon must be positive")
        for key in ("N", "tube_max_ab", "tube_kappa"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, int):
                raise DomainError(f"{key} must be an int, not {value!r}")
        if self.N < 1:
            raise DomainError("N must be at least 1")
        if self.mode not in ("full-grid", "diagonal"):
            raise DomainError(f"unknown scan mode {self.mode!r}")


class ScanRow(NamedTuple):
    """One grid cell; a tuple, because a full-grid scan builds N^2 of them."""

    m: int
    n: int
    core: int                # finite-place gcd part outside S, an integer
    arch: Fraction | None    # 1/max|a|,|b| when that max is < 1
    flagged: bool
    cluster: int | None = None
    note: str = ""

    @property
    def lhs(self) -> LogReal:
        total = LogReal.log_of_int(self.core)
        if self.arch is not None:
            total = total + LogReal.log_of_fraction(self.arch)
        return total


@dataclass(frozen=True)
class TubeCluster:
    """Pairs within |a*m - b*n| <= kappa * log max(m, n) of the line
    a*m = b*n."""

    cluster_id: int
    a: int
    b: int
    kappa: int
    members: tuple[tuple[int, int], ...]
    kappa_hat: float  # observed max |a*m-b*n| / log max(m,n)


@dataclass
class ScanReport:
    config: ScanConfig
    S0: PlaceSet
    S_used: PlaceSet
    nrows: int
    flagged: list[ScanRow]
    clusters: list[TubeCluster]
    sporadic: list[ScanRow]
    zero_rows: list[tuple[int, int, str]]
    zero_structure_F: object
    zero_structure_G: object
    max_flagged_extent: int  # max over flagged rows of max(m, n); 0 if none
    rows: list[ScanRow] | None = None

    def flagged_pairs(self) -> list[tuple[int, int]]:
        return [(r.m, r.n) for r in self.flagged]


def _scan_row(fa: int, gb: int, sa: Fraction | None, sb: Fraction | None):
    """Compact per-row data for the gcd outside S of a = F(m), b = G(n):
    the integer core and the optional archimedean term.  fa and gb are the
    numerators A and B of a and b with the primes of S divided out, so
    v_l(gcd(fa, gb)) is min(v_l(A), v_l(B)) at a prime l outside S and 0 at
    one in S: gcd(fa, gb) is gcd(A, B) with the primes of S divided out.
    sa and sb are |a| and |b| where they lie in (0, 1) and oo is not in S,
    else None (see _scan_operands).  The core comes from _finite_core, the
    gcd core of every other caller, so a fault in it shows in scans too."""
    core, _ = _finite_core(fa, gb)
    return core, (1 / max(sa, sb) if sa is not None and sb is not None else None)


def _scan_operands(vals: list[int | Fraction], s_primes, s_arch: bool):
    """The per-value operands of _scan_row: each nonzero value's numerator
    with the primes of S divided out (0 for a zero value, which no row
    passes to _scan_row), and |v| where -1 < v < 1 and oo is not in S."""
    free = [_split_primes(v.numerator, s_primes)[1] if v else 0 for v in vals]
    small = [None if s_arch or not -1 < v < 1 else abs(v) for v in vals]
    return free, small


def _row_lhs_cmp(core: int, arch: Fraction | None, threshold: Fraction) -> int:
    lhs = LogReal.log_of_int(core)
    if arch is not None:
        lhs = lhs + LogReal.log_of_fraction(arch)
    return lhs.cmp(threshold)


# a rational upper bound for ln 2 = 0.693147180559...; tests check it with mpmath
LN2_UPPER = Fraction(6931472, 10**7)


def _unflagged_bits(eps: Fraction, mx: int) -> int:
    """The largest b with b * LN2_UPPER <= eps * mx.  A core of at most b
    bits has log core < b ln 2 < eps * mx, so a row with that core and no
    archimedean term is not flagged; no LogReal is needed to prove it."""
    return eps.numerator * mx * LN2_UPPER.denominator // (eps.denominator * LN2_UPPER.numerator)


def tube_inequality_holds(a: int, b: int, kappa: int, m: int, n: int) -> bool:
    """Exact check of |a*m - b*n| <= kappa * log max(m, n)."""
    diff = abs(a * m - b * n)
    return LogReal({max(m, n): Fraction(kappa)}).cmp(Fraction(diff)) >= 0


def _cluster_flagged(flagged: list[ScanRow], max_ab: int, kappa: int):
    """Greedy assignment of flagged pairs to tubes around lines a*m = b*n,
    coprime 1 <= a, b <= max_ab, narrow lines first."""
    candidates = sorted(
        (
            (a, b)
            for a in range(1, max_ab + 1)
            for b in range(1, max_ab + 1)
            if igcd(a, b) == 1
        ),
        key=lambda ab: (max(ab), ab),
    )
    unassigned = list(flagged)
    clusters: list[TubeCluster] = []
    assignment: dict[tuple[int, int], int] = {}
    for a, b in candidates:
        members = [
            r for r in unassigned if tube_inequality_holds(a, b, kappa, r.m, r.n)
        ]
        if not members:
            continue
        cid = len(clusters) + 1
        kappa_hat = 0.0
        for r in members:
            mx = max(r.m, r.n)
            if mx > 1:
                kappa_hat = max(kappa_hat, abs(a * r.m - b * r.n) / log(mx))
            assignment[(r.m, r.n)] = cid
        clusters.append(
            TubeCluster(cid, a, b, kappa, tuple((r.m, r.n) for r in members), kappa_hat)
        )
        unassigned = [r for r in unassigned if (r.m, r.n) not in assignment]
        if not unassigned:
            break
    return clusters, assignment


def _dominant_term(S: PowerSum) -> tuple[int, tuple[int, ...]] | None:
    """(r, coefficients of the polynomial of r) for the unique root r of
    largest absolute value, when every root and coefficient of S is an
    integer; None otherwise."""
    if not S.terms or any(
        root.denominator != 1 or any(c.denominator != 1 for c in cs)
        for cs, root in S.terms
    ):
        return None
    cs, r = max(S.terms, key=lambda term: abs(term[1]))
    if any(root == -r for root in S.roots):
        return None
    return int(r), tuple(int(c) for c in cs)


class _DominantRootBounds:
    """Pairs proved unflagged by eliminating a shared dominant root.

    Write F(m) = P(m) r^m + Ft(m) and G(n) = Q(n) r^n + Gt(n), with integer
    r, |r| >= 2, and integer polynomials P, Q.  For n <= m and k = m - n,
    gcd(F(m), G(n)) divides Q(n) F(m) - r^k P(m) G(n) = Q(n) Ft(m) - r^k P(m) Gt(n),
    and one more step against G(n) leaves
        -P(m) Gt(n)^2 - Q(n)^2 Ft(m) r^(2n-m)    when 2n >= m,
        Q(n)^2 Ft(m) + P(m) Gt(n)^2 r^(m-2n)     when 2n < m;
    for n > m swap the roles of (F, P, Ft, m) and (G, Q, Gt, n).  Where such
    an integer is provably nonzero and has at most max_bits[max(m, n)] bits,
    the gcd has no more, so the pair is not flagged.  Bit lengths of the factors
    come from tables: exact for the row, the maximum over the regular
    columns for the column.  A term with a factor r^j is nonzero, and
    outweighs the other term, once bits(|r|^j) - 1 reaches the other term's
    bit bound; the two terms of a second step also cannot cancel when r > 0
    and their signs agree.  Only regular rows and columns, those where P, Ft
    (resp. Q, Gt) do not vanish, are excluded.  max_bits[x] =
    floor(eps x / LN2_UPPER) is superadditive, which bounds it for n > m.
    F_vals and G_vals are the values at 0..N as ints."""

    def __init__(self, r: int, P, Q, F_vals, G_vals, max_bits: list[int]):
        N = len(F_vals) - 1
        self.N = N
        self.max_bits = max_bits
        self.bits_r = []            # bits(|r|^j), strictly increasing
        self.row_ok, self.row_same, self.bits_P, self.bits_Ft = [], [], [], []
        self.irregular: list[int] = []
        BQ = BGt = 0
        col_same = True
        power = 1
        for i in range(N + 1):
            self.bits_r.append(abs(power).bit_length())
            p, q = _int_poly(P, i), _int_poly(Q, i)
            ft, gt = F_vals[i] - p * power, G_vals[i] - q * power
            self.row_ok.append(p != 0 and ft != 0)
            self.row_same.append((p > 0) == (ft > 0))
            self.bits_P.append(p.bit_length())
            self.bits_Ft.append(ft.bit_length())
            if i:
                if q != 0 and gt != 0:
                    BQ = max(BQ, q.bit_length())
                    BGt = max(BGt, gt.bit_length())
                    col_same = col_same and (q > 0) == (gt > 0)
                else:
                    self.irregular.append(i)
            power *= r
        self.BQ, self.BGt = BQ, BGt
        self.positive = r > 0
        self.col_same = r > 0 and col_same
        # prefix maxima of bits(|r|^k) - max_bits[k]: every
        # k < bisect_right(gap_max, x) has bits(|r|^k) <= x + max_bits[k]
        self.gap_max = list(itertools.accumulate(
            (b - t for b, t in zip(self.bits_r, max_bits)), max))

    def excluded(self, m: int) -> list[tuple[int, int]]:
        """Inclusive n-intervals of row m whose regular columns are not
        flagged; empty unless row m is regular."""
        if not self.row_ok[m]:
            return []
        N, T, R, gaps = self.N, self.max_bits, self.bits_r, self.gap_max
        BQ, BGt = self.BQ, self.BGt
        bp, bft, t = self.bits_P[m], self.bits_Ft[m], T[m]
        same = self.positive and self.row_same[m]
        out = []
        # n <= m, first step: n = m - k
        k0 = bisect_left(R, BQ + bft + 1)
        k1 = bisect_right(R, t - 1 - bp - BGt) - 1
        out.append((max(1, m - k1), m - k0))
        # n <= m, 2n >= m: j = 2n - m
        if bp + 2 * BGt + 1 <= t:
            j0 = 0 if same else bisect_left(R, bp + 2 * BGt + 1)
            j1 = bisect_right(R, t - 1 - 2 * BQ - bft) - 1
            out.append((-(-(m + j0) // 2), min(m, (m + j1) // 2)))
        # 2n < m: j = m - 2n
        if 2 * BQ + bft + 1 <= t:
            j0 = 1 if same else max(1, bisect_left(R, 2 * BQ + bft + 1))
            j1 = bisect_right(R, t - 1 - bp - 2 * BGt) - 1
            out.append((max(1, -(-(m - j1) // 2)), (m - j0) // 2))
        # n > m, first step: n = m + k, max_bits[n] >= t + max_bits[k]
        k0 = max(1, bisect_left(R, bp + BGt + 1))
        k1 = bisect_right(gaps, t - 1 - BQ - bft) - 1
        out.append((m + k0, min(N, m + k1)))
        # m < n <= 2m: j = 2m - n, max_bits[n] >= t
        if BQ + 2 * bft + 1 <= t:
            j0 = 0 if self.col_same else bisect_left(R, BQ + 2 * bft + 1)
            j1 = bisect_right(R, t - 1 - 2 * bp - BGt) - 1
            out.append((max(m + 1, 2 * m - j1), min(N, 2 * m - j0)))
        # n > 2m: j = n - 2m, max_bits[n] >= max_bits[2m] + max_bits[j]
        if 2 * m < N and 2 * bp + BGt + 1 <= T[2 * m]:
            j0 = 1 if self.col_same else max(1, bisect_left(R, 2 * bp + BGt + 1))
            j1 = bisect_right(gaps, T[2 * m] - 1 - BQ - 2 * bft) - 1
            out.append((2 * m + j0, min(N, 2 * m + j1)))
        return [(lo, hi) for lo, hi in out if lo <= hi]


def _elimination(F: PowerSum, G: PowerSum, F_vals, G_vals, max_bits: list[int]):
    """_DominantRootBounds for F and G when both have integer roots and
    coefficients and the same dominant root r, |r| >= 2; None otherwise."""
    dom_F, dom_G = _dominant_term(F), _dominant_term(G)
    if dom_F is None or dom_G is None or dom_F[0] != dom_G[0] or abs(dom_F[0]) < 2:
        return None
    bounds = _DominantRootBounds(dom_F[0], dom_F[1], dom_G[1], F_vals, G_vals, max_bits)
    return bounds if len(bounds.irregular) < len(F_vals) - 1 else None


def _candidate_columns(F_vals, G_vals, max_bits: list[int], s_arch: bool,
                       elimination: _DominantRootBounds | None):
    """For each m in 1..N, the ascending n whose pair (m, n) is a zero row or
    may be flagged.  The core divides gcd(num F(m), num G(n)), so a pair with
    no archimedean term whose smaller numerator has at most
    max_bits[max(m, n)] bits is not flagged (see _unflagged_bits), and it is
    skipped here without a gcd; so are the pairs an ``elimination`` proves
    unflagged.  max_bits is non-decreasing, so each row's candidates are
    an interval for n <= m and a slice of one sorted list for n > m."""
    N = len(F_vals) - 1
    all_n = range(1, N + 1)
    bits_G = [v.numerator.bit_length() for v in G_vals]
    # n <= m needs bits G(n) > max_bits[m]: every n from the first whose
    # running maximum of bits G exceeds max_bits[m] on (a superset)
    rising_G = list(itertools.accumulate(bits_G, max))
    G_zero = [n for n in all_n if G_vals[n] == 0]
    G_small = [] if s_arch else [n for n in all_n if G_vals[n] != 0 and -1 < G_vals[n] < 1]
    G_big = [n for n in all_n if bits_G[n] > max_bits[n]]
    irregular = elimination.irregular if elimination else []
    irregular_big = sorted(set(irregular).intersection(G_big))
    for m in all_n:
        a = F_vals[m]
        if a == 0:
            yield m, all_n
            continue
        t = max_bits[m]
        bits_F = a.numerator.bit_length()
        ns: list[int] = []
        extra = G_zero + G_small if -1 < a < 1 else G_zero
        if bits_F > t:
            lo = bisect_right(rising_G, t, 1, m + 1)
            # for n > m the bound is max_bits[n] < bits F(m), so n < hi
            hi = bisect_left(max_bits, bits_F, m + 1)
            upper = G_big[bisect_right(G_big, m):bisect_left(G_big, hi)]
            cuts = sorted(elimination.excluded(m)) if elimination else []
            start = 1     # the n in [start, cut_lo) are kept
            for cut_lo, cut_hi in (*cuts, (N + 1, N + 1)):
                if cut_lo > start:
                    end = cut_lo - 1
                    ns += range(max(start, lo), min(end, m) + 1)
                    if end > m:
                        ns += upper[bisect_left(upper, start):bisect_right(upper, end)]
                start = max(start, cut_hi + 1)
            if irregular:
                extra = extra + irregular[bisect_left(irregular, lo):bisect_right(irregular, m)]
                extra += irregular_big[bisect_right(irregular_big, m):
                                       bisect_left(irregular_big, hi)]
        if extra:
            ns = sorted({*ns, *extra})
        yield m, ns


def run_lrs_scan(cfg: ScanConfig) -> ScanReport:
    """Scan the grid (or the diagonal) of pairs (F(m), G(n)), 1 <= m, n <= N.
    A full-grid scan without kept rows visits only _candidate_columns; every
    pair it skips is provably not flagged, so the report is the same."""
    N = cfg.N
    _bound_work((N + 1) * (cfg.F.value_bits(N) + cfg.G.value_bits(N)),
                (N if cfg.mode == "diagonal" else N * N) if cfg.keep_rows else 0)
    # _cluster_flagged lists and sorts every line a*m = b*n, 1 <= a, b <= tube_max_ab
    _refuse_past(max(cfg.tube_max_ab, 0) ** 2, MAX_KEPT_ROWS, "candidate lines")
    S0 = compute_S0(cfg.F.roots, cfg.G.roots)
    S_used = S0.union(cfg.extra_S)
    s_primes = S_used.finite_primes
    s_arch = S_used.contains_archimedean
    # integral values are plain ints: the gcd core then does no Fraction work
    F_vals, G_vals = cfg.F.values(N), cfg.G.values(N)
    zero_structure_F = _zero_structure(cfg.F, F_vals)
    zero_structure_G = _zero_structure(cfg.G, G_vals)

    eps = cfg.epsilon
    max_bits = [_unflagged_bits(eps, mx) for mx in range(N + 1)]
    all_n = range(1, N + 1)
    if cfg.mode == "diagonal":
        columns = ((m, (m,)) for m in all_n)
        nrows = sum(1 for i in all_n if F_vals[i] != 0 and G_vals[i] != 0)
    else:
        if cfg.keep_rows:
            columns = ((m, all_n) for m in all_n)
        else:
            columns = _candidate_columns(F_vals, G_vals, max_bits, s_arch,
                                         _elimination(cfg.F, cfg.G, F_vals, G_vals, max_bits))
        nrows = (sum(1 for i in all_n if F_vals[i] != 0)
                 * sum(1 for i in all_n if G_vals[i] != 0))

    F_free, F_small = _scan_operands(F_vals, s_primes, s_arch)
    G_free, G_small = _scan_operands(G_vals, s_primes, s_arch)
    new_row = tuple.__new__   # ScanRow(...) without the NamedTuple's Python __new__
    rows: list[ScanRow] | None = [] if cfg.keep_rows else None
    flagged: list[ScanRow] = []
    flagged_at: list[int] = []   # index in rows of each flagged row
    zero_rows: list[tuple[int, int, str]] = []
    for m, ns in columns:
        a = F_vals[m]
        fa, sa = F_free[m], F_small[m]
        for n in ns:
            b = G_vals[n]
            if a == 0 or b == 0:
                which = "F(m)=0" if a == 0 else "G(n)=0"
                if a == 0 and b == 0:
                    which = "F(m)=G(n)=0"
                zero_rows.append((m, n, which))
                if rows is not None:
                    rows.append(ScanRow(m, n, 1, None, False, None, which))
                continue
            core, arch = _scan_row(fa, G_free[n], sa, G_small[n])
            mx = m if m > n else n
            is_flagged = (
                (arch is not None or core.bit_length() > max_bits[mx])
                and _row_lhs_cmp(core, arch, eps * mx) > 0
            )
            if is_flagged or rows is not None:
                row = new_row(ScanRow, (m, n, core, arch, is_flagged, None, ""))
                if is_flagged:
                    flagged.append(row)
                if rows is not None:
                    if is_flagged:
                        flagged_at.append(len(rows))
                    rows.append(row)

    clusters, assignment = _cluster_flagged(
        flagged, cfg.tube_max_ab, cfg.tube_kappa
    )
    flagged = [
        ScanRow(r.m, r.n, r.core, r.arch, True, assignment.get((r.m, r.n)),
                "" if (r.m, r.n) in assignment else "sporadic")
        for r in flagged
    ]
    if rows is not None:
        for i, r in zip(flagged_at, flagged):
            rows[i] = r
    sporadic = [r for r in flagged if r.cluster is None]
    return ScanReport(
        config=cfg,
        S0=S0,
        S_used=S_used,
        nrows=nrows,
        flagged=flagged,
        clusters=clusters,
        sporadic=sporadic,
        zero_rows=zero_rows,
        zero_structure_F=zero_structure_F,
        zero_structure_G=zero_structure_G,
        max_flagged_extent=max((max(r.m, r.n) for r in flagged), default=0),
        rows=rows,
    )


# significant digits of every decimal column in the CLI's CSVs
CSV_DIGITS = 12


def _csv_encoder():
    """A function from a tuple of fields to their text in a CSV line, as the
    CLI's csv.writer writes them, without the line end.  Fields are quoted
    one by one, so the text of a row is the texts of its parts joined by
    commas, as long as no part is a lone empty field (which the csv module
    writes as "")."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")

    def encode(fields: tuple) -> str:
        buf.seek(0)
        buf.truncate()
        writer.writerow(fields)
        return buf.getvalue()[:-1]

    return encode


def scan_csv_rows(report: ScanReport):
    """Lines of the scan CSV, each with its line end: m, n, lhs_logreal,
    lhs_decimal, threshold_decimal, flagged, cluster_id, notes.  A call
    encodes each distinct lhs pair, threshold and (flagged, cluster_id,
    notes) tail once."""
    if report.rows is None:
        raise DomainError("scan was run without keep_rows")
    import mpmath

    encode = _csv_encoder()
    eps = report.config.epsilon
    thresholds = [
        encode((mpmath.nstr(mpmath.mpf(t.numerator) / t.denominator, CSV_DIGITS),))
        for t in (eps * mx for mx in range(report.config.N + 1))
    ]
    # rows repeat few (core, arch) values: render each of them once
    rendered: dict[tuple[int, Fraction | None], str] = {}
    tails: dict[tuple[bool, int | None, str], str] = {}
    for row in report.rows:
        m, n, core, arch, flagged, cluster, note = row
        lhs = rendered.get((core, arch))
        if lhs is None:
            value = row.lhs
            lhs = rendered[core, arch] = encode((str(value), value.decimal(CSV_DIGITS)))
        tail = tails.get((flagged, cluster, note))
        if tail is None:
            tail = tails[flagged, cluster, note] = encode(
                (int(flagged), "" if cluster is None else cluster, note))
        yield f"{m},{n},{lhs},{thresholds[m if m > n else n]},{tail}\n"


SCAN_CSV_HEADER = (
    "m", "n", "lhs_logreal", "lhs_decimal", "threshold_decimal",
    "flagged", "cluster_id", "notes",
)


# ---------------------------------------------------------------------
# polynomial gcd sampling audits
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class SampleConfig:
    f: MultiPoly
    g: MultiPoly
    S: PlaceSet = PlaceSet(True, ())
    delta: Fraction = Fraction(1, 25)
    count: int = 50
    generator_exponent_bound: int = 6
    perturbation_bound: int = 1

    def __post_init__(self):
        object.__setattr__(self, "delta", Fraction(self.delta))
        if not 0 < self.delta < 1:
            raise DomainError("delta must lie in (0, 1)")
        if not self.S.contains_archimedean:
            raise DomainError("S must contain the archimedean place")
        if self.f.nvars != self.g.nvars:
            raise DomainError("f and g must share their variables")
        if self.count < 1:
            raise DomainError("count must be at least 1")
        # the bits of the values a run builds, estimated before any: about
        # n^2 (d + 1) for the line directions of coprime and the binomials
        # of inequality_constants, in n variables at degree d; the B^2
        # perturbation choices of about 2 log2 B bits each, for the
        # perturbation bound B, built once per run; then for each sample n
        # coordinates of about E sum log2 p + 2 log2 B bits, for the
        # generator exponent bound E, and the values of f and g at them,
        # about n d times as many.  A draw the almost-unit filter rejects
        # is redrawn, up to SAMPLE_RETRIES times, and not counted.
        n, d = self.f.nvars, max(1, self.f.degree(), self.g.degree())
        B = max(0, self.perturbation_bound)
        coordinate = (1 + abs(self.generator_exponent_bound)
                      * sum(p.bit_length() for p in self.S.finite_primes) + 2 * B.bit_length())
        _bound_work(n * n * (d + 1) + 2 * B * B * B.bit_length() + self.count * n * d * coordinate)
        if not coprime(self.f, self.g):
            raise DomainError("f and g must be coprime")


@dataclass(frozen=True)
class SampleRow:
    index: int
    u: tuple[Fraction, ...]
    h_sum: LogReal
    lhs_outside: LogReal
    lhs_within: LogReal
    lhs_total: LogReal
    main_ok: bool
    spart_ok: bool | None     # None when f and g both vanish at the origin
    combined_ok: bool | None  # likewise
    note: str = ""


@dataclass
class PolyGcdReport:
    config: SampleConfig
    constants: object
    spart_degree: int | None
    rows: list[SampleRow]
    degenerate: list[tuple[int, tuple[Fraction, ...], str]]
    sampler_failures: int
    violations: list[SampleRow]


def _sqrt_scaled_cmp(lhs: LogReal, coeff: Fraction, delta: Fraction,
                     H: LogReal) -> int:
    """Certified sign of lhs - coeff * sqrt(delta) * H for coeff > 0.  With
    sqrt(delta) irrational the float filter enclosure_sign comes first, on
    lhs and H scaled by k = coeff * sqrt(delta) in floating point; k is off
    by a few ulps, far below the filter's error budget, as long as delta is
    a normal float (enclosure_sign checks k).  The value vanishes only when
    lhs and H both do (linear independence of logarithms), so past the
    filter the interval ladder runs only on nonzero values."""
    root = sqrt_fraction_exact(delta)
    if root is not None:
        return (lhs - (coeff * root) * H).sign()
    try:
        df = delta.numerator / delta.denominator
        k = coeff.numerator / coeff.denominator * sqrt(df)
    except OverflowError:
        df = k = 0.0   # no float scale: the exact path decides
    if df >= float_info.min:
        s = enclosure_sign(((1.0, lhs.float_enclosure()), (-k, H.float_enclosure())))
        if s:
            return s
    if lhs.is_zero and H.is_zero:
        return 0

    def fn():
        import mpmath

        iv = mpmath.iv
        return lhs.interval() - fraction_interval(coeff) * iv.sqrt(
            fraction_interval(delta)
        ) * H.interval()

    return escalating_sign(fn)


SAMPLE_RETRIES = 200


def perturbation_choices(S: PlaceSet, pert_bound: int) -> list[Fraction]:
    """The rationals a/b for 1 <= a, b <= pert_bound, a-major and with
    repeats, whose reduced numerator and denominator no prime of S divides:
    the perturbations sample_almost_unit_point draws from."""
    primes = S.finite_primes
    return [
        q
        for q in (
            Fraction(a, b)
            for a in range(1, pert_bound + 1)
            for b in range(1, pert_bound + 1)
        )
        if all(q.numerator % p and q.denominator % p for p in primes)
    ]


def sample_almost_unit_point(rng, nvars: int, S: PlaceSet, delta: Fraction,
                             exp_bound: int, pert_choices: list[Fraction]):
    """An exact member of the almost-(S, delta) class: signed S-unit core
    times a perturbation drawn from pert_choices (perturbation_choices),
    rejection-filtered by the exact predicate.  None if the filter passed
    none of SAMPLE_RETRIES draws."""
    primes = S.finite_primes
    cfg = AlmostUnitConfig(S, delta)
    for _ in range(SAMPLE_RETRIES):
        coords = []
        for _ in range(nvars):
            val = Fraction(1)
            for p in primes:
                val *= Fraction(p) ** rng.randint(-exp_bound, exp_bound)
            if rng.random() < 0.5:
                val = -val
            if pert_choices:
                val *= rng.choice(pert_choices)
            coords.append(val)
        u = TorusPoint(coords)
        if is_almost_unit(u, cfg):
            return u
    return None


def run_poly_gcd_experiment(cfg: SampleConfig, seed: int = 0) -> PolyGcdReport:
    import random

    rng = random.Random(seed)
    n = cfg.f.nvars
    d1, d2 = cfg.f.degree(), cfg.g.degree()
    consts = inequality_constants(n, d1, d2, cfg.delta)
    # the S-part bound needs a polynomial that does not vanish at the origin
    spart_poly = None
    for cand in sorted((cfg.f, cfg.g), key=lambda p: p.degree()):
        if not cand.vanishes_at_origin():
            spart_poly = cand
            break
    spart_degree = spart_poly.degree() if spart_poly is not None else None

    rows: list[SampleRow] = []
    degenerate = []
    violations = []
    failures = 0
    pert_choices = perturbation_choices(cfg.S, cfg.perturbation_bound)
    for idx in range(cfg.count):
        u = sample_almost_unit_point(
            rng, n, cfg.S, cfg.delta, cfg.generator_exponent_bound, pert_choices,
        )
        if u is None:
            failures += 1
            continue
        fv, gv = cfg.f.eval(u.coords), cfg.g.eval(u.coords)
        if fv == 0 or gv == 0:
            degenerate.append(
                (idx, u.coords, "f(u)=0" if fv == 0 else "g(u)=0")
            )
            continue
        H = standard_height(u)
        lhs_out = log_gcd_outside(fv, gv, cfg.S)
        lhs_in = log_gcd_within(fv, gv, cfg.S)
        lhs_tot = log_gcd(fv, gv)
        main_ok = _sqrt_scaled_cmp(lhs_out, Fraction(consts.C_main), cfg.delta, H) < 0
        if spart_poly is not None:
            spart_rhs = Fraction(4 * n * spart_degree) * cfg.delta * H
            # sum over v in S of log^+(1/|x|_v) = log gcd_S(x, 0)
            lhs_single = log_gcd_within(fv if spart_poly is cfg.f else gv, 0, cfg.S)
            spart_ok = (spart_rhs - lhs_single).sign() > 0
            combined_ok = _sqrt_scaled_cmp(
                lhs_tot, Fraction(consts.C_combined), cfg.delta, H
            ) < 0
        else:
            spart_ok = combined_ok = None
        row = SampleRow(
            idx, u.coords, H, lhs_out, lhs_in, lhs_tot, main_ok, spart_ok, combined_ok
        )
        rows.append(row)
        if main_ok is False or spart_ok is False or combined_ok is False:
            violations.append(row)
    return PolyGcdReport(
        cfg, consts, spart_degree, rows, degenerate, failures, violations
    )


POLY_GCD_CSV_HEADER = (
    "index", "u", "h_sum", "lhs_outside", "rhs_main", "lhs_within",
    "rhs_spart", "lhs_total", "rhs_combined", "main_ok", "spart_ok",
    "combined_ok", "note",
)


def poly_gcd_csv_rows(report: PolyGcdReport):
    import mpmath

    cfg = report.config
    consts = report.constants
    with mpmath.workdps(CSV_DIGITS + 10):
        sqrt_delta = mpmath.sqrt(
            mpmath.mpf(cfg.delta.numerator) / cfg.delta.denominator
        )
        for r in report.rows:
            h = mpmath.mpf(r.h_sum.decimal(CSV_DIGITS + 5))
            rhs_main = mpmath.nstr(consts.C_main * sqrt_delta * h, CSV_DIGITS)
            rhs_comb = mpmath.nstr(consts.C_combined * sqrt_delta * h, CSV_DIGITS)
            if report.spart_degree is not None:
                rhs_spart = mpmath.nstr(
                    4 * cfg.f.nvars * report.spart_degree
                    * mpmath.mpf(cfg.delta.numerator) / cfg.delta.denominator * h,
                    CSV_DIGITS,
                )
            else:
                rhs_spart = ""
            yield (
                r.index,
                "(" + ", ".join(format_rational(c) for c in r.u) + ")",
                r.h_sum.decimal(CSV_DIGITS),
                r.lhs_outside.decimal(CSV_DIGITS),
                rhs_main,
                r.lhs_within.decimal(CSV_DIGITS),
                rhs_spart,
                r.lhs_total.decimal(CSV_DIGITS),
                rhs_comb,
                _tri(r.main_ok), _tri(r.spart_ok), _tri(r.combined_ok),
                r.note,
            )


def _tri(x):
    return "" if x is None else int(x)


# ---------------------------------------------------------------------
# the prime-power coincidence family
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class PkRow:
    k: int
    m: int
    n: int
    value_equal: bool      # F(m) == G(n) exactly
    lhs: LogReal
    threshold: Fraction
    flagged: bool
    in_tube: bool          # |m - n| <= 2 log2 max(m, n), exactly


@dataclass
class PkReport:
    p: int
    epsilon: Fraction
    rows: list[PkRow]
    max_collinear: int     # largest number of the pairs on a single line
    kappa_hat: float       # observed max |m-n| / log max(m,n)


def pk_sequences(p: int) -> tuple[PowerSum, PowerSum]:
    """F(m) = m p^m + 1 and G(n) = p^n + 1."""
    F = PowerSum.of(([0, 1], p), ([1], 1))
    G = PowerSum.of(([1], p), ([1], 1))
    return F, G


def run_example_pk(p: int = 2, epsilon: Fraction = Fraction(3, 5),
                   kmax: int = 10) -> PkReport:
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if kmax < 1:
        raise DomainError("kmax must be at least 1")
    epsilon = Fraction(epsilon)
    if LogReal({p: Fraction(1)}).cmp(epsilon) <= 0:
        raise DomainError("epsilon must be smaller than log p")
    # F(p^k) and G(p^k + k) have about p^k log2 p bits, so all k <= kmax
    # about 4 p^kmax log2 p; p >= 2, so p^k is past MAX_BITS by
    # k = MAX_BITS.bit_length() and no larger power is formed
    k = min(kmax, MAX_BITS.bit_length())
    _bound_work(ceil(4 * p**k * Fraction(log2(p))))
    F, G = pk_sequences(p)
    rows = []
    points = []
    kappa_hat = 0.0
    for k in range(1, kmax + 1):
        m = p**k
        n = p**k + k
        fv, gv = F.eval(m), G.eval(n)
        lhs = log_gcd(fv, gv)
        threshold = epsilon * n
        flagged = lhs.cmp(threshold) > 0
        # |m - n| = k <= 2 log2 max = exact integer check 2^k <= max^2
        in_tube = 2 ** abs(m - n) <= max(m, n) ** 2
        rows.append(PkRow(k, m, n, fv == gv, lhs, threshold, flagged, in_tube))
        points.append((m, n))
        kappa_hat = max(kappa_hat, k / log(n))
    max_col = _max_collinear(points)
    return PkReport(p, epsilon, rows, max_col, kappa_hat)


EXAMPLE_PK_CSV_HEADER = (
    "k", "m", "n", "value_equal", "lhs_decimal", "threshold_decimal",
    "flagged", "in_tube",
)


def example_pk_csv_rows(report: PkReport):
    for r in report.rows:
        yield (
            r.k, r.m, r.n, int(r.value_equal), r.lhs.decimal(CSV_DIGITS),
            f"{float(r.threshold):.6f}", int(r.flagged), int(r.in_tube),
        )


def _max_collinear(points: list[tuple[int, int]]) -> int:
    if len(points) < 3:
        return len(points)
    best = 2
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            (x1, y1), (x2, y2) = points[i], points[j]
            count = 2
            for k2 in range(j + 1, len(points)):
                x3, y3 = points[k2]
                if (x2 - x1) * (y3 - y1) == (y2 - y1) * (x3 - x1):
                    count += 1
            best = max(best, count)
    return best


# ---------------------------------------------------------------------
# sharpness of the linear delta dependence
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class SharpnessRow:
    m: int
    n: int
    h_P: LogReal
    h_sbar_P: LogReal
    lhs: LogReal           # generalized log gcd of (x+1, u(x+1))
    bound_ok: bool         # lhs >= delta/2 * h(P)
    ratio: float           # lhs / (delta * h(P)), lands in [1/2, 1]


@dataclass
class SharpnessReport:
    p: int
    delta: Fraction
    rows: list[SharpnessRow]
    skipped: list[tuple[int, str]]


def sharpness_window_holds(p: int, m: int, n: int, delta: Fraction):
    """Exact check of delta/2 * h(P) <= h_sbar(P) <= delta * h(P) for
    P = (p^m, p^n (p^m + 1)) with S = {oo, p}: (lower, upper, P, h(P),
    h_sbar(P)), where lower and upper tell whether each inequality holds."""
    S = PlaceSet.of(p)
    x = Fraction(p) ** m
    P = TorusPoint([x, Fraction(p) ** n * (x + 1)])
    hP = torus_height(P)
    hbar = h_sbar(P, S)
    upper = (Fraction(delta) * hP - hbar).sign() >= 0
    lower = (hbar - Fraction(delta) / 2 * hP).sign() >= 0
    return lower, upper, P, hP, hbar


SHARPNESS_N_CAP = 10_000  # the window walk in n gives up past this
# Checked before the walk: the bits of the rows' points, trials times the
# (|m| + n) log2 p bits of a coordinate at the m farthest from 0, with n
# about |m| (1 - delta) / delta.  A point's cost grows about quadratically
# in its bits; at the bound one trial at p = 3 takes about 2 s on a 2-core
# Xeon.
SHARPNESS_MAX_BITS = 1 << 18


def run_sharpness(p: int = 2, delta: Fraction = Fraction(1, 5), trials: int = 10,
                  m_start: int = 4) -> SharpnessReport:
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    delta = Fraction(delta)
    if not 0 < delta < 1:
        raise DomainError("delta must lie in (0, 1)")
    if trials < 1:
        raise DomainError("trials must be at least 1")
    m_far = max(abs(m_start), abs(m_start + trials - 1))
    _refuse_past(ceil(trials * m_far * Fraction(log2(p)) / delta), SHARPNESS_MAX_BITS,
                 "bits of points")
    S = PlaceSet.of(p)
    rows: list[SharpnessRow] = []
    skipped: list[tuple[int, str]] = []
    m = m_start
    while len(rows) < trials:
        # the window in n is roughly [|m| (1-delta)/delta, |m| (2-delta)/delta]
        # (for m < 0, h(P) = n log p + L and h_sbar(P) = L with
        # L = log(1 + p^|m|) > |m| log p); walk n upward from below with the
        # exact predicate
        n = max(1, int(abs(m) * (1 - delta) / delta) - 2)
        if n > SHARPNESS_N_CAP:
            # for m >= 0 the start grows with m, so no later m has a window
            # below the cap; a walk that starts this far out is refused
            raise DomainError(f"the window for m = {m} starts past n = {SHARPNESS_N_CAP}")
        found = None
        while n <= SHARPNESS_N_CAP:
            lower, upper, P, hP, hbar = sharpness_window_holds(p, m, n, delta)
            if lower and upper:
                found = (n, P, hP, hbar)
                break
            # past the upper end of the window: h_sbar < delta/2 h(P)
            if not lower:
                break
            n += 1
        if found is None:
            skipped.append((m, "window unsatisfiable"))
            m += 1
            continue
        n, P, hP, hbar = found
        fv = P.coords[0] + 1
        gv = P.coords[1]
        lhs = log_gcd(fv, gv)
        bound_ok = (lhs - delta / 2 * hP).sign() >= 0
        denom = (delta * hP).to_float()
        rows.append(
            SharpnessRow(m, n, hP, hbar, lhs, bound_ok,
                         lhs.to_float() / denom if denom else float("nan"))
        )
        m += 1
    return SharpnessReport(p, delta, rows, skipped)


SHARPNESS_CSV_HEADER = (
    "m", "n", "h_decimal", "h_sbar_decimal", "lhs_decimal", "bound_ok", "ratio",
)


def sharpness_csv_rows(report: SharpnessReport):
    for r in report.rows:
        yield (
            r.m, r.n, r.h_P.decimal(CSV_DIGITS), r.h_sbar_P.decimal(CSV_DIGITS),
            r.lhs.decimal(CSV_DIGITS), int(r.bound_ok), f"{r.ratio:.6f}",
        )


# ---------------------------------------------------------------------
# single-place decay scan
# ---------------------------------------------------------------------

@dataclass
class Rec1Report:
    place: Place
    epsilon: Fraction
    N: int
    violators: list[int]
    max_violator: int | None
    zero_indices: list[int]


def run_rec1_scan(F: PowerSum, place: Place = Place.archimedean(),
                  epsilon: Fraction = Fraction(1, 10), N: int = 500) -> Rec1Report:
    """All n <= N with -log|F(n)|_v >= epsilon * n at v = ``place`` (the
    decay inequality violators); the hypothesis needs some root with
    |root|_v >= 1 and a nondegenerate F."""
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    if N < 0:
        raise DomainError("N must be at least 0")
    if F.is_degenerate():
        raise DomainError("degenerate recurrence")
    if F.is_zero:
        raise DomainError("zero recurrence")
    _bound_work((N + 1) * F.value_bits(N))
    if place.is_archimedean:
        if not any(abs(r) >= 1 for r in F.roots):
            raise DomainError("every root is small at the archimedean place")
    else:
        if not any(valuation(r, place.prime) <= 0 for r in F.roots):
            raise DomainError(f"every root is small at {place}")
    # log p < bits(p) ln 2 < bits(p) LN2_UPPER
    log_p_upper = None if place.is_archimedean else place.prime.bit_length() * LN2_UPPER
    violators = []
    zeros = []
    for n, val in enumerate(F.values(N)):
        if val == 0:
            zeros.append(n)
            continue
        threshold = epsilon * n
        # for n >= 1 the threshold is positive: a row whose -log|F(n)|_v is
        # at most 0, or provably below it, is no violator and needs no LogReal
        if place.is_archimedean:
            if n >= 1 and abs(val) >= 1:
                continue
            neg_log = -LogReal.log_of_fraction(val)
        else:
            w = valuation(val, place.prime)
            if n >= 1 and w * log_p_upper < threshold:
                continue
            neg_log = LogReal({place.prime: Fraction(w)})
        if neg_log.cmp(threshold) >= 0:
            violators.append(n)
    return Rec1Report(place, epsilon, N, violators,
                      max(violators) if violators else None, zeros)


REC1_CSV_HEADER = ("violator_n",)


def rec1_csv_rows(report: Rec1Report):
    return [(n,) for n in report.violators]


# ---------------------------------------------------------------------
# combinatorial self-verification sweep
# ---------------------------------------------------------------------

FORM_MAX_TERMS = 4
COPRIME_TRIES = 200


def random_form(rng, nvars: int, degree: int) -> MultiPoly:
    """Sparse random homogeneous form with 2 to FORM_MAX_TERMS terms and
    small nonzero integer coefficients."""
    monos = _monomial_table(nvars, degree)[0]
    count = min(len(monos), rng.randint(2, FORM_MAX_TERMS))
    chosen = rng.sample(monos, count)
    terms = {}
    for e in chosen:
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        terms[e] = Fraction(c)
    return MultiPoly(nvars, terms)


def random_coprime_forms(rng, nvars: int, d1: int,
                         d2: int) -> tuple[MultiPoly, MultiPoly]:
    for _ in range(COPRIME_TRIES):
        F1 = random_form(rng, nvars, d1)
        F2 = random_form(rng, nvars, d2)
        if coprime(F1, F2):
            return F1, F2
    raise RuntimeError("could not sample a coprime pair")


def _random_affine(rng, degree: int) -> MultiPoly:
    """Random polynomial of degree <= degree in 2 variables with 2 to 4
    terms at distinct monomials and coefficients in {-2, -1, 1, 2}; never
    constant, as at most one of its terms is."""
    monos = monomials_upto(2, degree)
    terms = {}
    for e in rng.sample(monos, min(len(monos), rng.randint(2, 4))):
        terms[e] = Fraction(rng.choice([-2, -1, 1, 2]))
    return MultiPoly(2, terms)


@dataclass
class VerifyCheck:
    name: str
    instances: int
    failures: int

    @property
    def ok(self) -> bool:
        return self.failures == 0


HILBERT_PAIRS_PER_CELL = 5
GREEDY_INSTANCES = 50


def run_hilbert_verify(seed: int = 0) -> list[VerifyCheck]:
    """The combinatorial oracle sweep: enumeration vs closed form for the
    multi-index sum, quotient dimension formula vs brute-force rank (with
    order-sum bounds on a quotient monomial basis), and greedy dominance on
    random truncated ideals."""
    import random

    rng = random.Random(seed)
    checks = []

    count = fail = 0
    for nn in range(1, 6):
        for mm in range(1, 11):
            count += 1
            if multiindex_sum(nn, mm) != multiindex_sum_closed_form(nn, mm):
                fail += 1
    checks.append(VerifyCheck("multiindex-sum identity (n<=5, m<=10)", count, fail))

    count = fail = 0
    for n in (1, 2, 3):
        for d1 in (1, 2, 3):
            for d2 in (1, 2, 3):
                for _ in range(HILBERT_PAIRS_PER_CELL):
                    F1, F2 = random_coprime_forms(rng, n + 1, d1, d2)
                    levels = range(d1 + d2 + 4)
                    for l, rank in zip(levels, graded_ideal_ranks(F1, F2, levels)):
                        count += 1
                        if dim_quotient_formula(n, l, d1, d2) != _monomial_count(n + 1, l) - rank:
                            fail += 1
    checks.append(
        VerifyCheck("quotient dimension formula vs brute-force rank", count, fail)
    )

    count = fail = 0
    for n in (2, 3):
        for d1 in (1, 2):
            for d2 in (1, 2):
                F1, F2 = random_coprime_forms(rng, n + 1, d1, d2)
                m = d1 + d2 + 1
                B = quotient_monomial_basis(F1, F2, m)
                for i in range(n + 1):
                    count += 1
                    if not ord_sum_check(B, i, d1, d2, m, n):
                        fail += 1
    checks.append(VerifyCheck("order-sum bound on quotient bases", count, fail))

    count = fail = 0
    places = [Place.archimedean(), Place.finite(2), Place.finite(3)]
    made = 0
    while made < GREEDY_INSTANCES:
        d1, d2 = rng.randint(1, 2), rng.randint(1, 2)
        f, g = _random_affine(rng, d1), _random_affine(rng, d2)
        if not coprime(f, g):
            continue
        m = rng.randint(max(f.degree(), g.degree()), 5)
        u = TorusPoint(
            [
                Fraction(rng.choice([-1, 1]))
                * Fraction(2) ** rng.randint(-5, 5)
                * Fraction(3) ** rng.randint(-5, 5)
                for _ in range(2)
            ]
        )
        v = rng.choice(places)
        T = truncated_ideal(f, g, m)
        if T.Nprime == 0:
            continue
        gb = greedy_monomial_basis(T, u, v)
        made += 1
        count += 1
        if greedy_dominance_violations(gb):
            fail += 1
    checks.append(VerifyCheck("greedy dominance (random instances)", count, fail))
    return checks


HILBERT_CSV_HEADER = ("check", "instances", "failures")


def hilbert_csv_rows(checks: list[VerifyCheck]):
    return [(c.name, c.instances, c.failures) for c in checks]


# ---------------------------------------------------------------------
# unit equation enumeration
# ---------------------------------------------------------------------

@dataclass
class UnitEquationReport:
    S: PlaceSet
    n: int
    bound: int
    solutions: list[tuple[Fraction, ...]]           # no vanishing proper subsum
    degenerate: list[tuple[Fraction, ...]]          # some proper subsum vanishes
    truncated: bool
    coordinate_frequency: Counter


def _proper_subsum_vanishes(x: tuple[int, ...]) -> bool:
    """Whether some nonempty proper subset of x, whose total is not 0, sums
    to 0: the sums of the nonempty subsets of x[:i], built one entry at a
    time, hold 0 only for a proper subset."""
    sums: set[int] = set()
    for v in x:
        sums |= {s + v for s in sums}
        sums.add(v)
        if 0 in sums:
            return True
    return False


# Checked before the box is built: the estimated word operations of a run,
# box values plus, for each tuple, n + 1 additions and, should it be a
# solution, up to 2^(n+1) subsums, times the words of a value.  At the
# default budget on a 2-core Xeon, n = 4 (3.9e6) takes about 0.3 s and
# n = 5 (1.3e8), which is refused, took 6 s.
UNIT_EQ_MAX_WORK = 1 << 25


def solve_unit_equation(S: PlaceSet = PlaceSet.of(2, 3), n: int = 1, bound: int = 1,
                        budget: int = 2_000_000) -> UnitEquationReport:
    """Exhaustive tuples (x_0, ..., x_n) of S-units from the exponent box
    with x_0 + ... + x_n = 1; tuples with a vanishing proper subsum are
    listed separately.  Hitting the budget yields a truncated report.

    Scaled by D = prod p^bound, the box holds the ints +-prod p^k with
    0 <= k <= 2 bound, and the equation reads x_0 + ... + x_n = D in ints."""
    if n < 1 or bound < 1:
        raise DomainError("need n >= 1 and bound >= 1")
    if budget < 1:
        raise DomainError("budget must be at least 1")
    primes = S.finite_primes
    size = 2 * (2 * bound + 1) ** len(primes)
    # size >= 2, so size ** n > budget once n >= budget.bit_length()
    truncated = n >= budget.bit_length() or size ** n > budget
    tuples = budget if truncated else size ** n
    words = 1 + 2 * bound * sum(p.bit_length() for p in primes) // 64
    work = (size + tuples * (n + 1 + 2 ** min(n + 1, 64))) * words
    _refuse_past(work, UNIT_EQ_MAX_WORK, "word operations")
    D = 1
    box = [1]
    for p in primes:
        D *= p ** bound
        box = [v * p ** k for v in box for k in range(2 * bound + 1)]
    values = sorted([*box, *(-v for v in box)])
    value_set = set(values)
    solutions, degenerate = [], []
    for head in itertools.islice(itertools.product(values, repeat=n), tuples):
        last = D - sum(head)
        if last in value_set:
            x = (*head, last)
            (degenerate if _proper_subsum_vanishes(x) else solutions).append(x)
    solutions, degenerate = ([tuple(Fraction(v, D) for v in x) for x in sorted(xs)]
                             for xs in (solutions, degenerate))
    return UnitEquationReport(S, n, bound, solutions, degenerate, truncated,
                              Counter(c for x in solutions for c in x))


def unit_eq_csv_header(report: UnitEquationReport) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(report.n + 1)) + ("degenerate",)


def unit_eq_csv_rows(report: UnitEquationReport):
    return [tuple(map(format_rational, x)) + (flag,)
            for flag, xs in (("0", report.solutions), ("1", report.degenerate)) for x in xs]
