"""Reference answers computed without the gcdlab layer under test.

* scan: integer gcds of the closed forms F(m) = m p^m + 1, G(n) = p^n + 1
  over the whole grid with ``math.gcd``, logs compared in a private 256-bit
  mpmath context (the program uses gengcd, LogReal and mpmath intervals);
* rank: plain Fraction Gaussian elimination of the degree-l multiples of two
  forms (the program uses linalg.int_rank);
* unit equation: direct enumeration with trial division by the S-primes
  (the program enumerates a product and filters by set membership);
* sharpness: closed forms of the heights of P = (p^m, p^n (p^m + 1)) with
  S = {oo, p}, which need no factorization."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import mpmath

_CTX = mpmath.MPContext()
_CTX.prec = 256
_MARGIN = _CTX.mpf(2) ** -200


def pk_values(p: int, N: int) -> tuple[list[int], list[int]]:
    """F(m) = m p^m + 1 and G(n) = p^n + 1 for 1..N (index 0 unused)."""
    F = [0] + [m * p**m + 1 for m in range(1, N + 1)]
    G = [0] + [p**n + 1 for n in range(1, N + 1)]
    return F, G


def gcd_exceeds(a: int, b: int, epsilon: Fraction, extent: int) -> bool:
    """Whether log gcd(a, b) exceeds epsilon * extent; raises if 256 bits
    cannot separate the two sides."""
    diff = _CTX.log(math.gcd(a, b)) - _CTX.mpf(epsilon.numerator) * extent / epsilon.denominator
    if abs(diff) < _MARGIN:
        raise ArithmeticError("256-bit oracle cannot separate the comparison")
    return diff > 0


def pk_flagged(p: int, epsilon: Fraction, N: int) -> set[tuple[int, int]]:
    """All (m, n) in the N x N grid with log gcd(F(m), G(n)) > epsilon *
    max(m, n).  The roots 1 and p leave S empty, so no prime is stripped.
    Since log g < bit_length(g) * 6932/10000 (an upper bound of ln 2),
    most pairs are settled by integers alone."""
    F, G = pk_values(p, N)
    num, den = epsilon.numerator * 10000, epsilon.denominator * 6932
    flagged = set()
    for m in range(1, N + 1):
        for n in range(1, N + 1):
            extent = max(m, n)
            bits = math.gcd(F[m], G[n]).bit_length()
            if bits * den > num * extent and gcd_exceeds(F[m], G[n], epsilon, extent):
                flagged.add((m, n))
    return flagged


def in_log_tube(m: int, n: int) -> bool:
    """|m - n| <= 2 log2 max(m, n), as the exact test 2^|m-n| <= max^2."""
    return 2 ** abs(m - n) <= max(m, n) ** 2


def _monomials(nvars: int, degree: int) -> list[tuple[int, ...]]:
    out = []
    for combo in itertools.combinations_with_replacement(range(nvars), degree):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return out


def graded_rank(forms, nvars: int, degree: int) -> int:
    """Rank of the degree-``degree`` multiples of the given forms (each a
    dict exponent -> coefficient), by Fraction elimination."""
    cols = {e: j for j, e in enumerate(_monomials(nvars, degree))}
    rows = []
    for terms in forms:
        d = sum(next(iter(terms)))
        if degree < d:
            continue
        for a in _monomials(nvars, degree - d):
            row = [Fraction(0)] * len(cols)
            for e, c in terms.items():
                row[cols[tuple(x + y for x, y in zip(a, e))]] = Fraction(c)
            rows.append(row)
    rank = 0
    for col in range(len(cols)):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            if f:
                f /= prow[col]
                rows[i] = [x - f * y for x, y in zip(rows[i], prow)]
        rank += 1
    return rank


def unit_equation_solutions(primes, bound: int) -> set[tuple[Fraction, Fraction]]:
    """All (x0, x1) with x0 + x1 = 1, both +-prod p^e over the primes with
    |e| <= bound."""

    def in_box(q: Fraction) -> bool:
        if q == 0:
            return False
        for part in (abs(q.numerator), q.denominator):
            for p in primes:
                e = 0
                while part % p == 0:
                    part //= p
                    e += 1
                if e > bound:
                    return False
            if part != 1:
                return False
        return True

    out = set()
    for exps in itertools.product(range(-bound, bound + 1), repeat=len(primes)):
        mag = Fraction(1)
        for p, e in zip(primes, exps):
            mag *= Fraction(p) ** e
        for x0 in (mag, -mag):
            if in_box(1 - x0):
                out.add((x0, 1 - x0))
    return out


def sharpness_row(p: int, delta: Fraction, m_start: int):
    """The first window-certified pair (m, n) of the sharpness construction
    with its values (h, h_sbar, lhs, ratio) as 256-bit numbers.  With
    P = (p^m, p^n (p^m + 1)) and S = {oo, p}: h(P) = n log p + log(p^m + 1),
    h_sbar(P) = log(p^m + 1) (the primes of p^m + 1 are the places outside
    S), and lhs = log gcd(p^m + 1, p^n (p^m + 1)) = log(p^m + 1)."""
    d = _CTX.mpf(delta.numerator) / delta.denominator
    logp = _CTX.log(p)
    m = m_start
    while True:
        L = _CTX.log(p**m + 1)
        n = max(1, int(m * (1 - delta) / delta) - 2)
        while n <= 10_000:
            h = n * logp + L
            if d / 2 * h <= L <= d * h:
                return m, n, h, L, L, L / (d * h)
            if L < d / 2 * h:
                break
            n += 1
        m += 1
