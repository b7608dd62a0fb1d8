"""Exact rank and span membership against sympy's rank over QQ."""

import random
from fractions import Fraction

import pytest

from gcdlab.linalg import LinearSpan, int_rank, rational_rank

sympy = pytest.importorskip("sympy")


def _sympy_rank(rows):
    return sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in r] for r in rows]
    ).rank()


def _random_matrix(rng, entry):
    """A nrows x ncols matrix (both up to 12) of rank at most k, built as a
    product so that rank deficiency is common."""
    nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
    k = rng.randint(0, min(nrows, ncols))
    A = [[entry(rng) for _ in range(k)] for _ in range(nrows)]
    B = [[entry(rng) for _ in range(ncols)] for _ in range(k)]
    rows = [
        [sum((A[i][t] * B[t][j] for t in range(k)), 0) for j in range(ncols)]
        for i in range(nrows)
    ]
    return rows, ncols


def _int_entry(rng):
    return rng.randint(-9, 9)


def _fraction_entry(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 5))


def test_int_rank_matches_sympy():
    rng = random.Random(2024)
    for _ in range(60):
        rows, _ = _random_matrix(rng, _int_entry)
        assert int_rank(rows) == _sympy_rank(rows)


def test_rational_rank_matches_sympy():
    rng = random.Random(2025)
    for _ in range(60):
        rows, _ = _random_matrix(rng, _fraction_entry)
        # zero entries arrive as plain 0, as in the ideal-matrix rows
        rows = [[x if x else 0 for x in r] for r in rows]
        assert rational_rank(rows) == _sympy_rank(rows)


def test_linear_span_agrees_with_rank():
    rng = random.Random(2026)
    for _ in range(40):
        rows, ncols = _random_matrix(rng, _fraction_entry)
        span = LinearSpan(ncols, ntags=len(rows))
        added = 0
        for i, r in enumerate(rows):
            tag = [Fraction(int(i == j)) for j in range(len(rows))]
            added += span.add(r, tag)
        rank = _sympy_rank(rows)
        assert span.rank == added == rank
        assert all(span.contains(r) for r in rows)
        for trial in range(6):
            # alternately a combination of the rows and a random vector
            if trial % 2:
                v = [_fraction_entry(rng) for _ in range(ncols)]
            else:
                cs = [_fraction_entry(rng) for _ in rows]
                v = [sum((c * r[j] for c, r in zip(cs, rows)), Fraction(0))
                     for j in range(ncols)]
            inside = _sympy_rank(rows + [v]) == rank
            assert span.contains(v) == inside
            residual, tag = span.reduce(v)
            assert (not any(residual)) == inside
            # v - residual is the combination of the input rows that the
            # tags recorded, with the sign of a subtraction
            for j in range(ncols):
                combo = sum((tag[i] * rows[i][j] for i in range(len(rows))), Fraction(0))
                assert v[j] - residual[j] == -combo
