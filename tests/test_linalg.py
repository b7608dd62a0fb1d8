"""Exact rank and span membership against sympy's rank over QQ."""

import random
from fractions import Fraction

import pytest

from gcdlab.linalg import LinearSpan, _accumulate, int_rank, rational_rank

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


def _dense(row, ncols):
    out = [0] * ncols
    for j, x in row.items():
        out[j] = x
    return out


def _sympy_sparse_rank(rows, ncols):
    """sympy's rank over QQ of {column: value} rows, by its sparse domain
    matrices (Matrix.rank is slow on wide matrices)."""
    from sympy.polys.matrices import DomainMatrix

    QQ = sympy.QQ
    # the sparse format holds no empty rows
    entries = {
        i: {j: QQ(x.numerator, x.denominator) for j, x in r.items() if x}
        for i, r in enumerate(rows)
        if any(r.values())
    }
    return DomainMatrix(entries, (len(rows), ncols), QQ).rank()


def test_sparse_wide_span_matches_sympy():
    """Wide matrices at most 5% nonzero, given as {column: value} rows whose
    pivots arrive out of column order, with int and Fraction entries and a
    unit tag per row."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    entry = st.one_of(
        st.integers(-9, 9).filter(bool),
        st.fractions(-6, 6, max_denominator=5).filter(bool),
    )

    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.data())
    def check(data):
        ncols = data.draw(st.integers(120, 200))

        def sparse_row(size):
            cols = data.draw(st.lists(st.integers(0, ncols - 1), min_size=1,
                                      max_size=size, unique=True))
            return {j: data.draw(entry) for j in cols}

        base = [sparse_row(3) for _ in range(data.draw(st.integers(1, 8)))]
        rows = list(base)
        # combinations of two base rows (at most 6 <= 5% of ncols nonzero)
        # make rank deficiency common
        for _ in range(data.draw(st.integers(0, 4))):
            r1, r2 = data.draw(st.sampled_from(base)), data.draw(st.sampled_from(base))
            a, b = data.draw(entry), data.draw(entry)
            combo = {j: a * r1.get(j, 0) + b * r2.get(j, 0) for j in set(r1) | set(r2)}
            rows.append({j: x for j, x in combo.items() if x})
        rows = data.draw(st.permutations(rows))
        # the row that starts furthest right comes first, so that a later
        # row takes a smaller pivot
        first = max(range(len(rows)), key=lambda i: min(rows[i], default=-1))
        rows.insert(0, rows.pop(first))
        dense = [_dense(r, ncols) for r in rows]

        span = LinearSpan(ncols, ntags=len(rows))
        added = sum(span.add(r, {i: 1} if i % 2 else _dense({i: 1}, len(rows)))
                    for i, r in enumerate(rows))
        rank = _sympy_sparse_rank(rows, ncols)
        assert span.rank == added == rank == rational_rank(rows) == int_rank(dense)
        for p, row in span.rows.items():
            assert min(row) == p and row[p] > 0
            assert all(type(x) is int for x in row.values())

        def combination(coefficients):
            out = {}
            for c, r in zip(coefficients, rows):
                for j, x in r.items():
                    out[j] = out.get(j, 0) + c * x
            return {j: x for j, x in out.items() if x}

        inside = combination([data.draw(entry) for _ in rows])
        for v in (inside, sparse_row(6)):
            v_dense = _dense(v, ncols)
            residual, tag = span.reduce(v_dense)
            assert span.reduce(v) == (residual, tag)
            assert all(residual[p] == 0 for p in span.rows)
            in_span = _sympy_sparse_rank(rows + [v], ncols) == rank
            assert span.contains(v) == span.contains(v_dense) == in_span
            assert (not any(residual)) == in_span
            combo = combination(tag)
            assert all(v_dense[j] - residual[j] == -combo.get(j, 0) for j in range(ncols))

    check()


def test_int_dict_fraction_and_dense_entry_agree():
    """The same vectors and tags given as dicts of nonzero ints (taken as
    they are), as dicts of Fractions and as dense lists give the same rows,
    rank, membership, residual and tag."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.data())
    def check(data):
        ncols = data.draw(st.integers(1, 10))
        vector = st.dictionaries(st.integers(0, ncols - 1), st.integers(-6, 6).filter(bool),
                                 max_size=4)
        base = data.draw(st.lists(vector, min_size=1, max_size=6))
        # repeats and sums of earlier rows make rank deficiency common
        rows = base + [{j: r1.get(j, 0) + r2.get(j, 0) for j in set(r1) | set(r2)
                        if r1.get(j, 0) + r2.get(j, 0)}
                       for r1, r2 in data.draw(st.lists(st.tuples(st.sampled_from(base),
                                                                  st.sampled_from(base)),
                                                        max_size=3))]
        ntags = len(rows)

        def as_int(v, n):
            return dict(v)

        def as_fraction(v, n):
            return {j: Fraction(x) for j, x in v.items()}

        spans = {form: LinearSpan(ncols, ntags) for form in (as_int, as_fraction, _dense)}
        for i, r in enumerate(rows):
            added = {span.add(form(r, ncols), form({i: 1}, ntags))
                     for form, span in spans.items()}
            assert len(added) == 1
        by_int = spans[as_int]
        assert all(span.rows == by_int.rows for span in spans.values())
        assert all(type(x) is int for row in by_int.rows.values() for x in row.values())
        probes = [data.draw(vector), rows[-1], {}]
        for v in probes:
            results = {(span.rank, span.contains(form(v, ncols)),
                        tuple(map(tuple, span.reduce(form(v, ncols)))))
                       for span in spans.values() for form in spans}
            assert len(results) == 1

    check()


def test_accumulate_drops_zeros_and_keeps_first_seen_order():
    pairs = [("b", 2), ("a", Fraction(1, 2)), ("z", 0), ("b", -2), ("c", 3),
             ("a", Fraction(1, 2)), ("b", 5), ((1, 0), 1), ((1, 0), -1)]
    out = _accumulate(pairs)
    # b cancels to zero and is dropped, so its later 5 comes after c
    assert list(out.items()) == [("a", 1), ("c", 3), ("b", 5)]
    assert _accumulate([]) == {} and _accumulate([(7, 0), (7, 0)]) == {}
    assert _accumulate([(2, Fraction(1, 3)), (2, Fraction(-1, 3))]) == {}
