"""Exact linear algebra over Q by one fraction-free elimination: an echelon
span of sparse integer rows with expression tracking (for quotient-space
work and the cofactor and exact division of poly_gcd), which also gives
the ranks of the brute-force dimension checks.  A row is one {column: int}
dict of its nonzero entries, so an elimination touches only those.  The step w <- a*w - c*row with content division is
Bareiss's integer-preserving elimination (Math. Comp. 22, 1968); no Fraction
is built inside it."""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Sequence

# a vector or tag: dense, or sparse as {index: value}
Vector = Sequence | Mapping


def _nonzero(vector: Vector, offset: int = 0) -> dict:
    """The nonzero entries of a dense or sparse vector, keyed by index + offset."""
    items = vector.items() if isinstance(vector, Mapping) else enumerate(vector)
    return {offset + j: x for j, x in items if x}


def _accumulate(pairs) -> dict:
    """Sum (key, coefficient) pairs into a term map without zeros, keys in
    first-seen order: the one sparse sum of polynomial terms, power-sum
    terms and log combinations."""
    out: dict = {}
    for e, c in pairs:
        if e in out:
            c += out[e]
            if not c:
                del out[e]
                continue
        elif not c:
            continue
        out[e] = c
    return out


def _int_entries(vector: Vector) -> bool:
    """Whether a vector is a dict of nonzero ints, to be taken as it is."""
    return type(vector) is dict and all(type(x) is int and x for x in vector.values())


class LinearSpan:
    """Row space in echelon form over Q with optional tag tracking.

    Each stored row is one sparse {column: int} dict, the vector at columns
    0..ncols-1 followed by its tag at ncols..ncols+ntags-1, scaled together
    to coprime integers with a positive pivot (its smallest vector column);
    rows are kept by pivot.  A stored row is zero before its pivot and is
    not reduced against later pivots: adding a vector clears pivots only
    until its leading column is not one.  Eliminations act on vector and
    tag alike, so a caller can attach meaning to tags (here: coordinates
    with respect to a chosen set of quotient monomials) and read exact
    expression coefficients back off reductions.  A reduction clears every
    pivot: its residual is the unique member of v + span that vanishes on
    every pivot, and the tag is a linear function on the independent rows
    added, so both depend only on the vectors added, not on the echelon
    rows kept.

    Vectors and tags may be given dense or as {index: value} mappings; a
    dict of nonzero ints skips the Fraction path."""

    def __init__(self, ncols: int, ntags: int = 0):
        self.ncols = ncols
        self.ntags = ntags
        self.rows: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _integral(self, vector: Vector, tag: Vector | None) -> tuple[dict[int, int], int]:
        """(w, s) with w / s the nonzero entries of the vector followed by
        the tag, w a fresh integral dict."""
        if _int_entries(vector) and (tag is None or _int_entries(tag)):
            w = dict(vector)
            if tag:
                w.update({self.ncols + j: x for j, x in tag.items()})
            return w, 1
        w = _nonzero(vector)
        if tag is not None:
            w.update(_nonzero(tag, self.ncols))
        s = lcm(*(x.denominator for x in w.values()))
        return {j: x.numerator * (s // x.denominator) for j, x in w.items()}, s

    def _reduce(self, w: dict[int, int], s: int, full: bool) -> tuple[dict[int, int], int]:
        """(w, s) with w / s the nonzero entries of the residual followed by
        the accumulated tag, w integral and gcd(s, *w.values()) == 1.  If
        full, every pivot column of w is cleared; otherwise only the leading
        column, until it is not a pivot.  A row is zero before its pivot, so
        clearing one fills in only later columns, and the pivots are cleared
        in increasing order."""
        rows = self.rows
        if full:
            todo = [j for j in w if j in rows]
            heapify(todo)
        while True:
            if full:
                if not todo:
                    break
                p = heappop(todo)
                c = w.get(p)
                if not c:
                    continue
            else:
                p = min(w, default=None)
                if p not in rows:
                    break
                c = w[p]
            row = rows[p]
            a = row[p]
            g = gcd(a, c)
            a, c = a // g, c // g
            if a != 1:
                w = {j: a * x for j, x in w.items()}
                s *= a
            for j, y in row.items():
                if j in w:
                    x = w[j] - c * y
                    if x:
                        w[j] = x
                    else:
                        del w[j]
                else:
                    w[j] = -c * y
                    if full and j in rows:
                        heappush(todo, j)
            if s != 1:
                g = gcd(s, *w.values())
                if g > 1:
                    w = {j: x // g for j, x in w.items()}
                    s //= g
        return w, s

    def reduce_sparse(self, vector: Vector, tag: Vector | None = None) -> tuple[dict[int, int], int]:
        """Residual of a vector against the span, with the accumulated tag,
        as (w, s): w / s holds the nonzero entries, residual columns first
        and then tag entry j at column ncols + j, w integral and coprime to
        s."""
        return self._reduce(*self._integral(vector, tag), full=True)

    def reduce(self, vector: Vector, tag: Vector | None = None):
        """reduce_sparse as dense lists of Fractions."""
        w, s = self.reduce_sparse(vector, tag)
        zero = Fraction(0)
        out = [zero] * (self.ncols + self.ntags)
        for j, x in w.items():
            out[j] = Fraction(x, s)
        return out[: self.ncols], out[self.ncols :]

    def contains(self, vector: Vector) -> bool:
        w, _ = self.reduce_sparse(vector)
        return min(w, default=self.ncols) >= self.ncols

    def add(self, vector: Vector, tag: Vector | None = None) -> bool:
        """Insert a vector; returns False if it was already in the span."""
        w, _ = self._reduce(*self._integral(vector, tag), full=False)
        pivot = min(w, default=self.ncols)
        if pivot >= self.ncols:
            return False
        g = gcd(*w.values())
        if w[pivot] < 0:
            g = -g
        self.rows[pivot] = w if g == 1 else {j: x // g for j, x in w.items()}
        return True


def int_rank(rows: list[Vector]) -> int:
    """Exact rank over Q of a matrix of ints (or Fractions), with rows dense
    or sparse as {column: value}."""
    if not rows:
        return 0
    if isinstance(rows[0], Mapping):
        ncols = 1 + max(max(row, default=-1) for row in rows)
    else:
        ncols = len(rows[0])
    span = LinearSpan(ncols)
    for row in rows:
        span.add(row)
    return span.rank


def rational_rank(rows: list[Vector]) -> int:
    """Exact rank of a matrix of ints and Fractions over Q (the span clears
    each row's denominators)."""
    return int_rank(rows)
