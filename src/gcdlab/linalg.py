"""Exact linear algebra over Q by one fraction-free elimination: an echelon
span of integer rows with expression tracking (for quotient-space work),
which also gives the ranks of the brute-force dimension checks.  The step
w <- a*w - c*row with content division is Bareiss's integer-preserving
elimination (Math. Comp. 22, 1968); no Fraction is built inside it."""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence


class LinearSpan:
    """Row space in echelon form over Q with optional tag tracking.

    Each stored row is one list of ints, the vector followed by its tag,
    scaled together to coprime integers with a positive pivot (its first
    nonzero vector entry).  Eliminations act on vector and tag alike, so a
    caller can attach meaning to tags (here: coordinates with respect to a
    chosen set of quotient monomials) and read exact expression
    coefficients back off reductions.  Older rows are not back-eliminated:
    the residual of a reduction is the unique member of v + span that
    vanishes on every pivot, and the tag is a linear function on the
    independent rows added, so both depend only on the vectors added, not
    on the echelon basis kept."""

    def __init__(self, ncols: int, ntags: int = 0):
        self.ncols = ncols
        self.ntags = ntags
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, vector: Sequence, tag: Sequence | None) -> tuple[list[int], int]:
        """(w, s) with w / s the residual followed by the accumulated tag,
        w integral and gcd(s, *w) == 1."""
        entries = list(vector) + (list(tag) if tag is not None else [0] * self.ntags)
        s = lcm(*(x.denominator for x in entries))
        w = [x.numerator * (s // x.denominator) for x in entries]
        for row, p in zip(self.rows, self.pivots):
            c = w[p]
            if not c:
                continue
            a = row[p]
            g = gcd(a, c)
            a, c = a // g, c // g
            w = [a * x - c * y for x, y in zip(w, row)]
            s *= a
            g = gcd(s, *w)
            if g > 1:
                w = [x // g for x in w]
                s //= g
        return w, s

    def reduce(self, vector: Sequence, tag: Sequence | None = None):
        """Residual of a vector against the span, with the accumulated tag."""
        w, s = self._reduce(vector, tag)
        out = [Fraction(x, s) for x in w]
        return out[: self.ncols], out[self.ncols :]

    def contains(self, vector: Sequence) -> bool:
        w, _ = self._reduce(vector, None)
        return not any(w[: self.ncols])

    def add(self, vector: Sequence, tag: Sequence | None = None) -> bool:
        """Insert a vector; returns False if it was already in the span."""
        w, _ = self._reduce(vector, tag)
        pivot = next((j for j in range(self.ncols) if w[j]), None)
        if pivot is None:
            return False
        g = gcd(*w)
        if w[pivot] < 0:
            g = -g
        at = bisect(self.pivots, pivot)
        self.rows.insert(at, [x // g for x in w])
        self.pivots.insert(at, pivot)
        return True


def int_rank(rows: list[list]) -> int:
    """Exact rank over Q of a matrix of ints (or Fractions)."""
    if not rows:
        return 0
    span = LinearSpan(len(rows[0]))
    for row in rows:
        span.add(row)
    return span.rank


def rational_rank(rows: list[list]) -> int:
    """Exact rank of a matrix of ints and Fractions over Q (the span clears
    each row's denominators)."""
    return int_rank(rows)
