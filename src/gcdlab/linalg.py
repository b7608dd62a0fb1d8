"""Small exact linear algebra kit over Q: echelon spans with expression
tracking (for quotient-space work) and a fraction-free integer rank for the
larger brute-force dimension checks."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence


class LinearSpan:
    """Row space in echelon form over Q with optional tag tracking.

    Each stored row is a pair (vector, tag); linear eliminations are applied
    to both, so a caller can attach meaning to tags (here: coordinates with
    respect to a chosen set of quotient monomials) and read exact expression
    coefficients back off reductions."""

    def __init__(self, ncols: int, ntags: int = 0):
        self.ncols = ncols
        self.ntags = ntags
        self.rows: list[tuple[list[Fraction], list[Fraction]]] = []
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, vec: list[Fraction], tag: list[Fraction]):
        for (row, rtag), p in zip(self.rows, self.pivots):
            c = vec[p]
            if c:
                for j in range(p, self.ncols):
                    vec[j] -= c * row[j]
                for j in range(self.ntags):
                    tag[j] -= c * rtag[j]
        return vec, tag

    def reduce(self, vector: Sequence, tag: Sequence | None = None):
        """Residual of a vector against the span, with the accumulated tag."""
        vec = [Fraction(x) for x in vector]
        t = [Fraction(x) for x in tag] if tag is not None else [Fraction(0)] * self.ntags
        return self._reduce(vec, t)

    def contains(self, vector: Sequence) -> bool:
        vec, _ = self.reduce(vector)
        return not any(vec)

    def add(self, vector: Sequence, tag: Sequence | None = None) -> bool:
        """Insert a vector; returns False if it was already in the span."""
        vec, t = self.reduce(vector, tag)
        pivot = next((j for j, x in enumerate(vec) if x), None)
        if pivot is None:
            return False
        inv = Fraction(1) / vec[pivot]
        vec = [x * inv for x in vec]
        t = [x * inv for x in t]
        # keep reduced echelon: eliminate the new pivot from older rows
        for i, ((row, rtag), p) in enumerate(zip(self.rows, self.pivots)):
            c = row[pivot]
            if c:
                self.rows[i] = (
                    [a - c * b for a, b in zip(row, vec)],
                    [a - c * b for a, b in zip(rtag, t)],
                )
        at = next(
            (i for i, p in enumerate(self.pivots) if p > pivot), len(self.pivots)
        )
        self.rows.insert(at, (vec, t))
        self.pivots.insert(at, pivot)
        return True


def int_rank(rows: list[list[int]]) -> int:
    """Exact rank of an integer matrix by fraction-free elimination with
    content reduction (Bareiss-flavoured, pivot chosen smallest)."""
    work = [r[:] for r in rows if any(r)]
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    for col in range(ncols):
        best = None
        for i in range(rank, len(work)):
            a = work[i][col]
            if a and (best is None or abs(a) < abs(work[best][col])):
                best = i
        if best is None:
            continue
        work[rank], work[best] = work[best], work[rank]
        prow = work[rank]
        pval = prow[col]
        for i in range(rank + 1, len(work)):
            a = work[i][col]
            if not a:
                continue
            row = work[i]
            g = gcd(pval, a)
            ml, mr = pval // g, a // g
            newrow = [ml * x - mr * y for x, y in zip(row, prow)]
            content = 0
            for x in newrow:
                content = gcd(content, x)
                if content == 1:
                    break
            if content > 1:
                newrow = [x // content for x in newrow]
            work[i] = newrow
        rank += 1
        work = [r for r in work if any(r)]
        if rank >= len(work):
            break
    return rank


def rational_rank(rows: list[list]) -> int:
    """Exact rank of a matrix of ints and Fractions over Q (each row scaled
    to integers by the lcm of its denominators first)."""
    scaled = []
    for r in rows:
        L = lcm(*(x.denominator for x in r))
        scaled.append([x.numerator * (L // x.denominator) for x in r])
    return int_rank(scaled)
