"""Generalized logarithmic gcd of two rationals: the negated sum of
log^- max(|a|_v, |b|_v) over places, extending log gcd from integer pairs to
rational pairs, with variants restricted to the places inside or outside a
finite set S.

The finite-place part is computed from classical integer gcds alone (no
factorization), so the operands may be astronomically large."""

from __future__ import annotations

from fractions import Fraction
from math import gcd as igcd, lcm as ilcm

from .arith import _split_primes
from .logreal import LogReal
from .places import DomainError, PlaceSet


def _finite_core(a: int | Fraction, b: int | Fraction) -> tuple[int, int]:
    """(M, L): the finite-place part of the generalized gcd is log(M), and L
    is the lcm of the denominators.  For reduced a = p/q and b = r/s,
    max(0, min(v_l(a), v_l(b))) = min(v_l(p), v_l(r)) at every prime l, so
    M = gcd(p, r); gcd(x, 0) == |x| covers a single zero operand.  Each
    operand is an int or a Fraction, so a scan can pass integral values as
    plain ints."""
    return igcd(a.numerator, b.numerator), ilcm(a.denominator, b.denominator)


def _arch_term(a: Fraction, b: Fraction) -> LogReal:
    mx = max(abs(a), abs(b))
    if mx < 1:
        return LogReal.log_of_fraction(1 / mx)
    return LogReal.zero()


_NO_PLACES = PlaceSet(False, ())


def log_gcd(a: Fraction, b: Fraction) -> LogReal:
    """Generalized log gcd over all places; equals log(gcd(a, b)) exactly for
    integer inputs.  It is the part outside the empty place set."""
    return log_gcd_outside(a, b, _NO_PLACES)


def log_gcd_within(a: Fraction, b: Fraction, S: PlaceSet) -> LogReal:
    """The part of the generalized log gcd contributed by the places in S."""
    a, b = Fraction(a), Fraction(b)
    if a == 0 and b == 0:
        raise DomainError("log_gcd(0, 0) is undefined")
    M, _ = _finite_core(a, b)
    parts, _ = _split_primes(M, S.finite_primes)
    total = LogReal({p: Fraction(e) for p, e in parts.items()})
    if S.contains_archimedean:
        total = total + _arch_term(a, b)
    return total


def log_gcd_outside(a: Fraction, b: Fraction, S: PlaceSet) -> LogReal:
    """The part of the generalized log gcd contributed by places not in S;
    log_gcd == log_gcd_within + log_gcd_outside for every S."""
    a, b = Fraction(a), Fraction(b)
    if a == 0 and b == 0:
        raise DomainError("log_gcd(0, 0) is undefined")
    M, _ = _finite_core(a, b)
    _, rest = _split_primes(M, S.finite_primes)
    total = LogReal.log_of_int(rest)
    if not S.contains_archimedean:
        total = total + _arch_term(a, b)
    return total
