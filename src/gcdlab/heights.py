"""Absolute, local, projective and torus-point heights over Q, the non-S
height, and the almost-unit predicates built on it.

All values are exact LogReals; the local-global identity
sum_v local_height(x, v) == height(x) holds with zero discrepancy because we
work with the canonical local heights at every place.

The heights of torus points, the non-S heights and the quasi-S-integer test
sum their finite places in closed form, without factoring anything: over Q
the finite part of a height is log lcm(denominators), that of the height of
the inverse is log lcm(|numerators|), and the places of S are divided out of
those integers with the known primes of S.  Only tuple_heights, whose output
is the per-place table, walks the places one by one."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .arith import _split_primes
from .logreal import LogReal, logreal_sum
from .places import DomainError, Place, PlaceSet, support_primes, valuation


@dataclass(frozen=True)
class ProjPoint:
    """A point of projective space, stored in canonical integer coordinates:
    denominators cleared, integer content divided out, first nonzero
    coordinate positive."""

    coords: tuple[Fraction, ...]

    def __init__(self, coords):
        coords = tuple(Fraction(c) for c in coords)
        if not coords or all(c == 0 for c in coords):
            raise DomainError("projective point needs a nonzero coordinate")
        L = lcm(*(c.denominator for c in coords))
        ints = [int(c * L) for c in coords]
        content = 0
        for a in ints:
            content = gcd(content, a)
        ints = [a // content for a in ints]
        first = next(a for a in ints if a != 0)
        if first < 0:
            ints = [-a for a in ints]
        object.__setattr__(self, "coords", tuple(Fraction(a) for a in ints))

    def __str__(self) -> str:
        return "(" + " : ".join(str(c) for c in self.coords) + ")"


@dataclass(frozen=True)
class TorusPoint:
    """A tuple of nonzero rationals."""

    coords: tuple[Fraction, ...]

    def __init__(self, coords):
        coords = tuple(Fraction(c) for c in coords)
        if not coords:
            raise DomainError("empty torus point")
        if any(c == 0 for c in coords):
            raise DomainError("torus point coordinates must be nonzero")
        object.__setattr__(self, "coords", coords)

    def inverse(self) -> "TorusPoint":
        return TorusPoint(tuple(1 / c for c in self.coords))

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


@dataclass(frozen=True)
class AlmostUnitConfig:
    """The pair (S, delta) of the almost-unit predicate: S must contain the
    archimedean place and 0 <= delta < 1."""

    S: PlaceSet
    delta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "delta", Fraction(self.delta))
        if not self.S.contains_archimedean:
            raise DomainError("S must contain the archimedean place")
        if not 0 <= self.delta < 1:
            raise DomainError("delta must lie in [0, 1)")


def local_height(x: Fraction, v: Place) -> LogReal:
    """log max(1, |x|_v); zero for x = 0."""
    x = Fraction(x)
    return torus_local_height(TorusPoint((x,)), v) if x else LogReal.zero()


def height(x: Fraction) -> LogReal:
    """Absolute logarithmic height of a rational: log max(|num|, den)."""
    x = Fraction(x)
    if x == 0:
        return LogReal.zero()
    return LogReal.log_of_int(max(abs(x.numerator), x.denominator))


def relevant_places(*values: Fraction) -> list[Place]:
    """The archimedean place plus every prime in the support of the values;
    every local height of the values vanishes elsewhere."""
    return [Place.archimedean()] + [
        Place.finite(p) for p in support_primes(*values)
    ]


def proj_height(P: ProjPoint) -> LogReal:
    """Height of a projective point; with canonical integer coordinates the
    finite places contribute nothing, leaving log max|coordinate|."""
    return LogReal.log_of_int(max(abs(c.numerator) for c in P.coords))


def _arch_height(coords) -> LogReal:
    """log max(1, |c_1|, ..., |c_n|) at the archimedean place."""
    m = max(Fraction(1), *(abs(c) for c in coords))
    return LogReal.log_of_fraction(m) if m > 1 else LogReal.zero()


def torus_local_height(u: TorusPoint, v: Place) -> LogReal:
    """log max(1, |u_1|_v, ..., |u_n|_v)."""
    if v.is_archimedean:
        return _arch_height(u.coords)
    w = min(valuation(c, v.prime) for c in u.coords)
    return LogReal({v.prime: Fraction(-w)}) if w < 0 else LogReal.zero()


def torus_height(u: TorusPoint) -> LogReal:
    """log lcm(denominators) + log max(1, |u_1|, ..., |u_n|): the local
    height at a prime p is v_p of that lcm times log p."""
    D = lcm(*(c.denominator for c in u.coords))
    return LogReal.log_of_int(D) + _arch_height(u.coords)


def standard_height(u: TorusPoint) -> LogReal:
    """Coordinate-wise height sum, the alternative normalization for torus
    points."""
    return logreal_sum(height(c) for c in u.coords)


def tuple_heights(u: TorusPoint):
    """Projective-style torus height, the per-place local height table on the
    support, and the standard (coordinate-sum) height."""
    table = {}
    for v in relevant_places(*u.coords):
        lam = torus_local_height(u, v)
        if not lam.is_zero:
            table[v] = lam
    return logreal_sum(table.values()), table, standard_height(u)


def _as_torus(u) -> TorusPoint:
    if isinstance(u, TorusPoint):
        return u
    return TorusPoint((Fraction(u),))


def h_sbar(u, S: PlaceSet) -> LogReal:
    """Non-S height: sum over v not in S of lambda_v(u) + lambda_v(1/u),
    for a scalar or a torus point.  Zero exactly on S-unit points.

    The finite places give log of lcm(denominators) * lcm(|numerators|) with
    the primes of S divided out; the archimedean terms of u and 1/u count
    only when oo is not in S."""
    coords = _as_torus(u).coords
    D = lcm(*(c.denominator for c in coords))
    N = lcm(*(c.numerator for c in coords))
    _, rest = _split_primes(D * N, S.finite_primes)
    total = LogReal.log_of_int(rest)
    if not S.contains_archimedean:
        total = total + _arch_height(coords) + _arch_height([1 / c for c in coords])
    return total


def h_sbar_standard(u, S: PlaceSet) -> LogReal:
    """Non-S height in the standard (coordinate-sum) normalization: the sum
    of the coordinates' non-S heights."""
    return logreal_sum(h_sbar(c, S) for c in _as_torus(u).coords)


def is_almost_unit(u, cfg: AlmostUnitConfig) -> bool:
    """Whether h_sbar(u) <= delta * h(u), decided by an exact sign test.
    Accepts a scalar (uses the scalar height) or a torus point (uses the
    projective torus height)."""
    pt = _as_torus(u)
    h = torus_height(pt) if isinstance(u, TorusPoint) else height(Fraction(u))
    diff = cfg.delta * h - h_sbar(u, cfg.S)
    return diff.sign() >= 0


def is_quasi_s_integer(x: Fraction, S: PlaceSet, eps: Fraction) -> bool:
    """sum_{v in S} lambda_v(x) >= eps * h(x).

    The published comparison point uses max{|x|_v, 0}, which reads as an
    absolute value rather than a local height; we use lambda_v, under which
    the expected inclusions against the almost-unit classes hold (see
    tests)."""
    x = Fraction(x)
    if x == 0:
        raise DomainError("quasi-S-integer test needs nonzero input")
    # lambda_p(x) = v_p(denominator) log p, so the finite places of S sum to
    # the log of the S-part of the denominator
    _, rest = _split_primes(x.denominator, S.finite_primes)
    lhs = LogReal.log_of_int(x.denominator // rest)
    if S.contains_archimedean:
        lhs = lhs + _arch_height([x])
    diff = lhs - Fraction(eps) * height(x)
    return diff.sign() >= 0


def hypersurface_local_height(F, P: ProjPoint, v: Place) -> LogReal:
    """Local height of P relative to the hypersurface F = 0, for F a
    homogeneous polynomial of degree d: log(|P|_v^d / |F(P)|_v).  The value
    does not depend on the coordinate representative."""
    from .multipoly import MultiPoly  # local import to avoid a cycle

    if not isinstance(F, MultiPoly):
        raise TypeError("F must be a MultiPoly")
    if not F.is_homogeneous():
        raise DomainError("hypersurface polynomial must be homogeneous")
    d = F.degree()
    value = F.eval(P.coords)
    if value == 0:
        raise DomainError("point lies on the hypersurface")
    if v.is_archimedean:
        m = max(abs(c) for c in P.coords)
        return LogReal.log_of_fraction(m) * d - LogReal.log_of_fraction(value)
    w = min(valuation(c, v.prime) for c in P.coords)
    return LogReal({v.prime: Fraction(-w * d + valuation(value, v.prime))})
