"""Absolute, local, projective and torus-point heights over Q, the non-S
height, and the almost-unit predicates built on it.

All values are exact LogReals; the local-global identity
sum_v local_height(x, v) == height(x) holds with zero discrepancy because we
work with the canonical local heights at every place."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

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
    if x == 0:
        return LogReal.zero()
    if v.is_archimedean:
        ax = abs(x)
        return LogReal.log_of_fraction(ax) if ax > 1 else LogReal.zero()
    w = valuation(x, v.prime)
    return LogReal({v.prime: Fraction(-w)}) if w < 0 else LogReal.zero()


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


def torus_local_height(u: TorusPoint, v: Place) -> LogReal:
    """log max(1, |u_1|_v, ..., |u_n|_v)."""
    if v.is_archimedean:
        m = max(Fraction(1), *(abs(c) for c in u.coords))
        return LogReal.log_of_fraction(m) if m > 1 else LogReal.zero()
    w = min(valuation(c, v.prime) for c in u.coords)
    return LogReal({v.prime: Fraction(-w)}) if w < 0 else LogReal.zero()


def torus_height(u: TorusPoint) -> LogReal:
    return logreal_sum(torus_local_height(u, v) for v in relevant_places(*u.coords))


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
    for a scalar or a torus point.  Zero exactly on S-unit points."""
    pt = _as_torus(u)
    inv = pt.inverse()
    total = LogReal.zero()
    for v in relevant_places(*pt.coords):
        if v in S:
            continue
        total = total + torus_local_height(pt, v) + torus_local_height(inv, v)
    return total


def h_sbar_standard(u, S: PlaceSet) -> LogReal:
    """Non-S height in the standard (coordinate-sum) normalization."""
    pt = _as_torus(u)
    total = LogReal.zero()
    for v in relevant_places(*pt.coords):
        if v in S:
            continue
        for c in pt.coords:
            total = total + local_height(c, v) + local_height(1 / c, v)
    return total


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
    lhs = logreal_sum(
        local_height(x, v) for v in relevant_places(x) if v in S
    )
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
