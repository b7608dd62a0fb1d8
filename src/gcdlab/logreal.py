"""Exact real numbers of the form sum c_b * log(b) with rational c_b and
integer bases b >= 2.

Every height, local height and generalized-gcd value in this library lives
here.  Canonical form keeps the bases pairwise coprime and power-free, which
makes the zero test exact (a nonzero rational combination of logs of pairwise
coprime integers cannot vanish); nonzero signs are certified by interval
arithmetic at escalating precision.  A value is a term map {base: coeff}
summed by linalg._accumulate, the sum of polynomial and power-sum terms too.
Canonicalization is lazy so that values built from huge unfactored integers
(gcds of recurrence terms) stay cheap until an exact zero test needs them.
mpmath is imported inside the functions that compute a decimal or an
interval, so a process that needs neither never loads it."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, combinations
from sys import float_info
from typing import Iterable, Mapping

from .arith import SMALL_PRIMES, _split_primes, factorize, perfect_power
from .linalg import _accumulate

_SPLIT_BOUND = 1000  # bases get their prime factors below this split off
_SPLIT_PRIMES = tuple(p for p in SMALL_PRIMES if p < _SPLIT_BOUND)

DEFAULT_PRECISION = 128
MAX_PRECISION = 1 << 16

# relative error budget of one float term (a division, a log and a
# product), far above its rounding; enclosure_sign adds it once more for
# combining enclosures
FLOAT_TERM_ERROR = 1e-12


class PrecisionExhausted(ArithmeticError):
    """Interval sign test stayed ambiguous up to the precision cap."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected a rational, got {type(x).__name__}")


def _log_terms(pairs) -> dict[int, Fraction]:
    """_accumulate of (base, coefficient) pairs, without the base 1."""
    out = _accumulate(pairs)
    out.pop(1, None)
    return out


def _checked(raw: Mapping[int, Fraction]):
    """The (base, coefficient) pairs of raw, each checked in turn."""
    for base, coeff in raw.items():
        if not isinstance(base, int) or base < 1:
            raise ValueError(f"bad log base {base!r}")
        yield base, _as_fraction(coeff)


def _canonicalize(items: dict[int, Fraction]) -> dict[int, Fraction]:
    """Split bases until pairwise coprime, reduce perfect powers, peel small
    prime factors.  Terminates: every split replaces a base by strictly
    smaller cofactors."""
    while pair := next((p for p in combinations(sorted(items), 2) if math.gcd(*p) > 1), None):
        b1, b2 = pair
        g = math.gcd(b1, b2)
        c1, c2 = items[b1], items[b2]
        untouched = ((b, c) for b, c in items.items() if b != b1 and b != b2)
        items = _log_terms(chain(untouched, ((g, c1), (b1 // g, c1), (g, c2), (b2 // g, c2))))
    pairs = []
    for base in sorted(items):
        root, k = perfect_power(base)
        coeff = items[base] * k
        parts, rest = ((factorize(root), 1) if root < _SPLIT_BOUND ** 2
                       else _split_primes(root, _SPLIT_PRIMES))
        pairs += [(p, coeff * e) for p, e in parts.items()]
        pairs.append((rest, coeff))
    return _log_terms(pairs)


class LogReal:
    """Immutable exact value sum(coeffs[b] * log(b))."""

    __slots__ = ("_coeffs", "_canonical")

    def __init__(self, coeffs: Mapping[int, Fraction] | None = None):
        object.__setattr__(self, "_coeffs", _log_terms(_checked(coeffs or {})))
        object.__setattr__(self, "_canonical", False)

    @classmethod
    def _wrap(cls, coeffs: dict[int, Fraction], canonical: bool) -> "LogReal":
        obj = cls.__new__(cls)
        object.__setattr__(obj, "_coeffs", coeffs)
        object.__setattr__(obj, "_canonical", canonical)
        return obj

    @staticmethod
    def zero() -> "LogReal":
        return LogReal._wrap({}, True)

    @classmethod
    def log_of_int(cls, n: int) -> "LogReal":
        """log(n) for an integer n >= 1, kept unfactored until needed."""
        if n < 1:
            raise ValueError("log_of_int needs n >= 1")
        if n == 1:
            return cls.zero()
        return cls._wrap({n: Fraction(1)}, False)

    @classmethod
    def log_of_fraction(cls, q) -> "LogReal":
        """log|q| for a nonzero rational q."""
        q = _as_fraction(q)
        if q == 0:
            raise ValueError("log of zero")
        return cls(
            {abs(q.numerator): Fraction(1), q.denominator: Fraction(-1)}
        )

    def _refined(self) -> dict[int, Fraction]:
        if not self._canonical:
            object.__setattr__(self, "_coeffs", _canonicalize(self._coeffs))
            object.__setattr__(self, "_canonical", True)
        return self._coeffs

    @property
    def coeffs(self) -> dict[int, Fraction]:
        """Canonical base -> coefficient map (bases pairwise coprime,
        power-free; prime for all desk-scale values)."""
        return dict(self._refined())

    @property
    def is_zero(self) -> bool:
        return not self._refined()

    def __bool__(self) -> bool:
        return not self.is_zero

    def __add__(self, other: "LogReal") -> "LogReal":
        if not isinstance(other, LogReal):
            return NotImplemented
        if not other._coeffs:
            return self
        if not self._coeffs:
            return other
        return LogReal._wrap(
            _accumulate(chain(self._coeffs.items(), other._coeffs.items())), False
        )

    def __sub__(self, other: "LogReal") -> "LogReal":
        return self.__add__(-other)

    def __neg__(self) -> "LogReal":
        return LogReal._wrap(
            {b: -c for b, c in self._coeffs.items()}, self._canonical
        )

    def __mul__(self, scalar) -> "LogReal":
        s = _as_fraction(scalar)
        if s == 0:
            return LogReal.zero()
        return LogReal._wrap(
            {b: c * s for b, c in self._coeffs.items()}, self._canonical
        )

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "LogReal":
        return self * (Fraction(1) / _as_fraction(scalar))

    def __eq__(self, other) -> bool:
        if not isinstance(other, LogReal):
            return NotImplemented
        return (self - other).is_zero

    __hash__ = None  # mathematical equality crosses structural boundaries

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    def interval(self):
        """Enclosure of the value as an mpmath interval at the current
        mpmath.iv.prec."""
        import mpmath

        iv = mpmath.iv
        total = iv.mpf(0)
        for b, c in self._coeffs.items():
            total += iv.mpf(c.numerator) / iv.mpf(c.denominator) * iv.log(iv.mpf(b))
        return total

    def sign(self) -> int:
        """Certified sign: -1, 0, or +1.  The float filter comes first: it
        bounds the value whatever its representation, so a value it
        separates from 0 is never canonicalized.  Otherwise zero is exact
        (the canonical map is empty), and a nonzero canonical value is
        irrational, so escalating_sign separates it from zero or raises
        PrecisionExhausted."""
        if not self._coeffs:
            return 0
        s = self._filter_sign(Fraction(0))
        if s or not self._refined():
            return s
        return self._cmp_nonzero(Fraction(0))

    def cmp(self, const) -> int:
        """Certified sign of (self - const) for a rational const."""
        const = _as_fraction(const)
        if const == 0:
            return self.sign()
        if not self._coeffs:
            return -1 if const > 0 else 1
        # value is either 0 or irrational, never equal to const != 0
        return self._cmp_nonzero(const)

    def float_enclosure(self) -> tuple[float, float] | None:
        """(mid, radius) with the value within radius of mid: each term in
        floating point under the relative error budget FLOAT_TERM_ERROR;
        None if a coefficient or term overflows a float."""
        mid = 0.0
        radius = FLOAT_TERM_ERROR
        try:
            for b, c in self._coeffs.items():
                t = (c.numerator / c.denominator) * math.log(b)
                mid += t
                radius += FLOAT_TERM_ERROR * (abs(t) + 1.0)
        except OverflowError:
            return None
        return (mid, radius) if math.isfinite(mid) else None

    def _filter_sign(self, const: Fraction) -> int:
        """+1 or -1 where the float enclosure separates the value from
        const, else 0."""
        try:
            cf = const.numerator / const.denominator
        except OverflowError:
            return 0
        return enclosure_sign(((1.0, self.float_enclosure()), (-1.0, (cf, 0.0))))

    def _cmp_nonzero(self, const: Fraction) -> int:
        return self._filter_sign(const) or escalating_sign(
            lambda: self.interval() - fraction_interval(const)
        )

    def to_float(self) -> float:
        total = 0.0
        for b, c in self._coeffs.items():
            total += (c.numerator / c.denominator) * math.log(b)
        return total

    def decimal(self, digits: int = 20) -> str:
        """Decimal approximation to the given number of significant digits,
        computed with 5 guard digits beyond those the sum cancels, so that
        every representation of a value prints alike; "0" for every
        representation of zero."""
        if not self._coeffs:
            return "0"
        import mpmath

        terms = sorted(self._coeffs.items())
        extra = 10
        while 3.33 * (digits + extra) <= MAX_PRECISION:   # bits of working precision
            with mpmath.workdps(digits + extra):
                total = size = mpmath.mpf(0)
                for b, c in terms:
                    term = mpmath.mpf(c.numerator) / c.denominator * mpmath.log(b)
                    total += term
                    size += abs(term)
                if abs(total) > size * mpmath.mpf(10) ** (5 - extra):
                    return mpmath.nstr(total, digits)
            # a sum lost in its rounding error is an exact zero whose bases
            # are not yet coprime, like log(8) - 3*log(2), or a nonzero
            # value that cancels more digits than the working precision
            if extra == 10 and self.is_zero:
                return "0"
            extra *= 2
        raise PrecisionExhausted(f"decimal not resolved at {MAX_PRECISION} bits")

    def __str__(self) -> str:
        coeffs = self._refined()
        if not coeffs:
            return "0"
        parts = []
        for b, c in sorted(coeffs.items()):
            if c == 1:
                term = f"log({b})"
            elif c == -1:
                term = f"-log({b})"
            else:
                term = f"{c}*log({b})"
            if parts and not term.startswith("-"):
                parts.append("+ " + term)
            elif parts:
                parts.append("- " + term.lstrip("-"))
            else:
                parts.append(term)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LogReal({self})"

    def pretty(self, digits: int = 20) -> str:
        if self.is_zero:
            return "0"
        return f"{self} = {self.decimal(digits)}"


def logreal_sum(values: Iterable[LogReal]) -> LogReal:
    """One pass over the terms of all values; a lone nonzero value is returned as is."""
    values = [v for v in values if v._coeffs]
    if len(values) == 1:
        return values[0]
    return LogReal._wrap(
        _accumulate(chain.from_iterable(v._coeffs.items() for v in values)), False
    )


def enclosure_sign(parts) -> int:
    """The package's one float filter: +1 or -1 where float enclosures
    separate sum(k * x) from 0, else 0.

    parts are pairs (k, enclosure) of a float scale k and an enclosure
    (mid, radius) of x: a LogReal's float_enclosure, None for none, or
    (float(q), 0.0) for a rational q.  The sum's radius is
    sum(|k| * radius) + FLOAT_TERM_ERROR * (sum(|k * mid|) + 1), the slack
    covering the rounding of the scaled sum.  A missing enclosure, a scale
    below the smallest normal float (0 included; such a scale has lost
    relative precision) or a radius that overflows gives 0."""
    mid = radius = size = 0.0
    for k, enclosure in parts:
        if enclosure is None or abs(k) < float_info.min:
            return 0
        m, r = enclosure
        mid += k * m
        radius += abs(k) * r
        size += abs(k * m)
    radius += FLOAT_TERM_ERROR * (size + 1.0)
    if not math.isfinite(radius) or abs(mid) <= radius:
        return 0
    return 1 if mid > 0 else -1


def escalating_sign(interval_fn) -> int:
    """Certified sign, -1 or +1, of a nonzero quantity known through
    enclosures: the package's one interval precision ladder.

    ``interval_fn()`` must return an mpmath.iv enclosure computed at the
    current mpmath.iv.prec, which is set before each call and restored
    after the last.  The precision starts at DEFAULT_PRECISION and doubles
    up to MAX_PRECISION; an enclosure that still contains zero there raises
    PrecisionExhausted.  Callers rule out an exact zero first."""
    import mpmath

    iv = mpmath.iv
    saved = iv.prec
    try:
        prec = DEFAULT_PRECISION
        while prec <= MAX_PRECISION:
            iv.prec = prec
            val = interval_fn()
            if val.a > 0:
                return 1
            if val.b < 0:
                return -1
            prec *= 2
    finally:
        iv.prec = saved
    raise PrecisionExhausted(
        f"sign not separated from 0 at {MAX_PRECISION} bits"
    )


def fraction_interval(q):
    """mpmath.iv enclosure of a rational at the current mpmath.iv.prec."""
    import mpmath

    q = _as_fraction(q)
    return mpmath.iv.mpf(q.numerator) / mpmath.iv.mpf(q.denominator)
