"""Places of the rational field: the archimedean absolute value and one
p-adic absolute value per prime, normalized so that |p|_p = 1/p.  With this
normalization the product formula prod_v |x|_v = 1 holds exactly for every
nonzero rational, and log|x|_v is always a rational combination of logs of
primes (a LogReal)."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .arith import _split_primes, factorize, is_prime
from .logreal import LogReal


class DomainError(ValueError):
    """An operation was applied outside its mathematical domain."""


@dataclass(frozen=True, order=True)
class Place:
    """A place of Q: ``prime`` is None for the archimedean place."""

    # sort key puts the archimedean place first, then primes in order
    _key: tuple[int, int] = field(repr=False)
    prime: int | None = None

    def __init__(self, prime: int | None = None):
        if prime is not None and not is_prime(prime):
            raise DomainError(f"{prime} is not prime")
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "_key", (0, 0) if prime is None else (1, prime))

    @staticmethod
    def archimedean() -> "Place":
        return Place(None)

    @staticmethod
    def finite(p: int) -> "Place":
        return Place(p)

    @property
    def is_archimedean(self) -> bool:
        return self.prime is None

    def __str__(self) -> str:
        return "oo" if self.prime is None else str(self.prime)

    def __repr__(self) -> str:
        return f"Place({self})"


@dataclass(frozen=True)
class PlaceSet:
    """A finite set of places; when used as the set S of the almost-unit
    machinery it must contain the archimedean place."""

    contains_archimedean: bool = True
    finite_primes: tuple[int, ...] = ()

    def __post_init__(self):
        primes = tuple(sorted(set(self.finite_primes)))
        for p in primes:
            if not is_prime(p):
                raise DomainError(f"{p} is not prime")
        object.__setattr__(self, "finite_primes", primes)

    @staticmethod
    def of(*primes: int, archimedean: bool = True) -> "PlaceSet":
        return PlaceSet(archimedean, tuple(primes))

    def __contains__(self, v: Place) -> bool:
        if v.is_archimedean:
            return self.contains_archimedean
        return v.prime in set(self.finite_primes)

    def places(self) -> list[Place]:
        out = [Place.archimedean()] if self.contains_archimedean else []
        out.extend(Place.finite(p) for p in self.finite_primes)
        return out

    def union(self, other: "PlaceSet") -> "PlaceSet":
        return PlaceSet(
            self.contains_archimedean or other.contains_archimedean,
            self.finite_primes + other.finite_primes,
        )

    def __str__(self) -> str:
        names = (["oo"] if self.contains_archimedean else []) + [
            str(p) for p in self.finite_primes
        ]
        return "{" + ", ".join(names) + "}"


def valuation(x: Fraction, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    x = Fraction(x)
    if x == 0:
        raise DomainError("valuation of zero is undefined")
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    up, _ = _split_primes(abs(x.numerator), (p,))
    down, _ = _split_primes(x.denominator, (p,))
    return up.get(p, 0) - down.get(p, 0)


def log_abs(x: Fraction, v: Place) -> LogReal:
    """Exact log|x|_v for nonzero rational x.

    At the archimedean place this is log(num) - log(den) of |x|; at a finite
    place it is -v_p(x) * log(p)."""
    x = Fraction(x)
    if x == 0:
        raise DomainError("log_abs of zero is undefined")
    if v.is_archimedean:
        return LogReal.log_of_fraction(x)
    return LogReal({v.prime: Fraction(-valuation(x, v.prime))})


def support(x: Fraction) -> set[Place]:
    """All places v with |x|_v != 1; the archimedean place included iff
    |x| != 1."""
    x = Fraction(x)
    if x == 0:
        raise DomainError("support of zero is undefined")
    out = {Place.finite(p) for p in support_primes(x)}
    if abs(x) != 1:
        out.add(Place.archimedean())
    return out


def support_primes(*values: Fraction) -> list[int]:
    """Sorted primes dividing the numerator or denominator of any value."""
    primes: set[int] = set()
    for x in values:
        x = Fraction(x)
        if x == 0:
            continue
        if abs(x.numerator) != 1:
            primes.update(factorize(abs(x.numerator)))
        if x.denominator != 1:
            primes.update(factorize(x.denominator))
    return sorted(primes)


def parse_rational(text: str | int) -> Fraction:
    """Parse 'a' or 'a/b' (decimal-free), or an int, into an exact rational."""
    if not isinstance(text, (str, int)) or isinstance(text, bool):
        raise DomainError(f"a rational must be a string or an int, not {text!r}")
    text = str(text).strip()
    if "." in text or "e" in text.lower():
        raise DomainError(f"decimal-free rational expected, got {text!r}")
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"bad rational literal {text!r}") from exc


def format_rational(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
