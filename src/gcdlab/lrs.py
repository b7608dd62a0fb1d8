"""Linear recurrence sequences over Q in polynomial-exponential form:
a term is a pair (coefficient polynomial, rational root) and a sequence is a
finite sum of terms p_i(n) * root_i^n.

A power sum is a term map: the ring operations and the reindexing along
arithmetic progressions emit pairs ((root, j), c) for c * n^j * root^n
and sum them with ``linalg._accumulate``, the package's one sparse sum.
Also here: zero-structure scans, whose progressions are read from the +/-
pairs of roots, the multiplicative lattice of the roots (rank, generators,
torsion), the Laurent-polynomial image with respect to a torsion-free root
group, and the induced coprimality test."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .arith import _split_primes, factorize, hnf_with_transform, solve_in_row_lattice
from .linalg import LinearSpan, _accumulate
from .multipoly import LaurentPoly, coprime as poly_coprime
from .places import (
    DomainError,
    PlaceSet,
    format_rational,
    parse_rational,
    support_primes,
)

Coeffs = tuple[Fraction, ...]


# ---------------------------------------------------------------------
# power sums
# ---------------------------------------------------------------------

def _poly_eval(cs, x):
    """Horner's rule from the int 0: int coefficients at an int give an int,
    and a Fraction anywhere gives a Fraction."""
    total = 0
    for c in reversed(cs):
        total = total * x + c
    return total


def _canonical_terms(pairs) -> tuple[tuple[Coeffs, Fraction], ...]:
    """PowerSum.terms of the sum of c * n^j * root^n over pairs
    ((root, j), c): roots ascending, little-endian coefficients without
    trailing zeros."""
    polys: dict[Fraction, list[Fraction]] = {}
    for (root, j), c in _accumulate(pairs).items():
        cs = polys.setdefault(root, [])
        cs.extend([Fraction(0)] * (j + 1 - len(cs)))
        cs[j] = c
    return tuple((tuple(polys[root]), root) for root in sorted(polys))


@dataclass(frozen=True)
class PowerSum:
    """sum p_i(n) * root_i^n with pairwise distinct nonzero rational roots,
    canonically ordered by root; each p_i is a little-endian Fraction tuple
    without trailing zeros.  Built from a term map {(root, j): c} summed on
    ``linalg._accumulate``, then regrouped by root."""

    terms: tuple[tuple[Coeffs, Fraction], ...]

    def __init__(self, terms: Iterable[tuple[Sequence, Fraction]] = ()):
        pairs = []
        for coeffs, root in terms:
            root = Fraction(root)
            if root == 0:
                raise DomainError("zero root in a power sum")
            pairs += (((root, j), Fraction(c)) for j, c in enumerate(coeffs))
        object.__setattr__(self, "terms", _canonical_terms(pairs))

    @classmethod
    def _of_pairs(cls, pairs) -> "PowerSum":
        """The sum of c * n^j * root^n over pairs ((root, j), c) of Fractions."""
        F = object.__new__(cls)
        object.__setattr__(F, "terms", _canonical_terms(pairs))
        return F

    # -- constructors ----------------------------------------------------
    @staticmethod
    def zero() -> "PowerSum":
        return PowerSum(())

    @staticmethod
    def geometric(root, coeff=1) -> "PowerSum":
        """coeff * root^n."""
        return PowerSum([((Fraction(coeff),), Fraction(root))])

    @staticmethod
    def constant(c) -> "PowerSum":
        return PowerSum.geometric(1, c)

    @staticmethod
    def of(*terms) -> "PowerSum":
        """PowerSum.of(([0, 1], 2), ([1], 1)) is n*2^n + 1."""
        return PowerSum(list(terms))

    # -- structure --------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def roots(self) -> tuple[Fraction, ...]:
        return tuple(root for _, root in self.terms)

    @cached_property
    def _int_terms(self) -> tuple[tuple[tuple[int, ...], int, int, int], ...]:
        """Each term p(n) root^n as (P, d, a, b) with p = P / d for an integer
        polynomial P, and root = a / b."""
        out = []
        for cs, root in self.terms:
            d = math.lcm(*(c.denominator for c in cs))
            out.append((tuple(c.numerator * (d // c.denominator) for c in cs),
                        d, root.numerator, root.denominator))
        return tuple(out)

    def eval(self, n: int) -> Fraction:
        """Exact value at a nonnegative integer index."""
        if n < 0:
            raise DomainError("power sums are indexed by nonnegative integers")
        return sum((Fraction(_poly_eval(P, n) * a**n, d * b**n)
                    for P, d, a, b in self._int_terms), Fraction(0))

    def values(self, N: int) -> list[int | Fraction]:
        """Exact values at 0..N: an int where the value is integral, a
        Fraction otherwise.  The powers of each root's numerator and
        denominator carry over from one index to the next, so a sum whose
        coefficients and roots are all integers builds no Fraction."""
        out: list[int | Fraction] = [0] * (N + 1)
        for P, d, a, b in self._int_terms:
            an = bn = 1
            for n in range(N + 1):
                num = _poly_eval(P, n) * an
                out[n] += num if d == b == 1 else Fraction(num, d * bn)
                an *= a
                bn *= b
        return [v.numerator if v.denominator == 1 else v for v in out]

    def value_bits(self, n: int) -> int:
        """Estimated bits of the largest numerator or denominator of a value
        at an index up to n, from the sizes of the roots and coefficients,
        rounded up.  The float log2 of a size is taken as an exact Fraction,
        so an n of any size multiplies it without overflow."""
        def lg(q: Fraction) -> Fraction:
            return Fraction(math.log2(max(abs(q.numerator), q.denominator)))
        return max((math.ceil(n * lg(r) + max(map(lg, cs))) + (len(cs) - 1) * n.bit_length()
                    for cs, r in self.terms), default=0)

    def __add__(self, other: "PowerSum") -> "PowerSum":
        return PowerSum(list(self.terms) + list(other.terms))

    def __neg__(self) -> "PowerSum":
        return PowerSum([(tuple(-c for c in cs), r) for cs, r in self.terms])

    def __sub__(self, other: "PowerSum") -> "PowerSum":
        return self + (-other)

    def __mul__(self, other: "PowerSum") -> "PowerSum":
        return PowerSum._of_pairs(
            ((r1 * r2, i + j), c1 * c2)
            for cs1, r1 in self.terms for i, c1 in enumerate(cs1)
            for cs2, r2 in other.terms for j, c2 in enumerate(cs2)
        )

    def is_degenerate(self) -> bool:
        """Two distinct roots whose ratio is a root of unity; over Q the only
        nontrivial case is ratio -1."""
        seen = set(self.roots)
        return any(-r in seen for r in seen)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for cs, root in self.terms:
            poly = " + ".join(
                (format_rational(c) if i == 0 else
                 (f"{format_rational(c)}*n^{i}" if i > 1 else f"{format_rational(c)}*n"))
                for i, c in enumerate(cs)
                if c != 0
            )
            if len([c for c in cs if c]) > 1:
                poly = f"({poly})"
            parts.append(f"{poly}*({format_rational(root)})^n")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"PowerSum[{self}]"


# ---------------------------------------------------------------------
# JSON input
# ---------------------------------------------------------------------

def power_sum_from_json(data) -> PowerSum:
    """The power sum {"terms": [{"coeff": [...little-endian rationals...],
    "root": rational}, ...]}, given as a dict or as JSON text."""
    if isinstance(data, str):
        data = json.loads(data)
    if not (isinstance(data, dict) and set(data) <= {"terms"}
            and isinstance(data.get("terms", []), list)):
        raise DomainError(f'a power sum must be {{"terms": [...]}}, not {data!r}')
    terms = []
    for item in data.get("terms", []):
        if not (isinstance(item, dict) and set(item) == {"coeff", "root"}
                and isinstance(item["coeff"], list)):
            raise DomainError(f'a power sum term must be {{"coeff": [...], "root": ...}}, '
                              f'not {item!r}')
        terms.append(([parse_rational(c) for c in item["coeff"]], parse_rational(item["root"])))
    return PowerSum(terms)


# ---------------------------------------------------------------------
# recurrence-relation input
# ---------------------------------------------------------------------

def _divide_linear(ints: list[int], den: int, num: int) -> list[int] | None:
    """ints / (den*x - num) for an integer polynomial (little-endian), or
    None when the division leaves a remainder.  For coprime num, den the
    quotient is integral exactly when num/den is a root (Gauss)."""
    quotient = [0] * (len(ints) - 1)
    carry = ints[-1]
    for i in range(len(ints) - 2, -1, -1):
        q, rem = divmod(carry, den)
        if rem:
            return None
        quotient[i] = q
        carry = ints[i] + num * q
    return quotient if carry == 0 else None


def _rational_roots(coeffs: list[Fraction]) -> list[Fraction]:
    """Roots of a univariate rational polynomial that lie in Q, with
    multiplicity: the zeros first, then the candidates num/den of the
    rational root theorem (num | a_0, den | a_d of the integral form; by
    num, then den, ascending; + before -), each divided out while it is a
    root.  A quotient's a_0 and a_d divide the original ones, so a_0 and a_d
    are factored once."""
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        return []
    L = math.lcm(*(c.denominator for c in cs))
    ints = [int(c * L) for c in cs]
    low = next(i for i, c in enumerate(ints) if c)
    roots, ints = [Fraction(0)] * low, ints[low:]

    def divisors(n):
        out = {1}
        for p, e in factorize(n).items():
            out = {d * p**k for d in out for k in range(e + 1)}
        return sorted(out)
    dens = divisors(abs(ints[-1]))
    for num in divisors(abs(ints[0])):
        for den in dens:
            if math.gcd(num, den) > 1:
                continue  # tried already, in lowest terms
            for x in (num, -num):
                while len(ints) > 1 and (q := _divide_linear(ints, den, x)) is not None:
                    roots.append(Fraction(x, den))
                    ints = q
    return roots


def from_recurrence(relation: Sequence, initial: Sequence) -> PowerSum:
    """Build the power-sum form of the sequence with
    a(i+d) = relation[0]*a(i+d-1) + ... + relation[d-1]*a(i), given d initial
    values.  Rejected unless the characteristic polynomial splits over Q."""
    rel = [Fraction(c) for c in relation]
    init = [Fraction(c) for c in initial]
    d = len(rel)
    if len(init) != d or d == 0:
        raise DomainError("need as many initial values as relation coefficients")
    # characteristic polynomial X^d - rel[0] X^(d-1) - ... - rel[d-1]
    char = [-rel[d - 1 - i] for i in range(d)] + [Fraction(1)]
    roots = _rational_roots([Fraction(c) for c in char])
    if len(roots) != d:
        raise DomainError("characteristic polynomial does not split over Q")
    if any(r == 0 for r in roots):
        raise DomainError("zero characteristic root (degenerate leading form)")
    # solve for the coefficient polynomials from the initial values: the
    # columns n -> n^j root^n, tagged with unit vectors, span Q^d, and
    # reducing init to zero leaves minus its coordinates in the tag
    unknown_slots = [(root, j) for root in sorted(set(roots)) for j in range(roots.count(root))]
    span = LinearSpan(d, ntags=d)
    for k, (root, j) in enumerate(unknown_slots):
        if not span.add([Fraction(n) ** j * root**n for n in range(d)], {k: 1}):
            raise ArithmeticError("singular system")
    _, tag = span.reduce(init)
    return PowerSum._of_pairs((slot, -c) for slot, c in zip(unknown_slots, tag))


# ---------------------------------------------------------------------
# zero structure
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class ZeroStructure:
    """Zeros of a power sum in an index window: certified full arithmetic
    progressions (the reindexed subsequence is identically zero) plus the
    leftover sporadic zeros."""

    bound: int
    zeros: tuple[int, ...]
    progressions: tuple[tuple[int, int], ...]  # (residue, modulus)
    sporadic: tuple[int, ...]


def zero_scan(F: PowerSum, N: int) -> ZeroStructure:
    return _zero_structure(F, F.values(N))


def _zero_structure(F: PowerSum, values: list) -> ZeroStructure:
    """zero_scan(F, N) from values[n] == F(n) for n = 0..N, so a caller that
    has already evaluated F does not evaluate it again.

    The progressions are read from the roots.  F(M t + r) is the sum of
    p_root(M t + r) * root^r * (root^M)^t; over Q, root^M = s^M with
    root != s only when s = -root and M is even, and terms with distinct
    roots vanish together only if each does.  So a nonzero F vanishes on
    r mod M exactly when M is even and p_{-root} = (-1)^(r+1) * p_root for
    every root, which holds for at most one r mod 2."""
    N = len(values) - 1
    zeros = tuple(n for n, v in enumerate(values) if v == 0)
    polys = {root: cs for cs, root in F.terms}
    prog = ((0, 1),) if F.is_zero else tuple(
        (r, 2) for r, sign in ((0, -1), (1, 1))
        if all(polys.get(-root) == tuple(sign * c for c in cs) for cs, root in F.terms)
    )
    sporadic = tuple(n for n in zeros if not any(n % M == r for r, M in prog))
    return ZeroStructure(N, zeros, prog, sporadic)


# ---------------------------------------------------------------------
# multiplicative structure of the roots
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class RootGroup:
    """The multiplicative group generated by a list of nonzero rationals,
    presented by the exponent lattice over its support primes."""

    inputs: tuple[Fraction, ...]
    primes: tuple[int, ...]
    basis: tuple[tuple[int, ...], ...]   # echelon lattice basis rows
    generators: tuple[Fraction, ...]     # one per basis row, exact values
    rank: int
    has_torsion: bool                    # whether -1 lies in the group

    def exponent_vector(self, x: Fraction) -> list[int]:
        x = Fraction(x)
        if x == 0:
            raise DomainError("zero is not in the multiplicative group")
        return _exponent_vector(x, self.primes)

    def express(self, x: Fraction) -> list[int]:
        """Integer exponents e with x == prod generators^e, exactly."""
        x = Fraction(x)
        vec = self.exponent_vector(x)
        coeffs = solve_in_row_lattice([list(b) for b in self.basis], vec)
        if coeffs is None:
            raise DomainError(f"{x} is not in the root group lattice")
        coeffs = list(coeffs) + [0] * (self.rank - len(coeffs))
        check = Fraction(1)
        for g, e in zip(self.generators, coeffs):
            check *= Fraction(g) ** e
        if check != x:
            raise DomainError(
                f"{x} differs from its lattice expression by torsion"
            )
        return coeffs

    def contains(self, x: Fraction) -> bool:
        try:
            self.express(x)
            return True
        except DomainError:
            return False


def _exponent_vector(x: Fraction, primes: tuple[int, ...]) -> list[int]:
    """[v_p(x) for p in primes] for a nonzero rational x, from one split of
    |numerator| and one of the denominator; DomainError if a prime outside
    primes divides x."""
    up, num = _split_primes(abs(x.numerator), primes)
    down, den = _split_primes(x.denominator, primes)
    if num != 1 or den != 1:
        raise DomainError(f"{x} is not supported on the group primes")
    return [up.get(p, 0) - down.get(p, 0) for p in primes]


def root_group(roots: Iterable[Fraction]) -> RootGroup:
    roots = tuple(Fraction(r) for r in roots)
    if any(r == 0 for r in roots):
        raise DomainError("roots must be nonzero")
    primes = tuple(support_primes(*roots)) if roots else ()
    rows = [_exponent_vector(r, primes) for r in roots]
    if rows:
        H, T = hnf_with_transform(rows)
        nonzero = [i for i in range(len(rows)) if any(H[i])]
        basis = tuple(tuple(H[i]) for i in nonzero)
        generators = []
        for i in nonzero:
            val = Fraction(1)
            for r, c in zip(roots, T[i]):
                val *= r**c
            generators.append(val)
        # torsion: some integer combination of the roots has trivial prime
        # part but negative sign
        torsion = False
        # the rows of T whose row of H is zero span the integer kernel
        for kvec in (T[i] for i in range(len(rows)) if not any(H[i])):
            sign = 1
            for r, c in zip(roots, kvec):
                if r < 0 and c % 2:
                    sign = -sign
            if sign < 0:
                torsion = True
                break
    else:
        basis, generators, torsion = (), [], False
    return RootGroup(
        inputs=roots,
        primes=primes,
        basis=basis,
        generators=tuple(generators),
        rank=len(basis),
        has_torsion=torsion,
    )


def multiplicative_independence(
    roots_f: Iterable[Fraction], roots_g: Iterable[Fraction]
) -> bool:
    """Whether the two root sets generate a group of rank rank_f + rank_g."""
    gf = root_group(roots_f)
    gg = root_group(roots_g)
    combined = root_group(tuple(gf.inputs) + tuple(gg.inputs))
    return combined.rank == gf.rank + gg.rank


def compute_S0(roots_f: Iterable[Fraction], roots_g: Iterable[Fraction]) -> PlaceSet:
    """Places where every root of both sequences has absolute value < 1."""
    roots = tuple(Fraction(r) for r in roots_f) + tuple(Fraction(r) for r in roots_g)
    if any(r == 0 for r in roots):
        raise DomainError("roots must be nonzero")
    if not roots:
        return PlaceSet(False, ())
    arch = all(abs(r) < 1 for r in roots)
    # v_p(r) > 0 exactly when p divides r's numerator
    primes = support_primes(math.gcd(*(r.numerator for r in roots)))
    return PlaceSet(arch, tuple(primes))


# ---------------------------------------------------------------------
# Laurent representation and coprimality
# ---------------------------------------------------------------------

def to_laurent(F: PowerSum, group: RootGroup) -> LaurentPoly:
    """The Laurent polynomial f with F(n) = f(n, g_1^n, ..., g_r^n) for the
    group's generators g_i; x1 is the index variable.  Requires a
    torsion-free group containing every root."""
    if group.has_torsion:
        raise DomainError("root group has torsion; split residue classes first")
    # express is exact, so distinct roots never share an exponent vector
    return LaurentPoly(1 + group.rank, {
        (j, *exps): c
        for cs, root in F.terms for exps in [group.express(root)]
        for j, c in enumerate(cs)
    })


def lrs_coprime(F: PowerSum, G: PowerSum) -> bool:
    """Coprimality of the Laurent polynomials attached to F and G over the
    combined root group.  A group with torsion (some ratio of roots is -1)
    raises DomainError."""
    if F.is_zero or G.is_zero:
        raise DomainError("coprimality with the zero sequence is undefined")
    combined = root_group(F.roots + G.roots)
    f = to_laurent(F, combined)
    g = to_laurent(G, combined)
    _, f0 = f.normalize()
    _, g0 = g.normalize()
    if f0.is_constant() or g0.is_constant():
        return True
    return poly_coprime(f0, g0)
