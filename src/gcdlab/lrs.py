"""Linear recurrence sequences over Q in polynomial-exponential form:
a term is a pair (coefficient polynomial, rational root) and a sequence is a
finite sum of terms p_i(n) * root_i^n.

Includes the ring operations, reindexing along arithmetic progressions,
zero-structure scans, the multiplicative lattice of the roots (rank,
generators, torsion), the Laurent-polynomial image with respect to a
torsion-free root group, and the induced coprimality test."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .arith import _split_primes, hnf_with_transform, integer_kernel, solve_in_row_lattice
from .heights import height
from .linalg import LinearSpan
from .logreal import LogReal
from .multipoly import LaurentPoly
from .places import (
    DomainError,
    PlaceSet,
    format_rational,
    parse_rational,
    support_primes,
)

Coeffs = tuple[Fraction, ...]


# ---------------------------------------------------------------------
# little-endian univariate coefficient polynomials
# ---------------------------------------------------------------------

def _trim(cs: Sequence[Fraction]) -> Coeffs:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _poly_eval(cs: Coeffs, n) -> Fraction:
    total = Fraction(0)
    for c in reversed(cs):
        total = total * n + c
    return total


def _poly_add(a: Coeffs, b: Coeffs) -> Coeffs:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _poly_mul(a: Coeffs, b: Coeffs) -> Coeffs:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _poly_compose_affine(cs: Coeffs, a: int, b: int) -> Coeffs:
    """p(a*t + b) as a polynomial in t."""
    out: Coeffs = ()
    lin = (Fraction(b), Fraction(a))
    for c in reversed(cs):
        out = _poly_add(_poly_mul(out, lin), (c,))
    return out


# ---------------------------------------------------------------------
# power sums
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class PowerSum:
    """sum p_i(n) * root_i^n with pairwise distinct nonzero rational roots,
    canonically ordered by root."""

    terms: tuple[tuple[Coeffs, Fraction], ...]

    def __init__(self, terms: Iterable[tuple[Sequence, Fraction]] = ()):
        merged: dict[Fraction, Coeffs] = {}
        for coeffs, root in terms:
            root = Fraction(root)
            if root == 0:
                raise DomainError("zero root in a power sum")
            cs = _trim([Fraction(c) for c in coeffs])
            if not cs:
                continue
            merged[root] = _poly_add(merged.get(root, ()), cs)
        clean = tuple(
            (cs, root)
            for root, cs in sorted(merged.items())
            if cs
        )
        object.__setattr__(self, "terms", clean)

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

    def eval(self, n: int) -> Fraction:
        """Exact value at a nonnegative integer index."""
        if n < 0:
            raise DomainError("power sums are indexed by nonnegative integers")
        total = Fraction(0)
        for cs, root in self.terms:
            total += _poly_eval(cs, n) * root**n
        return total

    def value_bits(self, n: int) -> float:
        """Estimated bits of the largest numerator or denominator of a value
        at an index up to n, from the sizes of the roots and coefficients."""
        def lg(q: Fraction) -> float:
            return math.log2(max(abs(q.numerator), q.denominator))
        return max((n * lg(r) + max(map(lg, cs)) + (len(cs) - 1) * n.bit_length()
                    for cs, r in self.terms), default=0.0)

    def __add__(self, other: "PowerSum") -> "PowerSum":
        return PowerSum(list(self.terms) + list(other.terms))

    def __neg__(self) -> "PowerSum":
        return PowerSum([(tuple(-c for c in cs), r) for cs, r in self.terms])

    def __sub__(self, other: "PowerSum") -> "PowerSum":
        return self + (-other)

    def __mul__(self, other: "PowerSum") -> "PowerSum":
        out = []
        for cs1, r1 in self.terms:
            for cs2, r2 in other.terms:
                out.append((_poly_mul(cs1, cs2), r1 * r2))
        return PowerSum(out)

    def compose_ap(self, a: int, b: int) -> "PowerSum":
        """The sequence t -> self(a*t + b)."""
        if a < 1 or b < 0:
            raise DomainError("need a >= 1 and b >= 0")
        out = []
        for cs, root in self.terms:
            out.append(
                (
                    tuple(c * root**b for c in _poly_compose_affine(cs, a, b)),
                    root**a,
                )
            )
        return PowerSum(out)

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
# JSON wire format
# ---------------------------------------------------------------------

def power_sum_to_json(F: PowerSum) -> dict:
    """{"terms": [{"coeff": [...little-endian rational strings...],
    "root": "a/b"}, ...]}"""
    return {
        "terms": [
            {"coeff": [format_rational(c) for c in cs], "root": format_rational(r)}
            for cs, r in F.terms
        ]
    }


def power_sum_from_json(data) -> PowerSum:
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

def _rational_roots(coeffs: list[Fraction]) -> list[Fraction]:
    """Roots of a univariate rational polynomial that lie in Q, with
    multiplicity, via the rational root theorem and deflation."""
    from .arith import factorize

    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    roots = []
    while len(cs) > 1:
        L = math.lcm(*(c.denominator for c in cs))
        ints = [int(c * L) for c in cs]
        low = next(i for i, c in enumerate(ints) if c)
        for _ in range(low):
            roots.append(Fraction(0))
        ints = ints[low:]
        if len(ints) == 1:
            break
        a0, an = abs(ints[0]), abs(ints[-1])

        def divisors(n):
            out = {1}
            for p, e in factorize(n).items():
                out = {d * p**k for d in out for k in range(e + 1)}
            return sorted(out)
        found = None
        for num in divisors(a0):
            for den in divisors(an):
                for cand in (Fraction(num, den), Fraction(-num, den)):
                    if _poly_eval(tuple(Fraction(c) for c in ints), cand) == 0:
                        found = cand
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            return roots  # no further rational roots
        roots.append(found)
        # synthetic division by (x - found)
        cs = [Fraction(c) for c in ints]
        out = [Fraction(0)] * (len(cs) - 1)
        acc = Fraction(0)
        for i in range(len(cs) - 1, 0, -1):
            acc = cs[i] + acc * found
            out[i - 1] = acc
        cs = out
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
    mult: dict[Fraction, int] = {}
    for r in roots:
        mult[r] = mult.get(r, 0) + 1
    # solve for the coefficient polynomials from the initial values: the
    # columns n -> n^j root^n, tagged with unit vectors, span Q^d, and
    # reducing init to zero leaves minus its coordinates in the tag
    unknown_slots = [(root, j) for root in sorted(mult) for j in range(mult[root])]
    span = LinearSpan(d, ntags=d)
    for k, (root, j) in enumerate(unknown_slots):
        if not span.add([Fraction(n) ** j * root**n for n in range(d)], {k: 1}):
            raise ArithmeticError("singular system")
    _, tag = span.reduce(init)
    terms: dict[Fraction, list[Fraction]] = {r: [Fraction(0)] * mult[r] for r in mult}
    for (root, j), c in zip(unknown_slots, tag):
        terms[root][j] = -c
    return PowerSum([(cs, r) for r, cs in terms.items()])


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
    return _zero_structure(F, [F.eval(n) for n in range(N + 1)])


def _zero_structure(F: PowerSum, values: list) -> ZeroStructure:
    """zero_scan(F, N) from values[n] == F(n) for n = 0..N, so a caller that
    has already evaluated F does not evaluate it again."""
    N = len(values) - 1
    zeros = tuple(n for n, v in enumerate(values) if v == 0)
    pairs = sum(
        1 for i, r in enumerate(F.roots) for s in F.roots[i + 1 :] if r == -s
    )
    max_mod = 2 * max(pairs, 1)
    progressions: list[tuple[int, int]] = []

    def covered(r: int, M: int) -> bool:
        return any(M % M0 == 0 and r % M0 == r0 for r0, M0 in progressions)

    for M in range(1, max_mod + 1):
        for r in range(M):
            if covered(r, M):
                continue
            if F.compose_ap(M, r).is_zero:
                progressions.append((r, M))
    prog = tuple(progressions)
    sporadic = tuple(
        n for n in zeros if not any(n % M == r for r, M in prog)
    )
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
        for kvec in integer_kernel(rows):
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
    nvars = 1 + group.rank
    terms: dict[tuple[int, ...], Fraction] = {}
    for cs, root in F.terms:
        exps = group.express(root)
        for j, c in enumerate(cs):
            if c == 0:
                continue
            key = (j,) + tuple(exps)
            terms[key] = terms.get(key, Fraction(0)) + c
    return LaurentPoly(nvars, terms)


def laurent_identity_holds(F: PowerSum, group: RootGroup, upto: int = 5) -> bool:
    f = to_laurent(F, group)
    for n in range(upto + 1):
        point = [Fraction(n)] + [Fraction(g) ** n for g in group.generators]
        if f.eval(point) != F.eval(n):
            return False
    return True


def lrs_coprime(F: PowerSum, G: PowerSum) -> bool:
    """Coprimality of the Laurent polynomials attached to F and G over the
    combined root group.  A group with torsion (some ratio of roots is -1)
    raises DomainError."""
    from .multipoly import coprime as poly_coprime

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


def monomial_height(group: RootGroup, exponents: Sequence[int]) -> LogReal:
    """Exact height of prod generators^exponents."""
    val = Fraction(1)
    for g, e in zip(group.generators, exponents):
        val *= Fraction(g) ** int(e)
    return height(val)


def empirical_height_ratio(group: RootGroup, bound: int):
    """min over 0 != |i|_inf <= bound of h(u^i) / max|i_j|, as an exact pair
    (height, scale) minimizing height/scale, plus the witness exponent."""
    import itertools as it

    if group.rank == 0:
        raise DomainError("rank-0 group has no nontrivial monomials")
    best = None  # (h, scale, exps)
    for exps in it.product(range(-bound, bound + 1), repeat=group.rank):
        if all(e == 0 for e in exps):
            continue
        h = monomial_height(group, exps)
        scale = max(abs(e) for e in exps)
        if best is None or (h * best[1] - best[0] * scale).sign() < 0:
            best = (h, scale, exps)
    return best
