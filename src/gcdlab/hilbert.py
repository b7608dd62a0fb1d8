"""Combinatorics of truncated polynomial ideals: exact dimension formulas
for quotients by a coprime pair, the degree-bounded ideal (f,g) as an
echelon span of its monomial multiples, place-adapted greedy monomial bases
of the quotient (ordered by the exact rational |u^e|_v, no logarithm), and
the explicit constants of the gcd inequalities, all exact integers (the
S-part degree by comparing integer d-th powers, not by intervals)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import comb

from .heights import TorusPoint
from .linalg import LinearSpan, int_rank
from .multipoly import (
    MultiPoly,
    _column_index,
    _integral_terms,
    _monomial_table,
    _multiple_rows,
    _product_columns,
    _shift_masks,
    monomials_upto,
)
from .places import DomainError, Place, valuation


# ---------------------------------------------------------------------
# monomial bookkeeping (the tables and row builder live in multipoly)
# ---------------------------------------------------------------------

def monomials_exact(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples of the given total degree, lexicographically
    sorted, as a fresh list."""
    return list(_monomial_table(nvars, degree)[0])


_RANK_PRIME = 13
# byte -> byte mod 13; the largest byte a step of _rank_mod_13 makes is 12 + 12*12
_BYTE_RESIDUE = bytes(v % _RANK_PRIME for v in range(256))
_INVERSE_MOD_P = (0,) + tuple(pow(a, -1, _RANK_PRIME) for a in range(1, _RANK_PRIME))


def _residue_terms(F: MultiPoly) -> list[tuple[tuple[int, ...], int]]:
    """The nonzero terms of _integral_terms(F) reduced mod 13."""
    return [(e, c % _RANK_PRIME) for e, c in _integral_terms(F) if c % _RANK_PRIME]


def _packed_rows(nvars: int, da: int, db: int, terms) -> list[int]:
    """The rows x^a * F mod 13 for the degree-da monomials a, in table
    order, of a degree-db form F with the given residue terms, each packed
    into one int with column j of the degree-(da + db) table in its byte j
    (bits 8j to 8j + 7)."""
    columns = _product_columns(nvars, da, db)
    return [sum(row) for row in zip(*([c << shift for shift in columns[e]] for e, c in terms))]


def _rank_mod_13(rows: list[int], ncols: int, cap: int) -> tuple[int, int]:
    """Rank mod 13 of rows packed by _packed_rows over ncols columns, or cap
    as soon as the rank reaches it, and the pivot columns as a bitmask with
    bit j for column j.

    Byte-slot invariant: between steps every byte of every row holds a
    residue 0..12.  A step w + (13 - e) * pivot, with e the leading byte of
    w and the pivot row scaled to leading byte 1, makes bytes of at most
    12 + 12 * 12 < 256, so no byte carries into the next; one C-level
    bytes.translate then takes every byte back mod 13 and clears the
    leading one.  The leading column of w is its lowest nonzero byte, found
    from its lowest set bit.  Pivot rows are zero below their pivot byte,
    so the rows kept are independent mod 13, and once every row is reduced
    their pivots are the leading columns of the row space mod 13."""

    def residues(w: int) -> int:
        return int.from_bytes(w.to_bytes(ncols, "little").translate(_BYTE_RESIDUE), "little")

    pivots: dict[int, int] = {}
    for w in rows:
        while w:
            shift = ((w & -w).bit_length() - 1) & -8
            e = (w >> shift) & 255
            pivot = pivots.get(shift)
            if pivot is None:
                pivots[shift] = w if e == 1 else residues(w * _INVERSE_MOD_P[e])
                break
            w = residues(w + (_RANK_PRIME - e) * pivot)
        if len(pivots) == cap:
            break
    return len(pivots), sum(1 << (shift >> 3) for shift in pivots)


def multiindex_sum(n: int, m: int) -> tuple[int, ...]:
    """Coordinate-wise sum of all (n+1)-tuples of nonnegative integers with
    coordinate sum m, by direct enumeration."""
    if n < 1 or m < 1:
        raise DomainError("n and m must be positive")
    return tuple(map(sum, zip(*_monomial_table(n + 1, m)[0])))


def multiindex_sum_closed_form(n: int, m: int) -> tuple[int, ...]:
    """m * C(n+m, n) / (n+1) in every coordinate."""
    value = m * comb(n + m, n)
    if value % (n + 1):
        raise ArithmeticError("closed form is not integral")
    return tuple([value // (n + 1)] * (n + 1))


def dim_quotient_formula(n: int, l: int, d1: int, d2: int) -> int:
    """Dimension of the degree-l graded piece of k[x0..xn] modulo a coprime
    pair of forms of degrees d1, d2 (binomials with tops below the bottom
    vanish)."""
    if n < 1 or l < 0 or d1 < 1 or d2 < 1:
        raise DomainError("bad parameters")

    def b(top: int) -> int:
        return comb(top, n) if top >= n else 0

    return b(l + n) - b(l + n - d1) - b(l + n - d2) + b(l + n - d1 - d2)


def graded_ideal_rank(F1: MultiPoly, F2: MultiPoly, l: int) -> int:
    """Exact dim of the degree-l piece of the ideal (F1, F2) for nonzero
    forms F1, F2 in the same variables; see graded_ideal_ranks."""
    return graded_ideal_ranks(F1, F2, (l,))[0]


def graded_ideal_ranks(F1: MultiPoly, F2: MultiPoly, levels) -> list[int]:
    """Exact dims of the degree-l pieces of the ideal (F1, F2), for l in
    levels, of nonzero forms F1, F2 in the same variables: each the rank
    over Q of the matrix of all degree-l monomial multiples, proven by two
    bounds that meet.  The pair is checked and reduced mod 13 once for all
    levels.

    Upper bound: for each monomial q of degree l - d1 - d2 the Koszul
    relation (q F2) F1 - (q F1) F2 = 0 is a left-kernel vector of that
    matrix, and q -> (q F2, -q F1) is injective since F2 != 0, so
    rank <= min(b(l), b(l - d1) + b(l - d2) - b(l - d1 - d2)), with b(k)
    the number of monomials of degree k.  Equality holds when F1, F2 are
    coprime.  Three lower bounds are tried in turn, and the first that
    meets the upper bound proves it is the rank:
    1. leading monomials mod 13: take LM(h), for h mod 13, as its
       lex-smallest monomial, the lowest column of _monomial_table.  The
       order is monomial (a < b => a + c < b + c), so x_i LM(h) = LM(x_i h)
       and x^a LM(F) = LM(x^a F).  A bitmask of degree-l columns is built
       from the x_i multiples of the leading columns kept for level l - 1,
       when that level was ranked just before, and from the columns of
       x^a LM(F mod 13) for the forms not 0 mod 13 (after a carry only for
       F itself, at l = deg F: the x_i multiples hold the rest).  Each is
       the leading monomial of an element of the ideal mod 13, and
       elements with distinct leading monomials are independent, so the
       popcount is at most the rank mod 13, itself at most the rank over Q
       (an r x r minor nonzero mod 13 is nonzero over Z);
    2. the rank mod 13 of the packed rows;
    3. otherwise the integer matrix is eliminated exactly by int_rank.
    The columns kept for the next level are all the leading columns of the
    degree-l piece mod 13: the pivots of 2, or a bitmask that settled the
    rank, since it holds rank-mod-13 many of them."""
    nvars = _check_form_pair(F1, F2)
    d1, d2 = F1.degree(), F2.degree()
    residues = [(d, t) for d, t in ((d1, _residue_terms(F1)), (d2, _residue_terms(F2))) if t]
    b = partial(_monomial_count, nvars)
    ranks = []
    last_level, leading = None, 0
    for l in levels:
        bound = min(b(l), b(l - d1) + b(l - d2) - b(l - d1 - d2))
        carried = last_level == l - 1
        shifts, mask = _shift_masks(nvars, l - 1) if carried else (), 0
        while leading and shifts:
            low = leading & -leading
            mask |= shifts[low.bit_length() - 1]
            leading ^= low
        for d, terms in residues:
            if l == d or not carried:
                mask |= sum(1 << (s >> 3) for s in _product_columns(nvars, l - d, d)[min(terms)[0]])
        if mask.bit_count() < bound:
            packed = [row for d, terms in residues for row in _packed_rows(nvars, l - d, d, terms)]
            rank, mask = _rank_mod_13(packed, b(l), bound)
            if rank < bound:
                bound = int_rank(_graded_multiple_rows(F1, F2, l))
        ranks.append(bound)
        last_level, leading = l, mask
    return ranks


def _monomial_count(nvars: int, k: int) -> int:
    """The number of monomials of degree k in nvars variables."""
    if k < 0:
        return 0
    return comb(k + nvars - 1, k) if nvars else int(k == 0)


def _check_form_pair(F1: MultiPoly, F2: MultiPoly) -> int:
    """The common number of variables of two nonzero forms; DomainError
    otherwise."""
    if F1.nvars != F2.nvars:
        raise DomainError(f"forms in {F1.nvars} and {F2.nvars} variables")
    for F in (F1, F2):
        if F.is_zero:
            raise DomainError("need nonzero forms")
        if not F.is_homogeneous():
            raise DomainError(f"not a form: {F}")
    return F1.nvars


def _graded_multiple_rows(F1: MultiPoly, F2: MultiPoly, l: int) -> list[dict[int, int]]:
    """Rows of the degree-l monomial multiples of F1, then of F2, as sparse
    {column: int} dicts."""
    nvars = F1.nvars
    column = _monomial_table(nvars, l)[1]
    return [
        row
        for F in (F1, F2)
        for row in _multiple_rows(column, F, _monomial_table(nvars, l - F.degree())[0])
    ]


def quotient_monomial_basis(F1: MultiPoly, F2: MultiPoly, m: int) -> list[tuple[int, ...]]:
    """A monomial basis of the degree-m piece of the quotient by (F1, F2):
    the degree-m monomials, in graded-lex order, that stay independent of the
    ideal and of the monomials kept before them."""
    monomials = _monomial_table(F1.nvars, m)[0]
    span = LinearSpan(len(monomials))
    for row in _graded_multiple_rows(F1, F2, m):
        span.add(row)
    basis = []
    for j, e in enumerate(monomials):
        if span.add({j: 1}):
            basis.append(e)
    return basis


def dim_quotient_bruteforce(F1: MultiPoly, F2: MultiPoly, l: int) -> int:
    return _monomial_count(F1.nvars, l) - graded_ideal_rank(F1, F2, l)


def ord_sum_check(B, var_index: int, d1: int, d2: int, m: int, n: int) -> bool:
    """For a set B of degree-m monomials independent modulo a coprime pair of
    forms of degrees d1, d2 in n+1 variables: the sum of x_i-orders over B is
    at most the alternating binomial bound, itself at most
    d1*d2*C(m+n-2, n-1)."""
    total = sum(e[var_index] for e in B)

    def b(top: int, bottom: int) -> int:
        return comb(top, bottom) if top >= bottom >= 0 else 0

    alt = (
        b(m + n, n + 1)
        - b(m + n - d1, n + 1)
        - b(m + n - d2, n + 1)
        + b(m + n - d1 - d2, n + 1)
    )
    relaxed = d1 * d2 * b(m + n - 2, n - 1)
    return total <= alt <= relaxed


# ---------------------------------------------------------------------
# truncated ideal (f,g) up to degree m
# ---------------------------------------------------------------------

@dataclass
class TruncatedIdeal:
    """The vector space {f*p + g*q : deg f*p, deg g*q <= m} inside the
    polynomials of degree <= m, held as an echelon span over the
    graded-lex monomial coordinates, with its monomial -> column index."""

    f: MultiPoly
    g: MultiPoly
    m: int
    monomials: list[tuple[int, ...]]
    column: dict[tuple[int, ...], int]
    span: LinearSpan
    N: int
    Nprime: int

    @property
    def nvars(self) -> int:
        return self.f.nvars


def truncated_ideal(f: MultiPoly, g: MultiPoly, m: int) -> TruncatedIdeal:
    if f.is_zero or g.is_zero:
        raise DomainError("need nonzero polynomials")
    if m < max(f.degree(), g.degree()):
        raise DomainError("truncation bound below the degrees")
    nvars = f.nvars
    monomials = monomials_upto(nvars, m)
    column = _column_index(monomials)
    span = LinearSpan(len(monomials))
    for h in (f, g):
        for row in _multiple_rows(column, h, monomials_upto(nvars, m - h.degree())):
            span.add(row)
    N = span.rank
    return TruncatedIdeal(f, g, m, monomials, column, span, N, len(monomials) - N)


# ---------------------------------------------------------------------
# greedy monomial bases adapted to a point and place
# ---------------------------------------------------------------------

@dataclass
class GreedyBasis:
    """Quotient basis of monomials chosen greedily by increasing |u^e|_v,
    ties broken graded-lex; its tagged span reduces any monomial exactly to
    the chosen basis modulo the ideal.  Keeps the exact size |u^e|_v, a
    Fraction, of every monomial of the ideal's space."""

    place: Place
    point: TorusPoint
    monomials: list[tuple[int, ...]]
    ideal: TruncatedIdeal
    _span: LinearSpan = field(repr=False)
    _sizes: dict[tuple[int, ...], Fraction] = field(repr=False)

    def _reduced_tag(self, e) -> tuple[dict[int, int], int]:
        """(w, s): w / s is the tag of x^e reduced to the basis, sparse and
        keyed by ncols + j for the j-th basis monomial; DomainError if a
        residual is left."""
        w, s = self._span.reduce_sparse({self.ideal.column[tuple(e)]: 1})
        if min(w, default=self._span.ncols) < self._span.ncols:
            raise DomainError("monomial independent of ideal + basis")
        return w, s


def _abs_value(x: Fraction, v: Place) -> Fraction:
    """|x|_v of a nonzero rational: |x| at oo, p^(-v_p(x)) at a prime p."""
    return abs(x) if v.is_archimedean else Fraction(v.prime) ** -valuation(x, v.prime)


def _greedy_order(monomials: list, sizes: dict) -> list:
    """The monomials by increasing size, ties broken graded-lex."""
    return sorted(monomials, key=lambda e: (sizes[e], sum(e), e))


def greedy_monomial_basis(T: TruncatedIdeal, u: TorusPoint, v: Place) -> GreedyBasis:
    """The quotient basis chosen greedily from the monomials of degree <= m
    in increasing |u^e|_v, ties broken graded-lex.  Each size is the exact
    rational prod |u_i|_v^(e_i), so the order is exact."""
    if len(u.coords) != T.nvars:
        raise DomainError("point dimension mismatch")
    coords = [_abs_value(c, v) for c in u.coords]
    sizes = {e: math.prod(c ** k for c, k in zip(coords, e)) for e in T.monomials}
    n = len(T.monomials)
    span = LinearSpan(n, ntags=T.Nprime)
    # the ideal's rows, untagged: adding them again would reduce each to itself
    span.rows = dict(T.span.rows)
    chosen: list[tuple[int, ...]] = []
    for e in _greedy_order(T.monomials, sizes):
        if len(chosen) == T.Nprime:
            break
        if span.add({T.column[e]: 1}, {len(chosen): 1}):
            chosen.append(e)
    if len(chosen) != T.Nprime:
        raise ArithmeticError("quotient basis construction failed")
    return GreedyBasis(v, u, chosen, T, span, sizes)


def greedy_dominance_violations(gb: GreedyBasis):
    """Monomials of degree <= m outside the basis whose reduction uses a
    basis monomial of strictly larger |u^.|_v, as (monomial, basis
    monomial) pairs in monomial order, then basis order.  Always empty for
    a correctly built greedy basis; returned for auditing.  The support of
    each reduction is read off the span's sparse integral tag, and the
    sizes compared are the exact ones greedy_monomial_basis kept."""
    ncols = gb._span.ncols
    sizes = gb._sizes
    basis = set(gb.monomials)
    out = []
    for e in gb.ideal.monomials:
        if e in basis:
            continue
        w, _ = gb._reduced_tag(e)
        for j in sorted(w):
            mono = gb.monomials[j - ncols]
            if sizes[mono] > sizes[e]:
                out.append((e, mono))
    return out


# ---------------------------------------------------------------------
# explicit constants
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class InequalityConstants:
    """The explicit constants of the polynomial gcd inequalities for a pair
    of degrees (d1, d2) in n variables at a rational delta, plus the
    single-form S-part data for a form of degree d = min(d1, d2)."""

    n: int
    d1: int
    d2: int
    delta: Fraction
    d: int
    C_main: int          # 2(n^2 d1 + n d2)
    m_main: int          # floor(2 d1 n / sqrt(delta))
    C_combined: int      # 6 (d1 + d2) n^2
    C_spart: int         # 4 n d
    m_spart: int         # ceil((n - 2^(1/d) + 1)/(d(2^(1/d) - 1)) + 1) <= 2n
    I_spart: int         # 1 + sum_{j=1}^{m_spart - 1} C(n + j d, n)


def floor_scaled_inv_sqrt(a: int, delta: Fraction) -> int:
    """floor(a / sqrt(delta)) for a positive integer a and rational delta in
    (0, 1), by exact integer square roots."""
    delta = Fraction(delta)
    if not 0 < delta < 1:
        raise DomainError("delta must lie in (0, 1)")
    p, q = delta.numerator, delta.denominator
    # a * sqrt(q/p) = sqrt(a^2 q / p) ; floor(sqrt(A/B)) = isqrt(A*B)//B
    return math.isqrt(a * a * q * p) // p


def ceil_spart_degree(n: int, d: int) -> int:
    """ceil(x) for x = (n - t + 1) / (d (t - 1)) + 1 and t = 2^(1/d), for
    n, d >= 1.  As t > 1, x > k at an integer k >= 1 exactly when
    t < (n + 1 + (k-1) d) / (1 + (k-1) d), that is when
    2 (1 + (k-1) d)^d < (n + 1 + (k-1) d)^d; so ceil(x) is the first k
    where this fails."""
    k = 1
    while 2 * (1 + (k - 1) * d) ** d < (n + 1 + (k - 1) * d) ** d:
        k += 1
    return k


def i_spart(n: int, d: int, m: int) -> int:
    return 1 + sum(comb(n + j * d, n) for j in range(1, m))


def inequality_constants(
    n: int, d1: int, d2: int, delta: Fraction
) -> InequalityConstants:
    if min(n, d1, d2) < 1:
        raise DomainError("n, d1, d2 must be positive")
    delta = Fraction(delta)
    if not 0 < delta < 1:
        raise DomainError("delta must lie in (0, 1)")
    d = min(d1, d2)
    m_spart = ceil_spart_degree(n, d)
    if m_spart > 2 * n:
        raise ArithmeticError("degree choice exceeded 2n")
    return InequalityConstants(
        n=n,
        d1=d1,
        d2=d2,
        delta=delta,
        d=d,
        C_main=2 * (n * n * d1 + n * d2),
        m_main=floor_scaled_inv_sqrt(2 * d1 * n, delta),
        C_combined=6 * (d1 + d2) * n * n,
        C_spart=4 * n * d,
        m_spart=m_spart,
        I_spart=i_spart(n, d, m_spart),
    )


def delta_for_epsilon(eps: Fraction, n: int, d1: int, d2: int) -> Fraction:
    """The delta guaranteeing the eps-form of the gcd inequality:
    (eps / (6 n^3 (d1 + d2)))^2."""
    eps = Fraction(eps)
    if eps <= 0:
        raise DomainError("eps must be positive")
    return (eps / (6 * n**3 * (d1 + d2))) ** 2
