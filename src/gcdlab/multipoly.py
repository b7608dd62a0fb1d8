"""Exact multivariate and Laurent polynomial arithmetic over Q.

Polynomials are sparse maps from exponent tuples to nonzero rational
coefficients.  The gcd is linear algebra on the map (p, q) -> p*f + q*g
with deg p < deg g and deg q < deg f: one elimination, taking the rows of
f in a monomial order, stops at the first that depends on the rows before
it and reads the cofactor g/gcd off it, and one reduction divides it out
of g.  Both are rows built by _multiple_rows, the same monomial multiples
the truncated ideals of hilbert use, eliminated by linalg's one integer
elimination.

Coprimality is first tried on a line: f and g restricted to a fixed integer
line a + t*b, with the top-degree part of f or of g nonzero at b, have a
constant univariate gcd only if f and g are coprime, because a common
factor keeps its full degree on such a line.  The restrictions are taken
mod a fixed prime that the top-degree part must also survive, so the
certificate stays exact on bounded integers.  Each restriction is one exact
evaluation of f, its coefficients reduced mod the prime first, at a point
a + b*2^W wide enough that the coefficients of the restriction are its
base-2^W digits (Kronecker substitution).  The certificate settles most
coprime pairs without the multivariate gcd, which decides what it leaves
open."""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
from fractions import Fraction
from typing import Sequence

from .linalg import LinearSpan, _accumulate
from .places import DomainError, _refuse_past, parse_rational


def _grlex_key(e: tuple[int, ...]) -> tuple:
    return (sum(e), e)


class _SparsePoly:
    """Term-map core shared by MultiPoly and LaurentPoly: a sparse map from
    exponent tuples to nonzero Fraction coefficients.  Results keep the type
    of the left operand; the two types never compare equal."""

    __slots__ = ("nvars", "terms")
    _negative_exponents = False

    def __init__(self, nvars: int, terms=None):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        self.nvars = nvars
        pairs = []
        for e, c in (terms or {}).items():
            e = tuple(int(x) for x in e)
            if len(e) != nvars or (min(e, default=0) < 0 and not self._negative_exponents):
                raise ValueError(f"bad exponent tuple {e} for nvars={nvars}")
            pairs.append((e, Fraction(c)))
        self.terms = _accumulate(pairs)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    __hash__ = None

    # -- arithmetic ---------------------------------------------------
    def _check(self, other: "_SparsePoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    def __add__(self, other):
        self._check(other)
        return type(self)(
            self.nvars, _accumulate(itertools.chain(self.terms.items(), other.terms.items()))
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        return type(self)(
            self.nvars,
            _accumulate(
                (tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
                for e1, c1 in self.terms.items()
                for e2, c2 in other.terms.items()
            ),
        )

    __rmul__ = __mul__

    def scale(self, c):
        c = Fraction(c)
        return type(self)(self.nvars, {e: x * c for e, x in self.terms.items()})

    def eval(self, point: Sequence) -> Fraction:
        """Exact value at a rational point."""
        vals = [Fraction(c) for c in _coords(point)]
        if len(vals) != self.nvars:
            raise ValueError("point dimension mismatch")
        total = Fraction(0)
        for e, c in self.terms.items():
            t = c
            for x, k in zip(vals, e):
                if k:
                    if k < 0 and x == 0:
                        raise DomainError("zero coordinate under negative exponent")
                    t *= x**k
            total += t
        return total

    # -- printing -----------------------------------------------------
    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            for i, k in enumerate(e):
                if k == 1:
                    factors.append(f"x{i + 1}")
                elif k != 0:
                    factors.append(f"x{i + 1}^{k}")
            if not factors:
                body = str(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = str(abs(c)) + "*" + "*".join(factors)
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.nvars}, {self})"


class MultiPoly(_SparsePoly):
    """Polynomial in nvars variables x1..xn with Fraction coefficients."""

    __slots__ = ()
    # bound in the class's own __dict__, where bench/tracer.py looks methods up
    eval = _SparsePoly.eval

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero(nvars: int) -> "MultiPoly":
        return MultiPoly(nvars, {})

    @staticmethod
    def constant(nvars: int, c) -> "MultiPoly":
        return MultiPoly(nvars, {tuple([0] * nvars): Fraction(c)})

    @staticmethod
    def one(nvars: int) -> "MultiPoly":
        return MultiPoly.constant(nvars, 1)

    @staticmethod
    def variable(nvars: int, i: int) -> "MultiPoly":
        e = [0] * nvars
        e[i] = 1
        return MultiPoly(nvars, {tuple(e): Fraction(1)})

    @staticmethod
    def monomial(nvars: int, exponents: Sequence[int], c=1) -> "MultiPoly":
        return MultiPoly(nvars, {tuple(exponents): Fraction(c)})

    # -- structure ----------------------------------------------------
    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_term(self) -> Fraction:
        return self.terms.get(tuple([0] * self.nvars), Fraction(0))

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def __pow__(self, k: int) -> "MultiPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = MultiPoly.one(self.nvars)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def vanishes_at_origin(self) -> bool:
        return self.constant_term() == 0


def _coords(point) -> Sequence:
    coords = getattr(point, "coords", None)
    return coords if coords is not None else point


# Checked by parse_poly before each '*' and '^' and each number or
# variable: the running total of its estimated work, in term products, each
# weighted by (1 + b // 512)^2 for the bits b of a coefficient operand, a
# schoolbook cost in units fitted to measured parse times, plus nvars for
# each number or variable, whose one term has nvars exponents.  Near the
# bound a parse takes up to about 2.5 s on a 2-core Xeon.
PARSE_MAX_WORK = 1 << 19


def _coefficient_bits(p: MultiPoly) -> int:
    """The largest floor(log2 |a|) + floor(log2 b) of a coefficient a/b of p."""
    return max((c.numerator.bit_length() + c.denominator.bit_length() - 2
                for c in p.terms.values()), default=0)


def _product_work(terms_p: int, terms_q: int, bits: int) -> int:
    return terms_p * terms_q * (1 + bits // 512) ** 2


def _power_work(p: MultiPoly, k: int) -> int:
    """The work of the last squaring of p ** k, of p ** (k // 2) by itself.
    p ** j has at most min(C(t + j - 1, j), C(nvars + j deg, nvars)) terms,
    for the t terms of p, and coefficients of about j times the bits of p's
    plus log2 t."""
    j, t = k // 2, len(p.terms)
    if not (j and t):
        return 0
    terms = min(math.comb(t + j - 1, j), math.comb(p.nvars + j * p.degree(), p.nvars))
    return _product_work(terms, terms, j * (_coefficient_bits(p) + (t - 1).bit_length()))


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<var>x\d+)|(?P<op>[-+*^()]))"
)


def parse_poly(text: str, nvars: int | None = None) -> MultiPoly:
    """Parse polynomials like '3/2*x1^2*x2 - x3 + 1'.  Unknown symbols are
    rejected; the variable count is inferred from the largest index unless
    given."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise DomainError(f"unexpected symbol at {text[pos:]!r}")
        tokens.append(m)
        pos = m.end()
    items = [
        (m.lastgroup, m.group(m.lastgroup)) for m in tokens
    ]
    max_index = 0
    for kind, val in items:
        if kind == "var":
            if int(val[1:]) < 1:
                raise DomainError(f"variables are numbered from x1, not {val!r}")
            max_index = max(max_index, int(val[1:]))
    n = nvars if nvars is not None else max_index
    if max_index > n:
        raise DomainError(f"variable x{max_index} exceeds nvars={n}")

    # shunting-free recursive descent: expr := term (('+'|'-') term)*
    # term := factor ('*' factor)* ; factor := num | var ['^' num] | '(' expr ')' | '-' factor
    idx = work = 0

    def bound_work(cost: int) -> None:
        nonlocal work
        work += cost
        _refuse_past(work, PARSE_MAX_WORK, "term products")

    def peek():
        return items[idx] if idx < len(items) else (None, None)

    def take():
        nonlocal idx
        item = items[idx]
        idx += 1
        return item

    def parse_expr() -> MultiPoly:
        # one sum of all signed terms: a sum taken pairwise copies and checks
        # the map at every sign, which is cubic in a sum of many variables
        kind, val = peek()
        sign = 1
        if kind == "op" and val in "+-":
            take()
            sign = -1 if val == "-" else 1
        signed = [(sign, parse_term())]
        while True:
            kind, val = peek()
            if kind == "op" and val in "+-":
                take()
                signed.append((-1 if val == "-" else 1, parse_term()))
            else:
                return MultiPoly(n, _accumulate((e, sign * c) for sign, p in signed
                                                for e, c in p.terms.items()))

    def parse_term() -> MultiPoly:
        node = parse_factor()
        while True:
            kind, val = peek()
            if kind == "op" and val == "*":
                take()
                rhs = parse_factor()
                bound_work(_product_work(len(node.terms), len(rhs.terms),
                                         max(map(_coefficient_bits, (node, rhs)))))
                node = node * rhs
            elif kind in ("num", "var") or (kind == "op" and val == "("):
                # implicit multiplication like '2x1' is rejected on purpose
                raise DomainError("missing '*' between factors")
            else:
                return node

    def parse_factor() -> MultiPoly:
        kind, val = take() if idx < len(items) else (None, None)
        if kind is None:
            raise DomainError("unexpected end of polynomial")
        if kind == "op" and val == "-":
            return -parse_factor()
        if kind in ("num", "var"):
            # one term of n exponents, counted as n term products
            bound_work(n)
        if kind == "num":
            base = MultiPoly.constant(n, parse_rational(val))
        elif kind == "var":
            base = MultiPoly.variable(n, int(val[1:]) - 1)
        elif kind == "op" and val == "(":
            base = parse_expr()
            kind2, val2 = take() if idx < len(items) else (None, None)
            if (kind2, val2) != ("op", ")"):
                raise DomainError("unbalanced parentheses")
        else:
            raise DomainError(f"unexpected token {val!r}")
        kind, val = peek()
        if kind == "op" and val == "^":
            take()
            kind2, exp = take() if idx < len(items) else (None, None)
            if kind2 != "num" or "/" in exp:
                raise DomainError("exponent must be a nonnegative integer")
            bound_work(_power_work(base, int(exp)))
            base = base ** int(exp)
        return base

    result = parse_expr()
    if idx != len(items):
        raise DomainError(f"trailing input near {items[idx][1]!r}")
    return result


# ---------------------------------------------------------------------
# monomial bookkeeping: the one builder of coordinate rows
# ---------------------------------------------------------------------

@functools.lru_cache(maxsize=256)
def _monomial_table(nvars: int, degree: int) -> tuple[tuple, dict[tuple[int, ...], int]]:
    """The exponent tuples of the given total degree, lexicographically
    sorted, and their monomial -> column index, built once per (nvars,
    degree).  Shared between callers: neither may be mutated.  Stars and
    bars: the nvars - 1 bar positions among degree + nvars - 1 slots, taken
    in lexicographic order, give the exponents (the gaps between bars) in
    lexicographic order."""
    if degree < 0 or (nvars == 0 and degree > 0):
        monomials = ()
    elif nvars == 0:
        monomials = ((),)
    else:
        slots = degree + nvars - 1
        monomials = tuple(
            tuple(hi - lo - 1 for lo, hi in zip((-1,) + bars, bars + (slots,)))
            for bars in itertools.combinations(range(slots), nvars - 1)
        )
    return monomials, _column_index(monomials)


@functools.lru_cache(maxsize=256)
def _product_columns(nvars: int, da: int, db: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """For each degree-db monomial e, the bit offsets 8 * column of a + e in
    the degree-(da + db) table, for every a in the degree-da table in
    order: where a term at e lands in each packed row x^a * F.  Built once
    per (nvars, da, db) and shared between callers: not to be mutated."""
    multipliers = _monomial_table(nvars, da)[0]
    column = _monomial_table(nvars, da + db)[1]
    return {
        e: tuple(column[tuple(map(operator.add, a, e))] << 3 for a in multipliers)
        for e in _monomial_table(nvars, db)[0]
    }


@functools.lru_cache(maxsize=256)
def _shift_masks(nvars: int, degree: int) -> tuple[int, ...]:
    """For the j-th monomial m of the degree table, the bitmask of the
    columns of x_1 m, ..., x_nvars m in the degree + 1 table, read off
    _product_columns(nvars, 1, degree).  Built once per (nvars, degree)."""
    return tuple(sum(1 << (s >> 3) for s in shifts)
                 for shifts in _product_columns(nvars, 1, degree).values())


def monomials_upto(nvars: int, m: int) -> list[tuple[int, ...]]:
    """All exponent tuples of total degree <= m, graded-lex sorted."""
    out = []
    for d in range(m + 1):
        out.extend(_monomial_table(nvars, d)[0])
    return out


def _column_index(monomials) -> dict[tuple[int, ...], int]:
    return {e: j for j, e in enumerate(monomials)}


def _integral_terms(F: MultiPoly) -> list[tuple[tuple[int, ...], int]]:
    """F's terms scaled by the lcm of its coefficient denominators: an
    integral generator of the same span."""
    s = math.lcm(*(c.denominator for c in F.terms.values()))
    return [(e, c.numerator * (s // c.denominator)) for e, c in F.terms.items()]


def _multiple_rows(column: dict, F: MultiPoly, multipliers) -> list[dict[int, int]]:
    """Sparse {column: int} coordinate rows, under a monomial -> column
    index, of the products x^a * F for a in multipliers, with F made
    integral by _integral_terms."""
    terms = _integral_terms(F)
    return [
        {column[tuple(map(operator.add, a, e))]: c for e, c in terms}
        for a in multipliers
    ]


# ---------------------------------------------------------------------
# gcd and coprimality
# ---------------------------------------------------------------------

def _normalize(f: MultiPoly) -> MultiPoly:
    """Scale so the grlex-leading coefficient is 1."""
    if f.is_zero:
        return f
    lead = f.sorted_terms()[0][1]
    return f.scale(Fraction(1) / lead)


def _cofactor_rows(f: MultiPoly, g: MultiPoly) -> tuple[int, list, list]:
    """The map (p, q) -> p*f + q*g with deg p < deg g and deg q < deg f:
    its number of columns, its rows x^b * g and its rows x^a * f, the
    latter in monomials_upto order."""
    n = f.nvars
    column = _column_index(monomials_upto(n, f.degree() + g.degree() - 1))
    return (
        len(column),
        _multiple_rows(column, g, monomials_upto(n, f.degree() - 1)),
        _multiple_rows(column, f, monomials_upto(n, g.degree() - 1)),
    )


def _gcd_cofactor(f: MultiPoly, g: MultiPoly) -> MultiPoly | None:
    """g/gcd(f, g) up to a scalar, read off the first row x^a * f that
    depends on the rows before it (see poly_gcd), or None if no row
    depends, that is if f and g are coprime.  Needs deg f >= deg g."""
    ncols, g_rows, f_rows = _cofactor_rows(f, g)
    span = LinearSpan(ncols, len(f_rows))
    for row in g_rows:
        span.add(row)
    for j, row in enumerate(f_rows):
        if not span.add(row, {j: 1}):
            _, kernel = span.reduce(row, {j: 1})
            n = f.nvars
            return MultiPoly(n, dict(zip(monomials_upto(n, g.degree() - 1), kernel)))
    return None


def poly_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """gcd in Q[x1..xn], normalized monic in graded-lex; gcd(0, g) = ~g.

    For nonconstant f, g with G = gcd(f, g) of degree D, the map
    (p, q) -> p*f + q*g with deg p < deg g and deg q < deg f has the
    kernel {(h*g/G, -h*f/G) : deg h < D}.  The rows of g are independent;
    the rows x^a * f follow in monomials_upto order, which is graded and
    then lex, a monomial order.  A row that depends on the rows before it
    gives a kernel vector whose p-part has largest monomial a, and every
    kernel p-part h*g/G has largest monomial at least LM(g/G).  So the
    first dependent row has a = LM(g/G), and reduced against the rows
    before it, its p-part u is g/G up to a scalar (only the rows of f
    carry tags, because only u is read).  If no row depends, D = 0.
    Otherwise D = deg g - deg u, and G is the h of degree <= D with
    u*h = g: g reduced against the multiples of u must leave a zero
    residual, which proves the division.  From u*f + q*g = 0 and
    g = u*h, u*(f + q*h) = 0, so f = -q*h: h divides both, and it has
    the degree of the gcd."""
    if f.is_zero:
        return _normalize(g)
    if g.is_zero:
        return _normalize(f)
    if f.nvars != g.nvars:
        raise ValueError("variable count mismatch")
    if f.is_constant() or g.is_constant():
        return MultiPoly.one(f.nvars)
    nvars = f.nvars
    # a variable in neither f nor g would only enlarge every matrix
    used = sorted({i for p in (f, g) for e in p.terms for i, k in enumerate(e) if k})
    f, g = (MultiPoly(len(used), {tuple(e[i] for i in used): c for e, c in p.terms.items()})
            for p in (f, g))
    if f.degree() < g.degree():
        f, g = g, f
    n = f.nvars
    u = _gcd_cofactor(f, g)
    if u is None:
        return MultiPoly.one(nvars)
    multipliers = monomials_upto(n, g.degree() - u.degree())
    column = _column_index(monomials_upto(n, g.degree()))
    span = LinearSpan(len(column), len(multipliers))
    for j, row in enumerate(_multiple_rows(column, u, multipliers)):
        span.add(row, {j: 1})
    residual, quotient = span.reduce({column[e]: c for e, c in _integral_terms(g)})
    if any(residual):
        raise ArithmeticError("the cofactor does not divide g")
    embed = [0] * nvars
    terms = {}
    for e, c in zip(multipliers, quotient):
        for i, k in zip(used, e):
            embed[i] = k
        terms[tuple(embed)] = c
    return _normalize(MultiPoly(nvars, terms))


# directions b tried in turn for the line certificate of coprime(), and the
# prime modulus of its univariate arithmetic
LINE_DIRECTIONS = 3
LINE_PRIME = 2**61 - 1


def _line(nvars: int, k: int) -> tuple[list[int], list[int]]:
    """The fixed integer line a + t*b of the k-th coprimality certificate:
    a = (1, -2, 3, -4, ...) and b = (1, k + 2, (k + 2)^2, ...)."""
    return [(-1) ** i * (i + 1) for i in range(nvars)], [(k + 2) ** i for i in range(nvars)]


def _restrict(f: MultiPoly, a: list[int], b: list[int]) -> list[int]:
    """Coefficients mod LINE_PRIME, constant first and without trailing
    zeros, of f(a + t*b) made integral by _integral_terms.

    One exact evaluation (Kronecker substitution): with the coefficients c
    reduced mod P = LINE_PRIME first, each coefficient of the restriction
    is at most B = sum c * prod (|a_i| + |b_i|)^e_i in absolute value, as
    (|a_i| + |b_i|)^k is the absolute sum of the coefficients of
    (a_i + b_i t)^k.  So at t = 2^W with 2^(W - 1) > B the value holds the
    coefficients as signed base-2^W digits; adding 2^(W - 1) to every digit
    makes them the plain digits of one nonnegative int, which are read off
    its bytes (W is a multiple of 8) and reduced mod P."""
    P = LINE_PRIME
    terms = [(e, c % P) for e, c in _integral_terms(f)]
    sizes = [abs(x) + abs(y) for x, y in zip(a, b)]
    bound = 0
    for e, c in terms:
        for s, k in zip(sizes, e):
            if k:
                c *= s**k
        bound += c
    if not bound:
        return []
    width = (bound.bit_length() + 8) // 8   # bytes of a digit: 2^(8 width - 1) > bound
    T = 1 << (8 * width)
    # the powers of a_i + b_i T that f uses, each from the one before it, so
    # a dense f costs one product per power and a sparse one a pow per term
    powers = []
    for x, y, used in zip(a, b, zip(*(e for e, _ in terms))):
        x += y * T
        power, done, before = {}, 1, 0
        for k in sorted(set(used)):
            done *= x ** (k - before)
            power[k] = done
            before = k
        powers.append(power)
    value = 0
    for e, c in terms:
        for power, k in zip(powers, e):
            if k:
                c *= power[k]
        value += c
    # |value| lies in [T^D / 2, T^(D + 1) / 2) for the degree D of the
    # restriction over Z, so it has n = D + 1 digits
    n = abs(value).bit_length() // (8 * width) + 1
    half = T >> 1
    offset = int.from_bytes(half.to_bytes(width, "little") * n, "little")
    digits = (value + offset).to_bytes(width * n, "little")
    out = [(int.from_bytes(digits[j:j + width], "little") - half) % P
           for j in range(0, width * n, width)]
    while out and not out[-1]:
        out.pop()
    return out


def _coprime_mod_prime(p: list[int], q: list[int]) -> bool:
    """Whether gcd(p, q) over the integers mod LINE_PRIME is constant, by
    Euclid's algorithm on coefficient lists (constant first, no trailing
    zeros); gcd(p, 0) = p."""
    P = LINE_PRIME
    while q:
        inverse = pow(q[-1], -1, P)
        r = list(p)
        while len(r) >= len(q):
            c, shift = r[-1] * inverse % P, len(r) - len(q)
            for i, y in enumerate(q):
                r[shift + i] = (r[shift + i] - c * y) % P
            while r and not r[-1]:
                r.pop()
        p, q = q, r
    return len(p) == 1


def coprime(f: MultiPoly, g: MultiPoly) -> bool:
    """Whether gcd(f, g) is a nonzero constant.

    First an exact line certificate: restrict f and g, scaled to integer
    coefficients, to a fixed integer line a + t*b, and reduce the
    restrictions mod the prime P = LINE_PRIME.  Let the direction b keep the
    restriction of f (or of g) at its full degree mod P, that is, keep the
    top-degree part nonzero mod P at b.  A common factor G, taken primitive
    in Z[x], divides f in Z[x] (Gauss), so G's top-degree part divides f's
    and is nonzero mod P at b: G restricts to a polynomial of degree
    deg G in t that divides both restrictions mod P.  So if the two
    restrictions have a constant gcd mod P, f and g are coprime.  Each
    restriction is read off one exact evaluation of f, with its
    coefficients reduced mod P first (_restrict), and Euclid's algorithm
    runs on integers below P whatever the degrees and coefficients.  When
    no direction tried gives such a certificate (f and g share a factor,
    every line meets a common zero, or both top-degree parts vanish at
    every direction), poly_gcd decides: in the coprime case its one
    elimination finds no dependent row of f."""
    if f.is_zero or g.is_zero:
        raise DomainError("coprimality of the zero polynomial is undefined")
    if f.nvars != g.nvars:
        raise ValueError("variable count mismatch")
    for k in range(LINE_DIRECTIONS):
        a, b = _line(f.nvars, k)
        rf, rg = _restrict(f, a, b), _restrict(g, a, b)
        full = len(rf) == f.degree() + 1 or len(rg) == g.degree() + 1
        if full and _coprime_mod_prime(rf, rg):
            return True
    return poly_gcd(f, g).is_constant()


# ---------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------

class LaurentPoly(_SparsePoly):
    """Polynomial with integer (possibly negative) exponents."""

    __slots__ = ()
    _negative_exponents = True

    def normalize(self) -> tuple[tuple[int, ...], MultiPoly]:
        """Unique factorization monomial * f0 with f0 a polynomial divisible
        by no variable."""
        if self.is_zero:
            raise DomainError("cannot normalize the zero Laurent polynomial")
        mins = tuple(
            min(e[i] for e in self.terms) for i in range(self.nvars)
        )
        shifted = {
            tuple(a - b for a, b in zip(e, mins)): c for e, c in self.terms.items()
        }
        return mins, MultiPoly(self.nvars, shifted)
