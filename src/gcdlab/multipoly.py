"""Exact multivariate and Laurent polynomial arithmetic over Q.

Polynomials are sparse maps from exponent tuples to nonzero rational
coefficients.  The gcd (used only to decide coprimality and for contents) is
a pseudo-remainder sequence with primitive reduction and recursive content
extraction, which is entirely adequate at desk-scale degrees."""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from typing import Iterable, Sequence

from .places import DomainError


def _grlex_key(e: tuple[int, ...]) -> tuple:
    return (sum(e), e)


def _accumulate(pairs) -> dict[tuple[int, ...], Fraction]:
    """Sum (exponent, coefficient) pairs into a term map without zeros."""
    out: dict[tuple[int, ...], Fraction] = {}
    for e, c in pairs:
        if e in out:
            c += out[e]
            if not c:
                del out[e]
                continue
        elif not c:
            continue
        out[e] = c
    return out


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

    def degree_in(self, k: int) -> int:
        return max((e[k] for e in self.terms), default=-1)

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
            base = base * base
            k >>= 1
        return out

    def vanishes_at_origin(self) -> bool:
        return self.constant_term() == 0

    # -- variable plumbing ---------------------------------------------
    def homogenize(self) -> "MultiPoly":
        """Homogenization with a fresh first variable x0: the result H
        satisfies H(1, x) == self(x) and is homogeneous of degree deg(self)."""
        if self.is_zero:
            raise DomainError("cannot homogenize the zero polynomial")
        d = self.degree()
        out = {}
        for e, c in self.terms.items():
            out[(d - sum(e),) + e] = c
        return MultiPoly(self.nvars + 1, out)

    def dehomogenize(self) -> "MultiPoly":
        """Set the first variable to 1."""
        return MultiPoly(
            self.nvars - 1, _accumulate((e[1:], c) for e, c in self.terms.items())
        )

    def coeffs_in(self, k: int) -> list["MultiPoly"]:
        """Dense coefficient list [c0, c1, ...] of self as a polynomial in
        x_{k+1}; coefficients keep the full variable count with exponent 0
        in position k."""
        d = self.degree_in(k)
        coeffs = [dict() for _ in range(d + 1)]
        for e, c in self.terms.items():
            reduced = e[:k] + (0,) + e[k + 1 :]
            coeffs[e[k]][reduced] = c
        return [MultiPoly(self.nvars, t) for t in coeffs]

    @staticmethod
    def from_coeffs_in(nvars: int, k: int, coeffs: Iterable["MultiPoly"]) -> "MultiPoly":
        return MultiPoly(
            nvars,
            _accumulate(
                (e[:k] + (j,) + e[k + 1 :], c)
                for j, p in enumerate(coeffs)
                for e, c in p.terms.items()
            ),
        )


def _coords(point) -> Sequence:
    coords = getattr(point, "coords", None)
    return coords if coords is not None else point


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
    idx = 0

    def peek():
        return items[idx] if idx < len(items) else (None, None)

    def take():
        nonlocal idx
        item = items[idx]
        idx += 1
        return item

    def parse_expr() -> MultiPoly:
        kind, val = peek()
        negate = False
        if kind == "op" and val in "+-":
            take()
            negate = val == "-"
        node = parse_term()
        if negate:
            node = -node
        while True:
            kind, val = peek()
            if kind == "op" and val in "+-":
                take()
                rhs = parse_term()
                node = node - rhs if val == "-" else node + rhs
            else:
                return node

    def parse_term() -> MultiPoly:
        node = parse_factor()
        while True:
            kind, val = peek()
            if kind == "op" and val == "*":
                take()
                node = node * parse_factor()
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
        if kind == "num":
            base = MultiPoly.constant(n, Fraction(val))
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
            base = base ** int(exp)
        return base

    result = parse_expr()
    if idx != len(items):
        raise DomainError(f"trailing input near {items[idx][1]!r}")
    return result


# ---------------------------------------------------------------------
# gcd and coprimality
# ---------------------------------------------------------------------

def _divexact(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Exact division a / b; raises if b does not divide a."""
    if b.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    if b.is_constant():
        return a.scale(Fraction(1) / b.constant_term())
    if a.is_zero:
        return a
    k = next(i for i in range(b.nvars) if b.degree_in(i) > 0)
    bc = b.coeffs_in(k)
    lead = bc[-1]
    da, db = a.degree_in(k), len(bc) - 1
    if da < db:
        raise ArithmeticError("inexact polynomial division")
    rem = a.coeffs_in(k)
    quo: list[MultiPoly] = [MultiPoly.zero(a.nvars)] * (da - db + 1)
    for j in range(da - db, -1, -1):
        top = rem[j + db]
        if top.is_zero:
            continue
        q = _divexact(top, lead)
        quo[j] = q
        for i, c in enumerate(bc):
            rem[i + j] = rem[i + j] - q * c
    if any(not r.is_zero for r in rem):
        raise ArithmeticError("inexact polynomial division")
    return MultiPoly.from_coeffs_in(a.nvars, k, quo)


def _pseudo_rem(a: MultiPoly, b: MultiPoly, k: int) -> MultiPoly:
    """Pseudo-remainder of a by b with respect to x_{k+1}."""
    bc = b.coeffs_in(k)
    lead = bc[-1]
    db = len(bc) - 1
    rem = a
    while not rem.is_zero and rem.degree_in(k) >= db:
        rc = rem.coeffs_in(k)
        dr = len(rc) - 1
        shift = dr - db
        # lead * rem - rc[-1] * x^shift * b
        rem = lead * rem - MultiPoly.from_coeffs_in(
            a.nvars,
            k,
            [MultiPoly.zero(a.nvars)] * shift + [rc[-1] * c for c in bc],
        )
    return rem


def _content_in(f: MultiPoly, k: int) -> MultiPoly:
    coeffs = [c for c in f.coeffs_in(k) if not c.is_zero]
    g = MultiPoly.zero(f.nvars)
    for c in coeffs:
        g = poly_gcd(g, c)
        if g.is_constant() and not g.is_zero:
            break
    return g


def _normalize(f: MultiPoly) -> MultiPoly:
    """Scale so the grlex-leading coefficient is 1."""
    if f.is_zero:
        return f
    lead = f.sorted_terms()[0][1]
    return f.scale(Fraction(1) / lead)


def poly_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """gcd in Q[x1..xn], normalized monic in graded-lex; gcd(0, g) = ~g."""
    if f.is_zero:
        return _normalize(g)
    if g.is_zero:
        return _normalize(f)
    if f.nvars != g.nvars:
        raise ValueError("variable count mismatch")
    if f.is_constant() or g.is_constant():
        return MultiPoly.one(f.nvars)
    k = next(
        (i for i in range(f.nvars) if f.degree_in(i) > 0 and g.degree_in(i) > 0),
        None,
    )
    if k is None:
        # no shared variable: the gcd can involve neither side's variables
        kf = next(i for i in range(f.nvars) if f.degree_in(i) > 0)
        return poly_gcd(_content_in(f, kf), g)
    cf, cg = _content_in(f, k), _content_in(g, k)
    c = poly_gcd(cf, cg)
    a = _divexact(f, cf)
    b = _divexact(g, cg)
    if a.degree_in(k) < b.degree_in(k):
        a, b = b, a
    # primitive pseudo-remainder sequence
    while True:
        r = _pseudo_rem(a, b, k)
        if r.is_zero:
            break
        rc = _content_in(r, k)
        r = _divexact(r, rc)
        a, b = b, r
        if b.degree_in(k) == 0:
            return _normalize(c)
    return _normalize(c * b)


def coprime(f: MultiPoly, g: MultiPoly) -> bool:
    """Whether gcd(f, g) is a nonzero constant."""
    if f.is_zero or g.is_zero:
        raise DomainError("coprimality of the zero polynomial is undefined")
    return poly_gcd(f, g).is_constant()


# ---------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------

class LaurentPoly(_SparsePoly):
    """Polynomial with integer (possibly negative) exponents."""

    __slots__ = ()
    _negative_exponents = True

    @staticmethod
    def from_poly(p: MultiPoly) -> "LaurentPoly":
        return LaurentPoly(p.nvars, dict(p.terms))

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


def laurent_normalize(f: LaurentPoly) -> tuple[tuple[int, ...], MultiPoly]:
    return f.normalize()
