import random
from fractions import Fraction

import pytest

from gcdlab.multipoly import (
    LaurentPoly,
    MultiPoly,
    coprime,
    laurent_normalize,
    parse_poly,
    poly_gcd,
)
from gcdlab.places import DomainError


def rand_poly(rng, nvars, maxdeg, terms=4):
    from gcdlab.hilbert import monomials_upto

    monos = monomials_upto(nvars, maxdeg)
    out = {}
    for e in rng.sample(monos, min(len(monos), terms)):
        out[e] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
    return MultiPoly(nvars, out)


def test_parse_print_roundtrip():
    text = "3/2*x1^2*x2 - x3 + 1"
    p = parse_poly(text)
    assert str(p) == text
    assert parse_poly(str(p), nvars=3) == p
    assert parse_poly("(x1 + 1)*(x1 - 1)") == parse_poly("x1^2 - 1")
    with pytest.raises(DomainError):
        parse_poly("x1 + y")
    with pytest.raises(DomainError):
        parse_poly("2x1")  # implicit multiplication rejected


@pytest.mark.parametrize("nvars", [None, 2])
def test_parse_rejects_variable_x0(nvars):
    """x0 once raised IndexError, or with nvars given was read as the last
    variable."""
    with pytest.raises(DomainError):
        parse_poly("x0 + 1", nvars=nvars)


def test_print_golden():
    p = MultiPoly(3, {(2, 1, 0): Fraction(-3, 2), (0, 0, 1): 1, (0, 0, 0): -2,
                      (1, 0, 0): 1, (0, 3, 0): 5})
    assert str(p) == "-3/2*x1^2*x2 + 5*x2^3 + x1 + x3 - 2"
    assert repr(p) == "MultiPoly(3, -3/2*x1^2*x2 + 5*x2^3 + x1 + x3 - 2)"
    q = LaurentPoly(2, {(-1, 2): Fraction(-3, 2), (0, -1): 1, (0, 0): -2,
                        (1, 0): 1, (-2, -3): Fraction(4, 7)})
    assert str(q) == "x1 - 3/2*x1^-1*x2^2 - 2 + x2^-1 + 4/7*x1^-2*x2^-3"
    assert repr(q) == "LaurentPoly(2, x1 - 3/2*x1^-1*x2^2 - 2 + x2^-1 + 4/7*x1^-2*x2^-3)"
    assert str(-q) == "-x1 + 3/2*x1^-1*x2^2 + 2 - x2^-1 - 4/7*x1^-2*x2^-3"
    assert str(LaurentPoly(2)) == str(MultiPoly.zero(2)) == "0"


def test_laurent_add_sub_neg_roundtrip():
    rng = random.Random(26)
    for _ in range(50):
        f, g = (
            LaurentPoly(2, {
                tuple(rng.randint(-3, 3) for _ in range(2)): Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                for _ in range(rng.randint(0, 4))
            })
            for _ in range(2)
        )
        assert (f + g) - g == f
        assert f - g == f + (-g)
        assert -(-f) == f
        assert (f - f).is_zero and (f + (-f)).is_zero
        assert (f + g).eval([2, -3]) == f.eval([2, -3]) + g.eval([2, -3])


def test_multipoly_and_laurentpoly_never_equal():
    terms = {(1, 0): 1, (0, 2): Fraction(-1, 2)}
    assert MultiPoly(2, terms) != LaurentPoly(2, terms)
    assert LaurentPoly(2, terms) != MultiPoly(2, terms)
    assert LaurentPoly.from_poly(MultiPoly(2, terms)) == LaurentPoly(2, terms)


def test_eval_examples():
    assert parse_poly("x1 + 1").eval([4]) == 5
    assert LaurentPoly(2, {(2, -1): 1}).eval([2, 3]) == Fraction(4, 3)
    assert parse_poly("x1*x2 - x1 - x2 + 1", nvars=2).eval([1, 7]) == 0
    with pytest.raises(DomainError):
        LaurentPoly(1, {(-1,): 1}).eval([0])


def test_homogenize_examples():
    # the fresh homogenizing variable is inserted first
    f = parse_poly("x1 + 1")
    assert f.homogenize() == parse_poly("x2 + x1", nvars=2)
    g = parse_poly("x1^2 + x2", nvars=2)
    gh = g.homogenize()
    assert gh.is_homogeneous() and gh.degree() == 2
    assert gh.dehomogenize() == g
    c = MultiPoly.constant(2, 3)
    assert c.homogenize().degree() == 0


def test_eval_homogenize_identity():
    rng = random.Random(21)
    for _ in range(50):
        f = rand_poly(rng, 2, 3)
        if f.is_zero:
            continue
        u = [Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9)) for _ in range(2)]
        assert f.homogenize().eval([Fraction(1)] + u) == f.eval(u)


def test_coprime_examples():
    assert coprime(parse_poly("x1 + 1", nvars=2), parse_poly("x2", nvars=2))
    assert not coprime(parse_poly("x1^2 - x2^2", nvars=2), parse_poly("x1 - x2", nvars=2))
    assert not coprime(
        parse_poly("(x1 - 1)*(x2 - 1)", nvars=2),
        parse_poly("(x1 - 1)*x2", nvars=2),
    )
    with pytest.raises(DomainError):
        coprime(MultiPoly.zero(2), parse_poly("x1", nvars=2))


def test_constructed_common_factors_always_detected():
    rng = random.Random(22)
    for _ in range(30):
        h = rand_poly(rng, 3, 2, terms=3)
        f0 = rand_poly(rng, 3, 2, terms=3)
        g0 = rand_poly(rng, 3, 2, terms=3)
        if h.is_constant() or h.is_zero or f0.is_zero or g0.is_zero:
            continue
        assert not coprime(h * f0, h * g0)
        g = poly_gcd(h * f0, h * g0)
        # h divides the gcd
        assert not coprime(g, h) or h.is_constant()


def test_coprime_random_line_oracle():
    # coprime pairs restricted to random lines share a root only where the
    # plane curves actually intersect; as a cheap oracle: for coprime (f, g)
    # the bivariate gcd restricted to 50 random lines is nonconstant only
    # finitely often, so at least one line must give a trivial univariate gcd
    rng = random.Random(23)
    checked = 0
    while checked < 10:
        f = rand_poly(rng, 2, 3)
        g = rand_poly(rng, 2, 3)
        if f.is_zero or g.is_zero or f.is_constant() or g.is_constant():
            continue
        if not coprime(f, g):
            continue
        checked += 1
        trivial_lines = 0
        for _ in range(50):
            a = [Fraction(rng.randint(-9, 9)) for _ in range(2)]
            b = [Fraction(rng.randint(1, 9)), Fraction(rng.randint(-9, 9))]
            # parametrize x = a + t b and take univariate gcds
            fu = _restrict_line(f, a, b)
            gu = _restrict_line(g, a, b)
            if fu.is_zero or gu.is_zero:
                continue
            if poly_gcd(fu, gu).is_constant():
                trivial_lines += 1
        assert trivial_lines >= 40, (str(f), str(g))


def _restrict_line(f, a, b):
    t = MultiPoly.variable(1, 0)
    subs = [MultiPoly.constant(1, ai) + t * bi for ai, bi in zip(a, b)]
    out = MultiPoly.zero(1)
    for e, c in f.terms.items():
        term = MultiPoly.constant(1, c)
        for sub, k in zip(subs, e):
            term = term * sub**k
        out = out + term
    return out


def test_gcd_divides_both():
    rng = random.Random(24)
    for _ in range(25):
        f = rand_poly(rng, 2, 3)
        g = rand_poly(rng, 2, 3)
        if f.is_zero or g.is_zero:
            continue
        d = poly_gcd(f, g)
        from gcdlab.multipoly import _divexact

        assert _divexact(f, d) * d == f
        assert _divexact(g, d) * d == g


def test_laurent_normalize_examples():
    mono, f0 = laurent_normalize(LaurentPoly(1, {(-2,): 1, (-1,): 1}))
    assert mono == (-2,) and f0 == parse_poly("x1 + 1")
    assert laurent_normalize(LaurentPoly(2, {(1, 1): 1})) == ((1, 1), MultiPoly.one(2))
    mono3, f3 = laurent_normalize(LaurentPoly(2, {(2, 0): 1, (3, 1): 1}))
    assert mono3 == (2, 0) and f3 == parse_poly("1 + x1*x2", nvars=2)


def test_laurent_normalize_roundtrip():
    rng = random.Random(25)
    for _ in range(50):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            e = tuple(rng.randint(-4, 4) for _ in range(2))
            terms[e] = Fraction(rng.randint(-5, 5) or 1)
        f = LaurentPoly(2, terms)
        if f.is_zero:
            continue
        mono, f0 = laurent_normalize(f)
        rebuilt = LaurentPoly(2, {mono: 1}) * LaurentPoly.from_poly(f0)
        assert rebuilt == f
        # f0 is divisible by no variable
        for i in range(2):
            assert min(e[i] for e in f0.terms) == 0


def test_vanishes_at_origin():
    assert parse_poly("x1 + x2", nvars=2).vanishes_at_origin()
    assert not parse_poly("x1 + 1", nvars=2).vanishes_at_origin()
    assert MultiPoly.zero(2).vanishes_at_origin()


def test_poly_gcd_matches_sympy_up_to_a_unit():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1729)
    for _ in range(60):
        nvars = rng.randint(1, 3)
        common = rand_poly(rng, nvars, 2, terms=3)
        f = rand_poly(rng, nvars, 2, terms=3) * common
        g = rand_poly(rng, nvars, 2, terms=3) * common
        if f.is_zero or g.is_zero:
            continue
        xs = sympy.symbols(f"x1:{nvars + 1}")

        def to_sympy(p):
            expr = sum(
                sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(x**k for x, k in zip(xs, e)))
                for e, c in p.terms.items()
            )
            return sympy.Poly(expr, *xs, domain="QQ")

        want = sympy.gcd(to_sympy(f), to_sympy(g))
        assert to_sympy(poly_gcd(f, g)).monic() == want.monic()
