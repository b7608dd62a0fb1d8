import random
import time
from fractions import Fraction

import pytest

from gcdlab.multipoly import (
    LaurentPoly,
    MultiPoly,
    _SparsePoly,
    coprime,
    parse_poly,
    poly_gcd,
)
from gcdlab.places import DomainError

from conftest import time_limit


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


def test_parse_rejects_a_zero_denominator():
    """'1/0' once escaped as ZeroDivisionError instead of a DomainError."""
    with pytest.raises(DomainError, match="bad rational literal '1/0'"):
        parse_poly("1/0*x1")


def test_power_forms_no_product_above_its_degree(monkeypatch):
    """p ** k once squared its base after the last bit, so p ** 16 formed
    the 32nd power of p."""
    p = parse_poly("x1 + x2 + 1")
    expected = MultiPoly.one(2)
    mul = _SparsePoly.__mul__
    degrees = []

    def spy(self, other):
        out = mul(self, other)
        degrees.append(out.degree())
        return out

    for k in range(18):
        monkeypatch.setattr(_SparsePoly, "__mul__", spy)
        degrees.clear()
        got = p ** k
        monkeypatch.undo()
        assert got == expected
        assert max(degrees, default=0) <= k * p.degree(), k
        expected = expected * p


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


def test_eval_examples():
    assert parse_poly("x1 + 1").eval([4]) == 5
    assert LaurentPoly(2, {(2, -1): 1}).eval([2, 3]) == Fraction(4, 3)
    assert parse_poly("x1*x2 - x1 - x2 + 1", nvars=2).eval([1, 7]) == 0
    with pytest.raises(DomainError):
        LaurentPoly(1, {(-1,): 1}).eval([0])


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


def _restrict_per_term(f, a, b):
    """The restriction of _restrict by expanding each term: the powers of
    a_i + b_i t as coefficient lists mod P, multiplied term by term."""
    from gcdlab.multipoly import LINE_PRIME as P, _integral_terms

    def mul(p, q):
        out = [0] * (len(p) + len(q) - 1)
        for i, x in enumerate(p):
            for j, y in enumerate(q):
                out[i + j] += x * y
        return [x % P for x in out]

    out = [0] * (f.degree() + 1)
    for e, c in _integral_terms(f):
        term = [c % P]
        for ai, bi, k in zip(a, b, e):
            for _ in range(k):
                term = mul(term, [ai, bi])
        for j, x in enumerate(term):
            out[j] = (out[j] + x) % P
    while out and not out[-1]:
        out.pop()
    return out


def test_restrict_matches_the_per_term_expansion():
    """_restrict's one Kronecker evaluation against the per-term expansion,
    on random polynomials in 1-4 variables, with small, huge and rational
    coefficients (denominators with a large lcm, multiples of the prime),
    over every certificate direction."""
    from gcdlab.multipoly import LINE_DIRECTIONS, LINE_PRIME, _line, _restrict

    rng = random.Random(91)
    denominators = [1, 1, 2, 3, 7, 11, 10**20 + 39, 2**89 - 1, LINE_PRIME]
    for trial in range(150):
        nvars = rng.randint(1, 4)
        degree = rng.randint(0, 9)
        terms = {}
        for _ in range(rng.randint(1, 12)):
            e = [0] * nvars
            for _ in range(rng.randint(0, degree)):
                e[rng.randrange(nvars)] += 1
            size = 10 ** rng.choice([1, 1, 5, 40])
            terms[tuple(e)] = Fraction(rng.randint(-size, size), rng.choice(denominators))
        terms[(0,) * nvars] = Fraction(LINE_PRIME * rng.randint(-2, 2))
        f = MultiPoly(nvars, terms)
        for k in range(LINE_DIRECTIONS):
            a, b = _line(nvars, k)
            assert _restrict(f, a, b) == _restrict_per_term(f, a, b), (str(f), k)
    for text, nvars in [("x1^60 - 1", 1), ("(x1 + x2 + x3 - 2)^7", 3), ("0", 2),
                        ("(3*x1 + 3)^40", 1), ("x1^9*x4^3 + 1/7*x2^12 - 5/11", 4)]:
        f = parse_poly(text, nvars)
        for k in range(LINE_DIRECTIONS):
            a, b = _line(nvars, k)
            assert _restrict(f, a, b) == _restrict_per_term(f, a, b), (text, k)


def test_gcd_divides_both():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(24)
    for _ in range(25):
        f = rand_poly(rng, 2, 3)
        g = rand_poly(rng, 2, 3)
        if f.is_zero or g.is_zero:
            continue
        d = poly_gcd(f, g)
        xs = sympy.symbols("x1:3")
        assert _to_sympy(f, xs).rem(_to_sympy(d, xs)).is_zero
        assert _to_sympy(g, xs).rem(_to_sympy(d, xs)).is_zero


def test_laurent_normalize_examples():
    mono, f0 = LaurentPoly(1, {(-2,): 1, (-1,): 1}).normalize()
    assert mono == (-2,) and f0 == parse_poly("x1 + 1")
    assert LaurentPoly(2, {(1, 1): 1}).normalize() == ((1, 1), MultiPoly.one(2))
    mono3, f3 = LaurentPoly(2, {(2, 0): 1, (3, 1): 1}).normalize()
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
        mono, f0 = f.normalize()
        rebuilt = LaurentPoly(2, {mono: 1}) * LaurentPoly(2, f0.terms)
        assert rebuilt == f
        # f0 is divisible by no variable
        for i in range(2):
            assert min(e[i] for e in f0.terms) == 0


def test_vanishes_at_origin():
    assert parse_poly("x1 + x2", nvars=2).vanishes_at_origin()
    assert not parse_poly("x1 + 1", nvars=2).vanishes_at_origin()
    assert MultiPoly.zero(2).vanishes_at_origin()


def _to_sympy(p, xs):
    import sympy

    expr = sum(
        sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(x**k for x, k in zip(xs, e)))
        for e, c in p.terms.items()
    )
    return sympy.Poly(expr, *xs, domain="QQ")


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
        want = sympy.gcd(_to_sympy(f, xs), _to_sympy(g, xs))
        assert _to_sympy(poly_gcd(f, g), xs).monic() == want.monic()


def _direction_forms(nvars):
    """For each certificate direction b, the linear form b[1]*x1 - b[0]*x2,
    whose top-degree part (itself) vanishes at b."""
    from gcdlab.multipoly import LINE_DIRECTIONS, _line

    x1, x2 = MultiPoly.variable(nvars, 0), MultiPoly.variable(nvars, 1)
    return [x1 * b[1] - x2 * b[0]
            for b in (_line(nvars, k)[1] for k in range(LINE_DIRECTIONS))]


def test_coprime_matches_sympy_gcd(monkeypatch):
    """coprime(f, g) is True exactly when sympy's gcd has total degree 0: on
    random homogeneous and affine pairs in 1-4 variables, on pairs h*f0,
    h*g0 built to share h (among them h vanishing at one certificate
    direction, which that line cannot see), and on pairs whose top-degree
    parts vanish at every certificate direction, which only poly_gcd can
    decide."""
    sympy = pytest.importorskip("sympy")
    from gcdlab import multipoly
    from gcdlab.harness import random_form

    fallbacks = []
    monkeypatch.setattr(multipoly, "poly_gcd",
                        lambda f, g: fallbacks.append(1) or poly_gcd(f, g))
    rng = random.Random(1913)
    pairs = []
    for nvars in (1, 2, 3, 4):
        for _ in range(25):
            d1, d2 = rng.randint(1, 3), rng.randint(1, 3)
            pairs.append((random_form(rng, nvars, d1), random_form(rng, nvars, d2)))
            pairs.append((rand_poly(rng, nvars, d1, terms=3), rand_poly(rng, nvars, d2, terms=3)))
        for _ in range(10):
            h = rand_poly(rng, nvars, 2, terms=2)
            pairs.append((h * rand_poly(rng, nvars, 2, terms=3), h * rand_poly(rng, nvars, 1, terms=2)))
            h = random_form(rng, nvars, 1)
            pairs.append((h * random_form(rng, nvars, 2), h * random_form(rng, nvars, 1)))
    vanishing = []
    for nvars in (2, 3, 4):
        forms = _direction_forms(nvars)
        for h in forms:
            for _ in range(3):
                pairs.append((h * random_form(rng, nvars, 1),
                              h * rand_poly(rng, nvars, 2, terms=3)))
        P = MultiPoly.one(nvars)
        for h in forms:
            P = P * h
        for _ in range(5):
            f0, g0 = random_form(rng, nvars, 1), random_form(rng, nvars, 1)
            low1, low2 = rand_poly(rng, nvars, 2, terms=2), rand_poly(rng, nvars, 3, terms=2)
            vanishing += [(P * f0, P * g0), (P + low1, P + low2)]
            # poly_gcd runs for seconds or more on these in 3 or 4 variables
            if nvars == 2:
                vanishing += [(P * f0 + low1, P * g0 + low2), (P * f0 + low1, P + low2)]
    pairs += vanishing

    for f, g in pairs:
        if f.is_zero or g.is_zero:
            continue
        xs = sympy.symbols(f"x1:{f.nvars + 1}")
        want = sympy.gcd(_to_sympy(f, xs), _to_sympy(g, xs)).total_degree() == 0
        assert coprime(f, g) == want, (str(f), str(g))
    # no certificate line applies where both top-degree parts vanish at
    # every direction, so such a pair reaches the fallback exactly once
    blind = [(f, g) for f, g in pairs
             if not (f.is_zero or g.is_zero) and _top_vanishes_on_every_line(f)
             and _top_vanishes_on_every_line(g)]
    assert len(blind) == 24
    for f, g in blind:
        fallbacks.clear()
        coprime(f, g)
        assert len(fallbacks) == 1, (str(f), str(g))


def _top_vanishes_on_every_line(f):
    """Whether f's top-degree part vanishes at every certificate direction."""
    from gcdlab.multipoly import LINE_DIRECTIONS, _line

    d = f.degree()
    top = MultiPoly(f.nvars, {e: c for e, c in f.terms.items() if sum(e) == d})
    return all(top.eval(_line(f.nvars, k)[1]) == 0 for k in range(LINE_DIRECTIONS))


# a coprime pair in 3 variables whose top-degree parts vanish at every
# certificate direction, so that only poly_gcd decides it
BLIND_F = "-24*x1^4 + 74*x1^3*x2 - 61*x1^2*x2^2 + 19*x1*x2^3 - 2*x2^4 - x1^2 - 3*x2*x3"
BLIND_G = "24*x1^4 - 98*x1^3*x2 + 87*x1^2*x2^2 - 28*x1*x2^3 + 3*x2^4 - 2*x2^3 - x2"


def test_poly_gcd_decides_a_pair_no_line_certifies():
    f, g = parse_poly(BLIND_F, 3), parse_poly(BLIND_G, 3)
    assert _top_vanishes_on_every_line(f) and _top_vanishes_on_every_line(g)
    h = parse_poly("x1*x2 - x3 + 2", 3)
    with time_limit(5):
        start = time.perf_counter()
        assert coprime(f, g)
        assert time.perf_counter() - start < 1
        start = time.perf_counter()
        assert poly_gcd(f, g) == MultiPoly.one(3)
        assert time.perf_counter() - start < 1
        assert poly_gcd(f * h, g * h) == h
        assert not coprime(f * h, g * h)


def test_poly_gcd_matches_sympy_on_pairs_in_3_and_4_variables():
    """Pairs P*f0 + low, with P the product of the direction forms, whose
    top-degree parts vanish at every certificate direction; alone and times
    a common factor."""
    sympy = pytest.importorskip("sympy")
    from gcdlab.harness import random_form

    rng = random.Random(4099)
    for nvars in (3, 4):
        xs = sympy.symbols(f"x1:{nvars + 1}")
        P = MultiPoly.one(nvars)
        for h in _direction_forms(nvars):
            P = P * h
        for _ in range(4):
            f0, g0 = random_form(rng, nvars, 1), random_form(rng, nvars, 1)
            low1, low2 = rand_poly(rng, nvars, 2, terms=2), rand_poly(rng, nvars, 3, terms=2)
            common = rand_poly(rng, nvars, 1, terms=2)
            f, g = P * f0 + low1, P * g0 + low2
            for f, g in [(f, g), (f, P + low2), (f * common, g * common)]:
                want = sympy.gcd(_to_sympy(f, xs), _to_sympy(g, xs))
                with time_limit(10):
                    got = poly_gcd(f, g)
                    is_coprime = coprime(f, g)
                assert _to_sympy(got, xs).monic() == want.monic(), (str(f), str(g))
                assert is_coprime == (want.total_degree() == 0)


def _dense_univariate(rng, degree):
    return MultiPoly(1, {(k,): rng.choice([-3, -2, -1, 1, 2, 3]) for k in range(degree + 1)})


def test_poly_gcd_of_dense_univariate_pairs_of_degree_about_100():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(31)
    xs = sympy.symbols("x1:2")
    for degree_f, degree_g, degree_h in [(98, 70, 2), (96, 84, 5)]:
        h = _dense_univariate(rng, degree_h)
        f = _dense_univariate(rng, degree_f - degree_h) * h
        g = _dense_univariate(rng, degree_g - degree_h) * h
        with time_limit(10):
            got = poly_gcd(f, g)
        want = sympy.gcd(_to_sympy(f, xs), _to_sympy(g, xs))
        assert want.degree() >= degree_h
        assert _to_sympy(got, xs).monic() == want.monic()


def test_poly_gcd_of_x500_minus_1_and_x300_minus_1():
    x, one = parse_poly("x1"), MultiPoly.one(1)
    with time_limit(5):
        assert poly_gcd(x**500 - one, x**300 - one) == x**100 - one
        assert poly_gcd(x**300 - one, x**500 - one) == x**100 - one


def test_poly_gcd_refuses_a_wrong_cofactor(monkeypatch):
    """With the rows of f in reverse order the first dependent row is not
    the cofactor's: the division check refuses it, never returning it."""
    from gcdlab import multipoly

    cofactor_rows = multipoly._cofactor_rows

    def reversed_f_rows(f, g):
        ncols, g_rows, f_rows = cofactor_rows(f, g)
        return ncols, g_rows, f_rows[::-1]

    h = parse_poly("x1^2 + x2 + 1")
    f, g = h * parse_poly("x1 - x2 + 3"), h * parse_poly("x1*x2 + 2")
    assert poly_gcd(f, g) == h
    monkeypatch.setattr(multipoly, "_cofactor_rows", reversed_f_rows)
    with pytest.raises(ArithmeticError, match="the cofactor does not divide g"):
        poly_gcd(f, g)


@pytest.mark.parametrize("shift", [-1, 1])
def test_poly_gcd_refuses_a_wrong_gcd_degree(monkeypatch, shift):
    """A cofactor one degree too low (gcd degree one too high) or one too
    high (gcd degree one too low) does not divide g: either way the
    result is refused, never returned."""
    from gcdlab import multipoly

    h = parse_poly("x1^2 + x2 + 1")
    f, g = h * parse_poly("x1 - x2 + 3"), h * parse_poly("x1*x2 + 2")
    u = multipoly._gcd_cofactor(f, g)
    assert g.degree() - u.degree() == 2
    wrong = u * parse_poly("x1 + 1", 2) if shift < 0 else parse_poly("x1 + 1", 2)
    assert g.degree() - wrong.degree() == 2 + shift
    monkeypatch.setattr(multipoly, "_gcd_cofactor", lambda f, g: wrong)
    with pytest.raises(ArithmeticError, match="the cofactor does not divide g"):
        poly_gcd(f, g)


def test_poly_gcd_and_coprime_take_no_rank(monkeypatch):
    """poly_gcd reads the gcd off one elimination: no exact rank is taken."""
    from gcdlab import linalg, multipoly

    def refuse(rows):
        raise AssertionError("int_rank called")

    monkeypatch.setattr(linalg, "int_rank", refuse)
    assert not hasattr(multipoly, "int_rank")
    h = parse_poly("x1^2 + x2 + 1")
    f, g = h * parse_poly("x1 - x2 + 3"), h * parse_poly("x1*x2 + 2")
    assert poly_gcd(f, g) == h and not coprime(f, g)
    f, g = parse_poly(BLIND_F, 3), parse_poly(BLIND_G, 3)
    assert poly_gcd(f, g) == MultiPoly.one(3) and coprime(f, g)


def test_poly_gcd_leaves_out_variables_neither_polynomial_has():
    h = parse_poly("x1^2 + 3*x1*x3 - 1", 6)
    f, g = h * parse_poly("x1^10 - 2*x3 + 5", 6), h * parse_poly("x3^9 + x1 + 7", 6)
    with time_limit(5):
        start = time.perf_counter()
        assert poly_gcd(f, g) == h
        assert poly_gcd(g, f * parse_poly("x1 - x3", 6)) == h
        assert time.perf_counter() - start < 1
