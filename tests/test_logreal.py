import math
import random
from fractions import Fraction
from sys import float_info

import mpmath
import pytest

from gcdlab.logreal import (
    DEFAULT_PRECISION,
    MAX_PRECISION,
    LogReal,
    PrecisionExhausted,
    enclosure_sign,
    escalating_sign,
    logreal_sum,
)


def test_zero_and_power_collapse():
    assert LogReal().is_zero
    assert LogReal({4: 1, 2: -2}).is_zero          # log 4 = 2 log 2
    assert LogReal({8: Fraction(1, 3), 2: -1}).is_zero
    assert not LogReal({2: 1}).is_zero


def test_structural_vs_mathematical_equality():
    assert LogReal({6: 1}) == LogReal({2: 1, 3: 1})
    assert LogReal({12: 1}) == LogReal({2: 2, 3: 1})
    assert LogReal({6: 1}) != LogReal({2: 1})


def test_canonical_coeffs_are_prime_based_at_desk_scale():
    assert LogReal({360: 1}).coeffs == {2: 3, 3: 2, 5: 1}
    assert LogReal.log_of_fraction(Fraction(-3, 2)).coeffs == {3: 1, 2: -1}


def test_signs():
    assert LogReal({3: 1, 2: -1}).sign() == 1   # log(3/2) > 0
    assert LogReal({2: 1, 3: -1}).sign() == -1
    assert LogReal({4: 1, 2: -2}).sign() == 0
    # a deliberately tiny difference: 2^1000000 vs 3^630929 (close ratio)
    a = LogReal({2: 1000000, 3: -630929})
    assert a.sign() in (-1, 1)
    assert a.sign() == -(-a).sign()


def test_sign_order_compatible_with_addition():
    rng = random.Random(5)
    primes = [2, 3, 5, 7]
    for _ in range(100):
        a = LogReal({p: rng.randint(-4, 4) for p in primes})
        b = LogReal({p: rng.randint(-4, 4) for p in primes})
        if a.sign() > 0 and b.sign() > 0:
            assert (a + b).sign() > 0


def test_cmp_const():
    big = LogReal.log_of_int(2**1100 + 1)
    assert big.cmp(Fraction(762)) == 1
    assert big.cmp(Fraction(763)) == -1
    assert LogReal().cmp(Fraction(1, 10**50)) == -1
    assert LogReal().cmp(Fraction(0)) == 0
    assert LogReal({2: 1}).cmp(Fraction(0)) == 1
    # log 2 vs very tight rational bounds
    l2 = LogReal({2: 1})
    assert l2.cmp(Fraction(693147180559945309, 10**18)) == 1
    assert l2.cmp(Fraction(693147180559945310, 10**18)) == -1


def test_big_unfactored_arithmetic():
    n = 2**521 - 1  # a large prime; refinement must not choke
    a = LogReal.log_of_int(n)
    b = LogReal.log_of_int(n * 9)
    assert (b - a).coeffs == {3: 2}
    assert b - a == LogReal({3: 2})
    # exact cancellation through a product
    c = LogReal.log_of_int(n * (2**607 - 1)) - LogReal.log_of_int(2**607 - 1)
    assert c == a


def test_scalar_arithmetic():
    a = LogReal({2: Fraction(3, 2)})
    assert (a * 2).coeffs == {2: 3}
    assert (a - a).is_zero
    assert (a * 0).is_zero
    assert (-a).sign() == -1
    assert (a / Fraction(3, 2)).coeffs == {2: 1}


def test_comparison_operators():
    assert LogReal({2: 1}) < LogReal({3: 1})
    assert LogReal({9: 1}) >= LogReal({3: 2})
    assert LogReal({9: 1}) <= LogReal({3: 2})


def test_printing_and_decimal():
    a = LogReal({2: Fraction(3, 2), 3: -1})
    assert str(a) == "3/2*log(2) - log(3)"
    assert str(LogReal()) == "0"
    assert LogReal({2: 1}).decimal(10) == "0.6931471806"
    # decimal output is deterministic
    assert a.decimal(15) == a.decimal(15)


def test_sum_helper():
    vals = [LogReal({2: 1}), LogReal({2: -1}), LogReal({5: 2})]
    assert logreal_sum(vals) == LogReal({25: 1})


@pytest.mark.parametrize(
    "coeffs, error",
    [({1: "x"}, TypeError), ({2: 1.5}, TypeError), ({0: 1}, ValueError),
     ({-3: 1}, ValueError), ({"2": 1}, ValueError), ({2: 1, 0: "x"}, ValueError)],
)
def test_constructor_checks_every_base_and_coefficient(coeffs, error):
    """The base 1 is dropped only after its coefficient is checked."""
    with pytest.raises(error):
        LogReal(coeffs)


def _prime_map(terms):
    """The canonical map of sum c * log(b) at desk scale, from sympy's
    factorizations of the bases: {p: sum c * v_p(b)} without zeros."""
    sympy = pytest.importorskip("sympy")
    out = {}
    for b, c in terms.items():
        for p, e in sympy.factorint(b).items():
            out[int(p)] = out.get(int(p), 0) + c * e
    return {p: c for p, c in out.items() if c}


def _plain_sum(maps, scales=None):
    total = {}
    for m, k in zip(maps, scales or [1] * len(maps)):
        for b, c in m.items():
            total[b] = total.get(b, Fraction(0)) + c * k
    return total


def _assert_matches(value, terms):
    want = _prime_map(terms)
    assert value.coeffs == want
    assert value.decimal(12) == LogReal(want).decimal(12)


def test_sums_match_a_plain_fraction_dict_oracle():
    """+, logreal_sum and the greedy bases' monomial logs against sums of
    plain {base: Fraction} dicts, on inputs that often cancel to zero."""
    from gcdlab.hilbert import _monomial_log

    rng = random.Random(24)
    bases = [2, 3, 4, 6, 8, 9, 10, 12, 15, 49, 360, 1001, 2**20, 999983]

    def rand_map():
        return {b: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                for b in rng.sample(bases, rng.randint(0, 4))}

    zeros = 0
    for _ in range(300):
        maps = [rand_map() for _ in range(rng.randint(0, 5))]
        if maps and rng.random() < 0.4:
            maps.append({b: -c for b, c in _plain_sum(maps).items()})
            rng.shuffle(maps)
        values = [LogReal(m) for m in maps]
        total = _plain_sum(maps)
        zeros += not _prime_map(total)
        _assert_matches(logreal_sum(values), total)
        acc = LogReal.zero()
        for v in values:
            acc = acc + v
        _assert_matches(acc, total)
        if maps:
            a, b = values[0], values[-1]
            _assert_matches(a + b, _plain_sum([maps[0], maps[-1]]))
            _assert_matches(a - b, _plain_sum([maps[0], maps[-1]], [1, -1]))
        exps = [rng.choice([0, 0, 1, 2, 5]) for _ in maps]
        _assert_matches(_monomial_log(values, exps), _plain_sum(maps, exps))
    assert zeros > 50


def test_unhashable_by_design():
    with pytest.raises(TypeError):
        hash(LogReal({2: 1}))


def test_escalating_sign_ladder():
    seen = []

    def straddles_zero():
        seen.append(mpmath.iv.prec)
        return mpmath.iv.mpf([-1, 1])

    before = mpmath.iv.prec
    with pytest.raises(PrecisionExhausted):
        escalating_sign(straddles_zero)
    assert mpmath.iv.prec == before
    assert seen[0] == DEFAULT_PRECISION and seen[-1] == MAX_PRECISION
    assert all(b == 2 * a for a, b in zip(seen, seen[1:]))
    # log(2) exceeds 0.69314718055994530941723212145817656807550013436 by
    # about 2.6e-49, below what 128 bits resolve and above what 256 bits do
    seen.clear()

    def tiny():
        seen.append(mpmath.iv.prec)
        iv = mpmath.iv
        digits = 69314718055994530941723212145817656807550013436
        return iv.log(2) - iv.mpf(digits) / iv.mpf(10) ** 47

    assert escalating_sign(tiny) == 1
    assert seen == [DEFAULT_PRECISION, 2 * DEFAULT_PRECISION]
    assert mpmath.iv.prec == before


def _logreal_cases(st):
    """(LogReal, its terms): a few c*log(b) terms plus some exact zeros
    written non-canonically as c*log(b^k) - k*c*log(b)."""
    term = st.tuples(st.integers(2, 200),
                     st.fractions(-20, 20, max_denominator=12))
    power = st.tuples(st.integers(2, 20), st.integers(2, 4),
                      st.fractions(-9, 9, max_denominator=5))

    def build(terms, powers):
        terms = list(terms) + [t for b, k, c in powers for t in ((b**k, c), (b, -k * c))]
        x = LogReal.zero()
        for b, c in terms:
            x = x + LogReal({b: c})
        return x, terms

    return st.builds(build, st.lists(term, max_size=4), st.lists(power, max_size=2))


def _mp_sum(terms, logs):
    """sum c * log(b) at the current mpmath precision, logs cached by base."""
    total = mpmath.mpf(0)
    for b, c in terms:
        if b not in logs:
            logs[b] = mpmath.log(b)
        total += mpmath.mpf(c.numerator) / c.denominator * logs[b]
    return total


def test_sign_and_cmp_match_mpmath_at_4096_bits():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    logs = {}

    @hypothesis.settings(max_examples=250, deadline=None, derandomize=True, database=None)
    @hypothesis.given(case=_logreal_cases(st),
                      const=st.fractions(-60, 60, max_denominator=20),
                      near=st.booleans())
    def check(case, const, near):
        x, terms = case
        with mpmath.workprec(4096):
            value = _mp_sum(terms, logs)
            # a nonzero value here is irrational and far above 2^-4000
            value_sign = 0 if abs(value) < mpmath.mpf(2) ** -4000 else int(mpmath.sign(value))
            if near and value_sign:   # a constant within 1e-20 of the value
                const = Fraction(mpmath.nstr(value, 20, min_fixed=-1, max_fixed=-1))
            diff = value - mpmath.mpf(const.numerator) / const.denominator
        want = int(mpmath.sign(diff)) if value_sign else (const < 0) - (const > 0)
        assert x.cmp(const) == want
        assert x.sign() == value_sign

    check()


def test_decimal_matches_mpmath_nstr():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    logs = {}

    @hypothesis.settings(max_examples=250, deadline=None, derandomize=True, database=None)
    @hypothesis.given(case=_logreal_cases(st), canonical=st.booleans())
    def check(case, canonical):
        x, terms = case
        if canonical:
            str(x)
        got = x.decimal(12)
        if x.is_zero:
            assert float(got) == 0
            return
        with mpmath.workprec(4096):
            assert got == mpmath.nstr(_mp_sum(terms, logs), 12)

    check()


def _filter_first_cases():
    """(terms, sign at 4096 bits) for non-canonical exact zeros, nonzeros far
    below the float filter's error budget, and coefficients that overflow a
    float."""
    rng = random.Random(81)
    p, q = rng.getrandbits(1000) | 1, rng.getrandbits(1000) | 1
    huge = Fraction(10**400, 3)
    return [
        ({8: 1, 2: -3}, 0),
        ({6: 1, 2: -1, 3: -1}, 0),
        ({p * q * 2**47: 1, p: -1, q: -1, 2: -47}, 0),
        ({2**200 + 1: 1, 2: -200}, 1),
        ({2**200 + 1: -1, 2: 200}, -1),
        ({3**100 * 5: Fraction(1, 7), 3: Fraction(-100, 7), 5: Fraction(-1, 7), 7: Fraction(1, 10**30)}, 1),
        ({2: huge, 3: -huge}, -1),
        ({2: huge, 4: -huge / 2}, 0),
        ({2: -huge, 3: huge, 5: 1}, 1),
    ]


@pytest.mark.parametrize("terms, want", _filter_first_cases())
def test_filter_first_sign_matches_mpmath_at_4096_bits(terms, want):
    with mpmath.workprec(4096):
        value = _mp_sum([(b, Fraction(c)) for b, c in terms.items()], {})
        assert (0 if abs(value) < mpmath.mpf(2) ** -4000 else int(mpmath.sign(value))) == want
    assert LogReal(terms).sign() == want
    assert LogReal(terms).cmp(0) == want


@pytest.mark.parametrize("terms, want", _filter_first_cases())
def test_str_and_decimal_do_not_depend_on_a_prior_sign(terms, want):
    fresh, signed = LogReal(terms), LogReal(terms)
    assert signed.sign() == want
    assert str(signed) == str(fresh)
    fresh, signed = LogReal(terms), LogReal(terms)
    signed.sign()
    assert signed.decimal() == fresh.decimal()
    assert signed.decimal(40) == fresh.decimal(40)


def test_sign_canonicalizes_only_what_the_float_filter_cannot_separate(monkeypatch):
    from gcdlab import logreal

    calls = []
    canonicalize = logreal._canonicalize

    def counted(items):
        calls.append(dict(items))
        return canonicalize(items)

    monkeypatch.setattr(logreal, "_canonicalize", counted)
    assert LogReal({6: 1, 2: -1}).sign() == 1          # log 3, clear of 0
    assert LogReal({10**50 + 1: 1, 7: -3}).sign() == 1
    assert calls == []
    assert LogReal({6: 1, 2: -1, 3: -1}).sign() == 0   # an exact zero needs the canonical form
    assert len(calls) == 1


def _random_log_terms(rng):
    """A few c * log(b) terms, each base up to 10^6 or an odd 300-bit number."""
    return {rng.choice((rng.randint(2, 10**6), rng.getrandbits(300) | 1)):
            Fraction(rng.randint(-60, 60), rng.randint(1, 25))
            for _ in range(rng.randint(1, 6))}


def _mp_exact(x):
    """x at the current mpmath precision: a {base: coeff} log map or a Fraction."""
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.fsum(mpmath.mpf(c.numerator) / c.denominator * mpmath.log(b)
                       for b, c in x.items())


def _mp_scaled_sum(parts):
    return mpmath.fsum(mpmath.mpf(k) * _mp_exact(x) for k, x in parts)


def _scaled_sum_oracle(parts):
    """Sign of sum k * x at 4096 bits over (float k, exact x) pairs; a
    nonzero value here is far above 2^-3900."""
    with mpmath.workprec(4096):
        value = _mp_scaled_sum(parts)
        return 0 if abs(value) < mpmath.mpf(2) ** -3900 else int(mpmath.sign(value))


def _enclosure(x):
    """A LogReal's float_enclosure for a log map, (float(q), 0.0) for a rational q."""
    return LogReal(x).float_enclosure() if isinstance(x, dict) else (float(x), 0.0)


def _enclosure_sign_of(parts):
    return enclosure_sign([(k, _enclosure(x)) for k, x in parts])


def test_enclosure_sign_never_contradicts_mpmath_at_4096_bits():
    rng = random.Random(29)
    got_signs = []
    for i in range(300):
        parts = [(rng.choice((1.0, -1.0, rng.uniform(-50, 50),
                              math.ldexp(rng.uniform(-1, 1), rng.randint(-60, 60)))),
                  _random_log_terms(rng) if rng.random() < 0.7
                  else Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)))
                 for _ in range(rng.randint(1, 3))]
        if i % 3 == 0:   # a rational agreeing with the sum to 8-20 digits
            with mpmath.workprec(4096):
                text = mpmath.nstr(_mp_scaled_sum(parts), rng.randint(8, 20),
                                   min_fixed=-1, max_fixed=-1)
            parts.append((-1.0, Fraction(text)))
        want = _scaled_sum_oracle(parts)
        got = _enclosure_sign_of(parts)
        assert got in (0, want), parts
        got_signs.append(got)
    # the filter decides most sums and leaves the closest ties to the exact path
    assert got_signs.count(0) >= 20 and len(got_signs) - got_signs.count(0) >= 200


def _cancelling_logs(n, offset):
    """{2: n, 3: -c}: n log 2 - c log 3 lies within 10^-50 of offset, with
    terms of about n / 1.44 each, so its float midpoint is rounding noise."""
    with mpmath.workprec(4096):
        c = (n * mpmath.log(2) - _mp_exact(offset)) / mpmath.log(3)
        return {2: Fraction(n), 3: -Fraction(int(mpmath.nint(c * 10**60)), 10**60)}


@pytest.mark.parametrize("offset", (Fraction(1, 10**9), Fraction(-1, 10**9),
                                    Fraction(7, 10**20), Fraction(-7, 10**20)))
def test_enclosure_sign_leaves_a_log_that_cancels_within_itself_to_the_exact_path(offset):
    # only the combination's own radius covers the error of its midpoint
    for n in (10**6, 3 * 10**7, 10**8, 10**12):
        parts = [(1.0, _cancelling_logs(n, offset))]
        assert _scaled_sum_oracle(parts) == (1 if offset > 0 else -1)
        assert _enclosure_sign_of(parts) == 0, n


@pytest.mark.parametrize("offset", (Fraction(7, 10**20), Fraction(-7, 10**20),
                                    Fraction(1, 10**31), Fraction(-1, 10**31)))
def test_enclosure_sign_leaves_near_ties_to_the_exact_path(offset):
    # a scaled log against another, and a log against a rational
    h_terms = {2: Fraction(3), 5: Fraction(-1, 2), 10**30 + 1: Fraction(1, 3)}
    k = 14 * math.sqrt(0.2)
    with mpmath.workprec(4096):
        c = (mpmath.mpf(k) * _mp_exact(h_terms) + _mp_exact(offset)) / mpmath.log(3)
        lhs_terms = {3: Fraction(int(mpmath.nint(c * 10**80)), 10**80)}
        q = Fraction(int(mpmath.nint((_mp_exact(lhs_terms) - _mp_exact(offset)) * 10**60)), 10**60)
    for parts in ([(1.0, lhs_terms), (-k, h_terms)], [(1.0, lhs_terms), (-1.0, q)]):
        assert _scaled_sum_oracle(parts) == (1 if offset > 0 else -1)
        assert _enclosure_sign_of(parts) == 0


def test_enclosure_sign_covers_the_rounding_of_its_own_sum():
    # exactly 1 + 3/2^54 - 1 - 9/(10 * 2^52) = -3/(20 * 2^52) < 0, but in
    # floats 1 + 3/2^54 rounds up to 1 + 2^-52 and the sum comes out > 0
    parts = [(1.0, Fraction(1)), (1.0, Fraction(3, 2**54)),
             (-1.0, Fraction(1)), (-1.0, Fraction(9, 10 * 2**52))]
    assert _scaled_sum_oracle(parts) == -1
    assert 0.0 + 1.0 + 3 / 2**54 - 1.0 - 9 / (10 * 2**52) > 0
    assert _enclosure_sign_of(parts) == 0


def test_enclosure_sign_gives_0_without_a_usable_enclosure_or_scale():
    one = (1.0, 0.0)
    assert enclosure_sign([(1.0, one)]) == 1
    assert enclosure_sign([(-2.5, one), (1.0, (1.0, 0.5))]) == -1
    # no enclosure: a LogReal whose coefficient overflows a float
    huge = LogReal({2: Fraction(10**400, 3)}).float_enclosure()
    assert huge is None
    assert enclosure_sign([(1.0, huge), (1.0, one)]) == 0
    # a scale below the smallest normal float, 0 included; the smallest normal is kept
    for k in (float_info.min / 2, 5e-324, 0.0, -0.0, -float_info.min / 3):
        assert enclosure_sign([(1.0, one), (k, one)]) == 0, k
    assert enclosure_sign([(1.0, one), (float_info.min, one)]) == 1
    # a sum or radius past the float range
    assert enclosure_sign([(1.0, (1e308, 0.0)), (1.0, (1e308, 0.0))]) == 0
    assert enclosure_sign([(1e300, (1e300, 0.0))]) == 0
    assert enclosure_sign([(1e300, (1.0, 1e300))]) == 0
    assert enclosure_sign([(1.0, (1.0, float("inf")))]) == 0
