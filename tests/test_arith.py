import math
import random
from fractions import Fraction

import pytest

from gcdlab.arith import (
    RHO_STEP_BUDGET,
    _iroot,
    _may_be_power,
    _power_sieve,
    _split_primes,
    factorize,
    hnf_with_transform,
    is_prime,
    perfect_power,
    solve_in_row_lattice,
    sqrt_fraction_exact,
)
from gcdlab.linalg import int_rank
from gcdlab.lrs import _exponent_vector
from gcdlab.places import DomainError, PlaceSet

from conftest import time_limit


def naive_is_prime(n):
    if n < 2:
        return False
    return all(n % d for d in range(2, int(math.isqrt(n)) + 1))


def test_is_prime_matches_naive_oracle():
    for n in range(2000):
        assert is_prime(n) == naive_is_prime(n), n


def test_is_prime_large():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)
    assert is_prime(10**18 + 9)


def test_factorize_roundtrip():
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randint(1, 10**12)
        f = factorize(n)
        prod = 1
        for p, e in f.items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def test_perfect_power():
    assert perfect_power(64) == (2, 6)
    assert perfect_power(8) == (2, 3)
    assert perfect_power(36) == (6, 2)
    assert perfect_power(12) == (12, 1)
    assert perfect_power(3**40) == (3, 40)
    assert perfect_power((2**10 + 1) ** 3) == (2**10 + 1, 3)


def _perfect_power_cases():
    """Powers r^e (composite e and e = 1031 among them), their neighbours
    and three times them, up to about 12000 bits."""
    rng = random.Random(2024)
    for _ in range(60):
        base = rng.randint(2, 10 ** rng.randint(1, 30))
        e = rng.choice((2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 13, 25, 49, 97))
        yield from (base**e, base**e + 1, base**e - 1)
    for bits, e in ((2100, 5), (1500, 7), (700, 17), (10, 1031), (5000, 2), (3400, 3), (12000, 1)):
        base = rng.getrandbits(bits) | 1 << (bits - 1)
        yield from (base**e, base**e + 2, 3 * base**e)


def test_perfect_power_matches_sympy():
    sympy = pytest.importorskip("sympy")
    big = 0
    for n in _perfect_power_cases():
        want = sympy.perfect_power(n)
        root, k = perfect_power(n)
        assert (root, k) == (tuple(want) if want else (n, 1)), (n.bit_length(), k)
        big += n.bit_length() > 10**4
        # n is a q-th power exactly when q divides k, since root is no power
        for q in (2, 3, 5, 7, 11, 13, 17, 97, 1031):
            assert sympy.integer_nthroot(n, q)[1] == (k % q == 0), (n.bit_length(), q)
            assert _may_be_power(n, q) or k % q
    assert big >= 6


def test_perfect_power_finds_prime_exponents_above_9973():
    """r^k for prime k > 9973, their neighbours and 10^5-bit non-powers."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(10007)
    cases = [rng.getrandbits(10**5) | 1 << (10**5 - 1) for _ in range(2)]
    for base, k in ((2, 10009), (3, 10007), (10, 20011), (6, 20011), (12, 10007)):
        cases += [base**k, base**k + 1, base**k - 1, base ** (2 * k)]
    for n in cases:
        want = sympy.perfect_power(n)
        assert perfect_power(n) == (tuple(want) if want else (n, 1)), n.bit_length()
    # no prime below 10^4 divides a power of 10007, so the exponents up to
    # bits/13 are sieved; sympy takes seconds on it
    assert perfect_power(10007**10007) == (10007, 10007)
    assert perfect_power(10007**10007 + 1) == (10007**10007 + 1, 1)


def test_power_sieve_primes_are_one_mod_k():
    for k in (2, 3, 5, 31, 1031, 9973):
        sieve = _power_sieve(k)
        assert len(sieve) == -(-24 // k.bit_length())
        for q, e in sieve:
            assert is_prime(q) and q == e * k + 1


def test_iroot_matches_sympy_integer_nthroot():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(11)
    for _ in range(3000):
        n = rng.getrandbits(rng.randint(1, 3000))
        k = rng.randint(1, 70)
        assert _iroot(n, k) == sympy.integer_nthroot(n, k)[0], (n, k)
    for n in range(600):
        for k in range(1, 12):
            assert _iroot(n, k) == sympy.integer_nthroot(n, k)[0], (n, k)


def test_split_primes_refuses_zero():
    # every prime divides 0 without end, so dividing them out never stops
    with time_limit(5):
        for primes in ((), (2,), (3, 5)):
            with pytest.raises(ValueError):
                _split_primes(0, primes)
        with pytest.raises(ValueError):
            _exponent_vector(Fraction(0), (2,))


def test_iroot():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(0, 10**18)
        k = rng.randint(1, 40)
        r = _iroot(n, k)
        assert r**k <= n < (r + 1) ** k


def test_sqrt_helpers():
    assert sqrt_fraction_exact(Fraction(9, 4)) == Fraction(3, 2)
    assert sqrt_fraction_exact(Fraction(1, 2)) is None


def _random_matrices(seed):
    rng = random.Random(seed)
    for m, n in [(3, 4)] * 100 + [(5, 3)] * 50 + [(4, 2)] * 50:
        yield [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]


def test_hnf_preserves_row_lattice():
    for rows in _random_matrices(9):
        m, n = len(rows), len(rows[0])
        H, T = hnf_with_transform(rows)
        # transform applied to the original rows reproduces H
        for i in range(m):
            combo = [
                sum(T[i][j] * rows[j][c] for j in range(m)) for c in range(n)
            ]
            assert combo == H[i]
        # every original row is an integer combination of the H rows
        basis = [r for r in H if any(r)]
        for r in rows:
            assert solve_in_row_lattice(basis, r) is not None


def _integer_kernel(rows):
    """The kernel as root_group reads it: the rows of T whose row of H is zero."""
    H, T = hnf_with_transform(rows)
    return [T[i] for i in range(len(rows)) if not any(H[i])]


def test_integer_kernel():
    rows = [[1, 0], [0, 1], [1, 1]]
    kernel = _integer_kernel(rows)
    assert len(kernel) == 1
    for k in kernel:
        assert all(
            sum(k[i] * rows[i][c] for i in range(3)) == 0 for c in range(2)
        )
    assert _integer_kernel([[1, 0], [0, 1]]) == []
    # rows - rank nonzero kernel vectors that annihilate the rows
    kernels = 0
    for rows in [[[2, 4], [3, 6], [0, 0]], *_random_matrices(9)]:
        m, n = len(rows), len(rows[0])
        kernel = _integer_kernel(rows)
        assert len(kernel) == m - int_rank(rows)
        for k in kernel:
            assert any(k)
            assert all(sum(k[i] * rows[i][c] for i in range(m)) == 0 for c in range(n))
        kernels += bool(kernel)
    assert kernels > 100


# psi_t: the least strong pseudoprime to all of the first t prime bases
# (Sorenson and Webster, Math. Comp. 2017)
PSI_12 = 318665857834031151167461  # 399165290221 * 798330580441
PSI_13 = 3317044064679887385961981


def test_is_prime_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(81)
    cases = [2047, 1373653, 25326001, 3215031751, 2152302898747,
             3474749660383, 341550071728321, 3825123056546413051, PSI_12,
             PSI_13 - 2, 2**61 - 1]
    cases += [rng.randrange(2**81) for _ in range(300)]
    cases += [sympy.randprime(2, 2**81) for _ in range(50)]
    cases += [sympy.randprime(2, 2**40) * sympy.randprime(2, 2**41) for _ in range(50)]
    for n in cases:
        assert is_prime(n) == sympy.isprime(n), n


def test_psi_12_is_composite():
    assert not is_prime(PSI_12)
    with pytest.raises(DomainError):
        PlaceSet.of(PSI_12)


def test_uncertified_primality_raises():
    # psi_13 passes all 13 witnesses: above the bound that proves nothing
    with pytest.raises(ValueError, match="not certified"):
        is_prime(PSI_13)
    with pytest.raises(ValueError, match="not certified"):
        factorize(2**89 - 1)
    with pytest.raises(ValueError, match="not certified"):
        factorize(3 * (2**107 - 1))


def test_factorize_beyond_the_witness_bound():
    # composites above the bound are still split: a witness proves them
    # composite at any size
    assert factorize(10007**9) == {10007: 9}
    assert factorize(2**103 + 1) == {3: 1, 415141630193: 1, 8142767081771726171: 1}


def test_split_primes_matches_sympy_on_large_valuations():
    """Valuations up to 10^5 for 2 and 3 (below 1000 for 10007), several
    primes in one call and negative n: the squaring ladder takes every bit
    of v_p(n)."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(97)
    valuations = [0, 1, 2, 3, 7, 8, 255, 256, 257, 2**16 - 1, 2**16, 99999, 100000]
    valuations += [rng.randint(1, 10**5) for _ in range(4)]
    for v in valuations:
        for p, e in ((2, v), (3, v), (10007, v % 1000)):
            k = rng.choice([-1, 1]) * rng.randint(1, 10**6)
            n = k * p**e * 5**(v % 300)
            chosen = (5, 7, p)
            got, rest = _split_primes(n, chosen)
            want = {q: sympy.multiplicity(q, n) for q in chosen}
            assert got == {q: w for q, w in want.items() if w}, (p, e)
            assert rest * p**got.get(p, 0) * 5**got.get(5, 0) * 7**got.get(7, 0) == n
            assert all(rest % q for q in chosen)


def test_split_primes_matches_sympy_multiplicity():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    sympy = pytest.importorskip("sympy")
    primes = (2, 3, 5, 7, 11, 13, 10007)

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        exps=st.lists(st.integers(0, 9), min_size=len(primes), max_size=len(primes)),
        k=st.integers(-10**6, 10**6).filter(bool),
        chosen=st.lists(st.sampled_from(primes + (17, 19, 23)), unique=True),
    )
    def check(exps, k, chosen):
        n = k
        for p, e in zip(primes, exps):
            n *= p**e
        got, rest = _split_primes(n, chosen)
        want = {p: sympy.multiplicity(p, n) for p in chosen}
        assert got == {p: e for p, e in want.items() if e}
        assert list(got) == [p for p in chosen if want[p]]
        divisor = 1
        for p, e in got.items():
            divisor *= p**e
        assert rest * divisor == n
        assert all(rest % p for p in chosen)

    check()


def test_factorize_step_budget_raises():
    # two primes near 2^64: rho would need billions of steps
    p = 18446744073709551629  # the least prime above 2^64
    q = 18446744073709551653  # the next one
    assert is_prime(p) and is_prime(q)
    with pytest.raises(ValueError, match=f"exceeded {RHO_STEP_BUDGET} Pollard rho steps"):
        factorize(p * q)


def test_factorize_matches_sympy_factorint():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    sympy = pytest.importorskip("sympy")
    # below 2^62 every composite has a factor under 2^31, which rho finds in
    # about 2^16 steps, far inside RHO_STEP_BUDGET
    prime = st.integers(2, 2**31).map(sympy.nextprime)
    semiprime = st.tuples(prime, prime).map(lambda pq: pq[0] * pq[1])
    power = st.tuples(prime, st.integers(1, 5)).filter(
        lambda pe: pe[0] ** pe[1] < 2**62).map(lambda pe: pe[0] ** pe[1])

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.one_of(st.integers(1, 2**62), semiprime, power))
    def check(n):
        assert factorize(n) == sympy.factorint(n)

    check()
