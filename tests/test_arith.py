import math
import random
from fractions import Fraction

from gcdlab.arith import (
    _iroot,
    factorize,
    hnf_with_transform,
    integer_kernel,
    is_prime,
    perfect_power,
    solve_in_row_lattice,
    sqrt_fraction_exact,
)


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


def test_hnf_preserves_row_lattice():
    rng = random.Random(9)
    for _ in range(100):
        rows = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(3)]
        H, T = hnf_with_transform(rows)
        # transform applied to the original rows reproduces H
        for i in range(3):
            combo = [
                sum(T[i][j] * rows[j][c] for j in range(3)) for c in range(4)
            ]
            assert combo == H[i]
        # every original row is an integer combination of the H rows
        basis = [r for r in H if any(r)]
        for r in rows:
            assert solve_in_row_lattice(basis, r) is not None


def test_integer_kernel():
    rows = [[1, 0], [0, 1], [1, 1]]
    for k in integer_kernel(rows):
        assert all(
            sum(k[i] * rows[i][c] for i in range(3)) == 0 for c in range(2)
        )
    assert integer_kernel([[1, 0], [0, 1]]) == []
