"""Exact integer arithmetic helpers: primality, factorization, integer
lattice reduction.  Everything here is deterministic; no probabilistic
one-sided tests are exposed."""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

_SMALL_PRIME_BOUND = 10_000


def _sieve_primes(bound: int) -> list[int]:
    sieve = bytearray([1]) * bound
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i in range(bound) if sieve[i]]


SMALL_PRIMES = _sieve_primes(_SMALL_PRIME_BOUND)

# Miller-Rabin with the first 13 primes as witnesses is deterministic below
# psi_13 = 3317044064679887385961981, the least strong pseudoprime to all of
# them (Sorenson and Webster, Math. Comp. 2017).  Twelve do not suffice:
# psi_12 = 318665857834031151167461 is composite and passes 2..37.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_DETERMINISTIC_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality test: Miller-Rabin with the first 13 primes as
    witnesses.  A witness proves compositeness at any size; a number of at
    least 3.3e24 that no witness rejects raises ValueError, since its
    primality is not certified."""
    if n < 2:
        return False
    for p in SMALL_PRIMES[:60]:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_DETERMINISTIC_BOUND:
        raise ValueError(
            f"primality of {n} is not certified: no Miller-Rabin witness "
            f"rejects it and it is at least {_MR_DETERMINISTIC_BOUND}"
        )
    return True


# Inner rho iterations allowed per composite, summed over restarts.  The
# 2^38.6 factor of 2^103 + 1 takes about 553k; a factor near 2^64 would take
# billions, so such an input raises instead of running for hours.
RHO_STEP_BUDGET = 1 << 21


def _pollard_rho(n: int) -> int:
    # n odd composite, not a prime power of a small prime
    if n % 2 == 0:
        return 2
    x0 = 2
    c = 1
    steps = 0
    while True:
        x = y = x0
        d = 1
        while d == 1:
            if steps == RHO_STEP_BUDGET:
                raise ValueError(
                    f"factorization of {n} exceeded {RHO_STEP_BUDGET} "
                    "Pollard rho steps"
                )
            steps += 1
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
        x0 += 1
        c += 2


def _split_primes(n: int, primes) -> tuple[dict[int, int], int]:
    """Divide the given primes out of a nonzero integer n: returns
    ({p: v_p(n)} for the primes that divide n, in the order given, and the
    cofactor of n prime to all of them).  Every prime divides 0 without
    end, so n = 0 raises ValueError."""
    if n == 0:
        raise ValueError("_split_primes expects a nonzero integer")
    exponents: dict[int, int] = {}
    for p in primes:
        if n % p:
            continue
        if p == 2:
            e = (n & -n).bit_length() - 1
            n >>= e
        else:
            # climb: divide by p, p^2, p^4, ... while the division is exact;
            # after k rungs p^(2^k - 1) is out and what is left of v_p(n) is
            # below 2^k, so the walk back down takes it one bit per rung
            e, rungs = 0, []
            q = p
            while n % q == 0:
                n //= q
                e += 1 << len(rungs)
                rungs.append(q)
                q *= q
            for k in range(len(rungs) - 1, -1, -1):
                if n % rungs[k] == 0:
                    n //= rungs[k]
                    e += 1 << k
        exponents[p] = e
    return exponents, n


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer as {prime: exponent}.
    Raises ValueError when a composite part outlasts RHO_STEP_BUDGET or a
    prime part cannot be certified (see is_prime)."""
    if n <= 0:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    for p in SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n == 1:
        return out
    stack = [n]
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        root, k = perfect_power(m)
        if k > 1:
            stack.extend([root] * k)
            continue
        d = _pollard_rho(m)
        stack.extend([d, m // d])
    return out


@functools.lru_cache(maxsize=256)
def _power_sieve(k: int) -> tuple[tuple[int, int], ...]:
    """The first ceil(24 / bit_length(k)) primes q = 1 (mod k), each with
    (q-1)/k.  A non-power passes the test at one q with probability about
    1/k < 2^(1 - bit_length(k)), so it passes all of them with probability
    at most about 2^-12."""
    sieve = []
    q, step = 1, k if k == 2 else 2 * k   # an odd q for an odd k
    while len(sieve) < -(-24 // k.bit_length()):
        q += step
        if is_prime(q):
            sieve.append((q, (q - 1) // k))
    return tuple(sieve)


def _may_be_power(n: int, k: int) -> bool:
    """False when a residue proves that n is no k-th power: for a prime
    q = 1 (mod k) that does not divide n = r**k, n^((q-1)/k) = r^(q-1) = 1
    (mod q) (Bernstein, Math. Comp. 67, 1998).  A non-power passes each q
    with probability about 1/k, so few roots are taken in vain."""
    for q, e in _power_sieve(k):
        r = n % q
        if r and pow(r, e, q) != 1:
            return False
    return True


def perfect_power(n: int) -> tuple[int, int]:
    """Largest k with n = r**k for n >= 2; returns (r, k), k = 1 if none.
    Only prime exponents are probed; composite exponents fall out of the
    recursion (64 -> (2, 6)).  A residue sieve rejects most exponents, and
    a root confirms every one it lets through."""
    if n < 2:
        raise ValueError("perfect_power expects n >= 2")
    maxk = n.bit_length()
    exponents = SMALL_PRIMES
    if maxk > SMALL_PRIMES[-1]:
        exponents = itertools.chain(SMALL_PRIMES, _large_exponents(n))
    for k in exponents:
        if k > maxk:
            break
        if not _may_be_power(n, k):
            continue
        r = _iroot(n, k)
        if r**k == n:
            r2, k2 = perfect_power(r)
            return r2, k * k2
    return (n, 1)


def _large_exponents(n: int):
    """The primes k > 9973 with n = r**k possible, in increasing order.  If
    a prime p < 10^4 divides n, every such k divides v_p(n).  Otherwise
    r >= 10007 > 2^13, so 2^(13 k) < n: only n of at least 130091 bits
    leave any k to try."""
    top = SMALL_PRIMES[-1]
    for p in SMALL_PRIMES:
        if n % p == 0:
            v = _split_primes(n, (p,))[0][p]
            yield from sorted(k for k in factorize(v) if k > top)
            return
    if n.bit_length() // 13 > top:
        yield from (k for k in _sieve_primes(n.bit_length() // 13 + 1) if k > top)


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0, k >= 1."""
    if n < 0:
        raise ValueError("negative radicand")
    if k == 1 or n in (0, 1):
        return n
    if k == 2:
        return math.isqrt(n)
    # Newton's step from x >= floor(n^(1/k)) stays >= it (by AM-GM) and
    # falls strictly until it reaches it.  Far above the root it falls by
    # only about x/k a step, so it starts from the root's top 50 bits taken
    # in floats and rounded up by 2^-20, or else from 2^ceil(bits/k)
    e = math.log2(n) / k
    shift = max(0, int(e) - 50)
    x = (int(2 ** (e - shift) * (1 + 2**-20)) + 1) << shift
    if x**k <= n:
        x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def sqrt_fraction_exact(q: Fraction):
    """Exact square root of a nonnegative rational, or None if irrational."""
    if q < 0:
        raise ValueError("negative radicand")
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def hnf_with_transform(rows: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Row-style Hermite normal form of an integer matrix.

    Returns (H, T) with T unimodular-on-rows such that H = T @ rows, the
    nonzero rows of H forming an echelon basis of the row lattice (positive
    pivots, entries above each pivot reduced)."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    H = [list(r) for r in rows]
    T = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    pivot_row = 0
    for col in range(n):
        # find a row at or below pivot_row with nonzero entry in col
        pivots = [i for i in range(pivot_row, m) if H[i][col] != 0]
        if not pivots:
            continue
        i0 = pivots[0]
        H[pivot_row], H[i0] = H[i0], H[pivot_row]
        T[pivot_row], T[i0] = T[i0], T[pivot_row]
        for i in range(pivot_row + 1, m):
            while H[i][col] != 0:
                a, b = H[pivot_row][col], H[i][col]
                if abs(a) > abs(b) or (a % b == 0 and abs(a) >= abs(b)):
                    H[pivot_row], H[i] = H[i], H[pivot_row]
                    T[pivot_row], T[i] = T[i], T[pivot_row]
                    a, b = b, a
                q = b // a
                for j in range(n):
                    H[i][j] -= q * H[pivot_row][j]
                for j in range(m):
                    T[i][j] -= q * T[pivot_row][j]
        if H[pivot_row][col] < 0:
            H[pivot_row] = [-x for x in H[pivot_row]]
            T[pivot_row] = [-x for x in T[pivot_row]]
        # reduce entries above the pivot
        a = H[pivot_row][col]
        for i in range(pivot_row):
            q = H[i][col] // a
            if q:
                for j in range(n):
                    H[i][j] -= q * H[pivot_row][j]
                for j in range(m):
                    T[i][j] -= q * T[pivot_row][j]
        pivot_row += 1
        if pivot_row == m:
            break
    return H, T


def solve_in_row_lattice(basis: list[list[int]], target: list[int]):
    """Integer coefficients c with sum(c_i * basis_i) == target, or None.

    ``basis`` must be in row echelon form (as produced by hnf_with_transform,
    zero rows allowed at the bottom)."""
    n = len(target)
    residual = list(target)
    coeffs = []
    rows = [r for r in basis if any(r)]
    for row in rows:
        lead = next(j for j in range(n) if row[j] != 0)
        if residual[lead] % row[lead] != 0:
            # not solvable with this echelon row; leading entries of later
            # rows are strictly to the right so nothing can fix column lead
            if residual[lead] != 0:
                return None
            coeffs.append(0)
            continue
        c = residual[lead] // row[lead]
        coeffs.append(c)
        if c:
            for j in range(n):
                residual[j] -= c * row[j]
    if any(residual):
        return None
    return coeffs
