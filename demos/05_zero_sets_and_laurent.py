"""Zero structure of recurrences and their Laurent-polynomial images.

Zeros of a rational power sum decompose into full arithmetic progressions
(certified algebraically: the reindexed subsequence is identically zero)
plus finitely many sporadic indices.  Expressing the sequence as a Laurent
polynomial in its root-group generators turns sequence coprimality questions
into polynomial ones.
"""

from fractions import Fraction

from gcdlab import (
    PowerSum,
    from_recurrence,
    lrs_coprime,
    multiplicative_independence,
    root_group,
    to_laurent,
    zero_scan,
)

F = PowerSum.of(([1], 2), ([1], -2))       # 2^n + (-2)^n
print(f"F(n) = {F}")
zs = zero_scan(F, 40)
print(f"zeros up to 40: {zs.zeros}")
print(f"certified progressions (residue, modulus): {zs.progressions}")
print(f"sporadic: {zs.sporadic}")

G = PowerSum.of(([1], 2), ([-4], 1))       # 2^n - 4
zs2 = zero_scan(G, 40)
print(f"\nG(n) = {G}: zeros {zs2.zeros}, progressions {zs2.progressions}, "
      f"sporadic {zs2.sporadic}")

# a(n+2) = 3 a(n+1) - 2 a(n) with a(0), a(1) = 0, 1 is 2^n - 1
H = from_recurrence([3, -2], [0, 1])
assert H == PowerSum.of(([1], 2), ([-1], 1))
print(f"\nfrom the recurrence a(n+2) = 3 a(n+1) - 2 a(n), a(0..1) = 0, 1: {H}")

print("\nroot groups and multiplicative structure:")
rg = root_group([Fraction(4), Fraction(8), Fraction(6)])
print(f"  roots 4, 8, 6: rank {rg.rank}, generators {rg.generators}, "
      f"torsion: {rg.has_torsion}")
print(f"  roots of 2^n vs 3^n multiplicatively independent: "
      f"{multiplicative_independence([Fraction(2)], [Fraction(3)])}")

print("\nLaurent images over the combined root group:")
A = PowerSum.of(([0, 1], 2), ([1], 1))     # n 2^n + 1
rgA = root_group(A.roots)
print(f"  {A}  ->  {to_laurent(A, rgA)}   (x1 is the index, x2 = 2^n)")

B1 = PowerSum.of(([1], 2), ([-1], 1)) * PowerSum.of(([1], 3), ([1], 1))
B2 = PowerSum.of(([1], 2), ([-1], 1)) * PowerSum.of(([1], 5), ([1], 1))
print(f"\n  (2^n - 1)(3^n + 1) and (2^n - 1)(5^n + 1) coprime? "
      f"{lrs_coprime(B1, B2)}   (they share 2^n - 1)")
print(f"  n 2^n + 1 and 2^n + 1 coprime? "
      f"{lrs_coprime(A, PowerSum.of(([1], 2), ([1], 1)))}")
