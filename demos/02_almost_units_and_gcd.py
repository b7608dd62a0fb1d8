"""Almost-unit classification and the generalized logarithmic gcd.

An almost-(S, delta)-unit is a rational whose height is dominated by its
S-part: the non-S height h_sbar(u) is at most delta * h(u).  Both sides are
exact LogReals, so membership is a sign test, never a tolerance call.
"""

from fractions import Fraction

from gcdlab import (
    AlmostUnitConfig,
    PlaceSet,
    TorusPoint,
    h_sbar,
    height,
    is_almost_unit,
    log_gcd,
    log_gcd_outside,
    log_gcd_within,
)

S = PlaceSet.of(2)          # {oo, 2}
delta = Fraction(1, 5)
cfg = AlmostUnitConfig(S, delta)

print(f"S = {S}, delta = {delta}")
for u in [Fraction(8), Fraction(3072), Fraction(6), Fraction(1536, 5)]:
    print(
        f"  u = {str(u):>7}:  h = {height(u).decimal(6):>9}  "
        f"h_sbar = {h_sbar(u, S).decimal(6):>9}  "
        f"almost unit: {is_almost_unit(u, cfg)}"
    )

print("\ntuples classify through the projective torus height:")
pt = TorusPoint([Fraction(1024), Fraction(768)])   # 768 = 3 * 2^8
print(f"  u = {pt}: almost unit at delta=1/5: {is_almost_unit(pt, cfg)}")

print("\ngeneralized log gcd extends the classical one to rationals:")
pairs = [(Fraction(12), Fraction(18)), (Fraction(3, 2), Fraction(9, 4)),
         (Fraction(1, 2), Fraction(1, 3))]
for a, b in pairs:
    g = log_gcd(a, b)
    print(f"  log gcd({a}, {b}) = {g}  ({g.decimal(6)})")

print("\nand splits exactly across any set of places:")
a, b = Fraction(720), Fraction(300)
for primes in [(), (2,), (2, 3), (2, 3, 5)]:
    Ss = PlaceSet.of(*primes)
    inside = log_gcd_within(a, b, Ss)
    outside = log_gcd_outside(a, b, Ss)
    assert inside + outside == log_gcd(a, b)
    print(f"  S = {str(Ss):>12}:  within = {str(inside):>18}  outside = {outside}")
