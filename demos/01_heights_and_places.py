"""Places of Q, exact log-values, and the product formula.

Every absolute value of a rational is a rational power of primes, so its log
lives in the Q-span of {log p}.  gcdlab keeps those combinations exact: the
product formula is a telescoping identity, not a numerical near-zero.
"""

from fractions import Fraction

from gcdlab import LogReal, height, local_height, log_abs, support
from gcdlab.heights import relevant_places
from gcdlab.logreal import logreal_sum

x = Fraction(-84, 55)
print(f"x = {x}")
print(f"support(x) = {sorted(support(x))}")

print("\nlog|x|_v place by place:")
total = LogReal.zero()
for v in relevant_places(x):
    contrib = log_abs(x, v)
    total = total + contrib
    print(f"  v = {str(v):>3}:  {contrib}  ({contrib.decimal(8)})")
print(f"sum over all places: {total}   <- exactly zero, the product formula")
assert total.is_zero

print("\nheights are sums of local heights, with zero discrepancy:")
h = height(x)
parts = logreal_sum(local_height(x, v) for v in relevant_places(x))
print(f"  h(x)            = {h.pretty(10)}")
print(f"  sum local parts = {parts.pretty(10)}")
assert h == parts

print("\nexact comparisons, certified by escalating interval arithmetic:")
a = LogReal({2: 1000000, 3: -630929})   # 10^6 log2 vs 630929 log3, very close
print(f"  sign(1000000*log2 - 630929*log3) = {a.sign()}")
print(f"  value ~ {a.decimal(6)}")
