"""Truncated-ideal combinatorics: quotient dimensions, place-adapted greedy
monomial bases, and the explicit constants of the gcd inequalities.

The degree-m truncation of (f, g) is a plain vector space; its codimension
follows a closed binomial formula whenever f and g are coprime, and the
quotient admits a monomial basis chosen greedily by |u^i|_v, whose
reductions never reach upward in |.|_v (the dominance property).
"""

import random
from fractions import Fraction

from gcdlab import (
    Place,
    TorusPoint,
    delta_for_epsilon,
    dim_quotient_formula,
    dim_quotient_bruteforce,
    greedy_monomial_basis,
    inequality_constants,
    multiindex_sum,
    multiindex_sum_closed_form,
    parse_poly,
    truncated_ideal,
)
from gcdlab.harness import random_coprime_forms
from gcdlab.hilbert import greedy_dominance_violations

print("multi-index sums, enumerated vs closed form:")
for n, m in [(1, 2), (2, 3), (3, 4)]:
    print(f"  n={n} m={m}: {multiindex_sum(n, m)} == {multiindex_sum_closed_form(n, m)}")

print("\nquotient dimensions: formula vs exact rank on a random coprime pair")
rng = random.Random(1)
F1, F2 = random_coprime_forms(rng, 3, 2, 2)
print(f"  F1 = {F1}")
print(f"  F2 = {F2}")
for l in range(8):
    a = dim_quotient_formula(2, l, 2, 2)
    b = dim_quotient_bruteforce(F1, F2, l)
    print(f"  degree {l}: formula {a}, rank computation {b}")
    assert a == b

print("\ngreedy monomial basis adapted to a point and place:")
f = parse_poly("x1 + 1", nvars=2)
g = parse_poly("x2", nvars=2)
T = truncated_ideal(f, g, 3)
print(f"  (f, g) = ({f}, {g}), m = 3: N = {T.N}, N' = {T.Nprime}")
u = TorusPoint([Fraction(1, 2), Fraction(3)])
for v in [Place.archimedean(), Place.finite(2)]:
    gb = greedy_monomial_basis(T, u, v)
    print(f"  at v = {v}: basis monomials {gb.monomials}, "
          f"dominance violations: {greedy_dominance_violations(gb)}")

print("\nexplicit constants of the inequalities at (n, d1, d2) = (2, 3, 2):")
c = inequality_constants(2, 3, 2, Fraction(1, 100))
print(f"  C_main = {c.C_main}, m_main = {c.m_main}, C_combined = {c.C_combined}")
print(f"  C_spart = {c.C_spart}, m_spart = {c.m_spart} (<= 2n), I_spart = {c.I_spart}")
print(f"  the eps-form at eps = 1/10 holds with delta = "
      f"{delta_for_epsilon(Fraction(1, 10), 2, 3, 2)} = (eps / (6 n^3 (d1 + d2)))^2")
