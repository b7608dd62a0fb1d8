import itertools
import operator
import random
from fractions import Fraction
from functools import cmp_to_key
from math import comb

import mpmath
import pytest

from gcdlab import hilbert
from gcdlab.harness import random_coprime_forms, random_form, run_hilbert_verify
from gcdlab.heights import TorusPoint
from gcdlab.hilbert import (
    ceil_spart_degree,
    delta_for_epsilon,
    dim_quotient_bruteforce,
    dim_quotient_formula,
    floor_scaled_inv_sqrt,
    graded_ideal_rank,
    greedy_dominance_violations,
    greedy_monomial_basis,
    i_spart,
    inequality_constants,
    monomials_exact,
    monomials_upto,
    multiindex_sum,
    multiindex_sum_closed_form,
    ord_sum_check,
    quotient_monomial_basis,
    truncated_ideal,
    veronese_basis,
    veronese_rank,
)
from gcdlab.logreal import LogReal
from gcdlab.multipoly import MultiPoly, _monomial_table, parse_poly
from gcdlab.places import DomainError, Place, log_abs


def test_monomials_exact_matches_product_filter():
    for nvars in range(6):
        for degree in range(-1, 9):
            oracle = sorted(
                e for e in itertools.product(range(degree + 1), repeat=nvars)
                if sum(e) == degree
            )
            assert monomials_exact(nvars, degree) == oracle, (nvars, degree)


def test_monomials_exact_returns_a_fresh_list():
    first = monomials_exact(3, 2)
    want = list(first)
    first.append((9, 9, 9))
    first[0] = (0, 0, 0)
    assert monomials_exact(3, 2) == want
    assert monomials_upto(3, 2)[-len(want):] == want


def test_multiindex_sum_examples():
    assert multiindex_sum(1, 2) == (3, 3)
    assert multiindex_sum(2, 1) == (1, 1, 1)
    assert multiindex_sum(2, 3) == (10, 10, 10)


def test_multiindex_sum_matches_closed_form():
    for n in range(1, 6):
        for m in range(1, 11):
            assert multiindex_sum(n, m) == multiindex_sum_closed_form(n, m)


def test_dim_quotient_formula_examples():
    assert dim_quotient_formula(2, 2, 1, 1) == 1
    assert dim_quotient_formula(2, 3, 1, 2) == 2
    assert dim_quotient_formula(1, 5, 2, 3) == 0


def test_dim_quotient_against_bruteforce_spotchecks():
    F1 = parse_poly("x1", nvars=3)
    F2 = parse_poly("x2", nvars=3)
    assert dim_quotient_bruteforce(F1, F2, 2) == 1
    # no monomial has a negative degree, however far below -(nvars - 1)
    for l in (-1, -2, -5):
        assert dim_quotient_bruteforce(F1, F2, l) == 0 == graded_ideal_rank(F1, F2, l)
    F2b = parse_poly("x2^2 + x3^2", nvars=3)
    assert dim_quotient_bruteforce(F1, F2b, 3) == 2
    G1 = parse_poly("x1^2 + x2^2", nvars=2)
    G2 = parse_poly("x1^3 - x2^3", nvars=2)
    assert dim_quotient_bruteforce(G1, G2, 5) == 0


def test_graded_rank_rejects_what_is_not_a_pair_of_nonzero_forms():
    x1_2 = parse_poly("x1", nvars=2)
    bad = [
        (parse_poly("x1 + x2^2", nvars=2), x1_2),   # F1 is not a form
        (x1_2, parse_poly("x1*x2 + 1", nvars=2)),   # nor is F2
        (x1_2, parse_poly("x1", nvars=3)),          # 2 and 3 variables
        (MultiPoly(2, {}), x1_2),                   # the Koszul bound needs F1 != 0
        (x1_2, MultiPoly(2, {})),
    ]
    for F1, F2 in bad:
        for l in (0, 1, 3):
            with pytest.raises(DomainError):
                graded_ideal_rank(F1, F2, l)
            with pytest.raises(DomainError):
                dim_quotient_bruteforce(F1, F2, l)


def _graded_rank_cases():
    """(F1, F2) pairs over 2-4 variables and degrees <= 3 whose graded rank
    is reached by all three paths: random coprime pairs (rank equals the
    Koszul bound), pairs h*f0, h*g0 sharing a factor (rank below it), and
    coprime pairs congruent mod 13 (rank mod 13 below the rank).  x1 + x2,
    x1 + 14*x2 have the same leading monomial mod 13, so only int_rank
    settles them.  Two pairs share a factor and have residues whose leading
    monomials differ from their rational ones: x1 + 13*x2 and its x2
    multiple, whose lex-smallest coefficients are 13, and a pair whose
    first form is 0 mod 13, so that its rank mod 13 counts the second
    form's multiples alone."""
    rng = random.Random(71)
    pairs = [
        (parse_poly("13*x1 + x2", nvars=3), parse_poly("x2 + 26*x3", nvars=3)),
        (parse_poly("13*x1^2 + x2^2", nvars=2), parse_poly("x2^2 - 13*x1*x2", nvars=2)),
        (parse_poly("x1 + x2", nvars=2), parse_poly("x1 + 14*x2", nvars=2)),
        (parse_poly("x1^2 + x2*x3", nvars=3), parse_poly("x3^2 + x1*x2", nvars=3)),
        (parse_poly("x1 + 13*x2", nvars=2), parse_poly("x1*x2 + 13*x2^2", nvars=2)),
        (parse_poly("13*x1 + 26*x2", nvars=3), parse_poly("x1*x3 + 2*x2*x3", nvars=3)),
    ]
    for nvars in (2, 3, 4):
        for d1, d2 in ((1, 1), (1, 3), (2, 2), (3, 2)):
            pairs.append(random_coprime_forms(rng, nvars, d1, d2))
        for e1, e2 in ((1, 1), (1, 2), (2, 1)):
            h = random_form(rng, nvars, 1)
            f0, g0 = random_coprime_forms(rng, nvars, e1, e2)
            pairs.append((h * f0, h * g0))
        for d in (1, 2):
            F = random_form(rng, nvars, d)
            pairs.append((F, F + random_form(rng, nvars, d) * 13))
    return pairs


def _sympy_rank_mod_13(vectors, column):
    """sympy's rank over GF(13) of integral {monomial: coefficient} vectors."""
    return len(_sympy_pivots_mod_13(vectors, column))


def _sympy_pivots_mod_13(vectors, column):
    """The pivot columns of sympy's reduced echelon form over GF(13) of
    integral {monomial: coefficient} vectors: the leading columns of their
    span mod 13."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    GF13 = sympy.GF(13)
    entries = {i: {column[e]: GF13(int(c)) for e, c in v.items() if c % 13}
               for i, v in enumerate(vectors)}
    entries = {i: row for i, row in entries.items() if row}
    return DomainMatrix(entries, (len(vectors), len(column)), GF13).rref()[1]


def _count_rank_routes(monkeypatch) -> dict[str, int]:
    """Counts of the calls that graded ranks make to _rank_mod_13 and
    int_rank through hilbert's module globals, from here on."""
    calls = {"_rank_mod_13": 0, "int_rank": 0}

    def counted(name):
        inner = getattr(hilbert, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(hilbert, name, counted(name))
    return calls


def test_graded_rank_matches_sympy_on_all_three_paths(monkeypatch):
    """graded_ideal_rank equals sympy's rank, whether the rank mod 13 meets
    the Koszul bound, falls short of it because 13 divides a minor, or falls
    short because the forms share a factor; some input has its rank and its
    rank mod 13 both one below the bound, so a rank taken as the bound from
    a rank mod 13 within 1 of it shows.  Each of the three certificates
    (leading monomials, rank mod 13, int_rank) settles some input."""
    calls = _count_rank_routes(monkeypatch)
    seen = set()
    for F1, F2 in _graded_rank_cases():
        nvars, d1, d2 = F1.nvars, F1.degree(), F2.degree()

        def b(k):
            return comb(k + nvars - 1, k) if k >= 0 else 0

        for l in range(d1 + d2 + 3):
            monomials = _exponents(nvars, [l])
            if len(monomials) > 40:
                break
            column = {e: j for j, e in enumerate(monomials)}
            rows = [t for F in (F1, F2) for t in _multiples(nvars, F, [l - F.degree()])]
            want = _sympy_rank(rows, column)
            before = dict(calls)
            assert graded_ideal_rank(F1, F2, l) == want, (F1, F2, l)
            route = {name for name in calls if calls[name] > before[name]}
            assert dim_quotient_bruteforce(F1, F2, l) == len(monomials) - want

            bound = min(b(l), b(l - d1) + b(l - d2) - b(l - d1 - d2))
            modular = _sympy_rank_mod_13(rows, column)
            assert modular <= want <= bound
            if modular < want:
                seen.add("rank mod 13 below the rank")
                if want == bound and "int_rank" in route:
                    seen.add("coprime, settled by int_rank")
            if want < bound:
                seen.add("rank below the bound")
                assert route == {"_rank_mod_13", "int_rank"}, (F1, F2, l)
            if modular == want == bound - 1:
                seen.add("both one below the bound")
            if not route:
                seen.add("settled by leading monomials")
            elif route == {"_rank_mod_13"}:
                seen.add("settled by the rank mod 13")
            else:
                seen.add("settled by int_rank")
    assert seen == {"rank mod 13 below the rank", "rank below the bound",
                    "both one below the bound", "settled by leading monomials",
                    "settled by the rank mod 13", "settled by int_rank",
                    "coprime, settled by int_rank"}


def test_rank_mod_13_matches_sympy_on_packed_rows():
    """The rank mod 13 and the pivot columns equal those of sympy's echelon
    form; capped at 1, the one pivot is among them."""
    rng = random.Random(72)
    for _ in range(60):
        nrows, ncols, k = rng.randint(1, 14), rng.randint(1, 14), rng.randint(0, 6)
        A = [[rng.randint(-40, 40) for _ in range(k)] for _ in range(nrows)]
        B = [[rng.choice((0, 12, 13, 25, rng.randint(-40, 40))) for _ in range(ncols)]
             for _ in range(k)]
        rows = [{j: sum(A[i][t] * B[t][j] for t in range(k)) for j in range(ncols)}
                for i in range(nrows)]
        column = {(j,): j for j in range(ncols)}
        pivots = _sympy_pivots_mod_13([{(j,): c for j, c in r.items()} for r in rows], column)
        want = sum(1 << j for j in pivots)
        packed = [sum((c % 13) << (8 * j) for j, c in r.items()) for r in rows]
        assert hilbert._rank_mod_13(packed, ncols, ncols + 1) == (len(pivots), want)
        rank, first = hilbert._rank_mod_13(packed, ncols, 1)
        assert rank == first.bit_count() == min(len(pivots), 1)
        assert first & want == first


def test_graded_ideal_ranks_match_per_level_ranks_and_sympy(monkeypatch):
    """One graded_ideal_ranks call over consecutive levels equals
    graded_ideal_rank level by level and sympy's rank, and so do calls over
    the same levels skipped, reversed or repeated, where no level has the
    one below it ranked just before, so each takes the route of its lone
    rank: on the three-path cases (shared factors and residues whose
    leading monomials are not the rational ones among them), on pairs in
    one variable (monomials, which share x1 unless one is constant), and on
    levels negative or below both degrees.  The
    leading monomials carried from level to level settle some rank that the
    level alone takes to _rank_mod_13."""
    calls = _count_rank_routes(monkeypatch)
    seen = set()
    pairs = _graded_rank_cases() + [
        (parse_poly("2*x1^2", nvars=1), parse_poly("x1", nvars=1)),
        (parse_poly("13*x1^3", nvars=1), parse_poly("x1^2", nvars=1)),
        (parse_poly("3", nvars=1), parse_poly("x1", nvars=1)),
    ]
    for F1, F2 in pairs:
        nvars, d1, d2 = F1.nvars, F1.degree(), F2.degree()
        consecutive = [l for l in range(d1 + d2 + 3) if comb(l + nvars - 1, l) <= 40]
        want = {}
        for l in consecutive + [-2, -1]:
            column = {e: j for j, e in enumerate(_exponents(nvars, [l]))}
            rows = [t for F in (F1, F2) for t in _multiples(nvars, F, [l - F.degree()])]
            want[l] = _sympy_rank(rows, column)
        routes = {}   # level -> (_rank_mod_13 calls, int_rank calls) of its lone rank
        for l in want:
            before = dict(calls)
            assert graded_ideal_rank(F1, F2, l) == want[l], (F1, F2, l)
            routes[l] = tuple(calls[name] - before[name] for name in calls)
        before = calls["_rank_mod_13"]
        assert hilbert.graded_ideal_ranks(F1, F2, consecutive) == [want[l] for l in consecutive]
        if calls["_rank_mod_13"] - before < sum(routes[l][0] for l in consecutive):
            seen.add("settled by the carried leading monomials")
        top = consecutive[-1]
        # no level here follows the one below it, bar -1 or 0 after a level of rank 0
        for levels in (consecutive[::2], consecutive[::-1],
                       [top, top, -2, min(d1, d2) - 1, 0, top]):
            before = dict(calls)
            ranks = hilbert.graded_ideal_ranks(F1, F2, levels)
            assert ranks == [want[l] for l in levels], (F1, F2, levels)
            # so each takes the route of its lone rank
            assert tuple(calls[name] - before[name] for name in calls) == tuple(
                map(sum, zip(*(routes[l] for l in levels)))), (F1, F2, levels)
        assert want[min(d1, d2) - 1] == 0
    assert seen == {"settled by the carried leading monomials"}


def test_leading_monomials_are_read_off_the_residues(monkeypatch):
    """x1 + 13*x2 and x2 have the same lex-smallest term x2 over Q, but
    x1 + 13*x2 is x1 mod 13: the residues' leading monomials x1, x2 and
    their multiples settle every level with no elimination.  (Leading
    monomials taken from the rational terms would still give the right
    ranks, but level 1 would need _rank_mod_13.)"""
    calls = _count_rank_routes(monkeypatch)
    F1, F2 = parse_poly("x1 + 13*x2", nvars=2), parse_poly("x2", nvars=2)
    assert hilbert.graded_ideal_ranks(F1, F2, range(5)) == [0, 2, 3, 4, 5]
    assert calls == {"_rank_mod_13": 0, "int_rank": 0}


def _per_term_packed_rows(nvars, da, db, terms):
    """The packing that product columns replaced, as the oracle: row x^a * F
    holds the residue of each term at e in byte column[a + e]."""
    column = _monomial_table(nvars, da + db)[1]
    return [sum(c << (column[tuple(map(operator.add, a, e))] << 3) for e, c in terms)
            for a in _monomial_table(nvars, da)[0]]


def test_product_column_packing_matches_per_term_packing():
    rng = random.Random(73)
    for nvars in (1, 2, 3, 4):
        for _ in range(25):
            da, db = rng.randint(-1, 4), rng.randint(0, 3)
            monos = _monomial_table(nvars, db)[0]
            F = MultiPoly(nvars, {
                e: Fraction(rng.choice([1, -1, 12, 13, 26, rng.randint(-40, 40) or 1]),
                            rng.choice([1, 1, 2, 13]))
                for e in rng.sample(monos, rng.randint(1, len(monos)))
            })
            terms = hilbert._residue_terms(F)
            want = _per_term_packed_rows(nvars, da, db, terms)
            if not terms:
                want = []   # a form that vanishes mod 13 packs no row
            assert hilbert._packed_rows(nvars, da, db, terms) == want, (F, da)


def test_hilbert_verify_rank_routes_are_pinned(monkeypatch):
    """hilbert-verify seeds 0-3 rank 4320 levels, 601 of them past the
    leading monomials mod 13 and 35 past the rank mod 13 as well: a change
    to what each level carries to the next shows here."""
    calls = _count_rank_routes(monkeypatch)
    levels = []
    inner = hilbert.graded_ideal_ranks

    def counted(F1, F2, ls):
        levels.extend(ls)
        return inner(F1, F2, ls)

    monkeypatch.setattr(hilbert, "graded_ideal_ranks", counted)
    for seed in range(4):
        run_hilbert_verify(seed)
    assert (len(levels), calls["_rank_mod_13"], calls["int_rank"]) == (4320, 601, 35)


def test_quotient_monomial_basis():
    F1 = parse_poly("x1", nvars=3)
    F2 = parse_poly("x2", nvars=3)
    assert quotient_monomial_basis(F1, F2, 2) == [(0, 0, 2)]
    rng = random.Random(31)
    for n in (1, 2):
        for d1 in (1, 2):
            for d2 in (1, 2):
                F1, F2 = random_coprime_forms(rng, n + 1, d1, d2)
                for m in range(d1 + d2 + 2):
                    B = quotient_monomial_basis(F1, F2, m)
                    assert len(B) == dim_quotient_formula(n, m, d1, d2)


def test_truncated_ideal_examples():
    T = truncated_ideal(parse_poly("x1 + 1", nvars=2), parse_poly("x2", nvars=2), 1)
    assert (T.N, T.Nprime) == (2, 1)
    T2 = truncated_ideal(parse_poly("x1", nvars=2), parse_poly("x2", nvars=2), 2)
    assert T2.Nprime == 1
    T3 = truncated_ideal(parse_poly("x1", nvars=2), parse_poly("x1^2", nvars=2), 2)
    assert T3.Nprime == 3
    with pytest.raises(DomainError):
        truncated_ideal(parse_poly("x1^2", nvars=2), parse_poly("x2", nvars=2), 1)


def test_truncated_ideal_dimension_identity():
    rng = random.Random(51)
    from gcdlab.harness import random_coprime_forms

    for _ in range(10):
        F1, F2 = random_coprime_forms(rng, 3, rng.randint(1, 2), rng.randint(1, 2))
        f, g = _dehomogenize(F1), _dehomogenize(F2)
        if f.is_zero or g.is_zero or f.is_constant() or g.is_constant():
            continue
        m = max(f.degree(), g.degree()) + rng.randint(0, 2)
        T = truncated_ideal(f, g, m)
        n = 2
        assert T.N + T.Nprime == comb(m + n, n)
        # membership: the generators are inside, and reduce() vanishes there
        assert T.contains(f * MultiPoly.one(2))
        if m >= f.degree() + 1:
            assert T.contains(f * MultiPoly.variable(2, 0))


def test_affine_truncation_matches_projective_formula():
    # dim of poly_<=m modulo (f, g)_(m) equals the graded quotient of the
    # homogenized pair in one more variable
    rng = random.Random(52)
    from gcdlab.harness import random_coprime_forms
    from gcdlab.multipoly import coprime

    done = 0
    while done < 8:
        F1, F2 = random_coprime_forms(rng, 3, rng.randint(1, 2), rng.randint(1, 2))
        f, g = _dehomogenize(F1), _dehomogenize(F2)
        if f.is_zero or g.is_zero or f.is_constant() or g.is_constant():
            continue
        if f.degree() != F1.degree() or g.degree() != F2.degree():
            continue
        if not coprime(f, g):
            continue
        m = max(f.degree(), g.degree()) + rng.randint(0, 2)
        T = truncated_ideal(f, g, m)
        assert T.Nprime == dim_quotient_formula(2, m, f.degree(), g.degree())
        done += 1


def test_greedy_basis_examples():
    T = truncated_ideal(parse_poly("x1 + 1", nvars=2), parse_poly("x2", nvars=2), 1)
    gb = greedy_monomial_basis(T, TorusPoint([2, 3]), Place.archimedean())
    assert gb.monomials == [(0, 0)]
    gb2 = greedy_monomial_basis(T, TorusPoint([Fraction(1, 2), 3]), Place.archimedean())
    assert gb2.monomials == [(1, 0)]
    # reduction: 1 == -x1 modulo (x1+1, x2) in degree 1
    assert gb2.reduce_monomial((0, 0)) == {(1, 0): Fraction(-1)}
    # empty quotient gives the empty basis
    T0 = truncated_ideal(parse_poly("x1 + 1", nvars=1), parse_poly("x1", nvars=1), 1)
    assert T0.Nprime == 0
    gb0 = greedy_monomial_basis(T0, TorusPoint([2]), Place.archimedean())
    assert gb0.monomials == []


def test_greedy_dominance_battery():
    rng = random.Random(53)
    from gcdlab.multipoly import coprime

    made = 0
    while made < 20:
        f = _rand_affine(rng, 2)
        g = _rand_affine(rng, 2)
        if f.is_zero or g.is_zero or f.is_constant() or g.is_constant():
            continue
        if not coprime(f, g):
            continue
        m = rng.randint(max(f.degree(), g.degree()), 5)
        u = TorusPoint(
            [
                Fraction(rng.choice([-1, 1]))
                * Fraction(2) ** rng.randint(-5, 5)
                * Fraction(3) ** rng.randint(-5, 5)
                for _ in range(2)
            ]
        )
        v = rng.choice([Place.archimedean(), Place.finite(2), Place.finite(3)])
        T = truncated_ideal(f, g, m)
        if T.Nprime == 0:
            continue
        gb = greedy_monomial_basis(T, u, v)
        assert len(gb.monomials) == T.Nprime
        assert greedy_dominance_violations(gb) == []
        made += 1


def _exact_order(items, logs, tiebreak):
    """The reference order: a sort on the exact LogReal comparison alone."""
    def compare(a, b):
        s = (logs[a] - logs[b]).sign()
        if s:
            return s
        ka, kb = tiebreak(a), tiebreak(b)
        return -1 if ka < kb else (1 if ka > kb else 0)

    return sorted(items, key=cmp_to_key(compare))


def _graded_lex(e):
    return (sum(e), e)


@pytest.mark.parametrize("coords, place", [
    ((2, 4), Place.archimedean()),              # |x2| = |x1|^2: exact ties
    ((2, 4), Place.finite(2)),
    ((2**5, Fraction(1, 3**3)), Place.archimedean()),
    ((Fraction(1, 6), 6), Place.finite(5)),     # every key is 0
    ((2**200 + 1, 2**200), Place.archimedean()),  # keys 1e-60 apart
])
def test_greedy_basis_matches_the_exact_comparison_sort(coords, place, monkeypatch):
    u = TorusPoint([Fraction(c) for c in coords])
    pairs = [("x1 + 1", "x2", 3), ("x1^2 - x2", "x1*x2 + 2", 4), ("x1 - x2", "x2^2 + 1", 5)]
    chosen = []
    for f, g, m in pairs:
        T = truncated_ideal(parse_poly(f, nvars=2), parse_poly(g, nvars=2), m)
        logs = [log_abs(c, place) for c in u.coords]
        mono_logs = {e: hilbert._monomial_log(logs, e) for e in T.monomials}
        want = _exact_order(T.monomials, mono_logs, _graded_lex)
        assert hilbert._sorted_by_logs(T.monomials, mono_logs, _graded_lex) == want
        chosen.append(greedy_monomial_basis(T, u, place).monomials)
    monkeypatch.setattr(hilbert, "_sorted_by_logs", _exact_order)
    for (f, g, m), got in zip(pairs, chosen):
        T = truncated_ideal(parse_poly(f, nvars=2), parse_poly(g, nvars=2), m)
        assert greedy_monomial_basis(T, u, place).monomials == got


def test_sorted_by_logs_without_float_keys_sorts_exactly():
    huge = Fraction(10**400, 3)   # overflows a float: no enclosure
    values = [LogReal({2: huge, 3: -huge}), LogReal({2: 1}), LogReal({4: 1, 2: -2}),
              LogReal({8: 1, 2: -3}), LogReal({3: 1}), LogReal({2: -huge, 3: huge})]
    assert values[0].float_enclosure() is None
    logs = dict(enumerate(values))
    got = hilbert._sorted_by_logs(list(logs), logs, lambda i: i)
    assert got == _exact_order(list(logs), logs, lambda i: i) == [0, 2, 3, 1, 4, 5]


def _dominance_oracle(gb):
    """greedy_dominance_violations by the plain route: each reduction as
    dense Fractions and each pair of logs settled by the exact sign."""
    out = []
    basis = set(gb.monomials)
    for e in gb.ideal.monomials:
        if e in basis:
            continue
        target = hilbert._monomial_log(gb._logs, e)
        residual, tag = gb._span.reduce({gb.ideal.column[e]: 1})
        assert not any(residual)
        for mono, coeff in zip(gb.monomials, tag):
            if coeff and (hilbert._monomial_log(gb._logs, mono) - target).sign() > 0:
                out.append((e, mono))
    return out


def _reversed_order(items, logs, tiebreak):
    """A wrong greedy order: decreasing |u^e|_v."""
    return _exact_order(items, logs, tiebreak)[::-1]


def test_greedy_dominance_matches_the_exact_oracle_on_wrong_bases(monkeypatch):
    """On every greedy basis of hilbert-verify seeds 0-3, and on the bases
    the same instances get from a reversed order, the check returns the
    oracle's list; the wrong bases must give violations, so a check that
    found none would fail here."""
    bases = []
    build = hilbert.greedy_monomial_basis

    def record(T, u, v):
        bases.append(build(T, u, v))
        return bases[-1]

    monkeypatch.setattr(hilbert, "greedy_monomial_basis", record)
    for seed in range(4):
        run_hilbert_verify(seed)
    monkeypatch.undo()
    assert len(bases) == 200
    for gb in bases:
        assert greedy_dominance_violations(gb) == _dominance_oracle(gb) == []
    monkeypatch.setattr(hilbert, "_sorted_by_logs", _reversed_order)
    found = 0
    for gb in bases[:60]:
        wrong = greedy_monomial_basis(gb.ideal, gb.point, gb.place)
        got = greedy_dominance_violations(wrong)
        assert got == _dominance_oracle(wrong)
        found += bool(got)
    assert found >= 10


def test_greedy_dominance_on_exact_ties_takes_the_exact_sign(monkeypatch):
    """At u = (2, 4) at oo, log|u^e| = (e1 + 2 e2) log 2, so monomials tie
    exactly: their enclosures overlap and the exact LogReal sign decides,
    returning 0 (no violation) for a tie."""
    u = TorusPoint([Fraction(2), Fraction(4)])
    calls = []
    sign = LogReal.sign

    def counted(value):
        calls.append(value)
        return sign(value)

    # modulo x1^2 - x2, x^(2, 0) reduces to x^(0, 1), and |u^(2, 0)| = |u^(0, 1)|
    # = 4: under both orders some reduction pairs tied monomials
    T = truncated_ideal(parse_poly("x1^2 - x2", nvars=2), parse_poly("x1*x2 + 2", nvars=2), 4)
    for order, violations in ((hilbert._sorted_by_logs, 0), (_reversed_order, 9)):
        monkeypatch.setattr(hilbert, "_sorted_by_logs", order)
        gb = greedy_monomial_basis(T, u, Place.archimedean())
        monkeypatch.setattr(LogReal, "sign", counted)
        del calls[:]
        got = greedy_dominance_violations(gb)
        monkeypatch.setattr(LogReal, "sign", sign)
        assert got == _dominance_oracle(gb) and len(got) == violations
        assert calls and all(sign(c) == 0 for c in calls)


def test_reduce_monomial_tags_are_expressions_modulo_the_ideal():
    rng = random.Random(61)
    places = [Place.archimedean(), Place.finite(2), Place.finite(3)]
    for nvars, d1, d2 in [(2, 1, 1), (2, 1, 2), (2, 2, 2), (3, 1, 2), (3, 2, 2)]:
        F1, F2 = random_coprime_forms(rng, nvars, d1, d2)
        m = max(d1, d2) + rng.randint(0, 1)
        T = truncated_ideal(F1, F2, m)
        u = TorusPoint([Fraction(rng.choice([-3, -2, 2, 3]), rng.randint(1, 4))
                        for _ in range(nvars)])
        gb = greedy_monomial_basis(T, u, rng.choice(places))
        assert len(gb.monomials) == T.Nprime
        basis = set(gb.monomials)
        for e in T.monomials:
            if e in basis:
                continue
            terms = {e: Fraction(1)}
            for mono, c in gb.reduce_monomial(e).items():
                assert mono in basis
                terms[mono] = -c
            p = MultiPoly(nvars, terms)
            assert T.contains(p)
            assert not any(T.reduce(p))


def _rand_affine(rng, d):
    monos = monomials_upto(2, d)
    return MultiPoly(
        2,
        {
            e: Fraction(rng.choice([-2, -1, 1, 2]))
            for e in rng.sample(monos, min(len(monos), 4))
        },
    )


def test_ord_sum_examples():
    assert ord_sum_check([(0, 0, 2)], 0, 1, 1, 2, 2)
    assert ord_sum_check([(0, 0, 2)], 2, 1, 1, 2, 2)  # boundary: 2 <= 2
    assert ord_sum_check([], 0, 1, 1, 2, 2)


def test_constants_examples():
    c = inequality_constants(2, 3, 2, Fraction(1, 100))
    assert c.C_main == 32
    assert c.C_combined == 120
    assert inequality_constants(2, 1, 1, Fraction(1, 4)).m_main == 8
    assert i_spart(1, 1, 3) == 6
    assert i_spart(1, 1, 2) == 3
    # I >= C(n + (m-1)d, n), the lower bound used downstream
    for n in (1, 2, 3):
        for d in (1, 2, 3):
            m = ceil_spart_degree(n, d)
            assert m <= 2 * n
            assert i_spart(n, d, m) >= comb(n + (m - 1) * d, n)
    with pytest.raises(DomainError):
        inequality_constants(2, 1, 1, Fraction(2))


def test_ceil_spart_degree_against_mp_oracle():
    with mpmath.workdps(60):
        for n in range(1, 41):
            for d in range(1, 13):
                t = mpmath.mpf(2) ** (mpmath.mpf(1) / d)
                x = (n - t + 1) / (d * (t - 1)) + 1
                assert ceil_spart_degree(n, d) == int(mpmath.ceil(x)), (n, d)


def test_floor_scaled_inv_sqrt():
    assert floor_scaled_inv_sqrt(4, Fraction(1, 4)) == 8
    # irrational case against a high-precision check: 5/sqrt(1/10)=15.811...
    assert floor_scaled_inv_sqrt(5, Fraction(1, 10)) == 15
    # exact boundary: 6/sqrt(9/25) = 10 exactly
    assert floor_scaled_inv_sqrt(6, Fraction(9, 25)) == 10


def test_delta_for_epsilon():
    assert delta_for_epsilon(Fraction(1), 1, 1, 1) == Fraction(1, 144)
    assert delta_for_epsilon(Fraction(1, 2), 2, 1, 2) == (
        Fraction(1, 2) / (6 * 8 * 3)
    ) ** 2


def test_veronese_examples():
    vb = veronese_basis(parse_poly("x1 + x2", nvars=2), 2)
    assert vb.I == 3 == i_spart(1, 1, 2)
    assert veronese_rank(vb) == comb(1 + 2, 1)
    vb2 = veronese_basis(parse_poly("x1^2 + x2^2", nvars=2), 1)
    assert vb2.I == 1
    assert veronese_rank(vb2) == 3
    # monomials with ord_x0 < d are kept untouched
    low = [
        el for el, e in zip(vb2.elements, vb2.exponents) if e[0] < 2
    ]
    for el, e in zip(vb2.elements, vb2.exponents):
        if e[0] < 2:
            assert el == MultiPoly.monomial(2, e)
    with pytest.raises(DomainError):
        veronese_basis(parse_poly("x1*x2", nvars=2), 1)


def test_veronese_full_rank_and_I_identity():
    rng = random.Random(54)
    for _ in range(8):
        n = rng.randint(1, 2)
        d = rng.randint(1, 2)
        m = rng.randint(1, 3)
        terms = {tuple([d] + [0] * n): Fraction(rng.choice([1, 2]))}
        for e in rng.sample(monomials_exact(n + 1, d), min(3, comb(n + d, n))):
            terms.setdefault(e, Fraction(rng.choice([-2, -1, 1, 2])))
        F = MultiPoly(n + 1, terms)
        vb = veronese_basis(F, m)
        assert veronese_rank(vb) == comb(n + m * d, n)
        assert vb.I == i_spart(n, d, m)


def test_quotient_bound_for_n_at_least_2():
    # N' <= d1 d2 C(m+n-2, n-2) and N/C(m+n, n) >= 1/n once m >= d1 n
    # (the n = 1 case of this printed estimate is genuinely false and is
    # excluded on purpose)
    rng = random.Random(55)
    from gcdlab.harness import random_coprime_forms
    from gcdlab.multipoly import coprime

    done = 0
    while done < 6:
        n = 2
        d1, d2 = sorted((rng.randint(1, 2), rng.randint(1, 2)), reverse=True)
        F1, F2 = random_coprime_forms(rng, n + 1, d1, d2)
        f, g = _dehomogenize(F1), _dehomogenize(F2)
        if f.degree() != d1 or g.degree() != d2 or not coprime(f, g):
            continue
        m = d1 * n + rng.randint(0, 2)
        T = truncated_ideal(f, g, m)
        bound = d1 * d2 * (comb(m + n - 2, n - 2) if n >= 2 else 0)
        assert T.Nprime <= bound
        assert T.N * n >= comb(m + n, n)
        done += 1


def _sympy_rank(vectors, column):
    """sympy's rank over QQ of {monomial: coefficient} vectors, under a
    monomial -> column index; independent of gcdlab's elimination."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    QQ = sympy.QQ
    entries = {}
    for i, v in enumerate(vectors):
        row = {column[e]: QQ(c.numerator, c.denominator) for e, c in v.items() if c}
        if row:
            entries[i] = row
    return DomainMatrix(entries, (len(vectors), len(column)), QQ).rank()


def _dehomogenize(F):
    """F with its first variable set to 1."""
    out = {}
    for e, c in F.terms.items():
        out[e[1:]] = out.get(e[1:], 0) + c
    return MultiPoly(F.nvars - 1, out)


def _exponents(nvars, degrees):
    """All exponent tuples whose total degree is in degrees, lex sorted."""
    return [e for e in itertools.product(range(max(degrees, default=0) + 1), repeat=nvars)
            if sum(e) in degrees]


def _multiples(nvars, F, degrees):
    """The terms of x^a * F for every a of total degree in degrees."""
    return [(MultiPoly.monomial(nvars, a) * F).terms for a in _exponents(nvars, degrees)]


def _fraction_poly(rng, nvars, degrees):
    """2 to 4 terms of the given total degrees with Fraction coefficients,
    so that generators need their denominators cleared."""
    monos = _exponents(nvars, degrees)
    return MultiPoly(nvars, {
        e: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
        for e in rng.sample(monos, min(len(monos), rng.randint(2, 4)))
    })


def test_reduce_monomial_matches_sympy_membership():
    """x^e - sum c_j x^(i_j) lies in the span of the truncated ideal's
    generators, by sympy's rank with and without it."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    places = [Place.archimedean(), Place.finite(2), Place.finite(3)]

    @hypothesis.settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.integers(0, 2**32))
    def check(seed):
        rng = random.Random(seed)
        f, g = (_fraction_poly(rng, 2, range(rng.randint(1, 2) + 1)) for _ in range(2))
        m = rng.randint(max(f.degree(), g.degree()), 4)
        T = truncated_ideal(f, g, m)
        column = {e: j for j, e in enumerate(_exponents(2, range(m + 1)))}
        generators = [
            terms for h in (f, g)
            for terms in _multiples(2, h, range(m - h.degree() + 1))
        ]
        rank = _sympy_rank(generators, column)
        assert rank == T.N
        u = TorusPoint([Fraction(rng.choice([-3, -2, 2, 3]), rng.randint(1, 4))
                        for _ in range(2)])
        gb = greedy_monomial_basis(T, u, rng.choice(places))
        basis = [{e: Fraction(1)} for e in gb.monomials]
        assert _sympy_rank(generators + basis, column) == rank + T.Nprime == len(column)
        for e in column:
            v = {e: Fraction(1)}
            for mono, c in gb.reduce_monomial(e).items():
                v[mono] = v.get(mono, 0) - c
            assert _sympy_rank(generators + [v], column) == rank, e

    check()


def test_quotient_monomial_basis_matches_sympy_greedy_selection():
    """The graded-lex greedy choice of monomials independent of the degree-m
    piece of (F1, F2), made with sympy's ranks (coprime or not)."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.integers(0, 2**32), st.integers(1, 2), st.integers(1, 2),
                      st.integers(1, 2), st.integers(0, 5))
    def check(seed, n, d1, d2, m):
        rng = random.Random(seed)
        F1, F2 = _fraction_poly(rng, n + 1, [d1]), _fraction_poly(rng, n + 1, [d2])
        monomials = _exponents(n + 1, [m])
        column = {e: j for j, e in enumerate(monomials)}
        kept = [terms for F in (F1, F2) for terms in _multiples(n + 1, F, [m - F.degree()])]
        rank = _sympy_rank(kept, column)
        chosen = []
        for e in monomials:
            if _sympy_rank(kept + [{e: Fraction(1)}], column) > rank:
                kept.append({e: Fraction(1)})
                chosen.append(e)
                rank += 1
        assert quotient_monomial_basis(F1, F2, m) == chosen

    check()
