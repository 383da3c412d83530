import hashlib
import math
import random
import re
from fractions import Fraction
from math import gcd as igcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from critpop import poly
from critpop.errors import IdentityViolated, InvalidInstance, NotDivisible
from critpop.poly import (
    ONE,
    X,
    ZERO,
    Poly,
    _deriv_weight,
    _zmul,
    _zquo,
    gcd,
    identity_suite,
    poly_sqrt,
    solve_combination,
    solve_linear,
    wronskian,
    wronskian_minors,
)
from conftest import (divided_wronskian, euclid_gcd, fraction_coeffs, fraction_divmod,
                      fraction_shift, fraction_solve_combination, fraction_solve_linear,
                      fraction_str, fraction_to_text, from_roots, is_squarefree,
                      laplace_wronskian, schoolbook_mul, schoolbook_pow)

coeffs = st.lists(st.integers(-6, 6), min_size=0, max_size=5)


# rational coefficients, some with 30-digit numerators; often not monic
rat_polys = st.lists(
    st.builds(Fraction, st.one_of(st.integers(-6, 6), st.integers(-10**30, 10**30)),
              st.integers(1, 12)),
    max_size=5,
).map(Poly)


# Wronskian rows: numerators up to 10**20 over large coprime denominators
# (two primes and 3**40)
wr_coeffs = st.builds(Fraction, st.one_of(st.integers(-9, 9), st.integers(-10**20, 10**20)),
                      st.sampled_from([1, 2, 3, 10**9 + 7, 2**61 - 1, 3**40]))
wr_polys = st.lists(wr_coeffs, min_size=1, max_size=7).map(Poly)
BIG = Poly([Fraction(1, 2**61 - 1), Fraction(-10**20, 3**40), Fraction(7, 10**9 + 7)])
# Kronecker read-back edges: signs that borrow (x^5 - 1, (x - 1)^6), interior
# zeros, and numerators over 3**40 and 2**61 - 1
X5_1 = Poly([-1, 0, 0, 0, 0, 1])
X_1_6 = Poly([1, -6, 15, -20, 15, -6, 1])
SPARSE = Poly([Fraction(-10**20, 3**40), 0, 0, Fraction(10**20 - 1, 2**61 - 1)])


def poly_of(cs):
    return Poly(cs)


class TestArithmetic:
    def test_basic_ring_ops(self):
        p = Poly([1, 2])
        q = Poly([0, 0, 3])
        assert p + q == Poly([1, 2, 3])
        assert p * q == Poly([0, 0, 3, 6])
        assert (p - p).is_zero()
        assert p**3 == p * p * p

    def test_divmod_exact(self):
        p = Poly([-1, 0, 1])  # x^2 - 1
        q, r = divmod(p, Poly([-1, 1]))
        assert q == Poly([1, 1]) and r.is_zero()
        assert p.exact_div(Poly([1, 1])) == Poly([-1, 1])
        with pytest.raises(NotDivisible):
            Poly([1, 1]).exact_div(X)

    def test_eval_and_shift(self):
        p = Poly([1, 2, 1])
        assert p.eval(Fraction(2)) == 9
        assert p.shift(Fraction(-1)) == Poly([0, 0, 1])

    def test_text_round_trip(self):
        p = Poly([Fraction(1, 2), -3, 0, 1])
        assert Poly.from_text(p.to_text()) == p
        assert Poly.from_text("0").is_zero()
        assert Poly().to_text() == "0"

    def test_degree_sentinel(self):
        assert Poly().degree == float("-inf")
        assert ONE.degree == 0

    def test_gcd_and_squarefree(self):
        p = Poly([-1, 1]) ** 2 * Poly([2, 1])
        assert gcd(p, p.deriv()) == Poly([-1, 1])
        assert not is_squarefree(p)
        assert is_squarefree(Poly([-2, 0, 1]))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(rat_polys, min_size=3, max_size=3))
    def test_gcd_matches_euclid(self, fgh):
        """The integer remainder sequence returns Euclid's monic gcd: zero,
        constants, pairs with a common factor f, non-monic rational and
        large coefficients."""
        f, g, h = fgh
        for a, b in ((g, h), (f * g, f * h), (f * g, f), (g, ZERO), (ZERO, h)):
            assert gcd(a, b) == gcd(b, a) == euclid_gcd(a, b)


    def test_text_matches_fraction_renderers(self):
        """`to_text` and `str` read num/den and print what the Fraction
        renderers print, on seeded polys with zero, +-1 and negative
        coefficients, over den > 1 and over Z."""
        rng = random.Random(2026)
        cases = [ZERO, ONE, -ONE, X, -X, Poly([0, -1, 0, 1]), Poly([Fraction(-1, 2), 1])]
        for _ in range(400):
            den = rng.choice([1, 1, 2, 6, 10**9 + 7])
            nums = [0, 0, 1, -1, den, -den, rng.randint(-10**12, 10**12)]
            cases.append(Poly([Fraction(rng.choice(nums), den)
                               for _ in range(rng.randint(1, 6))]))
        assert any(p.den > 1 for p in cases) and any(p.den == 1 and len(p.num) > 1 for p in cases)
        assert any(abs(c) == p.den for p in cases if p.den > 1 for c in p.num[1:])
        for p in cases:
            assert p.to_text() == fraction_to_text(p)
            assert str(p) == fraction_str(p)

# few distinct values, so that equal pairs are common
small_polys = st.lists(st.builds(Fraction, st.integers(-2, 2), st.integers(1, 2)),
                       max_size=3).map(Poly)
points = st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**6))


def assert_canonical(p):
    """num is a tuple of ints without trailing zeros, den an int > 0 coprime
    to the content; zero is ((), 1)."""
    assert type(p.num) is tuple and all(type(c) is int for c in p.num)
    assert type(p.den) is int and p.den > 0 and igcd(p.den, *p.num) == 1
    assert (p.num[-1] != 0) if p.num else p.den == 1


class TestRepresentation:
    def test_zero(self):
        for z in (ZERO, Poly([0, Fraction(0, 7)]), Poly([Fraction(1, 3)]) - Poly([Fraction(1, 3)]),
                  Poly([Fraction(2, 9)]) * 0, divmod(Poly([Fraction(1, 6)]), Poly([3]))[1]):
            assert (z.num, z.den) == ((), 1) and z == ZERO and hash(z) == hash(ZERO)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(rat_polys, rat_polys, points)
    @example(ZERO, ZERO, Fraction(0))
    @example(BIG, Poly([Fraction(-3, 2**61 - 1), 0, Fraction(7, 3**40)]), Fraction(-5, 3))
    @example(Poly([Fraction(1, 2), 0, Fraction(-3, 4)]), Poly([Fraction(-2, 3)]), Fraction(1, 2))
    def test_matches_fraction_references(self, p, q, z):
        """Every operation returns the canonical form; the Fraction view round-trips;
        divmod, shift, monic, eval and deriv equal the Fraction references."""
        assert Poly(fraction_coeffs(p)) == p
        out = [p + q, p - q, p * q, -p, p * z, p.deriv(), p.shift(z), p.shift(z.numerator)]
        if q:
            assert divmod(p, q) == fraction_divmod(p, q)
            out += divmod(p, q)
        if p:
            assert p.monic() == Poly([c / p.leading() for c in fraction_coeffs(p)])
            out.append(p.monic())
        for r in [p, q, *out]:
            assert_canonical(r)
        assert p.shift(z) == fraction_shift(p, z)
        assert p.shift(z.numerator) == fraction_shift(p, Fraction(z.numerator))
        for x in (z, z.numerator):
            assert p.eval(x) == sum(c * x**i for i, c in enumerate(fraction_coeffs(p)))
        assert p.deriv() == Poly([i * c for i, c in enumerate(fraction_coeffs(p))][1:])

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(small_polys, small_polys, st.integers(-2, 2))
    def test_equality_is_fraction_equality(self, p, q, k):
        """p == q exactly when the Fraction tuples are equal, and equal
        polynomials hash alike, also when built along different routes."""
        assert (p == q) == (fraction_coeffs(p) == fraction_coeffs(q))
        if p == q:
            assert hash(p) == hash(q)
        for same in (Poly([*fraction_coeffs(p), 0, Fraction(0, 3)]),
                     p * (2 * k + 5) * Fraction(1, 2 * k + 5),
                     (p + q) - q):
            assert same == p and hash(same) == hash(p) and (same.num, same.den) == (p.num, p.den)
        assert (p == k) == (fraction_coeffs(p) == ((Fraction(k),) if k else ()))


class TestProducts:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(wr_coeffs, max_size=6).map(Poly), st.lists(wr_coeffs, max_size=6).map(Poly),
           st.integers(-10**20, 10**20), wr_coeffs, st.integers(0, 7))
    @example(ZERO, BIG, 0, Fraction(0), 0)
    @example(ZERO, ZERO, 5, Fraction(1, 3), 7)
    @example(BIG, ZERO, -3, Fraction(5, 3**40), 1)
    @example(BIG, BIG * X, 2**61 - 1, Fraction(-2, 10**9 + 7), 7)
    @example(Poly([3, 0, -2]), Poly([1, 1]), 1, Fraction(1, 2), 7)
    @example(Poly([0, 0, 5]), X, 1, Fraction(1), 7)  # (5x^2)^7: ||p||_1^7 is reached
    @example(Poly([0, 2**40]), X, 1, Fraction(1), 3)
    @example(X5_1, X_1_6, -1, Fraction(-1), 7)
    @example(Poly([-1, 1]), X5_1, 2, Fraction(1, 3), 6)
    @example(SPARSE, X5_1, 3**40, Fraction(1, 2**61 - 1), 7)
    def test_matches_schoolbook_reference(self, p, q, k, c, n):
        """Products and powers on the Z[x] kernel equal the Fraction
        schoolbook ones, coefficient for coefficient: zero factors, int and
        Fraction scalars on either side (`__rmul__`), and n = 0..7.  The
        pinned powers reach the Kronecker bound ||p||_1^n, borrow on
        negative coefficients and have interior zeros."""
        assert p * q == q * p == schoolbook_mul(p, q)
        assert p * k == k * p == schoolbook_mul(p, Poly([k]))
        assert p * c == c * p == schoolbook_mul(p, Poly([c]))
        assert p**n == schoolbook_pow(p, n)

    def test_power_edges(self):
        assert ZERO**0 == ONE
        with pytest.raises(ValueError):
            BIG ** -1


class TestWronskian:
    def test_spec_examples(self):
        assert wronskian([ONE, X]) == ONE
        # W(x+a, x^2/2 + cx + ac - b) = x^2/2 + ax + b at a=1, b=0, c=2
        a, b, c = 1, 0, 2
        lhs = wronskian([Poly([a, 1]), Poly([a * c - b, c, Fraction(1, 2)])])
        assert lhs == Poly([b, a, Fraction(1, 2)])
        assert wronskian([Poly([-1, 1]), Poly([0, 0, 1])]) == Poly([0, -2, 1])

    def test_empty_convention(self):
        assert wronskian([]) == ONE

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(wr_polys, max_size=5),
           st.sampled_from(["", "zero", "constant", "dependent"]),
           st.lists(wr_coeffs, min_size=5, max_size=5))
    @example([], "", [0] * 5)
    @example([BIG], "", [0] * 5)
    @example([BIG], "zero", [0] * 5)
    @example([BIG, X], "constant", [Fraction(5, 3**40)] * 5)
    @example([BIG, X, BIG * BIG], "dependent", [Fraction(1, 3), Fraction(-2, 2**61 - 1), 9, 0, 0])
    @example([Poly([2**64])], "", [0] * 5)  # W = B = 2^64
    @example([Poly([0, 0, 0, 7])], "", [0] * 5)
    @example([X5_1], "", [0] * 5)
    @example([X5_1, X_1_6], "", [0] * 5)
    @example([X_1_6, X5_1, Poly([0, 0, 0, 0, 0, 0, 0, 1])], "constant", [Fraction(-1, 3**40)] * 5)
    @example([SPARSE, X5_1, X_1_6], "", [0] * 5)
    @example([SPARSE, Poly([Fraction(5, 2**61 - 1), 0, 0, 0, 0, -1])], "zero", [0] * 5)
    def test_matches_laplace_reference(self, gs, extra, mix):
        """The integer expansion with one rational scale equals the Fraction
        Laplace expansion, with one zero, constant or dependent row added;
        a dependent row gives W = 0.  The pinned rows reach the Kronecker
        bound (s = 1, a positive constant or monomial), borrow on negative
        coefficients and have interior zeros."""
        row = {"zero": ZERO, "constant": Poly(mix[:1]),
               "dependent": sum((c * g for c, g in zip(mix, gs)), ZERO)}.get(extra)
        if row is not None:
            gs = [*gs[:1], row, *gs[1:]]
        w = wronskian(gs)
        assert w == laplace_wronskian(gs)
        if extra == "dependent":
            assert w.is_zero()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.one_of(wr_polys, st.just(ZERO), wr_coeffs.map(lambda c: Poly([c]))),
                    max_size=5))
    @example([ZERO, X, X * X])
    @example([BIG, ZERO, X5_1, ONE])
    def test_minors_match_sublist_wronskians(self, gs):
        """Every mask's minor from one expansion is `wronskian` of that
        sublist, in row order, with zero and constant rows among the
        draws."""
        masks = list(range(1 << len(gs)))
        want = [wronskian([g for i, g in enumerate(gs) if m >> i & 1]) for m in masks]
        assert wronskian_minors(gs, masks) == want

    def test_minors_beside_a_zero_row(self):
        """A zero row's 1-norm is 0; read as a factor 0 of the Kronecker
        bound it would shrink the exponent for the minors without that row,
        and W(x, x^2) = x^2 would be read back wrong."""
        assert wronskian_minors([ZERO, X, X * X], [0b110, 0b010, 0b111, 0]) == [
            X * X, X, ZERO, ONE]

    def test_row_cap(self):
        """13 rows are expanded, W(1, x, ..., x^12) = 0! 1! ... 12!, and 14
        are refused before any minor is built."""
        assert wronskian([X**i for i in range(13)]) == math.prod(map(math.factorial, range(13)))
        with pytest.raises(InvalidInstance, match="capped at 13 rows, got 14"):
            wronskian_minors([X**i for i in range(14)], [0])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.one_of(st.integers(-6, 6), st.integers(-10**20, 10**20)), max_size=9),
           st.integers(0, 13))
    @example([], 13)
    @example([5], 13)
    @example([-3], 1)
    @example([0, 0, 0, 0, 1], 13)
    def test_kronecker_weight_bounds_derivatives(self, cs, s):
        """The Kronecker bound's per-row factor, sum_n |g_n| `_deriv_weight`(s,
        n), is sum_{j<s} ||g^(j)||_1 and at most ||g||_1 times the weight at
        deg g (deg 0 for a zero or constant row), for s <= 13."""
        g = Poly(cs)
        norms, d = [], g
        for _ in range(s):
            norms.append(sum(abs(d[i]) for i in range(len(d.num))))
            d = d.deriv()
        assert sum(abs(c) * _deriv_weight(s, n) for n, c in enumerate(cs)) == sum(norms)
        assert sum(map(abs, cs)) * _deriv_weight(s, max(g.degree, 0)) >= sum(norms)

    @settings(max_examples=40, deadline=None)
    @given(coeffs, coeffs, coeffs)
    def test_alternating_and_linear(self, a, b, c):
        f, g, h = Poly(a), Poly(b), Poly(c)
        assert wronskian([f, g]) == -wronskian([g, f])
        assert wronskian([f + h, g]) == wronskian([f, g]) + wronskian([h, g])
        assert wronskian([f, f]).is_zero()

    @settings(max_examples=25, deadline=None)
    @given(coeffs, coeffs, coeffs)
    def test_common_factor_identity(self, a, b, c):
        f, g, h = Poly(a), Poly(b), Poly(c)
        assert wronskian([f * g, f * h]) == f**2 * wronskian([g, h])


class TestDividedWronskian:
    def test_spec_examples(self):
        assert divided_wronskian([Poly([-1, 1]), Poly([0, 0, 1])], [Poly([0, -2, 1])]) == ONE
        assert divided_wronskian([Poly([5, 1])], []) == Poly([5, 1])
        assert divided_wronskian([ONE, X, Poly([0, 0, 1])], [ONE, ONE]) == Poly([2])

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            divided_wronskian([ONE, X], [Poly([0, 1])])

    def test_product_recovers_wronskian(self, rng):
        for _ in range(20):
            us = [Poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 4))] + [1])
                  for _ in range(3)]
            ts = [from_roots([rng.randint(-2, 2)]), ONE]
            try:
                dw = divided_wronskian(us, ts)
            except NotDivisible:
                continue
            assert dw * ts[0] ** 2 * ts[1] == wronskian(us)


class TestExactQuotient:
    @settings(max_examples=60, deadline=None)
    @given(coeffs, coeffs.filter(any), coeffs)
    def test_quotient_or_none(self, a, b, r):
        """`_zquo(a b + r, b)` is a for r = 0 and None for a nonzero r of
        lower degree than b."""
        a, b = list(Poly(a).num), list(Poly(b).num)
        r = list(Poly(r[:len(b) - 1]).num)
        assert _zquo(list((Poly(_zmul(a, b)) + Poly(r)).num), b) == (None if r else a)

    def test_content_must_divide(self):
        """2 + 4x divides 3 + 6x over Q but not over Z, and 1 + 2x leaves
        1 + 3x a remainder only in its top coefficient."""
        assert _zquo([3, 6], [2, 4]) is None and _zquo([2, 4], [1, 2]) == [2]
        assert _zquo([1, 3], [1, 2]) is None


class TestSqrt:
    def test_spec_examples(self):
        assert poly_sqrt(Poly([1, 2, 1])) == Poly([1, 1])
        assert poly_sqrt(Poly([1, 0, 1])) is None
        assert poly_sqrt(Poly([1, 0, -4, 0, 4])) == Poly([-1, 0, 2])

    def test_round_trip_100(self):
        rng = random.Random(3)
        for _ in range(100):
            q = Poly([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                      for _ in range(rng.randint(0, 4))] + [rng.choice([1, -1, 2])])
            r = poly_sqrt(q * q)
            assert r is not None
            assert r == q or r == -q
            assert r.leading() > 0


linear_entries = st.one_of(st.integers(-3, 3),
                           st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)))


@st.composite
def linear_systems(draw):
    """(rows, rhs) with up to 5 x 5 entries; sometimes a row is repeated
    times a scalar (a duplicate, a multiple or zero), and sometimes the
    right-hand side is A x, so that the system is consistent."""
    m, n = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    rows = [draw(st.lists(linear_entries, min_size=n, max_size=n)) for _ in range(m)]
    if rows and draw(st.booleans()):
        k = draw(linear_entries)
        rows.insert(draw(st.integers(0, m)), [k * v for v in draw(st.sampled_from(rows))])
    if draw(st.booleans()):
        x = draw(st.lists(linear_entries, min_size=n, max_size=n))
        rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
    else:
        rhs = draw(st.lists(linear_entries, min_size=len(rows), max_size=len(rows)))
    return rows, rhs


class TestLinearSolve:
    def test_unique(self):
        sol, ker = solve_linear([[Fraction(2), Fraction(0)], [Fraction(0), Fraction(3)]],
                                [Fraction(4), Fraction(9)])
        assert sol == [2, 3] and ker == []

    def test_inconsistent(self):
        assert solve_linear([[Fraction(1)], [Fraction(1)]], [Fraction(0), Fraction(1)]) is None

    def test_kernel(self):
        sol, ker = solve_linear([[Fraction(1), Fraction(1)]], [Fraction(2)])
        assert len(ker) == 1
        v = ker[0]
        assert v[0] + v[1] == 0

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(linear_systems())
    @example(([], []))
    @example(([[], []], [0, 1]))
    @example(([[1, 1], [2, 2], [1, 0]], [1, 2, 3]))  # row 2 vanishes against row 1
    @example(([[1, 1], [2, 2]], [1, 3]))
    @example(([[Fraction(1, 2), Fraction(1, 3)], [3, 2]], [Fraction(1, 6), 1]))
    def test_matches_fraction_reference(self, system):
        """The integer RREF gives the solution and kernel of Gauss-Jordan over
        Fractions, or None with it: int and Fraction rows, no rows, no
        columns, zero, duplicate and multiple rows, consistent and
        inconsistent right-hand sides."""
        rows, rhs = system
        assert solve_linear(rows, rhs) == fraction_solve_linear(rows, rhs)


class TestSolveCombination:
    def test_matches_fraction_rows(self, monkeypatch):
        """On a seeded battery of consistent, inconsistent and homogeneous
        systems, some with zero or dependent generators, the integer rows give
        the solutions of the Fraction rows, and `solve_linear` sees only ints."""
        seen = []
        solve = poly.solve_linear
        monkeypatch.setattr(poly, "solve_linear",
                            lambda rows, rhs: seen.append((rows, rhs)) or solve(rows, rhs))
        rng = random.Random(19)

        def rand_poly():
            return Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                         for _ in range(rng.randint(0, 5))])

        outcomes = set()
        for _ in range(300):
            gens = [rand_poly() for _ in range(rng.randint(1, 4))]
            if rng.random() < 0.3:  # a dependent generator
                gens.append(rng.randint(-3, 3) * gens[0]
                            + Fraction(1, rng.randint(1, 5)) * gens[-1])
            kind = rng.choice(("combination", "random", "zero"))
            if kind == "combination":
                target = sum((Fraction(rng.randint(-5, 5), rng.randint(1, 4)) * g for g in gens),
                             ZERO)
            else:
                target = rand_poly() if kind == "random" else ZERO
            got = solve_combination(gens, target)
            assert got == fraction_solve_combination(gens, target)
            outcomes.add("none" if got is None else "kernel" if got[1] else "unique")
        assert outcomes == {"none", "kernel", "unique"}
        assert len(seen) == 300
        for rows, rhs in seen:
            assert all(type(v) is int for row in rows for v in row)
            assert all(type(v) is int for v in rhs)


class TestIdentitySuite:
    def test_fg_example(self):
        # W(x^2, x^3, x^4) = 1! 2! W(x, x^2)^3 = 2 x^6
        lhs = wronskian([Poly([0, 0, 1]), Poly([0, 0, 0, 1]), Poly([0, 0, 0, 0, 1])])
        assert lhs == Poly([0] * 6 + [2])

    def test_one_in_front_s1(self):
        g = Poly([0, 0, 0, 1])
        assert wronskian([ONE, g]) == g.deriv()

    def test_runs_clean(self):
        rep = identity_suite(seed=1, trials=25)
        assert all(v == 25 for v in rep.checks.values())

    def test_rejects_bad_trials(self):
        with pytest.raises(InvalidInstance):
            identity_suite(seed=1, trials=0)

    def test_draws_pinned(self, monkeypatch):
        """The suite checks the same polynomials as before its Wronskians
        shared one expansion: a digest of every `_rand_poly` draw of seed
        2024 over 5 trials, in order."""
        draws, real = [], poly._rand_poly
        monkeypatch.setattr(poly, "_rand_poly", lambda *a: draws.append(real(*a)) or draws[-1])
        identity_suite(seed=2024, trials=5)
        digest = hashlib.sha256(repr([(p.num, p.den) for p in draws]).encode()).hexdigest()
        assert (len(draws), digest) == (
            31, "7f7ded6f4cadcf1fb99034c8f489aacd100892409a0bd2c2ae8122fa6f6e6fe5")

    def test_one_expansion_per_trial(self, monkeypatch):
        """Each trial makes at most 8 `wronskian_minors` calls: one per
        `wronskian` call (three left sides, and both sides of one-in-front
        and of two-generators) and one expansion of W(gs), the only call
        that requests a proper mask.  Trials are told apart by their
        `_rand_poly` draws, which come before any Wronskian."""
        events, real_draw, real_minors = [], poly._rand_poly, poly.wronskian_minors

        def minors(gs, masks):
            events.append("p" if any(m != (1 << len(gs)) - 1 for m in masks) else "f")
            return real_minors(gs, masks)

        monkeypatch.setattr(poly, "_rand_poly", lambda *a: events.append("d") or real_draw(*a))
        monkeypatch.setattr(poly, "wronskian_minors", minors)
        identity_suite(seed=2024, trials=20)
        trials = re.split("d+", "".join(events))[1:]
        assert len(trials) == 20
        assert all(len(t) <= 8 and t.count("p") == 1 for t in trials)

    @pytest.mark.parametrize("mutant", ["proper-negated", "proper-doubled", "full-negated-2",
                                        "full-negated-3"])
    def test_kills_minor_mutants(self, monkeypatch, mutant):
        """The suite is the expansion's oracle, so each wrong minor must fail
        it: proper minors negated or doubled (only the shared expansion
        requests them), or the full minor negated at 2 or 3 rows."""
        real = poly.wronskian_minors

        def wrong(gs, masks):
            full = (1 << len(gs)) - 1
            out = real(gs, masks)
            for i, m in enumerate(masks):
                if mutant.startswith("proper") and m != full:
                    out[i] = -out[i] if mutant == "proper-negated" else 2 * out[i]
                elif mutant == f"full-negated-{len(gs)}" and m == full:
                    out[i] = -out[i]
            return out

        monkeypatch.setattr(poly, "wronskian_minors", wrong)
        with pytest.raises(IdentityViolated):
            identity_suite(seed=0, trials=100)
