import random
from fractions import Fraction
from math import factorial, lcm, perm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from critpop.core import heine_stieltjes_test, monic_tuple, t_polys, weight_at_infinity
from critpop.errors import ConstructionFailed, NotInImage
from critpop.fundamental import (
    PolySpace,
    exponents,
    expected_exponents_finite,
    expected_exponents_infinity,
    flag_from_tuple,
    fundamental_space,
    generating_morphism,
    pluecker_check,
    schubert_index_finite,
    schubert_index_infinity,
    verify_dp,
    _apply_factored_operator,
    _kernel,
    _operator,
)
from critpop import poly
from critpop.bc import bc_fundamental_space, fold, folded_instance
from critpop.poly import ONE, X, Poly, _zpoly, _zsolve, gcd, wronskian
from critpop.reproduction import (explore_population, immediate_descendants,
                                  solve_wronskian_equation)
from critpop.roots import dominant_representative
from conftest import (A3W, A3W_686, bruhat_index, count_calls, euclid_gcd, flag_from_basis,
                      fraction_solve_combination, instance, perm_to_weyl, random_flag,
                      random_monic, reduce_flag, reduce_span, reversal_exponents, sibling_fundamental_space,
                      shifted_action, span, wronskian_flag_from_tuple)

SL2 = instance("A1", [(1,), (1,)], ["0", "2"])
SL3 = instance("A2")
small_polys = st.lists(st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
                       max_size=5).map(Poly)


class TestSpan:
    def test_canonical_form(self):
        a = span([Poly([1, 1]), Poly([2, 1]), Poly([0, 0, 3])])
        b = span([Poly([0, 0, 1]), ONE, Poly([5, 7])])
        assert a == b
        assert [int(p.degree) for p in a.basis] == [2, 1, 0]

    def test_membership_and_coords(self):
        V = span([ONE, X, Poly([0, 0, 1])])
        p = Poly([3, -2, 5])
        cs = V.coords(p)
        assert cs is not None and V.member(cs) == p
        assert V.coords(Poly([0, 0, 0, 1])) is None

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.lists(small_polys, max_size=5), st.sampled_from([None, 0, 1, -2, Fraction(3, 4)]),
           st.integers(0, 4), small_polys)
    @example([X + 1, 2 * X + 2, X * X], None, 0, X)  # 2x + 2 vanishes against x + 1
    @example([], None, 0, X)
    @example([Poly(), Poly()], None, 0, Poly())
    def test_matches_reduce_reference(self, polys, k, i, outsider):
        """`span` and `PolySpace.contains` give the reduced span and the
        membership of the Fraction `_reduce` reference: zero polynomials,
        duplicates and scalar multiples (k times polys[i]) included."""
        if polys and k is not None:
            polys = [*polys, k * polys[i % len(polys)]]
        V = span(polys)
        assert V == reduce_span(polys)
        for p in [*polys, outsider, ONE, X]:
            assert V.contains(p) == (reduce_span([*V.basis, p]).dim == V.dim)

    def test_vanishing_row_pinned(self):
        V = span([X + 1, 2 * X + 2, X * X])
        assert V.basis == (X * X, X + 1)
        assert V.contains(3 * X + 3) and not V.contains(X)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(small_polys, min_size=1, max_size=5), st.randoms(use_true_random=False))
    def test_flag_matches_reduce_reference(self, polys, rng):
        """`flag_from_basis` on a random basis of a span gives each element
        reduced against its predecessors and monic, as the `_reduce`
        reference does; the reversed echelon basis is the flag of the
        sorted echelon basis."""
        V = span(polys)
        basis = list(V.basis)
        rng.shuffle(basis)
        basis = [b + sum((rng.randint(-2, 2) * c for c in basis[:i]), Poly())
                 for i, b in enumerate(basis)]
        assert flag_from_basis(V, basis) == reduce_flag(basis)
        by_degree = sorted(V.basis, key=lambda p: p.degree)
        assert V.basis[::-1] == reduce_flag(by_degree) == flag_from_basis(V, by_degree)


class TestConstruction:
    def test_sl2_overview(self):
        V = fundamental_space(SL2, (Poly([-1, 1]),))
        assert V == span([Poly([-1, 1]), Poly([0, 0, 1])])

    def test_sl3_span_of_monomials(self):
        V = fundamental_space(SL3, (X, Poly([-2, 0, 1])))
        assert V == span([ONE, X, Poly([0, 0, 1])])

    def test_rank1_trivial(self):
        pi = instance("A1")
        assert fundamental_space(pi, (ONE,)) == span([ONE, X])

    def test_no_base_points(self):
        V = fundamental_space(SL2, (Poly([-1, 1]),))
        for z in SL2.points:
            assert any(b.eval(z) != 0 for b in V.basis)

    def test_first_coordinate_in_kernel(self):
        atlas = explore_population(SL3, (ONE, ONE), 2)
        V = fundamental_space(SL3, atlas.members[(1, 2)].tuple_y)
        for member in atlas.members.values():
            if member.generic:
                assert V.contains(member.tuple_y[0])


def wronskian_operator(basis):
    """Integer n_0..n_k of f -> W(u_1..u_k, f), read off its values on
    x^m, m = 0..k: W(u, x^m) = sum_{j<=m} n_j m!/(m-j)! x^(m-j)."""
    ns = []
    for m in range(len(basis) + 1):
        w = wronskian([*basis, X ** m])
        for j, n in enumerate(ns):
            w = w - perm(m, j) * n * X ** (m - j)
        ns.append(w * Fraction(1, factorial(m)))
    d = lcm(*(n.den for n in ns))
    return [[c * (d // n.den) for c in n.num] for n in ns]


class TestKernel:
    def test_second_derivative(self):
        assert _kernel([[], [], [1]]).basis == (X, ONE)

    def test_inconsistent_root_gives_no_member(self):
        """x^2 d^2 + d: I(m) = m(m - 1), but L x = 1 is not zero, so the
        root 1 gives no member and the kernel is the constants."""
        assert _kernel([[], [1], [0, 0, 1]]).basis == (ONE,)

    def test_negative_shift(self):
        """d^3 - d^2 / 2: s = -2, the kernel is 1 and x and nothing else."""
        assert _kernel([[], [], [-1], [2]]).basis == (X, ONE)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(st.lists(small_polys, min_size=1, max_size=4), st.integers(1, 3), st.booleans())
    def test_kernel_of_a_wronskian_operator(self, polys, c, flip):
        """The kernel of f -> c W(u_1..u_k, f), for any basis u of a space V
        and c != 0, is V in its reduced echelon form."""
        V = span(polys)
        if V.dim:
            op = [[(-c if flip else c) * a for a in n] for n in wronskian_operator(V.basis)]
            assert _kernel(op) == V

    def test_exact_folds_with_a_deficient_kernel(self):
        """A1 with weight 3 at 0 and y = x^2: both folds are exact, but the
        second solution is x^2 log x, so the kernel is the line of x^2 and
        `fundamental_space` refuses it for its dimension, before any base
        point is looked for."""
        pi, y = instance("A1", [(3,)], ["0"]), (X * X,)
        op = _operator(pi.ts, (*y, ONE))
        assert op is not None and _kernel(op).basis == (X * X,)
        with pytest.raises(ConstructionFailed, match="full dimension"):
            fundamental_space(pi, y)

    def test_deficient_flag_level_is_not_in_image(self):
        """The same kernel one level up: with T_1 = x^3, the second fold of
        y = (x^2, 1) is exact, but its kernel is the line of x^2, so no flag
        level matches y_2."""
        with pytest.raises(NotInImage, match="y_2"):
            flag_from_tuple(span([ONE, X, X * X]), (X * X, ONE), (X ** 3, ONE))

    @pytest.mark.parametrize("case", ["SL3", "A2W", "A3W", "B2", "B3", "A3-20"])
    def test_matches_sibling_recursion(self, case):
        """The kernel of the operator is the space the sibling recursion
        builds, with its Wronskian ladder: every generic member of the SL3
        and weighted A2 atlases, the (6,8,6) A3w member, the folded B2 and
        B3 tuples, and A3 with weights 20 and 5 at 0, 1 (degrees to 78)."""
        if case in ("SL3", "A2W"):
            pi = SL3 if case == "SL3" else instance("A2", [(1, 0), (0, 1)], ["0", "1"])
            atlas = explore_population(pi, (ONE, ONE), 2 if case == "SL3" else 4)
            cases = [(pi, m.tuple_y) for m in atlas.members.values() if m.generic]
        elif case == "A3W":
            cases = [(A3W, A3W_686)]
        elif case == "A3-20":
            cases = [(instance("A3", [(20, 20, 20), (5, 5, 5)], ["0", "1"]), (ONE,) * 3)]
        else:
            pi = instance(case)
            ys = [(ONE,) * pi.rd.rank]
            if case == "B2":
                ys.append(explore_population(pi, ys[0], 4).members[(3, 3)].tuple_y)
            cases = [(folded_instance(pi), fold(y, "B")) for y in ys]
        assert len(cases) >= (5 if case in ("SL3", "A2W") else 1)
        for pi, y in cases:
            assert fundamental_space(pi, y) == sibling_fundamental_space(pi, y)


def apply_operator(op, u):
    """sum_j n_j u^(j) over Fraction polynomials: the reference for L u."""
    out = Poly()
    for n in op:
        out, u = out + Poly(n) * u, u.deriv()
    return out


def reduced(u, V):
    """u with its coefficients at the degrees of V's echelon basis cleared."""
    for b in V.basis:
        u = u - u[int(b.degree)] * b
    return u


class TestZsolve:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(st.lists(small_polys, min_size=1, max_size=4),
           st.lists(st.integers(-4, 4), max_size=7))
    def test_solves_an_image(self, polys, coeffs):
        """For L = W(V's basis, .) of order 1-4 and f = L u, `_zsolve` gives
        L U = S f with S > 0, and U / S is u reduced against V."""
        V = span(polys)
        assume(V.dim)
        op, u = wronskian_operator(V.basis), Poly(coeffs)
        f = apply_operator(op, u)
        U, S = _zsolve(op, list(f.num))
        assert S > 0 and apply_operator(op, Poly(U)) == S * f
        assert Poly(U) * Fraction(1, S) == reduced(u, V)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(st.lists(small_polys, min_size=1, max_size=4),
           st.lists(st.integers(-3, 3), max_size=7))
    @example([X], [1])  # f = 1 below x^s = x^0 of x d - 1: solved by u = -1
    @example([X * X], [1])  # f = 1 below x^s = x of x^2 d - 2x: no solution
    def test_none_exactly_without_a_solution(self, polys, f):
        """For arbitrary f, None exactly when the rational system on the
        images L x^m of every monomial up to past any solution's degree has
        no solution; a solution is zero at the indicial roots, V's degrees."""
        V = span(polys)
        assume(V.dim)
        op = wronskian_operator(V.basis)
        sol = _zsolve(op, f)
        images = [apply_operator(op, X ** m) for m in range(len(f) + max(V.degrees()) + 1)]
        assert (sol is None) == (fraction_solve_combination(images, Poly(f)) is None)
        if sol is not None:
            U, S = sol
            assert S > 0 and apply_operator(op, Poly(U)) == S * Poly(f)
            assert all(Poly(U)[e] == 0 for e in V.degrees())

    def test_negative_shift(self):
        """d^2 u = 1: s = -2, the top index is 2, and u = x^2 / 2."""
        assert _zsolve([[], [], [1]], [1]) == ([0, 0, 1], 2)

    def test_right_hand_side_below_the_top(self):
        """W(x^2, u) = 1: the x^0 row has no pivot, so there is no solution."""
        assert _zsolve([[0, -2], [0, 0, 1]], [1]) is None
        assert solve_wronskian_equation(X * X, ONE) is None

    def test_constant_y(self):
        """W(3, u) = 3 u' = x: the indicial root is 0 and u = x^2 / 6."""
        assert _zsolve([[], [3]], [0, 1]) == ([0, 0, 1], 6)
        fam = solve_wronskian_equation(Poly([3]), X)
        assert fam == (Poly([0, 0, Fraction(1, 6)]), Poly([3]))

    def test_rescale_by_a_large_pivot(self):
        """W(P x + 1, u) = 1 with P = 2^61 - 1: the pivot -P does not divide
        1, so U, S and the residual are scaled by P, and u = -1/P."""
        P = 2 ** 61 - 1
        assert _zsolve([[-P], [1, P]], [1]) == ([-1], P)
        assert solve_wronskian_equation(Poly([1, P]), ONE).base == Poly([Fraction(-1, P)])
        y = Poly([1, 0, P])
        assert _zsolve([[0, -2 * P], [1, 0, P]], [0, 1]) == ([-1], 2 * P)
        v = Poly([Fraction(1, P), 3])
        assert solve_wronskian_equation(y, y * v.deriv() - y.deriv() * v).base == v

    def test_one_solver(self, monkeypatch):
        """The Wronskian equation and the kernel both go through `_zsolve`."""
        calls = count_calls(monkeypatch, poly, "_zsolve")
        solve_wronskian_equation(X, ONE)
        assert len(calls) == 1
        assert _kernel([[], [], [1]]).basis == (X, ONE)
        assert len(calls) == 3  # one per indicial root, 1 and 0


class TestDPInvariance:
    def test_sl3_population(self):
        atlas = explore_population(SL3, (ONE, ONE), 2)
        spaces = [
            fundamental_space(SL3, m.tuple_y)
            for m in atlas.members.values()
            if m.generic
        ]
        assert len(spaces) >= 5 and len(set(spaces)) == 1
        assert verify_dp(SL3, spaces[0], atlas.members[(2, 2)].tuple_y)

    def test_different_populations_differ(self):
        v1 = fundamental_space(SL2, (Poly([-1, 1]),))
        pi = instance("A1", [(2,), (2,)], ["0", "2"])
        atlas = explore_population(pi, (ONE,), 5)
        l = min(l for l in atlas.members if l != (0,))
        v2 = fundamental_space(pi, atlas.members[l].tuple_y)
        assert v1 != v2

    def test_single_space(self):
        y = (Poly([-1, 1]),)
        assert verify_dp(SL2, fundamental_space(SL2, y), y)

    def test_operator_rejects_outsiders(self):
        atlas = explore_population(SL3, (ONE, ONE), 2)
        y = atlas.members[(2, 2)].tuple_y
        V = fundamental_space(SL3, y)
        d = max(V.degrees())
        assert not _apply_factored_operator(_operator(SL3.ts, (*y, ONE)), X ** (d + 1)).is_zero()
        pi = instance("A2", [(1, 0), (0, 1)], ["0", "1"])
        other = (ONE, ONE)
        assert verify_dp(pi, fundamental_space(pi, other), other)
        assert not verify_dp(pi, V, other)

    @pytest.mark.parametrize("case", ["SL3", "A3W", "B2", "C2", "B3"])
    def test_operator_matches_rational_reference(self, case):
        """Same zero-ness, and the same numerator up to a scalar once its
        gcd with the denominator n_{N+1} is divided out, as the operator over
        Fraction coefficients, on the basis of each space and on outsiders
        u + x^(d+1), u x and a random u."""
        for pi, y, V in operator_cases(case):
            d = max(V.degrees())
            u = V.basis[0]
            rng = random.Random(d)
            outsiders = [u + X ** (d + 1), u * X, random_monic(rng, d + 1)]
            factors = _operator(pi.ts, (*y, ONE))
            for p in [*V.basis, *outsiders]:
                got, want = _apply_factored_operator(factors, p), reference_operator(pi, y, p)
                assert got.is_zero() == want.is_zero() == V.contains(p)
                if not got.is_zero():
                    got = got.exact_div(gcd(got, Poly(factors[-1])))
                    assert got.monic() == want.monic()

    def test_no_rational_gcd(self, monkeypatch):
        """The operator check runs on integer polynomials: no `poly.gcd`."""
        V = fundamental_space(A3W, A3W_686)
        calls = count_calls(monkeypatch, poly, "gcd")
        assert verify_dp(A3W, V, A3W_686)
        assert not calls

    @pytest.mark.parametrize("case", ["SL3", "A3W", "B2", "C2", "B3"])
    def test_polya_certificate(self, case):
        """The composed operator's denominator is its top coefficient, and
        that is W(V) (Frobenius-Polya): checked against the composition
        over Fraction coefficients, which keeps the denominator apart."""
        for pi, y, V in operator_cases(case):
            op = _operator(pi.ts, (*y, ONE))
            ns, den = reference_composition(pi, y)
            assert den.monic() == ns[-1].monic() == Poly(op[-1]).monic()
            assert list(op[-1]) == _zpoly(wronskian(V.basis))


    @pytest.mark.parametrize("case", ["SL3", "A2W"])
    def test_descendant_reuses_the_folds_of_y(self, case):
        """Each immediate descendant of every generic member of the seeded
        SL3 and weighted A2 atlases: read after y's operator, its operator
        reuses y's folds before the changed entry (one cache hit, at that
        prefix) and equals the operator folded from an empty cache."""
        pi = SL3 if case == "SL3" else instance("A2", [(1, 0), (0, 1)], ["0", "1"])
        atlas = explore_population(pi, (ONE, ONE), 2 if case == "SL3" else 4)
        ys = [m.tuple_y for m in atlas.members.values() if m.generic]
        assert len(ys) >= 5
        for y in ys:
            for i in range(pi.rd.rank):
                desc = y[:i] + (immediate_descendants(pi, y, i).base,) + y[i + 1:]
                _operator.cache_clear()
                _operator(pi.ts, (*y, ONE))
                warm = _operator(pi.ts, (*desc, ONE))
                assert warm is not None and _operator.cache_info().hits == 1
                _operator.cache_clear()
                assert _operator(pi.ts, (*desc, ONE)) == warm

    @pytest.mark.parametrize("case", ["SL3", "A3W", "B2"])
    def test_outsider_tuple_has_no_operator(self, case):
        """y_1 times x - 7 moves a tuple with a nonconstant entry off its
        space: a fold of its operator is not an exact quotient, so
        `_operator` gives None and the verdict is False, while the
        tuple itself, also scaled by 2, keeps its True verdict."""
        cases = [(pi, y, V) for pi, y, V in operator_cases(case)
                 if any(len(p.num) > 1 for p in y)]
        assert cases
        for pi, y, V in cases:
            assert verify_dp(pi, V, y) and verify_dp(pi, V, tuple(p * 2 for p in y))
            z = (y[0] * Poly([-7, 1]), *y[1:])
            assert _operator(pi.ts, (*z, ONE)) is None
            assert not verify_dp(pi, V, z)


def reference_operator(pi, y, u):
    """The factored operator on exact rational functions with Fraction
    coefficients and Euclid's gcd: the reference for the integer one."""
    ts, yy = pi.ts, [ONE, *y, ONE]
    num, den = u, ONE
    for k in range(pi.rd.rank + 1):
        a, b = yy[k + 1], yy[k]
        for t in ts[:k]:
            a = a * t
        num, den = ((num.deriv() * den - num * den.deriv()) * a * b
                    - num * den * (a.deriv() * b - a * b.deriv())), den * den * a * b
        g = euclid_gcd(num, den)
        if g.degree > 0:
            num, den = num.exact_div(g), den.exact_div(g)
    return num


def reference_composition(pi, y):
    """(n_0..n_{N+1}, D): the factors of `reference_operator` composed into
    (1/D) sum_j n_j d^j over Fraction coefficients, with D kept apart and
    the common gcd of all of them divided out after each factor."""
    ts, yy = pi.ts, [ONE, *y, ONE]
    ns, den = [ONE], ONE
    for k in range(pi.rd.rank + 1):
        a, b = yy[k + 1], yy[k]
        for t in ts[:k]:
            a = a * t
        ab, w = a * b, a.deriv() * b - a * b.deriv()
        ns = [(n.deriv() * den - n * den.deriv()) * ab - w * n * den + prev * den * ab
              for prev, n in zip([Poly(), *ns], [*ns, Poly()])]
        den = den * den * ab
        g = den
        for n in ns:
            g = euclid_gcd(g, n)
        ns, den = [n.exact_div(g) for n in ns], den.exact_div(g)
    return ns, den


def operator_cases(case):
    """(instance, tuple, space) triples whose operator annihilates the space:
    SL3 atlas members, the (6,8,6) A3W member, and folded B/C tuples."""
    if case == "SL3":
        atlas = explore_population(SL3, (ONE, ONE), 2)
        return [(SL3, m.tuple_y, fundamental_space(SL3, m.tuple_y))
                for m in atlas.members.values() if m.generic]
    if case == "A3W":
        return [(A3W, A3W_686, fundamental_space(A3W, A3W_686))]
    pi = instance(case)
    ys = [(ONE,) * pi.rd.rank]
    if case == "B2":
        ys.append(explore_population(pi, ys[0], 4).members[(3, 3)].tuple_y)
    return [(folded_instance(pi), fold(y, pi.rd.kind), bc_fundamental_space(pi, y).space)
            for y in ys]


class TestExponents:
    def test_full_monomials(self):
        V = span([Poly([0] * k + [1]) for k in range(4)])
        assert exponents(V, Fraction(5)) == [0, 1, 2, 3]
        assert exponents(V, "inf") == [0, 1, 2, 3]

    def test_sl2_space(self):
        V = fundamental_space(SL2, (Poly([-1, 1]),))
        assert exponents(V, Fraction(0)) == [0, 2]
        assert exponents(V, "inf") == [1, 2]
        assert exponents(V, Fraction(1)) == [0, 1]

    def test_closed_forms_everywhere(self):
        pi = instance("A2", [(1, 0), (0, 1)], ["0", "1"])
        atlas = explore_population(pi, (ONE, ONE), 4)
        member = next(m for m in atlas.members.values() if m.generic)
        V = fundamental_space(pi, member.tuple_y)
        for s, z in enumerate(pi.points):
            assert exponents(V, z) == expected_exponents_finite(pi, s)
        assert exponents(V, "inf") == expected_exponents_infinity(pi, member.tuple_y)
        assert pluecker_check(V, [exponents(V, z) for z in pi.points])

    def test_schubert_indices(self):
        V = fundamental_space(SL2, (Poly([-1, 1]),))
        assert schubert_index_finite(exponents(V, Fraction(0))) == (1, 0)
        assert schubert_index_infinity(V, 2) == (0, 0)
        assert pluecker_check(V, [exponents(V, z) for z in SL2.points])

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.integers(0, 3), small_polys), max_size=5),
           st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))
    @example([(1, X + 1), (1, 2 * X + 2), (2, ONE)], Fraction(1))
    def test_matches_reversal_reference(self, factors, z):
        """The pivots of the shifted coefficients are the orders of vanishing
        that the reversal reference reads off reversed degrees, at z, where
        each (x - z)^k r vanishes to order k or more, at z + 1 and at
        infinity."""
        V = span(Poly([-z, 1]) ** k * r for k, r in factors)
        for at in (z, z + 1, "inf"):
            assert exponents(V, at) == reversal_exponents(V, at)


class TestIntegerPath:
    @pytest.mark.parametrize("case", ["A3W", "B3"])
    def test_no_fraction_coefficients(self, monkeypatch, case):
        """`span`, `PolySpace.contains`, `flag_from_basis` and `exponents`
        read numerators only: no `Poly.__getitem__` and no
        `Poly.leading` call on the A3w (6,8,6) space or the B3 folded
        space."""
        if case == "A3W":
            V, points = fundamental_space(A3W, A3W_686), A3W.points
        else:
            V, points = bc_fundamental_space(instance("B3"), (ONE,) * 3).space, (0, Fraction(1, 2))
        basis = [sum(V.basis[:i + 1], Poly()) for i in range(V.dim)][::-1]
        calls = []
        for name in ("__getitem__", "leading"):
            fn = getattr(Poly, name)
            monkeypatch.setattr(Poly, name, lambda *a, _fn=fn: calls.append(a) or _fn(*a))
        assert span(basis) == V
        assert all(map(V.contains, basis)) and not V.contains(X ** (max(V.degrees()) + 1))
        assert span(flag_from_basis(V, basis)) == V
        for z in [*points, "inf"]:
            exponents(V, z)
        assert not calls
        V.basis[0][0], V.basis[0].leading()
        assert len(calls) == 2


class TestGeneratingMorphism:
    def test_monomial_flag(self):
        V = span([ONE, X, Poly([0, 0, 1])])
        assert generating_morphism(V.basis[::-1], t_polys(SL3)) == (ONE, ONE)

    def test_sl2_flags(self):
        V = fundamental_space(SL2, (Poly([-1, 1]),))
        ts = t_polys(SL2)
        up = flag_from_basis(V, [Poly([-1, 1]), Poly([0, 0, 1])])
        assert generating_morphism(up, ts) == (Poly([-1, 1]),)
        down = flag_from_basis(V, [Poly([0, 0, 1]), Poly([-1, 1])])
        assert generating_morphism(down, ts) == (Poly([0, 0, 1]),)

    def test_round_trip_50_random_flags(self):
        rng = random.Random(7)
        for pi, y in (
            (SL3, (X, Poly([-2, 0, 1]))),
            (SL2, (Poly([-1, 1]),)),
        ):
            V = fundamental_space(pi, y)
            ts = t_polys(pi)
            for _ in range(25):
                flag = random_flag(rng, V)
                tup = generating_morphism(flag, ts)
                back = flag_from_tuple(V, tup, ts)
                assert back == flag
                assert generating_morphism(back, ts) == tup

    def test_not_in_image(self):
        V = fundamental_space(SL2, (Poly([-1, 1]),))
        ts = t_polys(SL2)
        with pytest.raises(NotInImage):
            flag_from_tuple(V, (Poly([0, 0, 0, 1]),), ts)


class TestBruhat:
    def test_reference_is_identity(self):
        V = span([ONE, X, Poly([0, 0, 1])])
        w, _ = bruhat_index(V, V.basis[::-1])
        assert w == (1, 2, 3)

    def test_longest_for_top_cell(self):
        atlas = explore_population(SL3, (ONE, ONE), 2)
        V = fundamental_space(SL3, atlas.members[(2, 2)].tuple_y)
        ts = t_polys(SL3)
        fl = flag_from_tuple(V, atlas.members[(2, 2)].tuple_y, ts)
        w, _ = bruhat_index(V, fl)
        assert w == (3, 2, 1)

    def test_lemma_on_all_members(self):
        atlas = explore_population(SL3, (ONE, ONE), 2)
        V = fundamental_space(SL3, atlas.members[(2, 2)].tuple_y)
        ts = t_polys(SL3)
        lam_t = dominant_representative(
            SL3.rd, weight_at_infinity(SL3, (ONE, ONE))
        )
        for l, member in atlas.members.items():
            fl = flag_from_tuple(V, member.tuple_y, ts)
            w, _ = bruhat_index(V, fl)
            welt = perm_to_weyl(w)
            target = tuple(
                -c for c in SL3.rd.root_coroot_coords(l)
            )  # sum of Lambda_s vanishes here
            assert shifted_action(SL3.rd, welt, lam_t) == target

    def test_degree_vector_from_beta_matches(self):
        rng = random.Random(11)
        V = fundamental_space(SL3, (X, Poly([-2, 0, 1])))
        ts = t_polys(SL3)
        for _ in range(10):
            flag = random_flag(rng, V)
            tup = generating_morphism(flag, ts)
            w, levels = bruhat_index(V, flag)
            lvec = tuple(int(p.degree) for p in tup)
            lam_t = dominant_representative(
                SL3.rd, weight_at_infinity(SL3, (ONE, ONE))
            )
            welt = perm_to_weyl(w)
            predicted = shifted_action(SL3.rd, welt, lam_t)
            assert tuple(-c for c in SL3.rd.root_coroot_coords(lvec)) == predicted


class TestFlagOracle:
    """`flag_from_tuple` against the Wronskian-solve reconstruction."""

    def test_random_flags(self):
        rng = random.Random(7)
        for pi, y in ((SL3, (X, Poly([-2, 0, 1]))), (SL2, (Poly([-1, 1]),))):
            V, ts = fundamental_space(pi, y), t_polys(pi)
            for _ in range(25):
                flag = random_flag(rng, V)
                tup = generating_morphism(flag, ts)
                assert flag_from_tuple(V, tup, ts) == wronskian_flag_from_tuple(V, tup, ts) == flag

    def test_bruhat_lemma_members(self):
        atlas = explore_population(SL3, (ONE, ONE), 2)
        V = fundamental_space(SL3, atlas.members[(2, 2)].tuple_y)
        ts = t_polys(SL3)
        for member in atlas.members.values():
            y = member.tuple_y
            assert flag_from_tuple(V, y, ts) == wronskian_flag_from_tuple(V, y, ts)
