import contextlib
import functools
import math
import random
from fractions import Fraction

import pytest

from critpop import poly
from critpop.bc import bc_fundamental_space, fold, folded_instance
from critpop.fundamental import fundamental_space, generating_morphism
from critpop.poly import (ONE, X, Poly, QVec, divided_wronskians, poly_sqrt, solve_combination,
                          wronskian)
from critpop.reproduction import explore_population
from critpop.errors import NotConstant, NotDivisible, NotSelfdual, SquareRootMissing
from critpop.selfduality import (
    IsotropicFamily,
    QuasiWittResult,
    _axpy,
    _witt_scalars,
    SelfdualSpace,
    antidiagonal_basis,
    gram,
    is_isotropic,
    isotropic_generators,
    nth_root_scalar,
    quasi_witt_basis,
)
from conftest import (_omit, count_calls, divided_wronskian, dual_space, flag_from_basis,
                      fraction_solve_combination, instance, is_selfdual, seeded_points,
                      span)


def qw_basis(sd, qw):
    """The quasi-Witt basis q_1..q_{N+1} as polynomials."""
    return tuple(sd.space.member(v) for v in qw.base)


def verify_witt(sd, result):
    """Exact dar-2 check of the Witt basis beta_i q_i: its i-omitted divided
    Wronskian is its i-th element.  False when there are no Witt scalars,
    which are rational whenever they exist (status `witt`)."""
    if result.witt_scalars is None:
        return False
    polys = [s * p for s, p in zip(result.witt_scalars, qw_basis(sd, result))]
    n1 = len(polys)
    return all(
        divided_wronskian(_omit(polys, n1 - i), sd.framing) == polys[i - 1]
        for i in range(1, n1 + 1)
    )


def tuple_at(sd, fam, c):
    """The generating-morphism tuple of the family's flag at parameter c."""
    return generating_morphism([sd.space.member(v) for v in fam.deformed_basis(c)], sd.framing)


def middle_square_data(sd, fam):
    """For odd dimension 2k+1 and direction k: the middle coordinate of the
    family is a perfect square (p + c q)^2 projectively.

    Returns (p, q, wron) with p monic and wron = W(p, q); raises
    SquareRootMissing when the square structure is absent.
    """
    n1 = sd.dim
    k = n1 // 2
    assert n1 % 2 == 1 and fam.direction == k
    mid = k - 1  # 0-based middle tuple slot (the tuple has 2k coordinates)

    def root_at(c) -> Poly:
        r = poly_sqrt(tuple_at(sd, fam, Fraction(c))[mid])
        if r is None:
            raise SquareRootMissing(f"middle coordinate at c={c} is not a square")
        return r

    p = root_at(0)
    p1, p2 = root_at(1), root_at(2)
    # solve 2*l1*P1 - l2*P2 = p for the joint normalization of the line
    solved = solve_combination([2 * p1, -p2], p)
    if solved is None:
        raise SquareRootMissing("square roots are not collinear")
    l1, _ = solved[0]
    q = l1 * p1 - p
    for c in (1, 2, 3):
        lhs = p + c * q
        if lhs.is_zero() or (lhs.monic()) ** 2 != tuple_at(sd, fam, Fraction(c))[mid]:
            raise SquareRootMissing("square decomposition failed to verify")
    return p, q, wronskian([p, q])


# -- the Fraction isotropic layer, the reference for the integer one ------------


def fraction_gram(space, framing):
    """The Gram entries as Fractions, one Fraction-row solve per basis vector."""
    n1 = space.dim
    c = divided_wronskian(space.basis, framing)[0]
    wjs = [divided_wronskian(_omit(space.basis, j), framing) for j in range(n1)]
    coords = [fraction_solve_combination(wjs, u)[0] for u in space.basis]
    return tuple(tuple(coords[k][i] * (-1) ** i * c for k in range(n1)) for i in range(n1))


def fraction_form(entries, a, b):
    """Fraction products of the Gram entries with Fraction coordinate vectors."""
    return sum((ai * bk * g for ai, row in zip(a, entries) if ai
                for bk, g in zip(b, row) if bk), Fraction(0))


def fraction_is_isotropic(entries, u):
    n1 = len(entries)
    return all(not fraction_form(entries, u[i], u[j])
               for i in range(n1) for j in range(i, n1) if (i + 1) + (j + 1) <= n1)


def fraction_axpy(x, c, y):
    return [a + c * b for a, b in zip(x, y)]


def values(v):
    """A QVec as its list of Fractions."""
    return [Fraction(n, v.den) for n in v.num]


@contextlib.contextmanager
def fractions_made():
    """Record the arguments of every Fraction built inside the block; each
    Fraction operation builds its result through `Fraction.__new__`."""
    made, new = [], Fraction.__dict__["__new__"]
    Fraction.__new__ = staticmethod(lambda cls, *a, **kw: made.append(a) or new(cls, *a, **kw))
    try:
        yield made
    finally:
        Fraction.__new__ = new


# B/C instances by name; the weighted ones have Gram denominators 7 and 16
FOLDED = {code: (code, (), ()) for code in ("B2", "B3", "B4", "C2", "C3", "C4")}
FOLDED["C3w"] = ("C3", [(0, 1, 0), (1, 0, 0)], ["0", "-1"])
FOLDED["C2w"] = ("C2", [(0, 1)], ["1/2"])


@functools.lru_cache(maxsize=None)
def folded_space(name):
    """The selfdual folded fundamental space of a `FOLDED` instance."""
    pi = instance(*FOLDED[name])
    return bc_fundamental_space(pi, (ONE,) * pi.rd.rank)


def sweep(rng, u, g, k):
    """A longest-word sweep of random moves, as the isotropic sampling makes."""
    for _ in range(k):
        for direction in range(1, k + 1):
            c = Fraction(rng.randint(1, 9) * rng.choice((1, -1)), rng.randint(1, 4))
            u = IsotropicFamily(direction, u, g).deformed_basis(c)
    return u


def random_qvec(rng, n1):
    return QVec.of([Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n1)])


def monomial_space(n1):
    return span([Poly([0] * k + [1]) for k in range(n1)])


SL2 = instance("A1", [(1,), (1,)], ["0", "2"])
V2 = span([Poly([-1, 1]), Poly([0, 0, 1])])


class TestScalars:
    def test_nth_root(self):
        assert nth_root_scalar(Fraction(27, 8), 3) == Fraction(3, 2)
        assert nth_root_scalar(Fraction(-27), 3) == -3
        assert nth_root_scalar(Fraction(5), 3) is None
        assert nth_root_scalar(Fraction(-4), 2) is None

    def test_nth_root_beyond_float_range(self):
        assert nth_root_scalar(Fraction(3**699), 3) == 3**233
        assert nth_root_scalar(Fraction(3**700), 3) is None
        p = 2**127 - 1  # prime, so it has no rational square root
        assert nth_root_scalar(Fraction(p), 2) is None
        assert nth_root_scalar(Fraction(p**2), 2) == p


def assert_witt_relations(gammas, betas):
    """beta_i beta_{N+2-i} = B gamma_i for every i, with B = prod beta_j."""
    n1 = len(gammas)
    big_b = Fraction(1)
    for beta in betas:
        big_b = beta * big_b
    for i in range(n1):
        assert betas[i] * betas[n1 - 1 - i] == big_b * gammas[i]


def witt_status(gammas, betas):
    """The status of a quasi-Witt result of dimension len(gammas) with Witt
    scalars betas; `status` reads nothing else."""
    return QuasiWittResult((), betas, [None] * len(gammas), None).status


class TestWittScalars:
    @pytest.mark.parametrize("gammas, want, status", [
        ((1, 1), (1, 1), "witt"),
        ((2, 2), None, "quasi"),  # B^0 = 1 but 1/gamma_1 = 1/2
        ((2, 3, 2), (1, Fraction(1, 2), Fraction(1, 6)), "witt"),  # odd middle scalar
        ((2, 1, 1, 1, 2), None, "quasi"),  # B^3 = 1/4 has no rational root
        ((1, 1, 2, 2, 1, 1), None, "witt-quadratic"),  # B^2 = 1/2
        ((1, 1, -1, -1, 1, 1), None, "witt-quadratic"),  # B^2 = -1
    ], ids=["n2-rational", "n2-none", "n3-middle", "n5-none", "n6-quadratic", "n6-negative"])
    def test_pinned(self, gammas, want, status):
        gammas = [Fraction(g) for g in gammas]
        betas = _witt_scalars(gammas)
        assert betas == want and witt_status(gammas, betas) == status
        if want is not None:
            assert_witt_relations(gammas, betas)

    def test_seeded_battery(self):
        """Symmetric gamma lists for n1 = 2..7: every result satisfies the
        relations, the scalars are missing at n1 = 6 exactly when B^2 has no
        rational root, and each kind of result occurs."""
        rng = random.Random(15)
        kinds = set()
        for _ in range(600):
            n1 = rng.randint(2, 7)
            half = [Fraction(rng.choice((1, -1)) * rng.choice((1, 2, 3, 4, 8, 9, 27)),
                             rng.choice((1, 1, 2, 4, 9))) for _ in range((n1 + 1) // 2)]
            gammas = half + half[: n1 // 2][::-1]
            betas = _witt_scalars(gammas)
            if n1 == 6:
                assert (betas is None) == (nth_root_scalar(1 / (half[0] * half[1] * half[2]),
                                                           2) is None)
            kinds.add((n1 % 2, witt_status(gammas, betas)))
            if betas is not None:
                assert_witt_relations(gammas, betas)
        assert kinds == {(0, "quasi"), (0, "witt"), (0, "witt-quadratic"),
                         (1, "quasi"), (1, "witt")}


class TestFraming:
    def test_instance_ts_frame_member_spaces(self):
        """W(V) ~ L_{N+1} of the instance's `ts`, so that `ts` frames V: the
        full divided Wronskian is a nonzero constant on the fundamental
        space of every member of seeded A populations and of B/C
        populations folded to the A side."""
        rng = random.Random(30)
        cases = []
        for code in ("A1", "A2", "A3"):
            for _ in range(2):
                npts = rng.randint(1, 2)
                weights = [tuple(rng.randint(0, 2) for _ in range(int(code[1:])))
                           for _ in range(npts)]
                cases.append((instance(code, weights, [str(p) for p in seeded_points(rng, npts)]),
                              None))
        cases += [(instance(*FOLDED[code]), code[0]) for code in ("B2", "C2", "B3", "C3w")]
        count = 0
        for pi, kind in cases:
            rng.randint(0, 99)  # unread; drawn so that every later draw stays the same
            atlas = explore_population(pi, (ONE,) * pi.rd.rank, 4)
            pia = folded_instance(pi) if kind else pi
            for member in atlas.members.values():
                y = fold(member.tuple_y, kind) if kind else member.tuple_y
                V = fundamental_space(pia, y)
                (w,) = divided_wronskians(V.basis, [(1 << V.dim) - 1], pia.ts)
                assert not w.is_zero() and w.degree == 0
                count += 1
        assert count > 50


class TestDualSpace:
    def test_monomials_selfdual(self):
        for n1 in (2, 3, 4, 5):
            V = monomial_space(n1)
            fr = (ONE,) * (n1 - 1)
            assert dual_space(V, fr) == V
            assert is_selfdual(V, fr)

    def test_dim2_selfdual(self):
        fr = SL2.ts
        assert dual_space(V2, fr) == V2
        assert is_selfdual(V2, fr)

    def test_degree_gap_reject(self):
        V = span([ONE, X, Poly([0, 0, 0, 1])])
        assert not is_selfdual(V, (ONE, X))

    def test_double_dual_on_population_spaces(self):
        # duals of fundamental spaces of seeded rank-2 instances
        rng = random.Random(4)
        count = 0
        for _ in range(25):
            pts = []
            while len(set(pts)) < 2:
                pts = [Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4))]
            pi = instance("A2", [(1, 0), (0, 1)], [str(p) for p in set(pts)][:2])
            rng.randint(0, 99)  # unread; drawn so that every later draw stays the same
            atlas = explore_population(pi, (ONE, ONE), 3)
            member = next(m for m in atlas.members.values() if m.generic)
            V = fundamental_space(pi, member.tuple_y)
            dual_space(V, pi.ts)  # asserts V++ == V internally
            count += 1
            if count >= 20:
                break
        assert count == 20


class TestGram:
    def test_dim2_skew(self):
        gm = gram(V2, SL2.ts)
        assert gm.entries == ((0, -1), (1, 0))
        assert gm.is_skew()

    def test_dim3_antidiagonal(self):
        V = monomial_space(3)
        gm = gram(V, (ONE,) * (V.dim - 1))
        assert gm.is_symmetric()
        assert gm.entries[0][2] != 0 and gm.entries[0][0] == 0

    def test_parity_battery(self):
        for n1 in (2, 3, 4, 5, 6):
            V = monomial_space(n1)
            gm = gram(V, (ONE,) * (V.dim - 1))
            assert gm.is_skew() if n1 % 2 == 0 else gm.is_symmetric()

    def test_rejects_a_wrong_framing(self):
        """`gram` certifies W(V) ~ L_{N+1} of its framing: W(V2) = x(x - 2),
        so a framing missing the point 2 leaves a quotient of positive
        degree, and one with a factor too many does not divide."""
        with pytest.raises(NotConstant):
            gram(V2, (X,))
        with pytest.raises(NotDivisible):
            gram(V2, (X * SL2.ts[0],))

    def test_certificate_matches_reference(self):
        """Building a SelfdualSpace raises NotSelfdual exactly where the
        independent V = V+ computation finds the space not selfdual."""
        spaces = [(monomial_space(n1), (ONE,) * (n1 - 1)) for n1 in (2, 3, 4)]
        spaces.append((span([ONE, X, Poly([0, 0, 0, 1])]), (ONE, X)))
        for code, weights, points in [
            ("A2", [], []), ("A2", [(1, 0)], ["0"]), ("A2", [(1, 0), (0, 1)], ["0", "1"]),
            ("A3", [(0, 1, 0)], ["0"]), ("A3", [(1, 0, 0), (0, 0, 1)], ["0", "1"]),
        ]:
            pi = instance(code, weights, points)
            spaces.append((fundamental_space(pi, (ONE,) * pi.rd.rank), pi.ts))
        verdicts = []
        for V, fr in spaces:
            try:
                SelfdualSpace(V, fr)
                certified = True
            except NotSelfdual:
                certified = False
            assert certified == is_selfdual(V, fr)
            verdicts.append(certified)
        assert set(verdicts) == {True, False}


    def test_one_elimination(self, monkeypatch):
        """All coordinate vectors come from one solve, not one per vector."""
        V = monomial_space(5)
        fr = (ONE,) * (V.dim - 1)
        calls = count_calls(monkeypatch, poly, "solve_linear")
        gram(V, fr)
        assert len(calls) == 1


@pytest.mark.parametrize("code", FOLDED)
class TestIntegerLayer:
    """The integer Gram matrix, form, isotropy test and moves agree with the
    Fraction layer they replaced, on the folded B/C spaces of rank 2-4."""

    def test_gram_matches_reference(self, code):
        sd = folded_space(code)
        assert sd.gm.entries == fraction_gram(sd.space, sd.framing)
        assert math.gcd(sd.gm.den, *(v for row in sd.gm.num for v in row)) == 1

    def test_form_and_axpy_match_reference(self, code):
        sd = folded_space(code)
        entries, rng = sd.gm.entries, random.Random(code)
        for _ in range(30):
            a, b = random_qvec(rng, sd.dim), random_qvec(rng, sd.dim)
            assert sd.form(a, b) == fraction_form(entries, values(a), values(b))
            p, q = rng.randint(-9, 9), rng.choice((1, -1)) * rng.randint(1, 9)
            assert values(_axpy(a, p, q, b)) == fraction_axpy(values(a), Fraction(p, q),
                                                              values(b))

    def test_is_isotropic_matches_reference(self, code):
        """True on swept bases, False once one constrained vector is moved."""
        sd = folded_space(code)
        entries, rng, n1 = sd.gm.entries, random.Random(code), sd.dim
        u0, g = antidiagonal_basis(sd, qw_basis(sd, quasi_witt_basis(sd)))
        for _ in range(5):
            u = sweep(rng, u0, g, n1 // 2)
            assert is_isotropic(sd, u)
            assert fraction_is_isotropic(entries, [values(v) for v in u])
            i = rng.randrange(n1 - 1)  # u_{N+1} meets no isotropy condition
            bad = u[:i] + [_axpy(u[i], 1, 1, random_qvec(rng, n1))] + u[i + 1:]
            assert not is_isotropic(sd, bad)
            assert not fraction_is_isotropic(entries, [values(v) for v in bad])

    def test_carried_values_after_sweeps(self, code):
        sd = folded_space(code)
        rng, n1 = random.Random(code), sd.dim
        u, g = antidiagonal_basis(sd, qw_basis(sd, quasi_witt_basis(sd)))
        for _ in range(3):
            u = sweep(rng, u, g, n1 // 2)
            assert values(g) == [sd.form(u[a], u[n1 - 1 - a]) for a in range(n1)]


class TestQuasiWitt:
    def test_monomial_ratios(self):
        for n1 in (2, 3, 4, 5):
            V = monomial_space(n1)
            sd = SelfdualSpace(V, (ONE,) * (V.dim - 1))
            qw = quasi_witt_basis(sd)
            assert all(a != 0 for a in qw.ratios)
            assert is_isotropic(sd, [V.coords(p) for p in qw_basis(sd, qw)])

    @pytest.mark.parametrize("name", ["B2", "C2", "B3", "B4", "C3w", "A2"])
    def test_carries_its_antidiagonal_basis(self, name):
        """`base` and `g` are what `antidiagonal_basis` returns on the
        quasi-Witt flag, in flag order, and the flag's basis is already its
        canonical one, so the sampler starts from them as they are: the
        folded spaces and the selfdual SL3 space of the ones tuple."""
        if name == "A2":
            pi = instance("A2")
            sd = SelfdualSpace(fundamental_space(pi, (ONE, ONE)), pi.ts)
        else:
            sd = folded_space(name)
        qw = quasi_witt_basis(sd)
        q = qw_basis(sd, qw)
        assert (qw.base, qw.g) == antidiagonal_basis(sd, q)
        assert q == flag_from_basis(sd.space, q)

    def test_dim2_any_flag_isotropic(self):
        sd = SelfdualSpace(V2, SL2.ts)
        fl = flag_from_basis(V2, [Poly([-1, 1, 1]), Poly([0, 0, 1])])
        assert is_isotropic(sd, [V2.coords(p) for p in fl])

    def test_witt_normalization_exact(self):
        for n1 in range(2, 9):
            V = monomial_space(n1)
            sd = SelfdualSpace(V, (ONE,) * (V.dim - 1))
            qw = quasi_witt_basis(sd)
            assert qw.status == "witt" and verify_witt(sd, qw)

    def test_suf_self_membership(self):
        # a basis with the mirrored relation spans the predicted omitted
        # Wronskian ladder
        V = monomial_space(4)
        fr = (ONE,) * (V.dim - 1)
        q = list(V.basis)
        n1 = 4
        ws = [
            divided_wronskian([q[k] for k in range(n1) if k != i], list(fr))
            for i in range(n1)
        ]
        for i in range(1, n1 + 1):
            sub = span(ws[n1 - i:])
            assert sub.contains(q[i - 1])


class TestIsotropy:
    def test_symmetric_iff_isotropic(self):
        V = monomial_space(4)
        sd = SelfdualSpace(V, (ONE,) * (V.dim - 1))
        ts = sd.framing
        rng = random.Random(6)
        seen_symmetric = seen_asymmetric = 0
        for _ in range(40):
            try:
                basis = [
                    V.member(QVec.of([Fraction(rng.randint(-3, 3)) for _ in range(4)]))
                    for _ in range(4)
                ]
                flag = flag_from_basis(V, basis)
            except ValueError:
                continue
            tup = generating_morphism(flag, ts)
            sym = all(tup[i] == tup[len(tup) - 1 - i] for i in range(len(tup)))
            iso = is_isotropic(sd, [V.coords(p) for p in flag])
            assert sym == iso
            seen_symmetric += iso
            seen_asymmetric += not iso
        assert seen_asymmetric > 0

    def test_antidiagonal_basis_structure(self):
        V = monomial_space(5)
        sd = SelfdualSpace(V, (ONE,) * (V.dim - 1))
        qw = quasi_witt_basis(sd)
        u, g = antidiagonal_basis(sd, qw_basis(sd, qw))
        for a in range(5):
            for b in range(5):
                v = sd.form(u[a], u[b])
                assert (v != 0) == (a + b == 4)
        assert g == QVec.of([sd.form(u[a], u[4 - a]) for a in range(5)])


class TestGenerators:
    @pytest.mark.parametrize("n1", [4, 5, 6])
    def test_families_stay_isotropic_and_symmetric(self, n1):
        V = monomial_space(n1)
        sd = SelfdualSpace(V, (ONE,) * (V.dim - 1))
        qw = quasi_witt_basis(sd)
        k = n1 // 2
        for direction in range(1, k + 1):
            fam = isotropic_generators(sd, qw_basis(sd, qw), direction)
            g = [sd.form(fam.base[a], fam.base[n1 - 1 - a]) for a in range(n1)]
            assert fam.g == QVec.of(g)
            for c in (Fraction(1), Fraction(-2), Fraction(1, 3)):
                # a moved basis can be moved again: anti-diagonal, same values
                u = fam.deformed_basis(c)
                for a in range(n1):
                    for b in range(n1):
                        want = g[a] if a + b == n1 - 1 else 0
                        assert sd.form(u[a], u[b]) == want
                assert is_isotropic(sd, u)
                tup = tuple_at(sd, fam, c)
                m = len(tup)
                assert all(tup[i] == tup[m - 1 - i] for i in range(m))

    @pytest.mark.parametrize("code", ["B3", "C3"])
    def test_moves_evaluate_no_form(self, monkeypatch, code):
        """A move reads the carried g_j only: it evaluates no form, and
        neither it nor the isotropy test of its result builds a Fraction."""
        sd = folded_space(code)
        u, g = antidiagonal_basis(sd, qw_basis(sd, quasi_witt_basis(sd)))
        cs = [Fraction(-7, 3), Fraction(5, 2), Fraction(4)]

        def no_form(*args):
            raise AssertionError("a move evaluated the form")

        monkeypatch.setattr(SelfdualSpace, "form", no_form)
        monkeypatch.setattr(SelfdualSpace, "gv", no_form)
        with fractions_made() as made:
            moved = [IsotropicFamily(d, u, g).deformed_basis(c)
                     for d in range(1, sd.dim // 2 + 1) for c in cs]
        assert not made
        monkeypatch.undo()
        with fractions_made() as made:
            assert all(is_isotropic(sd, v) for v in moved)
        assert not made
        with fractions_made() as made:
            Fraction(1, 2) + 1
        assert made  # the probe sees Fraction arithmetic

    def test_wronskian_identity_side_directions(self):
        # W(y_i(x,c), dy_i/dc) proportional to T_i y_{i-1} y_{i+1}
        V = monomial_space(4)
        sd = SelfdualSpace(V, (ONE,) * (V.dim - 1))
        fr = sd.framing
        qw = quasi_witt_basis(sd)
        fam = isotropic_generators(sd, qw_basis(sd, qw), 1)
        u = [V.member(v) for v in fam.base]
        y1 = lambda c: divided_wronskian([u[0] + c * u[1]], list(fr))
        dy = divided_wronskian([u[1]], list(fr))
        y2 = divided_wronskian(u[:2], list(fr))
        for c in (Fraction(0), Fraction(2), Fraction(-1)):
            w = wronskian([y1(c), dy])
            rhs = fr[0] * y2
            assert w.monic() == rhs.monic()

    def test_middle_direction_square_rhs(self):
        # dim 2N at i = k: the right-hand side involves (y_{k-1})^2
        V = monomial_space(4)
        sd = SelfdualSpace(V, (ONE,) * (V.dim - 1))
        fr = sd.framing
        qw = quasi_witt_basis(sd)
        fam = isotropic_generators(sd, qw_basis(sd, qw), 2)
        u = [V.member(v) for v in fam.base]
        yk = lambda c: divided_wronskian([u[0], u[1] + c * u[2]], list(fr))
        dy = divided_wronskian([u[0], u[2]], list(fr))
        y1 = divided_wronskian([u[0]], list(fr))
        for c in (Fraction(0), Fraction(1), Fraction(3)):
            w = wronskian([yk(c), dy])
            rhs = fr[1] * y1 * y1
            assert w.monic() == rhs.monic()

    def test_middle_square_odd(self):
        V = monomial_space(5)
        sd = SelfdualSpace(V, (ONE,) * (V.dim - 1))
        fr = sd.framing
        qw = quasi_witt_basis(sd)
        fam = isotropic_generators(sd, qw_basis(sd, qw), 2)
        p, q, wr = middle_square_data(sd, fam)
        assert p.leading() > 0
        # W(p, q) proportional to T_k y_{k-1}
        y1 = tuple_at(sd, fam, Fraction(0))[0]
        rhs = fr[1] * y1
        assert wr.monic() == rhs.monic()
        assert qw.status == "witt"
        polys = [s * b for s, b in zip(qw.witt_scalars, qw_basis(sd, qw))]
        wfl = flag_from_basis(V, polys)
        fam_w = isotropic_generators(sd, wfl, 2)
        p2, q2, wr2 = middle_square_data(sd, fam_w)
        assert wr2.monic() == (fr[1] * tuple_at(sd, fam_w, Fraction(0))[0]).monic()
        # middle_square_data verifies the square at c = 1, 2, 3 only
        for c in (Fraction(1, 2), Fraction(-1)):
            assert tuple_at(sd, fam_w, c)[1] == (p2 + c * q2) ** 2
