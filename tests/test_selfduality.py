import random
from fractions import Fraction

import pytest

from critpop.core import t_polys
from critpop.fundamental import Flag, degree_flag, fundamental_space, generating_morphism, span
from critpop.poly import ONE, X, Poly, divided_wronskian, poly_sqrt, solve_combination, wronskian
from critpop.reproduction import explore_population
from critpop.errors import ConstructionFailed, NotSelfdual, SquareRootMissing
from critpop.selfduality import (
    QuadExt,
    _omit,
    _witt_scalars,
    SelfdualSpace,
    antidiagonal_basis,
    framing_of,
    gram,
    is_isotropic,
    isotropic_generators,
    nth_root_scalar,
    quasi_witt_basis,
    sqrt_scalar,
)
from conftest import dual_space, instance, is_selfdual


def verify_witt(framing, result):
    """Exact dar-2 check for rational Witt scalars; quadratic scalars were
    already verified at the scalar level during construction."""
    if result.witt_polys is None or result.witt_scalars is None:
        return False
    if any(isinstance(s, QuadExt) and not s.is_rational() for s in result.witt_scalars):
        return True
    polys = [
        (s if isinstance(s, Fraction) else s.a) * p
        for s, p in zip(result.witt_scalars, result.witt_polys)
    ]
    n1 = len(polys)
    return all(
        divided_wronskian(_omit(polys, n1 - i), framing) == polys[i - 1]
        for i in range(1, n1 + 1)
    )


def tuple_at(fam, c):
    """The generating-morphism tuple of the family's flag at parameter c."""
    return generating_morphism([fam.sd.space.member(v) for v in fam.deformed_basis(c)],
                               fam.sd.framing)


def middle_square_data(fam):
    """For odd dimension 2k+1 and direction k: the middle coordinate of the
    family is a perfect square (p + c q)^2 projectively.

    Returns (p, q, wron) with p monic and wron = W(p, q); raises
    SquareRootMissing when the square structure is absent.
    """
    n1 = fam.sd.dim
    k = n1 // 2
    assert n1 % 2 == 1 and fam.direction == k
    mid = k - 1  # 0-based middle tuple slot (the tuple has 2k coordinates)

    def root_at(c) -> Poly:
        r = poly_sqrt(tuple_at(fam, Fraction(c))[mid])
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
        if lhs.is_zero() or (lhs.monic()) ** 2 != tuple_at(fam, Fraction(c))[mid]:
            raise SquareRootMissing("square decomposition failed to verify")
    return p, q, wronskian([p, q])


def monomial_space(n1):
    return span([Poly([0] * k + [1]) for k in range(n1)])


SL2 = instance("A1", [(1,), (1,)], ["0", "2"])
V2 = span([Poly([-1, 1]), Poly([0, 0, 1])])


class TestScalars:
    def test_sqrt(self):
        assert sqrt_scalar(Fraction(9, 4)) == Fraction(3, 2)
        r = sqrt_scalar(Fraction(2))
        assert isinstance(r, QuadExt) and r.square() == 2
        r = sqrt_scalar(Fraction(-4))
        assert isinstance(r, QuadExt) and r.square() == -4
        assert sqrt_scalar(Fraction(8, 3)).square() == Fraction(8, 3)

    def test_sqrt_of_large_prime(self):
        p = 2**127 - 1  # prime: a squarefree split by trial division needs ~2^63 steps
        assert sqrt_scalar(Fraction(p)).square() == p

    def test_nth_root(self):
        assert nth_root_scalar(Fraction(27, 8), 3) == Fraction(3, 2)
        assert nth_root_scalar(Fraction(-27), 3) == -3
        assert nth_root_scalar(Fraction(5), 3) is None
        assert nth_root_scalar(Fraction(-4), 2) is None

    def test_nth_root_beyond_float_range(self):
        assert nth_root_scalar(Fraction(3**699), 3) == 3**233
        assert nth_root_scalar(Fraction(3**700), 3) is None


def _pair(s):
    """A scalar of Q or Q(sqrt d) as (rational part, sqrt part)."""
    return (s.a, s.b) if isinstance(s, QuadExt) else (s, 0)


def assert_witt_relations(gammas, betas):
    """beta_i beta_{N+2-i} = B gamma_i for every i, with B = prod beta_j."""
    n1 = len(gammas)
    big_b = Fraction(1)
    for beta in betas:
        big_b = beta * big_b
    for i in range(n1):
        assert _pair(betas[i] * betas[n1 - 1 - i]) == _pair(big_b * gammas[i])


class TestWittScalars:
    @pytest.mark.parametrize("gammas, want", [
        ((1, 1), (1, 1)),
        ((2, 2), None),  # B^0 = 1 but 1/gamma_1 = 1/2
        ((2, 3, 2), (1, Fraction(1, 2), Fraction(1, 6))),  # odd middle scalar
        ((2, 1, 1, 1, 2), None),  # B^3 = 1/4 has no rational root
        ((1, 1, 2, 2, 1, 1), (1, 1, 1, QuadExt(Fraction(0), Fraction(1), 2),
                              QuadExt(Fraction(0), Fraction(1, 2), 2),
                              QuadExt(Fraction(0), Fraction(1, 2), 2))),  # B^2 = 1/2
    ], ids=["n2-rational", "n2-none", "n3-middle", "n5-none", "n6-quadratic"])
    def test_pinned(self, gammas, want):
        gammas = [Fraction(g) for g in gammas]
        betas = _witt_scalars(gammas)
        if want is None:
            assert betas is None
            return
        assert tuple(betas) == want
        assert_witt_relations(gammas, betas)

    def test_seeded_battery(self):
        """Symmetric gamma lists for n1 = 2..7: every result satisfies the
        relations, and each kind of result occurs."""
        rng = random.Random(15)
        kinds = set()
        for _ in range(600):
            n1 = rng.randint(2, 7)
            half = [Fraction(rng.choice((1, -1)) * rng.choice((1, 2, 3, 4, 8, 9, 27)),
                             rng.choice((1, 1, 2, 4, 9))) for _ in range((n1 + 1) // 2)]
            gammas = half + half[: n1 // 2][::-1]
            betas = _witt_scalars(gammas)
            if betas is None:
                kinds.add((n1 % 2, "none"))
                continue
            quadratic = any(isinstance(b, QuadExt) and not b.is_rational() for b in betas)
            assert quadratic == (n1 == 6 and nth_root_scalar(1 / (half[0] * half[1] * half[2]),
                                                             2) is None)
            kinds.add((n1 % 2, "quadratic" if quadratic else "rational"))
            assert_witt_relations(gammas, betas)
        assert kinds == {(0, "none"), (0, "rational"), (0, "quadratic"),
                         (1, "none"), (1, "rational")}


class TestFraming:
    def test_monomials(self):
        fr = framing_of(monomial_space(4), ())
        assert all(t == ONE for t in fr)

    def test_sl2_space(self):
        fr = framing_of(V2, SL2.points)
        assert fr == (Poly([0, -2, 1]),)

    def test_unramified_points_dropped(self):
        fr = framing_of(V2, (Fraction(5), Fraction(2), Fraction(0)))
        assert fr == framing_of(V2, SL2.points)

    def test_missing_point_rejected(self):
        with pytest.raises(ConstructionFailed, match="does not reproduce the Wronskian"):
            framing_of(V2, (Fraction(0),))

    def test_matches_instance_ts(self):
        V = fundamental_space(SL2, (Poly([-1, 1]),))
        fr = framing_of(V, SL2.points)
        assert list(fr) == t_polys(SL2)


class TestDualSpace:
    def test_monomials_selfdual(self):
        for n1 in (2, 3, 4, 5):
            V = monomial_space(n1)
            fr = framing_of(V, ())
            assert dual_space(V, fr) == V
            assert is_selfdual(V, fr)

    def test_dim2_selfdual(self):
        fr = framing_of(V2, SL2.points)
        assert dual_space(V2, fr) == V2
        assert is_selfdual(V2, fr)

    def test_degree_gap_reject(self):
        V = span([ONE, X, Poly([0, 0, 0, 1])])
        assert not is_selfdual(V, framing_of(V, (Fraction(0),)))

    def test_double_dual_on_population_spaces(self):
        # duals of fundamental spaces of seeded rank-2 instances
        rng = random.Random(4)
        count = 0
        for _ in range(25):
            pts = []
            while len(set(pts)) < 2:
                pts = [Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4))]
            pi = instance("A2", [(1, 0), (0, 1)], [str(p) for p in set(pts)][:2])
            atlas = explore_population(pi, (ONE, ONE), 3, seed=rng.randint(0, 99))
            member = next(m for m in atlas.members.values() if m.generic)
            V = fundamental_space(pi, member.tuple_y)
            fr = framing_of(V, pi.points)
            dual_space(V, fr)  # asserts V++ == V internally
            count += 1
            if count >= 20:
                break
        assert count == 20


class TestGram:
    def test_dim2_skew(self):
        gm = gram(V2, framing_of(V2, SL2.points))
        assert gm.entries == ((0, -1), (1, 0))
        assert gm.is_skew()

    def test_dim3_antidiagonal(self):
        V = monomial_space(3)
        gm = gram(V, framing_of(V, ()))
        assert gm.is_symmetric()
        assert gm.entries[0][2] != 0 and gm.entries[0][0] == 0

    def test_parity_battery(self):
        for n1 in (2, 3, 4, 5, 6):
            V = monomial_space(n1)
            gm = gram(V, framing_of(V, ()))
            assert gm.is_skew() if n1 % 2 == 0 else gm.is_symmetric()

    def test_certificate_matches_reference(self):
        """Building a SelfdualSpace raises NotSelfdual exactly where the
        independent V = V+ computation finds the space not selfdual."""
        spaces = [(monomial_space(n1), ()) for n1 in (2, 3, 4)]
        spaces.append((span([ONE, X, Poly([0, 0, 0, 1])]), (Fraction(0),)))
        for code, weights, points in [
            ("A2", [], []), ("A2", [(1, 0)], ["0"]), ("A2", [(1, 0), (0, 1)], ["0", "1"]),
            ("A3", [(0, 1, 0)], ["0"]), ("A3", [(1, 0, 0), (0, 0, 1)], ["0", "1"]),
        ]:
            pi = instance(code, weights, points)
            spaces.append((fundamental_space(pi, (ONE,) * pi.rd.rank), pi.points))
        verdicts = []
        for V, points in spaces:
            fr = framing_of(V, points)
            try:
                SelfdualSpace(V, fr)
                certified = True
            except NotSelfdual:
                certified = False
            assert certified == is_selfdual(V, fr)
            verdicts.append(certified)
        assert set(verdicts) == {True, False}


class TestQuasiWitt:
    def test_monomial_ratios(self):
        for n1 in (2, 3, 4, 5):
            V = monomial_space(n1)
            sd = SelfdualSpace(V, framing_of(V, ()))
            qw = quasi_witt_basis(sd)
            assert all(a != 0 for a in qw.ratios)
            assert is_isotropic(sd, [V.coords(p) for p in qw.flag.basis])

    def test_dim2_any_flag_isotropic(self):
        sd = SelfdualSpace(V2, framing_of(V2, SL2.points))
        fl = Flag.from_basis(V2, [Poly([-1, 1, 1]), Poly([0, 0, 1])])
        assert is_isotropic(sd, [V2.coords(p) for p in fl.basis])

    def test_witt_normalization_exact(self):
        for n1 in (2, 3, 4, 5):
            V = monomial_space(n1)
            fr = framing_of(V, ())
            qw = quasi_witt_basis(SelfdualSpace(V, fr))
            assert qw.status in ("witt", "witt-quadratic", "quasi")
            if qw.status == "witt":
                assert verify_witt(fr, qw)

    def test_suf_self_membership(self):
        # a basis with the mirrored relation spans the predicted omitted
        # Wronskian ladder
        V = monomial_space(4)
        fr = framing_of(V, ())
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
        sd = SelfdualSpace(V, framing_of(V, ()))
        ts = sd.framing
        rng = random.Random(6)
        seen_symmetric = seen_asymmetric = 0
        for _ in range(40):
            try:
                basis = [
                    V.member([Fraction(rng.randint(-3, 3)) for _ in range(4)])
                    for _ in range(4)
                ]
                flag = Flag.from_basis(V, basis)
            except ValueError:
                continue
            tup = generating_morphism(flag.basis, ts)
            sym = all(tup[i] == tup[len(tup) - 1 - i] for i in range(len(tup)))
            iso = is_isotropic(sd, [V.coords(p) for p in flag.basis])
            assert sym == iso
            seen_symmetric += iso
            seen_asymmetric += not iso
        assert seen_asymmetric > 0

    def test_antidiagonal_basis_structure(self):
        V = monomial_space(5)
        sd = SelfdualSpace(V, framing_of(V, ()))
        qw = quasi_witt_basis(sd)
        u = antidiagonal_basis(sd, qw.flag)
        for a in range(5):
            for b in range(5):
                v = sd.form(u[a], u[b])
                assert (v != 0) == (a + b == 4)


class TestGenerators:
    @pytest.mark.parametrize("n1", [4, 5, 6])
    def test_families_stay_isotropic_and_symmetric(self, n1):
        V = monomial_space(n1)
        sd = SelfdualSpace(V, framing_of(V, ()))
        qw = quasi_witt_basis(sd)
        k = n1 // 2
        for direction in range(1, k + 1):
            fam = isotropic_generators(sd, qw.flag, direction)
            g = [sd.form(fam.base[a], fam.base[n1 - 1 - a]) for a in range(n1)]
            for c in (Fraction(1), Fraction(-2), Fraction(1, 3)):
                # a moved basis can be moved again: anti-diagonal, same values
                u = fam.deformed_basis(c)
                for a in range(n1):
                    for b in range(n1):
                        want = g[a] if a + b == n1 - 1 else 0
                        assert sd.form(u[a], u[b]) == want
                assert is_isotropic(sd, u)
                tup = tuple_at(fam, c)
                m = len(tup)
                assert all(tup[i] == tup[m - 1 - i] for i in range(m))

    def test_wronskian_identity_side_directions(self):
        # W(y_i(x,c), dy_i/dc) proportional to T_i y_{i-1} y_{i+1}
        V = monomial_space(4)
        sd = SelfdualSpace(V, framing_of(V, ()))
        fr = sd.framing
        qw = quasi_witt_basis(sd)
        fam = isotropic_generators(sd, qw.flag, 1)
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
        sd = SelfdualSpace(V, framing_of(V, ()))
        fr = sd.framing
        qw = quasi_witt_basis(sd)
        fam = isotropic_generators(sd, qw.flag, 2)
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
        sd = SelfdualSpace(V, framing_of(V, ()))
        fr = sd.framing
        qw = quasi_witt_basis(sd)
        fam = isotropic_generators(sd, qw.flag, 2)
        p, q, wr = middle_square_data(fam)
        assert p.leading() > 0
        # W(p, q) proportional to T_k y_{k-1}
        y1 = tuple_at(fam, Fraction(0))[0]
        rhs = fr[1] * y1
        assert wr.monic() == rhs.monic()
        qw5 = quasi_witt_basis(sd)
        if qw5.status == "witt":
            polys = [
                (s if isinstance(s, Fraction) else s.a) * b
                for s, b in zip(qw5.witt_scalars, qw5.witt_polys)
            ]
            wfl = Flag.from_basis(V, polys)
            fam_w = isotropic_generators(sd, wfl, 2)
            p2, q2, wr2 = middle_square_data(fam_w)
            assert wr2.monic() == (fr[1] * tuple_at(fam_w, Fraction(0))[0]).monic()
            # middle_square_data verifies the square at c = 1, 2, 3 only
            for c in (Fraction(1, 2), Fraction(-1)):
                assert tuple_at(fam_w, c)[1] == (p2 + c * q2) ** 2
