import random
from fractions import Fraction

import pytest

from critpop.core import t_polys
from critpop.fundamental import Flag, degree_flag, fundamental_space, generating_morphism, span
from critpop.poly import ONE, X, Poly, divided_wronskian, poly_sqrt, wronskian
from critpop.reproduction import explore_population
from critpop.errors import ConstructionFailed, NotSelfdual
from critpop.selfduality import (
    QuadExt,
    SelfdualSpace,
    antidiagonal_basis,
    dual_space,
    framing_of,
    gram,
    is_isotropic,
    is_selfdual,
    isotropic_generators,
    middle_square_data,
    nth_root_scalar,
    quasi_witt_basis,
    sqrt_scalar,
    verify_witt,
)
from conftest import instance


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
        assert gm.is_skew() and gm.is_nondegenerate()

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
            assert is_isotropic(sd, qw.flag)

    def test_dim2_any_flag_isotropic(self):
        sd = SelfdualSpace(V2, framing_of(V2, SL2.points))
        fl = Flag.from_basis(V2, [Poly([-1, 1, 1]), Poly([0, 0, 1])])
        assert is_isotropic(sd, fl)

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
            tup = generating_morphism(V, flag, ts)
            sym = all(tup[i] == tup[len(tup) - 1 - i] for i in range(len(tup)))
            iso = is_isotropic(sd, flag)
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
    @pytest.mark.parametrize("n1", [4, 5])
    def test_families_stay_isotropic_and_symmetric(self, n1):
        V = monomial_space(n1)
        sd = SelfdualSpace(V, framing_of(V, ()))
        qw = quasi_witt_basis(sd)
        k = n1 // 2
        for direction in range(1, k + 1):
            fam = isotropic_generators(sd, qw.flag, direction)
            for c in (Fraction(1), Fraction(-2), Fraction(1, 3)):
                assert is_isotropic(sd, fam.flag_at(c))
                tup = fam.tuple_at(c)
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
        y1 = fam.tuple_at(Fraction(0))[0]
        rhs = fr[1] * y1
        assert wr.monic() == rhs.monic()
        # exact factor 2 after true Witt normalization
        qw5 = quasi_witt_basis(sd)
        if qw5.status == "witt":
            polys = [
                (s if isinstance(s, Fraction) else s.a) * b
                for s, b in zip(qw5.witt_scalars, qw5.witt_polys)
            ]
            wfl = Flag.from_basis(V, polys)
            fam_w = isotropic_generators(sd, wfl, 2)
            u = [V.member(v) for v in fam_w.base]
            ydot = lambda c: divided_wronskian(
                [u[0], u[1] + c * u[2] + c * c * Fraction(1, 2) * u[3]], list(fr)
            )
            # scalar-level identity checked through middle_square_data
            p2, q2, wr2 = middle_square_data(fam_w)
            assert wr2.monic() == (fr[1] * fam_w.tuple_at(Fraction(0))[0]).monic()
