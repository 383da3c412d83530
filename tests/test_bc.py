import random
from fractions import Fraction

import pytest

from critpop import bc as bcmod
from critpop.bc import (
    bc_critical_test,
    bc_fundamental_space,
    bc_population_as_isotropic_flags,
    fold,
    fold_equivalence,
    folded_instance,
    unfold,
)
from critpop.core import heine_stieltjes_test, is_generic, monic_tuple, weight_at_infinity
from critpop.errors import ConstructionFailed, NotFertile, NotGeneric
from critpop.fundamental import fundamental_space
from critpop.poly import ONE, X, Poly, QVec, wronskian
from critpop.reproduction import (explore_population, immediate_descendants, is_fertile,
                                  param_candidates, weyl_degree_map)
from critpop.roots import dominant_representative
from critpop.selfduality import is_isotropic, quasi_witt_basis
from conftest import (folded_weyl_embed, instance, is_centro_symmetric, is_selfdual,
                      sibling_fundamental_space)

B2 = instance("B2")
C2 = instance("C2")


def c_bridge_tuples(pi, y, c, ytil=None):
    """The two bridge tuples linking a C_N critical point to its folded
    A-population, with their defining Wronskian identities verified.

    `ytil` must solve the direction-N Wronskian equation; by default the
    base of the solution line is used.
    """
    if pi.rd.kind != "C":
        raise ValueError("c_bridge_tuples expects C data")
    if c == 0:
        raise ValueError("bridge parameter must be nonzero")
    y = monic_tuple(y)
    n = pi.rd.rank
    if ytil is None:
        ytil = immediate_descendants(pi, y, n - 1).base
    ts = pi.ts
    yn = y[n - 1]
    if wronskian([yn * yn, yn * ytil]) != ts[n - 1] * y[n - 2] * yn * yn:
        raise ConstructionFailed("first bridge identity failed")
    if wronskian([yn * yn, yn * yn + c * ytil * ytil]) != (
        2 * c * ts[n - 1] * y[n - 2] * yn * ytil
    ):
        raise ConstructionFailed("second bridge identity failed")
    head = y[: n - 1]
    tail = y[: n - 1][::-1]
    y_a1 = head + (yn * ytil, yn * yn) + tail
    y_a2 = head + (yn * ytil, yn * yn + c * ytil * ytil) + tail
    return monic_tuple(y_a1), monic_tuple(y_a2)


def sample_bridge(pi, y):
    """A generic A-side member of the folded population of a C-type point:
    the direction-N sibling (along its solution line) and the bridge
    parameter are both sampled from the canonical sequence."""
    pia = folded_instance(pi)
    n = pi.rd.rank
    y = monic_tuple(y)
    fam = immediate_descendants(pi, y, n - 1)
    for _, t in zip(range(8), param_candidates()):
        ytil = fam.member(t)
        for _, c in zip(range(16), param_candidates()):
            if c == 0:
                continue
            _, y_a2 = c_bridge_tuples(pi, y, c, ytil)
            try:
                if heine_stieltjes_test(pia, y_a2):
                    return y_a2
            except NotGeneric:
                pass
    raise ConstructionFailed("no generic bridge parameter found")


class TestFolding:
    def test_b_fold(self):
        ft = fold((Poly([1, 1]), X), "B")
        assert ft == (Poly([1, 1]), X, Poly([1, 1]))

    def test_c_fold(self):
        ft = fold((Poly([1, 1]), X), "C")
        assert ft == (Poly([1, 1]), Poly([0, 0, 1]), Poly([0, 0, 1]), Poly([1, 1]))

    def test_ones(self):
        assert fold((ONE, ONE), "B") == (ONE,) * 3
        assert fold((ONE, ONE), "C") == (ONE,) * 4

    def test_unfold_round_trip(self, rng):
        for kind, pi in (("B", B2), ("C", C2)):
            for _ in range(10):
                y = monic_tuple(
                    Poly([rng.randint(-3, 3) for _ in range(rng.randint(0, 2))] + [1])
                    for _ in range(2)
                )
                assert unfold(fold(y, kind), kind) == y

    def test_unfold_rejects_asymmetric(self):
        with pytest.raises(ConstructionFailed):
            unfold((X, ONE, ONE), "B")

    def test_folded_instance_weights(self):
        pib = instance("B2", [(1, 0)], ["0"])
        pia = folded_instance(pib)
        assert pia.rd.kind == "A" and pia.rd.rank == 3
        assert pia.weights == ((1, 0, 1),)
        pic = instance("C2", [(0, 1)], ["0"])
        assert folded_instance(pic).weights == ((0, 1, 1, 0),)


class TestCriticalTest:
    def test_trivial(self):
        assert bc_critical_test(B2, (ONE, ONE))
        assert bc_critical_test(C2, (ONE, ONE))

    def test_non_generic(self):
        assert not bc_critical_test(B2, (X, X))

    def test_fold_equivalence_members(self):
        for pi in (B2, C2):
            atlas = explore_population(pi, (ONE, ONE), 8)
            for member in atlas.members.values():
                y = member.tuple_y
                if member.generic:
                    assert fold_equivalence(pi, y, bc_critical_test(pi, y))

    def test_fold_equivalence_random(self, rng):
        # random generic tuples; criticality on both sides (usually false)
        from conftest import random_generic_tuple

        for pi in (B2, C2):
            for _ in range(20):
                y = random_generic_tuple(rng, pi, max_deg=2)
                assert fold_equivalence(pi, y, bc_critical_test(pi, y))


class TestBridge:
    def test_trivial_bridge(self):
        a1, a2 = c_bridge_tuples(C2, (ONE, ONE), Fraction(1))
        assert a1 == (ONE, X, ONE, ONE)
        assert a2[2].degree == 2

    def test_c_zero_rejected(self):
        with pytest.raises(ValueError):
            c_bridge_tuples(C2, (ONE, ONE), Fraction(0))

    def test_bridge_identities_random_member(self):
        atlas = explore_population(C2, (ONE, ONE), 8)
        member = atlas.members[(1, 0)]
        # identities are asserted inside; just exercise them
        c_bridge_tuples(C2, member.tuple_y, Fraction(1))
        c_bridge_tuples(C2, member.tuple_y, Fraction(-2))


class TestFundamentalSpaces:
    def test_b2_selfdual_skew(self):
        sd = bc_fundamental_space(B2, (ONE, ONE))
        assert sd.dim == 4
        assert is_selfdual(sd.space, sd.framing)
        assert sd.gm.is_skew()

    def test_framing_is_folded_instance_ts(self):
        sd = bc_fundamental_space(B2, (ONE, ONE))
        assert sd.framing is folded_instance(B2).ts

    def test_c2_selfdual_symmetric(self):
        sd = bc_fundamental_space(C2, (ONE, ONE))
        assert sd.dim == 5
        assert is_selfdual(sd.space, sd.framing)
        assert sd.gm.is_symmetric()

    def test_member_independence(self):
        atlas = explore_population(B2, (ONE, ONE), 8)
        spaces = []
        for member in list(atlas.members.values())[:4]:
            if member.generic:
                spaces.append(bc_fundamental_space(B2, member.tuple_y).space)
        assert len(spaces) >= 2
        assert all(sp == spaces[0] for sp in spaces)

    def test_rejects_non_critical(self):
        with pytest.raises(NotFertile):
            bc_fundamental_space(B2, (X, X))

    @pytest.mark.parametrize("pi", [B2, C2], ids=["B2", "C2"])
    def test_needs_the_fold_certificate(self, monkeypatch, pi):
        """B and C take one path: a folded tuple that `fold_equivalence`
        does not certify gets no space."""
        monkeypatch.setattr(bcmod, "fold_equivalence", lambda pi, y, native: False)
        with pytest.raises(ConstructionFailed, match="A-side certificate"):
            bc_fundamental_space(pi, (ONE, ONE))

    @pytest.mark.parametrize("case", ["C2", "C3w"])
    def test_c_kernel_matches_bridge_space(self, case):
        """The kernel of the non-generic folded C tuple's operator is the
        space that the sibling recursion builds from a generic bridge
        member of the folded population."""
        if case == "C2":
            pi = C2
            ys = [(ONE, ONE), explore_population(C2, (ONE, ONE), 8).members[(1, 0)].tuple_y]
        else:
            pi = instance("C3", [(0, 1, 0), (1, 0, 0)], ["0", "-1"])
            ys = [(ONE,) * 3]
        pia = folded_instance(pi)
        for y in ys:
            space = fundamental_space(pia, fold(y, "C"))
            assert space == sibling_fundamental_space(pia, sample_bridge(pi, y))
            assert bc_fundamental_space(pi, y).space == space


class TestIsotropicSampling:
    def test_b2(self):
        sd = bc_fundamental_space(B2, (ONE, ONE))
        rep = bc_population_as_isotropic_flags(B2, sd, quasi_witt_basis(sd), samples=4, seed=3)
        assert rep.all_symmetric and rep.all_critical
        assert rep.operator_checks >= 3

    def test_c2_middle_squares(self):
        sd = bc_fundamental_space(C2, (ONE, ONE))
        rep = bc_population_as_isotropic_flags(C2, sd, quasi_witt_basis(sd), samples=4, seed=3)
        assert rep.all_symmetric and rep.all_critical

    @pytest.mark.parametrize("pi", [B2, C2], ids=["B2", "C2"])
    def test_move_leaving_the_variety_is_caught(self, pi):
        """Sweeps carry one basis and its anti-diagonal values g_j without
        re-anti-diagonalizing, so the one isotropy test per sweep must catch a
        broken move: flipping the sign of every even carried g_j flips eps and
        the middle bb."""
        sd = bc_fundamental_space(pi, (ONE, ONE))
        qw = quasi_witt_basis(sd)
        g = QVec(tuple(-v if j % 2 == 0 else v for j, v in enumerate(qw.g.num, 1)), qw.g.den)
        with pytest.raises(ConstructionFailed, match="left the isotropic variety"):
            bc_population_as_isotropic_flags(pi, sd, qw._replace(g=g), samples=4, seed=3)


def bc_degree_law(pi, atlas, max_degree):
    """Reached degree vectors match the shifted-orbit prediction and embed
    bijectively into centro-symmetric permutations at full depth."""
    if pi.rd.kind not in "BC":
        raise ValueError("bc_degree_law expects B or C data")
    some = next(iter(atlas.members.values())).tuple_y
    lam_inf = weight_at_infinity(pi, some)
    lam_dom = dominant_representative(pi.rd, lam_inf)
    if lam_dom is None:
        return False
    weyl = weyl_degree_map(pi, lam_dom, max_degree)
    reached = set(atlas.members)
    if reached != set(weyl):
        return False
    images = set()
    for l in sorted(reached):
        img = folded_weyl_embed(pi.rd.kind, pi.rd.rank, weyl[l])
        if not is_centro_symmetric(img):
            return False
        images.add(img)
    return len(images) == len(reached)


class TestDegreeLaw:
    @pytest.mark.parametrize("pi,code", [(B2, "B2"), (C2, "C2")])
    def test_trivial_instances(self, pi, code):
        atlas = explore_population(pi, (ONE, ONE), 8)
        assert len(atlas.members) == 8
        assert bc_degree_law(pi, atlas, 8)

    def test_identity_maps_to_start(self):
        atlas = explore_population(B2, (ONE, ONE), 8)
        assert (0, 0) in atlas.members

    def test_weighted_instance(self):
        pi = instance("B2", [(1, 0)], ["1"])
        atlas = explore_population(pi, (ONE, ONE), 8)
        assert bc_degree_law(pi, atlas, 8)
