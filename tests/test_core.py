import random
from fractions import Fraction

import pytest

from critpop.bc import folded_instance
from critpop.core import (
    ProblemInstance,
    check_separating,
    heine_stieltjes_test,
    is_generic,
    t_polys,
    weight_at_infinity,
    wronskian_rhs,
)
from critpop.errors import CritpopError, InvalidInstance, NotGeneric
from critpop.poly import ONE, X, Poly, gcd
from critpop.reproduction import explore_population
from conftest import A3W, fraction_criterion, from_roots, instance, is_squarefree


SL2 = instance("A1", [(1,), (1,)], ["0", "2"])
SL3_TRIVIAL = instance("A2")


class TestInstances:
    def test_validation(self):
        with pytest.raises(InvalidInstance):
            instance("A1", [(1,), (1,)], ["0", "0"])
        with pytest.raises(InvalidInstance):
            instance("A1", [(-1,)], ["0"])

    def test_from_config(self):
        pi = ProblemInstance.from_config(
            {"root_system": "A2", "weights": [[1, 0]], "points": ["1/2"]}
        )
        assert pi.rd.kind == "A" and pi.points == (Fraction(1, 2),)

    def test_rank_cap(self):
        """A config names rank at most 512, for every kind; folding a B or C
        instance past it builds its A-series instance unrefused."""
        assert ProblemInstance.from_config({"root_system": "A512"}).rd.rank == 512
        for code in ("A513", "B513", "C600"):
            with pytest.raises(InvalidInstance, match="rank is capped at 512"):
                ProblemInstance.from_config({"root_system": code})
        assert folded_instance(ProblemInstance.from_config({"root_system": "C300"})).rd.rank == 600


class TestTPolys:
    def test_empty(self):
        assert t_polys(SL3_TRIVIAL) == [ONE, ONE]

    def test_sl2(self):
        assert t_polys(SL2) == [Poly([0, -2, 1])]

    def test_b2(self):
        pi = instance("B2", [(1, 0)], ["0"])
        assert t_polys(pi) == [X, ONE]

    def test_one_power_per_point(self):
        """Each point's factor is one power (x - z)^m; it equals the product
        of m linear factors, and the product over the points equals
        from_roots of the repeated roots."""
        pi = instance("A2", [(3, 0), (1, 2), (0, 5)], ["1/3", "-2", "7/5"])
        want = [from_roots([z for lam, z in zip(pi.weights, pi.points) for _ in range(lam[i])])
                for i in range(2)]
        assert t_polys(pi) == want

    def test_degree_cap(self):
        """deg T_i = sum_s m_i^(s) is capped at 512, summed over the points."""
        assert t_polys(instance("A1", [(512,)], ["1/3"]))[0].degree == 512
        for weights, points in (([(513,)], ["0"]), ([(300, 0), (300, 0)], ["0", "1"])):
            with pytest.raises(InvalidInstance, match="capped at 512"):
                instance(f"A{len(weights[0])}", weights, points)


class TestGenericity:
    def test_ones(self):
        assert is_generic(SL2, (ONE,))[0]

    def test_marked_point_collision(self):
        ok, reason = is_generic(SL2, (X,))
        assert not ok and "marked point" in reason
        # zero-weight marked points are excluded too
        pi = instance("A1", [(1,), (0,)], ["0", "2"])
        assert not is_generic(pi, (Poly([-2, 1]),))[0]

    def test_linked_collision(self):
        ok, reason = is_generic(SL3_TRIVIAL, (X, X))
        assert not ok

    def test_multiple_root(self):
        assert not is_generic(SL3_TRIVIAL, (X * X, ONE))[0]


class TestCriterion:
    def test_midpoint(self):
        assert heine_stieltjes_test(SL2, (Poly([-1, 1]),)) is True

    def test_off_midpoint(self):
        assert heine_stieltjes_test(SL2, (Poly([-3, 1]),)) is False

    def test_trivial(self):
        assert heine_stieltjes_test(SL3_TRIVIAL, (ONE, ONE)) is True

    def test_requires_generic(self):
        with pytest.raises(NotGeneric):
            heine_stieltjes_test(SL2, (X,))



def certify(pi, y):
    """The outcome of `heine_stieltjes_test`: the `NotGeneric` reason, or the
    verdict."""
    try:
        return "critical", heine_stieltjes_test(pi, y)
    except NotGeneric as exc:
        return "not generic", str(exc)


A3 = instance("A3")
Y_X11 = (X, ONE, ONE)  # a generic critical A3 tuple (one step from y0)


class TestChangedCoordinate:
    """`is_generic` with `changed = i` tests one step from a generic critical
    tuple on what the step changed, with the verdict and reason of the full
    test; the full criterion gives the outcome of each step."""

    @pytest.mark.parametrize("pi, parent, i, new, want", [
        (A3, Y_X11, 0, X * X, ("not generic", "y_1 has a multiple root")),
        (A3W, (ONE, ONE, ONE), 0, Poly([-1, 1]),
         ("not generic", "y_1 vanishes at a marked point")),
        (A3, Y_X11, 1, X, ("not generic", "y_1 and y_2 share a root (a_ij != 0)")),
        (A3, (ONE, ONE, X), 1, X, ("not generic", "y_2 and y_3 share a root (a_ij != 0)")),
        # y_1 and y_3 are not linked: a shared root is allowed
        (A3, Y_X11, 2, X, ("critical", True)),
        # direction 1 holds on the new y_1 = x^2 - 3x - 2, direction 2 fails
        (A3, (ONE, Poly([2, 0, 1]), X), 0, Poly([-2, -3, 1]), ("critical", False)),
        (A3, Y_X11, 1, Poly([-5, 1]), ("critical", False)),
    ], ids=["double-root", "marked-point", "linked-below", "linked-above", "unlinked",
            "neighbour-direction", "not-critical"])
    def test_matches_full_test(self, pi, parent, i, new, want):
        assert certify(pi, parent) == ("critical", True)
        y = parent[:i] + (new,) + parent[i + 1:]
        assert certify(pi, y) == want
        ok = want[0] == "critical"
        assert is_generic(pi, y, i) == is_generic(pi, y) == (ok, "generic" if ok else want[1])

def rational_genericity(pi, y):
    """`is_generic` over Q: Poly gcds and evaluation at the marked points."""
    for i, p in enumerate(y):
        if p.is_zero():
            return False, f"y_{i + 1} is zero"
        if not is_squarefree(p):
            return False, f"y_{i + 1} has a multiple root"
        if any(p.eval(z) == 0 for z in pi.points):
            return False, f"y_{i + 1} vanishes at a marked point"
    a = pi.rd.cartan
    for i in range(len(y)):
        for j in range(i + 1, len(y)):
            if a[i][j] != 0 and gcd(y[i], y[j]).degree > 0:
                return False, f"y_{i + 1} and y_{j + 1} share a root (a_ij != 0)"
    return True, "generic"


class TestIntegerCriterion:
    """`is_generic`, `heine_stieltjes_test` and `wronskian_rhs` run over
    Z[x]; they must agree with the same computations over Q."""

    DENOMINATORS = (1, 2, 10**9 + 7, 2**61 - 1)

    def weighted(self, rng, code):
        rank = int(code[1])
        points = set()
        while len(points) < rng.randint(1, 3):
            points.add(Fraction(rng.randint(-9, 9), rng.choice(self.DENOMINATORS)))
        weights = [tuple(rng.randint(0, 1) for _ in range(rank)) for _ in points]
        return instance(code, weights, sorted(points))

    def coordinate(self, rng, pi):
        """Often non-monic, sometimes a constant, sometimes vanishing at a
        marked point or with a double root."""
        deg = rng.choice((0, 0, 1, 2, 3))
        den = rng.choice(self.DENOMINATORS)
        p = Poly([Fraction(rng.randint(-9 * den, 9 * den), den) for _ in range(deg)]
                 + [Fraction(rng.choice((-3, 1, 2, 7)), rng.choice((1, 5)))])
        roll = rng.random()
        if roll < 0.1:
            p = p * Poly([-rng.choice(pi.points), 1])
        elif roll < 0.15 and deg:
            p = p * p
        return p

    def check(self, pi, y):
        assert is_generic(pi, y) == rational_genericity(pi, y)
        if is_generic(pi, y)[0]:
            assert heine_stieltjes_test(pi, y) == fraction_criterion(pi, y)
        a = pi.rd.cartan
        for i in range(pi.rd.rank):
            rhs = pi.ts[i]
            for j in range(pi.rd.rank):
                if j != i and a[i][j]:
                    rhs = rhs * y[j] ** -a[i][j]
            assert wronskian_rhs(pi, y, i) == rhs

    @pytest.mark.parametrize("code", ["A1", "A2", "A3", "B2", "B3", "C2", "C3"])
    def test_matches_rational_reference(self, code):
        rng = random.Random(f"criterion-{code}")
        criticals = 0
        for _ in range(3):
            pi = self.weighted(rng, code)
            atlas = explore_population(pi, (ONE,) * pi.rd.rank, 2)
            for member in atlas.members.values():
                # the criterion is blind to the scale of each coordinate
                y = tuple(p * Fraction(rng.randint(1, 9), rng.choice(self.DENOMINATORS))
                          for p in member.tuple_y)
                if member.generic:
                    assert fraction_criterion(pi, y) and heine_stieltjes_test(pi, y)
                    criticals += 1
                self.check(pi, y)
            for _ in range(15):
                self.check(pi, tuple(self.coordinate(rng, pi) for _ in range(pi.rd.rank)))
        assert criticals >= 3


class CoincidentCoordinates(CritpopError):
    """Bethe coordinates collide with each other or with a marked point."""


def bethe_residual(pi, roots):
    """Max |LHS| of the defining equations at a float root assignment: the
    floating-point cross-check of the divisibility criterion.

    `roots[i]` lists the coordinates of color i+1.  All coordinates must be
    distinct from each other within a color, across linked colors, and from
    the marked points.
    """
    zs = [float(z) for z in pi.points]
    eps = 1e-12
    flat = []
    for i, ts in enumerate(roots):
        for t in ts:
            flat.append((i, t))
    for idx, (i, t) in enumerate(flat):
        for j, u in flat[idx + 1 :]:
            if (i == j or pi.rd.cartan[i][j] != 0) and abs(t - u) < eps:
                raise CoincidentCoordinates(f"colliding coordinates {t} and {u}")
        if any(abs(t - z) < eps for z in zs):
            raise CoincidentCoordinates(f"coordinate {t} hits a marked point")
    worst = 0.0
    for i, ts in enumerate(roots):
        for a, t in enumerate(ts):
            acc = 0.0
            for lam, z in zip(pi.weights, zs):
                acc -= pi.rd.d[i] * lam[i] / (t - z)
            for j, us in enumerate(roots):
                scal = pi.rd.alpha_scalar(j, i)
                if j == i:
                    for b, u in enumerate(us):
                        if b != a:
                            acc += scal / (t - u)
                elif scal:
                    for u in us:
                        acc += scal / (t - u)
            worst = max(worst, abs(acc))
    return worst


class TestBethe:
    def test_exact_zero(self):
        assert bethe_residual(SL2, [[1.0]]) == 0.0

    def test_off_solution(self):
        assert abs(bethe_residual(SL2, [[0.5]]) - 4 / 3) < 1e-12

    def test_empty(self):
        assert bethe_residual(SL2, [[]]) == 0.0

    def test_collision(self):
        with pytest.raises(CoincidentCoordinates):
            bethe_residual(SL2, [[0.0]])
        with pytest.raises(CoincidentCoordinates):
            bethe_residual(SL3_TRIVIAL, [[1.0], [1.0]])

    def test_cross_check_rational_roots(self):
        # criterion-passing tuples with rational roots solve the equations
        y = (X, Poly([-1, 0, 1]))  # member of the sl3 trivial population
        assert heine_stieltjes_test(SL3_TRIVIAL, y)
        assert bethe_residual(SL3_TRIVIAL, [[0.0], [-1.0, 1.0]]) < 1e-9
        assert bethe_residual(SL2, [[1.0]]) < 1e-9


class TestWeightAtInfinity:
    def test_trivial(self):
        assert weight_at_infinity(SL2, (ONE,)) == (2,)

    def test_sl2_drop(self):
        assert weight_at_infinity(SL2, (Poly([-1, 1]),)) == (0,)

    def test_sl3(self):
        y = (Poly([3, 1]), Poly([1, 3, 1]))
        assert weight_at_infinity(SL3_TRIVIAL, y) == (0, -3)

    def test_projective_invariance(self):
        y1 = (Poly([3, 1]), Poly([1, 3, 1]))
        y2 = (Poly([3, 1]), Poly([2, 6, 2]))
        assert weight_at_infinity(SL3_TRIVIAL, y1) == weight_at_infinity(SL3_TRIVIAL, y2)


class TestSeparating:
    def test_zero_vector(self):
        assert check_separating(SL3_TRIVIAL, (0, 0)) is True

    def test_dominant_always(self):
        # dominant weight at infinity keeps every product positive
        assert check_separating(SL2, (1,)) is True

    def test_vanishing_case(self):
        assert check_separating(SL2, (2,)) is False
