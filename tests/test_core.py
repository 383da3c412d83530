from fractions import Fraction

import pytest

from critpop.core import (
    ProblemInstance,
    bethe_residual,
    check_separating,
    heine_stieltjes_test,
    is_generic,
    t_polys,
    weight_at_infinity,
)
from critpop.errors import CoincidentCoordinates, InvalidInstance, NotGeneric
from critpop.poly import ONE, X, Poly
from conftest import instance


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


class TestTPolys:
    def test_empty(self):
        assert t_polys(SL3_TRIVIAL) == [ONE, ONE]

    def test_sl2(self):
        assert t_polys(SL2) == [Poly([0, -2, 1])]

    def test_b2(self):
        pi = instance("B2", [(1, 0)], ["0"])
        assert t_polys(pi) == [X, ONE]


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
