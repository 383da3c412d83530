import itertools
import json
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from critpop import core, reproduction
from critpop.core import (
    degree_vector,
    heine_stieltjes_test,
    is_generic,
    monic_tuple,
    weight_at_infinity,
    wronskian_rhs,
)
from critpop.errors import NotFertile
from critpop.poly import ONE, X, Poly, solve_combination, wronskian
from critpop.reproduction import (
    AtlasMember,
    PopulationAtlas,
    explore_population,
    immediate_descendants,
    is_fertile,
    param_candidates,
    solve_wronskian_equation,
    weyl_degree_map,
)
from critpop.roots import dominant_representative, enumerate_weyl
from conftest import A3W, A3W_686, instance, shifted_action

SL3 = instance("A2")
SL2 = instance("A1", [(1,), (1,)], ["0", "2"])


def reference_solve(y, rhs):
    """The general solve of y u' - y' u = rhs, independent of the back-
    substitution: columns W(y, x^j) through `solve_combination`, the kernel
    checked to be span{y}, and a base of degree deg y reduced by y."""
    d = int(y.degree)
    monomials = [Poly([0] * j + [1]) for j in range(max(int(rhs.degree) + 1 - d, d) + 2)]
    solved = solve_combination([y * m.deriv() - y.deriv() * m for m in monomials], rhs)
    if solved is None:
        return None
    sol, kernel = solved
    assert len(kernel) == 1 and Poly(kernel[0]).monic() == y.monic()
    base = Poly(sol)
    if base.degree == y.degree:
        base = base - (base.leading() / y.leading()) * y
    return base, y


def assert_matches_general_solve(y, u, consistent):
    """The back-substitution against `reference_solve` on the right-hand
    side W(y, u), or on u itself (mostly infertile)."""
    rhs = y * u.deriv() - y.deriv() * u if consistent else u
    assume(not rhs.is_zero())
    fam = solve_wronskian_equation(y, rhs)
    assert (None if fam is None else (fam.base, fam.fiber)) == reference_solve(y, rhs)


rationals = st.fractions(-5, 5, max_denominator=4)
# numerators and denominators far beyond a machine word, so that the
# running scale of the fraction-free back-substitution grows
large_rationals = st.builds(
    Fraction, st.integers(-10**30, 10**30),
    st.sampled_from([1, 2, 3**40, 10**9 + 7, 2**61 - 1]) | st.integers(1, 10**20))


def polys(max_degree, coefficients=rationals):
    """Nonzero polynomials with rational coefficients, often not monic."""
    return st.builds(lambda low, lead: Poly([*low, lead]),
                     st.lists(coefficients, max_size=max_degree), coefficients.filter(bool))


def test_param_sequence_prefix():
    got = list(itertools.islice(param_candidates(), 5))
    assert got == [0, 1, -1, 2, Fraction(1, 2)]


def test_param_sequence_distinct():
    """The Calkin-Wilf tree holds each positive rational once, so the
    sequence repeats no value."""
    got = list(itertools.islice(param_candidates(), 2000))
    assert len(set(got)) == len(got)


class TestSolver:
    def test_unit(self):
        fam = solve_wronskian_equation(ONE, ONE)
        assert fam.base == X and fam.fiber == ONE

    def test_family_line(self):
        a, b = Fraction(2), Fraction(3)
        y = Poly([a, 1])
        rhs = Poly([b, a, Fraction(1, 2)])
        fam = solve_wronskian_equation(y, rhs)
        for c in (0, 1, -2):
            m = fam.member(Fraction(c))
            assert y * m.deriv() - y.deriv() * m == rhs

    def test_overview_example(self):
        fam = solve_wronskian_equation(Poly([-1, 1]), Poly([0, -2, 1]))
        assert fam.base.monic() == Poly([0, 0, 1])
        assert fam.fiber == Poly([-1, 1])

    def test_infertile(self):
        # W(x^2, u) = x^2 u' - 2x u is divisible by x, so it is never 1
        assert solve_wronskian_equation(Poly([0, 0, 1]), ONE) is None

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(polys(4), polys(6), st.booleans())
    # lc(y) = 2**61 - 1: the pivots seldom divide their residuals, so U is rescaled
    @example(Poly([3, -5, 1, 2**61 - 1]), Poly([1, 2, 0, 7, 1]), True)
    @example(Poly([3, -5, 1, 2**61 - 1]), Poly([1, 2, 0, 7, 1, 0, 0, 5]), True)
    # a right-hand side over 3**40
    @example(Poly([Fraction(1, 3), 2, -1]),
             Poly([Fraction(1, 3**40), 5, Fraction(-7, 3**40), 1]), False)
    @example(Poly([Fraction(1, 3), 2, -1]), Poly([Fraction(2, 3**40), 0, 1, 4]), True)
    # a constant y
    @example(Poly([Fraction(-7, 3)]), Poly([1, Fraction(2, 5), 3]), False)
    # an infertile right-hand side of degree below deg y - 1
    @example(Poly([1, 0, -2, 0, 3]), Poly([1, 2]), False)
    def test_matches_general_solve(self, y, u, consistent):
        """Same (base, fiber), or None, as the general solve: constant and
        non-monic y, right-hand sides W(y, u) and arbitrary (mostly
        infertile) ones."""
        assert_matches_general_solve(y, u, consistent)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(polys(4, large_rationals), polys(6, large_rationals), st.booleans())
    def test_matches_general_solve_large_coefficients(self, y, u, consistent):
        assert_matches_general_solve(y, u, consistent)

    @pytest.mark.parametrize("i", range(3))
    def test_workload_member(self, i):
        y = A3W_686
        rhs = wronskian_rhs(A3W, y, i)
        fam = solve_wronskian_equation(y[i], rhs)
        assert fam.fiber == y[i]
        assert y[i] * fam.base.deriv() - y[i].deriv() * fam.base == rhs


class TestDescendants:
    def test_sl3_first_steps(self):
        fam = immediate_descendants(SL3, (ONE, ONE), 0)
        assert fam.base == X  # family x + a
        y = monic_tuple((Poly([2, 1]), ONE))
        fam2 = immediate_descendants(SL3, y, 1)
        # W(1, u) = x + a: family x^2/2 + ax + b, monic rep x^2 + 2ax + 2b
        m = fam2.member(Fraction(0)).monic()
        assert m.degree == 2

    def test_b2_direction_2(self):
        pib = instance("B2")
        fam = immediate_descendants(pib, (ONE, ONE), 1)
        assert fam.base == X and fam.fiber == ONE

    def test_not_fertile(self):
        with pytest.raises(NotFertile):
            immediate_descendants(SL2, (Poly([-3, 1]),), 0)

    def test_involution(self, rng):
        # a descendant's family in the same direction contains the parent
        atlas = explore_population(SL3, (ONE, ONE), 2)
        for l, member in atlas.members.items():
            y = member.tuple_y
            for i in range(2):
                fam = solve_wronskian_equation(y[i], wronskian_rhs(SL3, y, i))
                child_poly = fam.member(Fraction(1))
                child = monic_tuple(y[:i] + (child_poly,) + y[i + 1:])
                rhs_child = wronskian_rhs(SL3, child, i)
                w = wronskian([child[i], y[i]])
                # parent lies on the child's solution line
                assert not w.is_zero()
                assert w.monic() == rhs_child.monic()


class TestExploration:
    def test_sl3_golden(self):
        atlas = explore_population(SL3, (ONE, ONE), 2)
        assert set(atlas.members) == {(0, 0), (1, 0), (0, 1), (1, 2), (2, 1), (2, 2)}
        y1, y2 = atlas.members[(2, 2)].tuple_y
        assert y1[1] * y2[1] == 2 * y1[0] * y2[2] + 2 * y1[2] * y2[0]

    def test_members_critical(self):
        atlas = explore_population(SL3, (ONE, ONE), 2)
        for member in atlas.members.values():
            if member.generic:
                assert heine_stieltjes_test(SL3, member.tuple_y)
            assert is_fertile(SL3, member.tuple_y)

    def test_degree_change_law(self):
        atlas = explore_population(SL3, (ONE, ONE), 2)
        rd = SL3.rd
        for a, i, b in atlas.edges:
            if a == b:
                continue
            la = weight_at_infinity(SL3, atlas.members[a].tuple_y)
            lb = weight_at_infinity(SL3, atlas.members[b].tuple_y)
            assert shifted_action(rd, (i,), la) == lb

    def test_sl2_orbit(self):
        atlas = explore_population(SL2, (Poly([-1, 1]),), 4)
        assert set(atlas.members) == {(1,), (2,)}

    def test_b2_c2_counts(self):
        for code in ("B2", "C2"):
            pi = instance(code)
            atlas = explore_population(pi, (ONE, ONE), 8)
            assert len(atlas.members) == 8

    def test_intersecting_populations_coincide(self):
        base = explore_population(SL3, (ONE, ONE), 2)
        for l in ((1, 0), (2, 2)):
            other = explore_population(SL3, base.members[l].tuple_y, 2)
            assert set(other.members) == set(base.members)

    def test_weyl_orbit_prediction(self):
        atlas = explore_population(SL3, (ONE, ONE), 2)
        lam0 = weight_at_infinity(SL3, (ONE, ONE))
        assert set(weyl_degree_map(SL3, lam0, 2)) == set(atlas.members)


class TestDegreeVectorToWeyl:
    def test_identity(self):
        lam0 = weight_at_infinity(SL3, (ONE, ONE))
        assert weyl_degree_map(SL3, lam0, 2)[(0, 0)] == ()

    def test_longest(self):
        lam0 = weight_at_infinity(SL3, (ONE, ONE))
        w = weyl_degree_map(SL3, lam0, 2).get((2, 2))
        assert w is not None and len(w) == 3

    def test_cone_violation(self):
        lam0 = weight_at_infinity(SL3, (ONE, ONE))
        assert (7, 0) not in weyl_degree_map(SL3, lam0, 7)


def test_atlas_json_deterministic():
    a1 = explore_population(SL3, (ONE, ONE), 2).to_json(9, 2, "A2")
    a2 = explore_population(SL3, (ONE, ONE), 2).to_json(9, 2, "A2")
    assert a1 == a2
    payload = json.loads(a1)
    assert payload["schema"] == "atlas-v1"
    assert len(payload["members"]) == 6


# the six benchmark `populate` configs at --max-degree 8, then the pinned
# A5 and B4 runs at --max-degree 3
WALKS = [
    (instance("A4"), 8), (instance("B3"), 8), (instance("C3"), 8), (A3W, 8),
    (instance("B3", [(1, 0, 0), (0, 0, 1)], ["0", "1"]), 8),
    (instance("C3", [(0, 1, 0), (1, 0, 0)], ["0", "-1"]), 8),
    (instance("A5"), 3), (instance("B4"), 3),
]


def spy_walk_genericity(monkeypatch, check_changed=True):
    """Replace the walk's genericity test by a spy that records (y, changed)
    for every candidate and, for a step tested with `changed`, asserts the
    verdict and reason of the full test."""
    calls = []

    def spy(pi, y, changed=None):
        calls.append((y, changed))
        got = core.is_generic(pi, y, changed)
        if check_changed and changed is not None:
            assert got == core.is_generic(pi, y)
        return got

    monkeypatch.setattr(reproduction, "is_generic", spy)
    return calls


class TestStepCertification:
    @pytest.mark.parametrize("pi, cap", WALKS, ids=[
        "A4", "B3", "C3", "A3w", "B3w", "C3w", "A5", "B4"])
    def test_changed_matches_full_test(self, monkeypatch, pi, cap):
        """Every candidate the walk tests with `changed` gets the genericity
        verdict of the full test, the atlas is the one the full test builds,
        and every generic member, solved in every direction by the walk,
        passes the criterion that the walk does not run on it."""
        y0 = (ONE,) * pi.rd.rank
        calls = spy_walk_genericity(monkeypatch)
        atlas = explore_population(pi, y0, cap)
        assert all(changed is not None for _, changed in calls)
        assert len(calls) >= len(atlas.members) - 1
        monkeypatch.setattr(reproduction, "is_generic", lambda pi, y, changed: is_generic(pi, y))
        full = explore_population(pi, y0, cap)
        assert full.to_json(0, cap, "X") == atlas.to_json(0, cap, "X")
        assert all(heine_stieltjes_test(pi, m.tuple_y)
                   for m in atlas.members.values() if m.generic)

    def test_child_of_non_generic_member_gets_full_test(self, monkeypatch):
        """A member stored as non-generic passes `changed = None` to the
        genericity test of each of its children."""
        y0 = explore_population(SL3, (ONE, ONE), 2).members[(2, 2)].tuple_y
        plain = explore_population(SL3, y0, 2)
        parent = plain.members[(2, 1)]
        children = [m.tuple_y for m in plain.members.values()
                    if m.path[:-1] == parent.path and len(m.path) == len(parent.path) + 1]
        assert children
        calls = spy_walk_genericity(monkeypatch, check_changed=False)
        spy = reproduction.is_generic

        def fake(pi, y, changed=None):
            if y == parent.tuple_y:
                calls.append((y, changed))
                return False, "made non-generic for the test"
            return spy(pi, y, changed)

        monkeypatch.setattr(reproduction, "is_generic", fake)
        atlas = explore_population(SL3, y0, 2)
        assert not atlas.members[(2, 1)].generic
        changed = dict(calls)
        assert changed[parent.tuple_y] == 1
        assert all(changed[c] is None for c in children)
        assert any(v is not None for y, v in calls if y not in children)


def test_criterion_runs_once_on_y0(monkeypatch):
    """The walk runs the divisibility criterion on y0 alone: every other
    member is certified by `is_generic` and the fertility solves."""
    calls = []
    test = reproduction.heine_stieltjes_test

    def spy(pi, y):
        calls.append(y)
        return test(pi, y)

    monkeypatch.setattr(reproduction, "heine_stieltjes_test", spy)
    atlas = explore_population(A3W, (ONE, ONE, ONE), 8)
    assert len(atlas.members) > 1
    assert calls == [(ONE, ONE, ONE)]


def test_walk_gcd_budget(monkeypatch):
    """A timing-free guard on step certification: the six benchmark
    `populate` walks make at most 800 `_zgcd` calls through `core` (1,464
    when every candidate got the full test)."""
    calls = []
    zgcd = core._zgcd

    def counting(a, b):
        calls.append(None)
        return zgcd(a, b)

    monkeypatch.setattr(core, "_zgcd", counting)
    for pi, cap in WALKS[:6]:
        explore_population(pi, (ONE,) * pi.rd.rank, cap)
    assert 0 < len(calls) <= 800


def reference_to_json(atlas, seed, max_degree, code):
    """The `atlas-v1` text through `json.dumps`, which `to_json` writes
    directly."""
    payload = {
        "schema": "atlas-v1",
        "root_system": code,
        "weights": [list(w) for w in atlas.pi.weights],
        "points": [str(z) for z in atlas.pi.points],
        "seed": seed,
        "max_degree": max_degree,
        "members": {
            ",".join(map(str, l)): {
                "tuple": [p.to_text() for p in m.tuple_y],
                "path": [[d, c] for d, c in m.path],
                "generic": m.generic,
            }
            for l, m in sorted(atlas.members.items())
        },
        "edges": [
            [",".join(map(str, a)), d, ",".join(map(str, b))]
            for a, d, b in sorted(atlas.edges)
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def reference_weyl_degree_map(pi, lam_inf, max_degree):
    """The prediction element by element: each word applied to lam_inf + rho
    letter by letter, then l read off through the inverse Cartan matrix,
    scaled by its common denominator."""
    rd = pi.rd
    r = rd.rank
    base = [sum(lam[i] for lam in pi.weights) for i in range(r)]
    cols = [rd.root_combination_of(tuple(int(k == j) for k in range(r))) for j in range(r)]
    den = lcm(*(c.denominator for col in cols for c in col))
    inv = [[int(col[i] * den) for col in cols] for i in range(r)]
    out = {}
    for w in enumerate_weyl(f"{rd.kind}{r}"):
        img = shifted_action(rd, w, lam_inf)
        num = [sum(row[j] * (base[j] - img[j]) for j in range(r)) for row in inv]
        if all(v % den == 0 and 0 <= v <= max_degree * den for v in num):
            out.setdefault(tuple(v // den for v in num), w)
    return out


# the benchmark walks, two A2 atlases whose two-digit degrees sort
# differently as strings ("14,14" before "7,0") and as tuples, and the root
# alone (empty path, no edges, no weights)
WRITER_CASES = [(pi, cap) for pi, cap in WALKS[:6]] + [
    (instance("A2", [(4, 4), (4, 4)], ["0", "1"]), 20),
    (instance("A2", [(5, 0), (0, 5), (1, 1)], ["0", "1", "3"]), 20),
    (SL3, 0),
]


class TestAtlasWriter:
    @pytest.mark.parametrize("pi, cap", WRITER_CASES, ids=[
        "A4", "B3", "C3", "A3w", "B3w", "C3w", "A2-44-44", "A2-50-05-11", "root"])
    def test_matches_json_dumps(self, pi, cap):
        atlas = explore_population(pi, (ONE,) * pi.rd.rank, cap)
        code = f"{pi.rd.kind}{pi.rd.rank}"
        assert atlas.to_json(3, cap, code) == reference_to_json(atlas, 3, cap, code)

    def test_string_order_of_members(self):
        pi, cap = WRITER_CASES[7]
        text = explore_population(pi, (ONE, ONE), cap).to_json(0, cap, "A2")
        assert list(json.loads(text)["members"]) == [
            "0,0", "0,7", "14,14", "14,7", "7,0", "7,14"]

    def test_escapes_as_json(self):
        """A non-ASCII root-system name is written as json escapes it, and a
        member with an empty path, an empty atlas and a non-generic member
        are written as `json.dumps` writes them."""
        atlas = PopulationAtlas(SL3)
        assert atlas.to_json(0, 1, "A2") == reference_to_json(atlas, 0, 1, "A2")
        atlas.members[(0, 0)] = AtlasMember((ONE, ONE), (), False)
        text = atlas.to_json(0, 1, "A\u0663")
        assert '"root_system": "A\\u0663"' in text and '"path": []' in text
        assert text == reference_to_json(atlas, 0, 1, "A\u0663")
        assert json.loads(text)["root_system"] == "A\u0663"

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.data())
    def test_random_atlases(self, data):
        """Hand-built atlases: degree vectors of one to three digits, random
        paths, flags and edges, against `json.dumps`."""
        degrees = st.tuples(st.integers(0, 120), st.integers(0, 120))
        weights = data.draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                                     max_size=2))
        pi = instance("A2", weights, ["0", "-1/2"][:len(weights)])
        atlas = PopulationAtlas(pi)
        steps = st.tuples(st.integers(0, 1), st.sampled_from(["base", "0", "-1/2", "3"]))
        polys = st.sampled_from([ONE, X, Poly([Fraction(-1, 3), 0, 1])])
        for l in data.draw(st.lists(degrees, max_size=6, unique=True)):
            atlas.members[l] = AtlasMember(data.draw(st.tuples(polys, polys)),
                                           tuple(data.draw(st.lists(steps, max_size=3))),
                                           data.draw(st.booleans()))
        for a, i, b in data.draw(st.lists(st.tuples(degrees, st.integers(0, 1), degrees),
                                          max_size=4)):
            atlas.edges.add((a, i, b))
        seed, cap = data.draw(st.integers(0, 99)), data.draw(st.integers(0, 200))
        assert atlas.to_json(seed, cap, "A2") == reference_to_json(atlas, seed, cap, "A2")


@pytest.mark.parametrize("code", ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4"])
def test_weyl_degree_map_matches_reference(code):
    """The tail sweep names the same degree vectors by the same words as
    applying every word letter by letter, on a sample of a weight box
    (dominant, non-dominant and off the root lattice) and of the lattice
    points base - sum l_i alpha_i with l in a box."""
    rng = random.Random(code)
    r = int(code[1:])
    pi = instance(code, [tuple(rng.randint(0, 2) for _ in range(r))], ["0"])
    base = pi.weights[0]
    samples = 25 if r < 4 else 8
    nonempty = 0
    for _ in range(samples):
        lam = tuple(rng.randint(-3, 4) for _ in range(r))
        l = tuple(rng.randint(-2, 6) for _ in range(r))
        on_lattice = tuple(b - c for b, c in zip(base, pi.rd.root_coroot_coords(l)))
        for lam_inf in (lam, on_lattice):
            cap = rng.choice((0, 3, 8))
            got = weyl_degree_map(pi, lam_inf, cap)
            assert got == reference_weyl_degree_map(pi, lam_inf, cap)
            nonempty += bool(got)
    assert nonempty
