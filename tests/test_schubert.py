import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

import pytest
import sympy

from critpop import schubert
from critpop.errors import ConstructionFailed, CritpopError
from critpop.fundamental import (exponents, fundamental_space, schubert_index_finite,
                                 schubert_index_infinity)
from critpop.core import weight_at_infinity
from critpop.poly import ONE, Poly
from critpop.reproduction import explore_population
from critpop.roots import dominant_representative
from critpop.schubert import (
    count_critical_sl2,
    lr_expand,
    multiplicity_bound,
    population_count_report,
    weight_to_partition,
)
from conftest import A3W, hook_content_dim, instance, seeded_points


# Test-only entry points: the ramification dictionaries (checked against
# the Schubert indices of fundamental spaces below) and single LR
# coefficients.


class Inconsistent(CritpopError):
    """Ramification data does not define a consistent triple."""


def _is_partition(a) -> bool:
    return all(a[i] >= a[i + 1] for i in range(len(a) - 1)) and all(x >= 0 for x in a)


@dataclass(frozen=True)
class RamificationTriple:
    """Equivalent descriptions of the ramification of a space at one point.

    a: Schubert index (length N+1, non-increasing);
    m: exponent gaps (length N);
    lam: the dominant weight, numerically equal to m in type A.
    """

    point_kind: str  # "finite" | "infinity"
    d: int
    a: tuple[int, ...]
    m: tuple[int, ...]
    lam: tuple[int, ...]


def convert_ramification(
    *,
    d: int,
    point_kind: str,
    a: tuple[int, ...] | None = None,
    m: tuple[int, ...] | None = None,
    lam: tuple[int, ...] | None = None,
    l1: int | None = None,
) -> RamificationTriple:
    """Complete a ramification triple from any one description.

    At infinity the gap data determines the Schubert index only once the
    minimal realized degree is fixed; `l1` defaults to the minimal
    embedding convention a_{N+1} = 0.
    """
    if point_kind not in ("finite", "infinity"):
        raise Inconsistent("point_kind must be finite or infinity")
    if m is None and lam is not None:
        m = tuple(lam)
    if a is not None:
        a = tuple(a)
        n1 = len(a)
        if not _is_partition(a) or a[0] > d - (n1 - 1):
            raise Inconsistent(f"invalid Schubert index {a}")
        if point_kind == "finite":
            # exponents e_i = a_{N+2-i} + (i-1), gaps m_i = e_{i+1} - e_i - 1
            e = [a[n1 - 1 - i] + i for i in range(n1)]
        else:
            # realized degrees d_i = d - N + i - 1 - a_i
            e = [d - (n1 - 1) + i - a[i] for i in range(n1)]
        gaps = tuple(e[i + 1] - e[i] - 1 for i in range(n1 - 1))
        if any(g < 0 for g in gaps):
            raise Inconsistent("Schubert index is not non-increasing enough")
        return RamificationTriple(point_kind, d, a, gaps, gaps)
    if m is None:
        raise Inconsistent("need one of a, m, lam")
    m = tuple(m)
    if any(x < 0 for x in m):
        raise Inconsistent("gaps must be non-negative")
    n1 = len(m) + 1
    if point_kind == "finite":
        e = [0]
        for g in m:
            e.append(e[-1] + g + 1)
        a = tuple(e[n1 - 1 - i] - (n1 - 1 - i) for i in range(n1))
    else:
        if l1 is None:
            # minimal embedding: top realized degree equals d
            span = sum(g + 1 for g in m)
            l1 = d - span
        e = [l1]
        for g in m:
            e.append(e[-1] + g + 1)
        if e[0] < 0 or e[-1] > d:
            raise Inconsistent("degrees fall outside the embedding")
        a = tuple(d - (n1 - 1) + i - e[i] for i in range(n1))
    if not _is_partition(a) or (a and a[0] > d - (n1 - 1)):
        raise Inconsistent("derived Schubert index is invalid")
    return RamificationTriple(point_kind, d, a, m, m)


def lr_coefficient(lam, mu, nu) -> int:
    """c^nu_{lam mu} by lattice-word tableau enumeration."""
    lam, mu, nu = tuple(lam), tuple(mu), tuple(nu)
    if sum(nu) != sum(lam) + sum(mu):
        return 0
    rows = max(len(lam), len(mu), len(nu), 1)
    exp = lr_expand(lam, mu, rows)
    return exp.get(tuple(x for x in nu if x), 0)


# the separating forms t = a_{l-1} + lam (a_0 + 2 a_1 + ...) the references try
SEPARATING_FORMS = (0, 1, 2, 3, 5, 7, -1, -2, 11, 13, -3, 17)


def ring_count_critical_sl2(pi, l):
    """Reference for `count_critical_sl2` on sympy's sparse polynomial rings
    over QQ (`sympy.polys.rings`, `groebnertools.groebner`): the criterion
    system of `expr_count_critical_sl2`, its separating forms, and the bad
    locus sympy's discriminant of y times y at the points of weight 0."""
    if pi.rd.rank != 1:
        raise ValueError("exact counting is rank-one only")
    if l == 0:
        return 1
    from sympy.polys.domains import QQ
    from sympy.polys.orderings import lex
    from sympy.polys.rings import ring

    R, x, *gens = ring(["x", *(f"a{i}" for i in range(l)), "t_sep"], QQ, lex)
    zs = [QQ(z.numerator, z.denominator) for z in pi.points]
    f = math.prod((x - z for z in zs), start=R.one)
    g = R.zero
    for lam, z in zip(pi.weights, zs):
        g += lam[0] * math.prod((x - w for w in zs if w != z), start=R.one)
    y = x**l + sum((c * x**i for i, c in enumerate(gens[:-1])), R.zero)
    dy = y.diff(x)
    rem = (f * dy.diff(x) - g * dy).rem(y)  # y is monic in x, the first generator
    system = [e for i in range(l) if (e := rem.coeff_wrt(x, i).drop(x))]
    if not system:
        raise ValueError("degenerate criterion system")
    bad = y.discriminant()
    for lam, z in zip(pi.weights, zs):
        if not lam[0]:
            bad *= y.evaluate(x, z)
    for lam in SEPARATING_FORMS:
        got = ring_shape_count(system, bad, lam)
        if got is not None:
            return got
    raise ValueError("no separating linear form found")


def ring_shape_count(system, bad, lam: int) -> int | None:
    """`expr_shape_count` in the lex ring QQ[a_0..a_{l-1}, t_sep]: sympy's
    Groebner basis and QQ[t] arithmetic."""
    from sympy.polys.groebnertools import groebner

    S = bad.ring
    *coeffs, t = S.gens
    l = len(coeffs)
    sep = coeffs[-1] + lam * sum((i + 1) * c for i, c in enumerate(coeffs[:-1]))
    gb = groebner([*system, t - sep], S)
    if gb == [S.one]:
        return 0  # inconsistent system: no critical polynomial of this degree
    univ = [p for p in gb if not any(any(m[:l]) for m in p.itermonoms())]
    if len(univ) != 1:
        return None
    T = S[l:]  # QQ[t_sep]
    elim = univ[0].set_ring(T)
    subs = {}
    for p in gb:
        if p is univ[0]:
            continue
        head = {i for m in p.itermonoms() for i in range(l) if m[i]}
        if len(head) != 1:
            return None
        (h,) = head
        # linear in a_h with a constant coefficient: one term involves a_h,
        # and it is c a_h
        lin = [(m, c) for m, c in p.iterterms() if m[h]]
        if len(lin) != 1 or sum(lin[0][0]) != 1:
            return None
        c = lin[0][1]
        subs[h] = (c * coeffs[h] - p).set_ring(T).quo_ground(c)
    if len(subs) != l:
        return None
    # bad(subs) mod elim, reduced in QQ[t] after every product: no product
    # reaches degree 2 deg(elim), where bad(subs) expanded has degree up
    # to deg(bad) (deg(elim) - 1)
    powers = [[T.one, subs[i].rem(elim)] for i in range(l)]
    bad_t = T.zero
    for monom, a in bad.iterterms():
        term = T.one * a
        for pw, e in zip(powers, monom):
            if e:
                while len(pw) <= e:
                    pw.append((pw[-1] * pw[1]).rem(elim))
                term = (term * pw[e]).rem(elim)
        bad_t += term
    elim_sf = elim.sqf_part()
    return elim_sf.degree() - elim_sf.gcd(bad_t).degree()


def sympy_bad_locus(coeffs, points):
    """sympy's discriminant of y = x^l + a_{l-1} x^{l-1} + ... + a_0 in x,
    times y at each of `points`."""
    x = sympy.Symbol("x")
    y = x**len(coeffs) + sum(c * x**i for i, c in enumerate(coeffs))
    return sympy.discriminant(y, x) * sympy.prod([y.subs(x, sympy.Rational(z)) for z in points])


def expr_system(pi, l):
    """(system, coeffs): the criterion system of a monic y of degree l >= 1
    as sympy expressions in its coefficients a_0..a_{l-1}, the remainder of
    f y'' - g y' by y."""
    x = sympy.Symbol("x")
    f = sympy.prod([x - sympy.Rational(z) for z in pi.points])
    g = sympy.S(0)
    for lam, z in zip(pi.weights, pi.points):
        g += lam[0] * sympy.prod([x - sympy.Rational(w) for w in pi.points if w != z])
    coeffs = list(sympy.symbols(f"a0:{l}"))
    y = x**l + sum(coeffs[i] * x**i for i in range(l))
    num = sympy.expand(f * sympy.diff(y, x, 2) - g * sympy.diff(y, x))
    rem = sympy.rem(num, y, x)
    system = [e for i in range(l)
              if (e := sympy.expand(sympy.Poly(rem, x).coeff_monomial(x**i))) != 0]
    return system, coeffs


def expr_count_critical_sl2(pi, l, points=None, expand=False):
    """Reference for `count_critical_sl2`: `expr_system`, its lex basis in
    shape position on the first separating form that works, and the bad
    locus `sympy_bad_locus` at `points` (by default every marked point),
    reduced modulo the eliminant one product at a time or, with `expand`,
    expanded first."""
    if l == 0:
        return 1
    system, coeffs = expr_system(pi, l)
    bad = sympy.expand(sympy_bad_locus(coeffs, pi.points if points is None else points))
    for lam in SEPARATING_FORMS:
        got = expr_shape_count(system, coeffs, bad, lam, expand)
        if got is not None:
            return got
    raise ValueError("no separating linear form found")


def expr_shape_count(system, coeffs, bad, lam, expand=False):
    """The distinct points of `system` off the zeros of `bad`, read off the
    lex basis in the separating form of `lam`, or None if that basis is not
    in shape position.  The bad locus is evaluated in QQ[t] modulo the
    eliminant one product at a time or, with `expand`, expanded as an
    expression in t before it is reduced."""
    t = sympy.Symbol("t_sep")
    sep = coeffs[-1] + lam * sum((i + 1) * c for i, c in enumerate(coeffs[:-1]))
    gens = list(coeffs) + [t]
    gb = sympy.groebner(system + [t - sep], *gens, order="lex")
    if gb.exprs == [1]:
        return 0
    univ = [p for p in gb.exprs if p.free_symbols <= {t}]
    if len(univ) != 1:
        return None
    elim = univ[0]
    subs = {}
    for p in gb.exprs:
        if p.free_symbols <= {t}:
            continue
        head = [c for c in coeffs if c in p.free_symbols]
        pp = sympy.Poly(p, head[0]) if len(head) == 1 else None
        if pp is None or pp.degree() != 1 or pp.LC().free_symbols:
            return None
        subs[head[0]] = sympy.expand(-pp.nth(0) / pp.LC())
    if set(subs) != set(coeffs):
        return None
    if expand:
        bad_t = sympy.rem(sympy.expand(bad.subs(subs)), elim, t)
        elim_sf = sympy.quo(elim, sympy.gcd(elim, sympy.diff(elim, t)), t)
        return int(sympy.degree(elim_sf, t) - sympy.degree(sympy.gcd(elim_sf, bad_t), t))
    elim = sympy.Poly(elim, t, domain=sympy.QQ)
    powers = [[elim.one, sympy.Poly(subs[c], t, domain=sympy.QQ).rem(elim)]
              for c in coeffs]
    bad_t = elim.zero
    for monom, a in sympy.Poly(bad, *coeffs, domain=sympy.QQ).terms():
        term = elim.one * a
        for pw, e in zip(powers, monom):
            while len(pw) <= e:
                pw.append((pw[-1] * pw[1]).rem(elim))
            term = (term * pw[e]).rem(elim)
        bad_t += term
    elim_sf = elim.sqf_part()
    return elim_sf.degree() - elim_sf.gcd(bad_t).degree()


class TestLR:
    def test_pieri(self):
        assert lr_coefficient((1,), (1,), (2,)) == 1
        assert lr_coefficient((1,), (1,), (1, 1)) == 1

    def test_classic_multiplicity_two(self):
        assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2

    def test_size_grading(self):
        assert lr_coefficient((2,), (1,), (2,)) == 0

    def test_symmetry_and_dimension_oracle(self):
        rng = random.Random(12)
        for _ in range(50):
            lam = tuple(sorted((rng.randint(0, 3) for _ in range(3)), reverse=True))
            mu = tuple(sorted((rng.randint(0, 3) for _ in range(3)), reverse=True))
            if sum(lam) > 6 or sum(mu) > 6:
                continue
            k = 4
            exp = lr_expand(lam, mu, k)
            total = sum(c * hook_content_dim(nu, k) for nu, c in exp.items())
            assert total == hook_content_dim(lam, k) * hook_content_dim(mu, k)
            for nu, c in exp.items():
                assert lr_coefficient(lam, mu, nu) == c == lr_coefficient(mu, lam, nu)

    def test_hook_content(self):
        assert hook_content_dim((1,), 3) == 3
        assert hook_content_dim((1, 1, 1), 3) == 1
        assert hook_content_dim((2, 1), 3) == 8


# The Kostka/Weyl-sum multiplicity oracle: independent of `lr_expand`, it
# cross-checks `multiplicity_bound`.


@lru_cache(maxsize=None)
def _kostka_weights(lam, n1):
    """All weight multiplicities of the gl_{n1} module lam, by SSYT count."""
    lam = tuple(x for x in lam if x)
    out: dict[tuple[int, ...], int] = {}
    if not lam:
        return {(0,) * n1: 1}
    cells = [(i, j) for i, row in enumerate(lam) for j in range(row)]

    def rec(idx: int, tab: dict, content: list[int]):
        if idx == len(cells):
            out_key = tuple(content)
            out[out_key] = out.get(out_key, 0) + 1
            return
        i, j = cells[idx]
        lo = 1
        if j > 0:
            lo = max(lo, tab[(i, j - 1)])
        if i > 0:
            lo = max(lo, tab[(i - 1, j)] + 1)
        for v in range(lo, n1 + 1):
            tab[(i, j)] = v
            content[v - 1] += 1
            rec(idx + 1, tab, content)
            content[v - 1] -= 1
        tab.pop((i, j), None)

    rec(0, {}, [0] * n1)
    return out


def multiplicity_oracle(pi_a, lam_inf):
    """Independent multiplicity computation: convolve weight multiplicities
    of the factors, then take the alternating Weyl sum over the shifted
    orbit of the target (brute force, desk scale)."""
    rd = pi_a.rd
    n1 = rd.rank + 1
    conv: dict[tuple[int, ...], int] = {(0,) * n1: 1}
    for w in pi_a.weights:
        lam = weight_to_partition(w)
        table = _kostka_weights(tuple(x for x in lam if x), n1)
        nxt: dict[tuple[int, ...], int] = {}
        for base, m1 in conv.items():
            for mu, m2 in table.items():
                key = tuple(b + x for b, x in zip(base, mu))
                nxt[key] = nxt.get(key, 0) + m1 * m2
        conv = nxt
    total = sum(next(iter(conv))) if conv else 0
    target_min = weight_to_partition(lam_inf)
    shift, rem = divmod(total - sum(target_min), n1)
    if rem or shift < 0:
        return 0
    target = [x + shift for x in target_min]
    rho = list(range(n1 - 1, -1, -1))
    result = 0
    for perm in permutations(range(n1)):
        sign = _perm_sign(perm)
        shifted = [0] * n1
        tr = [target[i] + rho[i] for i in range(n1)]
        for pos, src in enumerate(perm):
            shifted[pos] = tr[src] - rho[pos]
        key = tuple(shifted)
        result += sign * conv.get(key, 0)
    return result


def _perm_sign(perm) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


class TestMultiplicity:
    def test_clebsch_gordan(self):
        pi = instance("A1", [(1,), (1,)], ["0", "1"])
        assert multiplicity_bound(pi, (0,)) == 1
        assert multiplicity_bound(pi, (2,)) == 1
        assert multiplicity_bound(pi, (1,)) == 0

    def test_triple_spin_half(self):
        pi = instance("A1", [(1,), (1,), (1,)], ["0", "1", "2"])
        assert multiplicity_bound(pi, (1,)) == 2
        assert multiplicity_oracle(pi, (1,)) == 2

    def test_sl3_clebsch(self):
        pi = instance("A2", [(1, 0), (0, 1)], ["0", "1"])
        assert multiplicity_bound(pi, (0, 0)) == 1
        assert multiplicity_bound(pi, (1, 1)) == 1
        assert multiplicity_oracle(pi, (0, 0)) == 1

    def test_oracle_agreement_battery(self):
        rng = random.Random(9)
        weights_a1 = [(1,), (2,), (3,)]
        for _ in range(12):
            n = rng.randint(1, 3)
            ws = [rng.choice(weights_a1) for _ in range(n)]
            pi = instance("A1", ws, [str(z) for z in seeded_points(rng, n)])
            total = sum(w[0] for w in ws)
            for lam in range(total % 2, total + 1, 2):
                assert multiplicity_bound(pi, (lam,)) == multiplicity_oracle(pi, (lam,))
        for _ in range(6):
            n = rng.randint(1, 2)
            ws = [
                tuple(rng.choice([(1, 0), (0, 1), (1, 1)]))
                for _ in range(n)
            ]
            pi = instance("A2", ws, [str(z) for z in seeded_points(rng, n)])
            for lam in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0)):
                assert multiplicity_bound(pi, lam) == multiplicity_oracle(pi, lam)

    def test_partition_dictionary(self):
        assert weight_to_partition((2, 1)) == (3, 1, 0)


class TestRamification:
    def test_trivial_triple(self):
        t = convert_ramification(d=4, point_kind="finite", a=(0, 0, 0))
        assert t.m == (0, 0) and t.lam == (0, 0)

    def test_finite_round_trip(self):
        rng = random.Random(3)
        for _ in range(100):
            n1 = rng.randint(2, 4)
            lam = tuple(rng.randint(0, 3) for _ in range(n1 - 1))
            d = sum(lam) + n1 + rng.randint(0, 2)
            t = convert_ramification(d=d, point_kind="finite", lam=lam)
            back = convert_ramification(d=d, point_kind="finite", a=t.a)
            assert back.m == lam and back.a == t.a

    def test_infinity_round_trip(self):
        rng = random.Random(4)
        for _ in range(100):
            n1 = rng.randint(2, 4)
            gaps = tuple(rng.randint(0, 2) for _ in range(n1 - 1))
            span = sum(g + 1 for g in gaps)
            l1 = rng.randint(0, 2)
            d = l1 + span + rng.randint(0, 2)
            t = convert_ramification(d=d, point_kind="infinity", m=gaps, l1=l1)
            back = convert_ramification(d=d, point_kind="infinity", a=t.a)
            assert back.m == gaps

    def test_space_dictionary_and_pluecker(self):
        pi = instance("A1", [(1,), (1,)], ["0", "2"])
        V = fundamental_space(pi, (Poly([-1, 1]),))
        d = max(V.degrees())
        a0 = schubert_index_finite(exponents(V, Fraction(0)))
        t = convert_ramification(d=d, point_kind="finite", a=a0)
        assert t.lam == (1,)
        ainf = schubert_index_infinity(V, d)
        total = sum(a0) + sum(schubert_index_finite(exponents(V, Fraction(2)))) + sum(ainf)
        assert total == V.dim * (d - V.dim + 1)

    def test_matches_fundamental_schubert_indices(self):
        """The dictionary maps Lambda_s to the Schubert index that
        `schubert_index_finite` reads off a fundamental space at z_s, and the
        dominant weight at infinity, in the minimal embedding, to the one
        `schubert_index_infinity` reads off at infinity."""
        cases = [(instance("A1", [(1,), (1,), (1,)], ["0", "1", "3"]), (ONE,), 3),
                 (instance("A2", [(1, 0), (0, 1)], ["0", "1"]), (ONE, ONE), 4),
                 (A3W, (ONE,) * 3, 4)]
        checked = 0
        for pi, start, max_deg in cases:
            for member in explore_population(pi, start, max_deg).members.values():
                dom = dominant_representative(pi.rd, weight_at_infinity(pi, member.tuple_y))
                if not member.generic or dom is None:
                    continue
                V = fundamental_space(pi, member.tuple_y)
                d = max(V.degrees())
                for lam, z in zip(pi.weights, pi.points):
                    t = convert_ramification(d=d, point_kind="finite", lam=lam)
                    assert t.a == schubert_index_finite(exponents(V, z))
                t = convert_ramification(d=d, point_kind="infinity", lam=dom)
                assert t.a == schubert_index_infinity(V, d)
                checked += 1
        assert checked == 19

    def test_invalid(self):
        with pytest.raises(Inconsistent):
            convert_ramification(d=2, point_kind="finite", a=(0, 1))
        with pytest.raises(Inconsistent):
            convert_ramification(d=2, point_kind="nowhere", a=(0, 0))
        with pytest.raises(Inconsistent):
            convert_ramification(d=1, point_kind="finite", a=(3, 0))


class TestCyclicWords:
    """The basis of the Bethe algebra: words on a cyclic vector taken from
    the moment curve (1, t, ..., t^(d-1))."""

    def test_moment_curve_search(self):
        # diag(1, 2): (1, 0) at t = 0 spans an eigenline, (1, 1) at t = 1 is cyclic
        assert schubert._cyclic_words([[1, 0, 0, 2]], 2) == [[1, 0, 0, 1], [1, 0, 0, 2]]

    def test_missing_cyclic_vector(self):
        # the scalars span no module of dimension 2 from one vector
        with pytest.raises(ConstructionFailed, match="no cyclic vector"):
            schubert._cyclic_words([[3, 0, 0, 3]], 2)


class TestExactCounts:
    def test_midpoint_unique(self):
        pi = instance("A1", [(1,), (1,)], ["0", "2"])
        exact, bound = population_count_report(pi, 1)
        assert exact == bound == 1

    def test_quadratic_two(self):
        pi = instance("A1", [(1,), (1,), (1,)], ["0", "1", "3"])
        exact, bound = population_count_report(pi, 1)
        assert exact == bound == 2

    def test_catalan_battery(self):
        rng = random.Random(8)
        for n in (2, 3, 4, 5):
            pts = seeded_points(rng, n)
            pi = instance("A1", [(1,)] * n, [str(z) for z in pts])
            for l in (1, 2):
                if n - 2 * l < 0:
                    continue
                exact, bound = population_count_report(pi, l)
                expected = math.comb(n, l) - math.comb(n, l - 1)
                assert exact == bound == expected, (n, l)

    def test_negative_weight_zero(self):
        pi = instance("A1", [(1,)], ["0"])
        assert population_count_report(pi, 2) == (0, 0)

    def test_matches_expand_reference(self):
        """The count equals the expression count with its bad locus expanded
        in t before it is reduced: a seeded A1 battery of 2-4 points with
        weights 1-2, l <= 2."""
        rng, counts = random.Random(5), []
        for _ in range(8):
            n = rng.randint(2, 4)
            ws = [(rng.randint(1, 2),) for _ in range(n)]
            pi = instance("A1", ws, [str(z) for z in seeded_points(rng, n)])
            for l in (1, 2):
                if sum(w[0] for w in ws) >= 2 * l:
                    counts.append(count_critical_sl2(pi, l))
                    assert counts[-1] == expr_count_critical_sl2(pi, l, expand=True), (pi, l)
        assert (len(counts), sum(counts)) == (15, 33)

    def test_matches_expr_reference(self):
        """The count equals the ring count and the count built on sympy
        expressions on a seeded A1 battery: weights 1-3, 2-5 points with
        halves among them, l <= 2, and l = 3 on up to 3 points."""
        rng = random.Random(13)
        checked, halves = [], 0  # the l of each count, instances with a half
        for n in (2, 3, 4, 5) * 4:
            pts = set()
            while len(pts) < n:
                pts.add(Fraction(rng.randint(-9, 9), rng.choice([1, 2])))
            halves += any(z.denominator == 2 for z in pts)
            ws = [(rng.randint(1, 3),) for _ in range(n)]
            pi = instance("A1", ws, [str(z) for z in sorted(pts)])
            for l in (1, 2, 3) if n <= 3 else (1, 2):
                if sum(w[0] for w in ws) >= 2 * l:
                    got = count_critical_sl2(pi, l)
                    assert got == ring_count_critical_sl2(pi, l), (pi, l)
                    assert got == expr_count_critical_sl2(pi, l), (pi, l)
                    checked.append(l)
        assert (len(checked), checked.count(3), halves) == (34, 3, 12)

    def test_matches_ring_reference(self):
        """The count equals the count on sympy's rings on a seeded A1 battery
        with weight 0 among the weights 0-3: 2-5 points with halves among
        them, l <= 2, and l = 3 on up to 3 points."""
        rng = random.Random(24)
        checked, halves, zeros = [], 0, 0  # (l, count) of each count
        for n in (2, 3, 4, 5) * 4:
            pts = set()
            while len(pts) < n:
                pts.add(Fraction(rng.randint(-9, 9), rng.choice([1, 2])))
            halves += any(z.denominator == 2 for z in pts)
            ws = [(rng.randint(0, 3),) for _ in range(n)]
            zeros += (0,) in ws
            pi = instance("A1", ws, [str(z) for z in sorted(pts)])
            for l in (1, 2, 3) if n <= 3 else (1, 2):
                if sum(w[0] for w in ws) >= 2 * l:
                    got = count_critical_sl2(pi, l)
                    assert got == ring_count_critical_sl2(pi, l), (pi, l)
                    checked.append((l, got))
        assert (len(checked), [l for l, _ in checked].count(3), halves, zeros) == (26, 2, 9, 8)
        assert sum(c for _, c in checked) == 59

    def test_zero_weight_points(self):
        """y at a marked point of weight 0 stays in b.  Two instances mark a
        critical point with weight 0: 2/3, the one of [[2], [1]] at 0, 1, and
        1/2, one of the three of [[1]] x 4 at 0, 1, 3, -2 at l = 1; with b at
        the points of nonzero weight alone they read [1] and [3, 2].  Every
        rotation of the points runs, so each point also comes first."""
        for ws, pts, want in (([(2,), (1,), (0,)], ["0", "1", "3"], [1]),
                              ([(2,), (1,), (0,)], ["0", "1", "2/3"], [0]),
                              ([(1,)] * 4 + [(0,)], ["0", "1", "3", "-2", "1/2"], [2, 2])):
            for k in range(len(pts)):
                pi = instance("A1", ws[k:] + ws[:k], pts[k:] + pts[:k])
                assert [count_critical_sl2(pi, l) for l in range(1, len(want) + 1)] == want

    def test_matches_full_product_bad_locus(self):
        """b, y at every marked point, gives the count of the bad locus of
        sympy's discriminant of y times y at the points of weight 0: a
        seeded A1 battery of 2-5 points with weights 0-2, l <= 2."""
        rng, counts = random.Random(14), []  # (count, a weight is 0)
        for n in (2, 3, 4, 5) * 5:
            ws = [(rng.randint(0, 2),) for _ in range(n)]
            pi = instance("A1", ws, [str(z) for z in seeded_points(rng, n)])
            zeros = [z for w, z in zip(ws, pi.points) if not w[0]]
            for l in (1, 2):
                if sum(w[0] for w in ws) >= 2 * l:
                    counts.append((count_critical_sl2(pi, l), (0,) in ws))
                    assert counts[-1][0] == expr_count_critical_sl2(pi, l, zeros), (pi, l)
        assert len(counts) == 26
        assert sum(zero for _, zero in counts) == 17 and sum(c for c, _ in counts) == 52

    def test_repeated_eliminant_root(self):
        """B is one point, and b vanishes there.  The references' eliminant
        (t+2)^2 (t+4) is not squarefree, and y vanishes at a marked point at
        both of its roots: each root is counted once, and removed once y
        vanishes at one of the points there."""
        pi = instance("A1", [(3,), (1,), (1,)], ["0", "1", "2"])
        assert population_count_report(pi, 2) == (0, 1)
        assert expr_count_critical_sl2(pi, 2) == ring_count_critical_sl2(pi, 2) == 0
        system, coeffs = expr_system(pi, 2)
        x = sympy.Symbol("x")
        y = x**2 + coeffs[1] * x + coeffs[0]
        for some, want in (([], 2), ([1], 1), ([2], 1), ([0, 1, 2], 0)):
            bad = sympy.expand(sympy.prod([y.subs(x, z) for z in some]))
            assert expr_shape_count(system, coeffs, bad, 0) == want, some

    def test_separating_form_retry(self):
        """lam = 0, 1, 2 do not separate the points of the references'
        system, so they count on lam = 3; the count reads no separating
        form."""
        pi = instance("A1", [(1,)] * 4, ["0", "1", "-1", "2"])
        assert count_critical_sl2(pi, 2) == 2 == expr_count_critical_sl2(pi, 2)
        system, coeffs = expr_system(pi, 2)
        bad = sympy.expand(sympy_bad_locus(coeffs, pi.points))
        assert [expr_shape_count(system, coeffs, bad, lam) for lam in SEPARATING_FORMS[:4]] == [
            None, None, None, 2]

    def test_degree_zero(self):
        pi = instance("A1", [(1,), (1,)], ["0", "2"])
        assert count_critical_sl2(pi, 0) == 1
