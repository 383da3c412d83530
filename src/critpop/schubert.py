"""Littlewood-Richardson expansions and the multiplicity upper bound on
population counts.

LR expansions are computed by explicit lattice-word tableau
enumeration; the tests cross-check them against a brute-force
weight-multiplicity oracle (Kostka counts fed through an alternating Weyl
sum), and a lex Groebner basis in shape position delivers exact critical-point
counts at rank one.  That count works on sympy's sparse polynomial rings
over QQ (`sympy.polys.rings`, `groebnertools.groebner`), never on symbolic
expressions, and evaluates the bad locus (the discriminant times y at the
marked points of weight 0) in QQ[t] modulo the eliminant; it is the only
user of sympy, which it imports when called.
"""

from __future__ import annotations

from math import prod

from .core import ProblemInstance, _lambda_inf
from .roots import Weight

Partition = tuple[int, ...]


# -- Littlewood-Richardson ------------------------------------------------------


def _pad(p: Partition, rows: int) -> Partition:
    return tuple(p) + (0,) * (rows - len(p))


def lr_expand(mu: Partition, lam: Partition, max_rows: int) -> dict[Partition, int]:
    """Decompose the product of the Schur functions of mu and lam into Schur
    terms with at most `max_rows` rows.

    Letters 1..len(lam) are added one at a time as horizontal strips (which
    forces column strictness), with the row-wise ballot condition: letter
    k+1 in rows <= r never outnumbers letter k in rows <= r-1.
    """
    lam = tuple(x for x in lam if x)
    out: dict[Partition, int] = {}

    def grow(shape: tuple[int, ...], letter_rows: list[list[int]], k: int):
        if k == len(lam):
            key = tuple(x for x in shape if x)
            out[key] = out.get(key, 0) + 1
            return

        def rec(row: int, left: int, cur: list[int], adds: list[int]):
            if left == 0:
                grow(tuple(cur), letter_rows + [adds + [0] * (max_rows - len(adds))], k + 1)
                return
            if row >= max_rows:
                return
            cap = left if row == 0 else min(left, shape[row - 1] - cur[row])
            if cap < 0:
                return
            for take in range(cap + 1):
                if k > 0:
                    above = sum(letter_rows[k - 1][r] for r in range(row))
                    if sum(adds) + take > above:
                        break
                cur[row] += take
                rec(row + 1, left - take, cur, adds + [take])
                cur[row] -= take

        rec(0, lam[k], list(shape), [])

    grow(_pad(mu, max_rows), [], 0)
    return out


# -- multiplicities --------------------------------------------------------------


def weight_to_partition(lam: Weight) -> Partition:
    """Minimal gl lift of a dominant sl weight (trailing zero row)."""
    r = len(lam)
    return tuple(sum(lam[i:]) for i in range(r)) + (0,)


def multiplicity_bound(pi_a: ProblemInstance, lam_inf: Weight) -> int:
    """Multiplicity of the module of highest weight lam_inf in the tensor
    product of the instance's weight modules (iterated LR expansion)."""
    rd = pi_a.rd
    if rd.kind != "A":
        raise ValueError("multiplicity_bound expects type-A data")
    if not rd.is_dominant(lam_inf):
        raise ValueError("lam_inf must be dominant")
    n1 = rd.rank + 1
    acc: dict[Partition, int] = {(): 1}
    total = 0
    for w in pi_a.weights:
        p = tuple(x for x in weight_to_partition(w) if x)
        total += sum(p)
        nxt: dict[Partition, int] = {}
        for shape, mult in acc.items():
            for nu, c in lr_expand(shape, p, n1).items():
                nxt[nu] = nxt.get(nu, 0) + mult * c
        acc = nxt
    # the unique gl lift of lam_inf with the right total size, if integral
    target_min = weight_to_partition(lam_inf)
    shift, rem = divmod(total - sum(target_min), n1)
    if rem or shift < 0:
        return 0
    target = tuple(x + shift for x in target_min)
    return acc.get(tuple(x for x in target if x), 0)


# -- exact rank-one counting ------------------------------------------------------


def count_critical_sl2(pi: ProblemInstance, l: int) -> int:
    """Exact number of degree-l critical polynomials of a rank-one instance.

    The divisibility criterion is a zero-dimensional polynomial system in
    the coefficients of a monic degree-l polynomial.  Its lex Groebner
    basis must be in shape position (true for generic marked points):
    every coordinate is then a polynomial in the last one, and distinct
    critical polynomials are counted by gcd arithmetic on the squarefree
    eliminant, discarding the locus where the candidate has a multiple
    root or vanishes at a marked point.  That bad locus is evaluated on
    the coordinates in QQ[t] modulo the eliminant, one product at a time,
    so it is never expanded.

    Everything is built on sympy's sparse polynomial rings over QQ, never
    as symbolic expressions: y = x^l + a_{l-1} x^{l-1} + ... + a_0 lives in
    QQ[x, a_0..a_{l-1}, t_sep], the system is read off the remainder of
    f y'' - g y' by the monic y, and the bad locus is the discriminant of
    y in x times y at each marked point of weight 0.  At a marked point z_s
    of weight m_s != 0, f y'' - g y' = q y with y(z_s) = 0 gives
    g(z_s) y'(z_s) = 0, where f(z_s) = 0 and g(z_s) = m_s prod_{r != s}
    (z_s - z_r) != 0; so y has a double root at z_s and the discriminant
    already vanishes there.
    """
    if pi.rd.rank != 1:
        raise ValueError("exact counting is rank-one only")
    if l == 0:
        return 1
    # loaded here: only this count needs sympy, and it is most of a cold start
    from sympy.polys.domains import QQ
    from sympy.polys.orderings import lex
    from sympy.polys.rings import ring

    R, x, *gens = ring(["x", *(f"a{i}" for i in range(l)), "t_sep"], QQ, lex)
    zs = [QQ(z.numerator, z.denominator) for z in pi.points]
    f = prod((x - z for z in zs), start=R.one)
    g = R.zero
    for lam, z in zip(pi.weights, zs):
        g += lam[0] * prod((x - w for w in zs if w != z), start=R.one)
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
    for lam in (0, 1, 2, 3, 5, 7, -1, -2, 11, 13, -3, 17):
        got = _shape_count(system, bad, lam)
        if got is not None:
            return got
    raise ValueError("no separating linear form found")


def _shape_count(system, bad, lam: int) -> int | None:
    """Distinct good points of a zero-dimensional system via a shape-position
    eliminant in the separating form t = a_{l-1} + lam * (a_0 + 2 a_1 + ...).

    `system` and `bad` lie in the lex ring QQ[a_0..a_{l-1}, t_sep] and do not
    involve t_sep; shape position is read off exponent vectors.
    """
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


def population_count_report(pi: ProblemInstance, l: int):
    """(exact count, multiplicity bound) for a rank-one instance."""
    lam_inf = _lambda_inf(pi, (l,))
    if lam_inf[0] < 0:
        return 0, 0
    exact = count_critical_sl2(pi, l)
    bound = multiplicity_bound(pi, lam_inf)
    return exact, bound
