"""Littlewood-Richardson expansions, the multiplicity upper bound on
population counts, and exact critical-point counts at rank one.

LR expansions are computed by explicit lattice-word tableau enumeration;
the tests cross-check them against a brute-force weight-multiplicity
oracle (Kostka counts fed through an alternating Weyl sum).  The rank-one
count reads the distinct critical polynomials off a lex Groebner basis in
shape position.  It works on integer polynomials over Z (dicts of exponent
tuples) with a fraction-free Buchberger algorithm.  The bad locus, where
a critical candidate y has a multiple root or vanishes at a marked point,
is y at the marked points: a solution of the criterion has exponents 0 and
m_s + 1 at z_s and none other than 0 and 1 elsewhere.  It is computed once
the coefficients of y are polynomials in the separating variable t, in
Q[t] on `Poly`, and reduced modulo the eliminant.  The tests compare the
count with sympy's Groebner bases and with the bad locus built on sympy's
discriminant; no module of the library imports sympy.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as igcd
from math import perm
from operator import add, sub

from .core import ProblemInstance, _lambda_inf
from .poly import ONE, ZERO, Poly, _zquo, gcd
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
# Integer polynomials in Z[a_0, ..., a_{l-1}, t], with x in front while the
# criterion is built: {exponent tuple: int} with no zero coefficients, {} for
# zero.  Lex order with x > a_0 > ... > a_{l-1} > t is tuple order, so the
# leading monomial of p is max(p).


def _variables(l: int) -> list[tuple[int, ...]]:
    """The exponents of a_0, ..., a_{l-1} and t."""
    return [(0,) * i + (1,) + (0,) * (l - i) for i in range(l + 1)]


def _divides(m, n) -> bool:
    return all(a <= b for a, b in zip(m, n))


def _add_term_times(p: dict, c: int, d, q: dict):
    """p += c m q for the monomial m with exponents d, in place."""
    for m, v in q.items():
        k = tuple(map(add, m, d))
        w = p.get(k, 0) + c * v
        if w:
            p[k] = w
        else:
            p.pop(k, None)


def _mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for d, c in p.items():
        _add_term_times(out, c, d, q)
    return out


def _normal_form(p: dict, basis: list[tuple[tuple, dict]]) -> dict:
    """The primitive normal form of p modulo `basis`, pairs (lm(g), g) of
    primitive polynomials with positive leading coefficients, fraction-free:
    a term c m with lm(g) | m is cancelled as (lc(g)/k) p - (c/k) (m/lm(g)) g,
    k = gcd(c, lc(g))."""
    p, done = dict(p), {}
    while p:
        m = max(p)
        c = p[m]
        hit = next((h for h in basis if _divides(h[0], m)), None)
        if hit is None:
            done[m] = p.pop(m)
            continue
        lm, g = hit
        k = igcd(c, g[lm])
        if g[lm] != k:
            s = g[lm] // k
            p = {n: s * v for n, v in p.items()}
            done = {n: s * v for n, v in done.items()}
        _add_term_times(p, -(c // k), tuple(map(sub, m, lm)), g)
    if done:  # over its content, with a positive leading coefficient
        g = igcd(*done.values()) if done[max(done)] > 0 else -igcd(*done.values())
        done = {n: c // g for n, c in done.items()}
    return done


def _groebner(polys: list[dict]) -> list[dict]:
    """The reduced lex Groebner basis of the ideal of `polys`, each element
    primitive with a positive leading coefficient, by Buchberger's algorithm
    with normal selection (smallest lcm first) and the Gebauer-Moller
    product and chain criteria (J. Symb. Comp. 6 (1988)); [1] for the unit
    ideal.  The reduced basis over Q is unique, and so is its primitive form."""
    gs: list[tuple[tuple, dict]] = []  # (lm, g) found; `active` indexes the basis
    active: list[int] = []
    pairs: dict[tuple[int, int], tuple] = {}  # (i, j) -> lcm of their leading monomials

    def add(p: dict) -> bool:
        """Reduce p and, unless it is 0, update the basis and the pairs (a
        pair is coprime if its lcm has the degree of the product); True once
        the basis is [1]."""
        h = _normal_form(p, [gs[i] for i in active])
        if not h:
            return False
        lh = max(h)
        if not any(lh):
            gs[:], active[:] = [(lh, h)], [0]
            return True
        lms = [gs[g][0] for g in active]
        new, kept = [(g, lm, tuple(map(max, lh, lm))) for g, lm in zip(active, lms)], []
        for i, (g, lm, L) in enumerate(new):  # a coprime pair stays here to block others
            if (sum(L) == sum(lh) + sum(lm)
                    or not any(_divides(M, L) for *_, M in new[i + 1:] + kept)):
                kept.append((g, lm, L))
        for (i, j), L in list(pairs.items()):  # the chain criterion on the old pairs
            if _divides(lh, L) and all(tuple(map(max, gs[x][0], lh)) != L for x in (i, j)):
                del pairs[i, j]
        gs.append((lh, h))
        pairs.update(((g, len(gs) - 1), L) for g, lm, L in kept if sum(L) != sum(lh) + sum(lm))
        active[:] = [g for g, lm in zip(active, lms) if not _divides(lh, lm)] + [len(gs) - 1]
        return False

    if any(add(p) for p in polys if p):
        return [gs[0][1]]
    while pairs:
        (i, j), L = min(pairs.items(), key=lambda kv: kv[::-1])
        del pairs[i, j]
        (lf, f), (lg, g) = gs[i], gs[j]
        k = igcd(f[lf], g[lg])
        s: dict = {}
        _add_term_times(s, g[lg] // k, tuple(map(sub, L, lf)), f)
        _add_term_times(s, -(f[lf] // k), tuple(map(sub, L, lg)), g)
        if add(s):
            return [gs[0][1]]
    basis = [gs[i] for i in active]
    return sorted((_normal_form(g, [b for b in basis if b[1] is not g]) for _, g in basis),
                  key=max, reverse=True)


def count_critical_sl2(pi: ProblemInstance, l: int) -> int:
    """Exact number of degree-l critical polynomials of a rank-one instance.

    The divisibility criterion is a zero-dimensional polynomial system in
    the coefficients of a monic degree-l polynomial.  Its lex Groebner
    basis must be in shape position (true for generic marked points):
    every coordinate is then a polynomial in the last one, and distinct
    critical polynomials are counted by gcd arithmetic on the squarefree
    eliminant, discarding the locus where the candidate has a multiple
    root or vanishes at a marked point.

    The system is built over Z in the integer polynomials above, never in a
    Fraction: y = x^l + a_{l-1} x^{l-1} + ... + a_0, and the system is read
    off the remainder of f y'' - g y' by the monic y, with f and g cleared
    of denominators (each equation changes by one constant factor); f and g
    are read off the instance's forms q_s x - p_s as in
    `core.heine_stieltjes_test`.

    The bad locus is y(z_s) at every marked point z_s, which `_shape_count`
    takes in Q[t] after the substitution a_i = g_i(t).  A solution of
    f y'' - g y' = q y, with f = prod_s (q_s x - p_s) and
    g/f = sum_s m_s/(x - z_s), has a multiple root exactly where it
    vanishes at a marked point of nonzero weight.  Off the marked points
    f != 0, so a root of multiplicity k >= 2 would leave f y'' with order
    k - 2 at it and g y' - q y with order >= k - 1.  At z_s the exponents
    of the equation are 0 and m_s + 1, the (Lambda_s + rho, alpha) of rank
    one (the indicial equation; Ince, *Ordinary Differential Equations*
    (1926), ch. XVI): a root there has multiplicity m_s + 1.  So the
    discriminant of y times y at the points of weight 0 vanishes exactly
    where y does at some marked point.
    """
    if pi.rd.rank != 1:
        raise ValueError("exact counting is rank-one only")
    if l == 0:
        return 1
    # y = x^l + sum a_i x^i, f and g over Z in the variables x, a_0..a_{l-1}, t
    one, a = (0,) * (l + 1), _variables(l)
    y = {(l, *one): 1} | {(i, *a[i]): 1 for i in range(l)}
    g = [0] * (len(pi.lin_prod) - 1)
    for lam, lin in zip(pi.weights, pi.lins):
        for k, v in enumerate(_zquo(pi.lin_prod, lin)):
            g[k] += lam[0] * lin[1] * v
    f, g = ({(k, *one): c for k, c in enumerate(p) if c} for p in (pi.lin_prod, g))
    dy, ddy = ({(i - k, *m): perm(i, k) * c for (i, *m), c in y.items() if i >= k} for k in (1, 2))
    rem = _mul(f, ddy)
    _add_term_times(rem, -1, (0, *one), _mul(g, dy))
    rem = _normal_form(rem, [(max(y), y)])  # y is monic in x, the first variable
    system = [p for i in range(l) if (p := {m[1:]: c for m, c in rem.items() if m[0] == i})]
    if not system:
        raise ValueError("degenerate criterion system")
    for lam in (0, 1, 2, 3, 5, 7, -1, -2, 11, 13, -3, 17):
        got = _shape_count(system, pi.points, lam)
        if got is not None:
            return got
    raise ValueError("no separating linear form found")


def _shape_count(system: list[dict], points: tuple[Fraction, ...], lam: int) -> int | None:
    """Distinct good points of a zero-dimensional system via a shape-position
    eliminant in the separating form t = a_{l-1} + lam * (a_0 + 2 a_1 + ...).

    `system` holds integer polynomials in a_0..a_{l-1}, t that do not
    involve t; shape position is read off exponent vectors.  Once every a_i
    is g_i(t) modulo the eliminant, the bad locus is taken in Q[t]: the
    product of y_t(z) = z^l + g_{l-1}(t) z^{l-1} + ... + g_0(t) over the z
    in `points`, each product reduced modulo the eliminant (why this is the
    bad locus: see `count_critical_sl2`).
    """
    l = len(next(iter(system[0]))) - 1
    one, a = (0,) * (l + 1), _variables(l)
    sep = {a[l]: 1, a[l - 1]: -1} | {a[i]: -lam * (i + 1) for i in range(l - 1) if lam}
    gb = _groebner([*system, sep])
    if gb == [{one: 1}]:
        return 0  # inconsistent system: no critical polynomial of this degree
    univ = [p for p in gb if not any(any(m[:l]) for m in p)]
    if len(univ) != 1:
        return None

    def in_t(p: dict) -> Poly:  # p involves t alone
        return Poly([p.get((*one[:l], k), 0) for k in range(max((m[l] for m in p), default=0) + 1)])

    elim, subs = in_t(univ[0]), {}
    for p in gb:
        if p is univ[0]:
            continue
        head = {i for m in p for i in range(l) if m[i]}
        if len(head) != 1:
            return None
        (h,) = head
        # linear in a_h with a constant coefficient: one term involves a_h,
        # and it is c a_h
        lin = [(m, c) for m, c in p.items() if m[h]]
        if len(lin) != 1 or sum(lin[0][0]) != 1:
            return None
        subs[h] = in_t({m: c for m, c in p.items() if not m[h]}) * Fraction(-1, lin[0][1])
    if len(subs) != l:
        return None
    c = [subs[i] for i in range(l)] + [ONE]
    bad_t = ONE
    for z in points:
        bad_t = bad_t * sum((ci * z**i for i, ci in enumerate(c)), ZERO) % elim
    elim_sf = elim.exact_div(gcd(elim, elim.deriv()))
    return elim_sf.degree - gcd(elim_sf, bad_t).degree


def population_count_report(pi: ProblemInstance, l: int):
    """(exact count, multiplicity bound) for a rank-one instance."""
    lam_inf = _lambda_inf(pi, (l,))
    if lam_inf[0] < 0:
        return 0, 0
    exact = count_critical_sl2(pi, l)
    bound = multiplicity_bound(pi, lam_inf)
    return exact, bound
