"""Ramification dictionaries, Littlewood-Richardson numbers, and the
multiplicity upper bound on population counts.

LR coefficients are computed by explicit lattice-word tableau
enumeration; a brute-force weight-multiplicity oracle (Kostka counts fed
through an alternating Weyl sum) provides the independent cross-check,
and a resultant/Groebner solver delivers exact critical-point counts at
rank one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import sympy

from .core import ProblemInstance
from .errors import Inconsistent
from .roots import Weight

Partition = tuple[int, ...]


def _is_partition(a) -> bool:
    return all(a[i] >= a[i + 1] for i in range(len(a) - 1)) and all(x >= 0 for x in a)


# -- ramification dictionaries --------------------------------------------------


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
    lam: Weight


def convert_ramification(
    *,
    d: int,
    point_kind: str,
    a: tuple[int, ...] | None = None,
    m: tuple[int, ...] | None = None,
    lam: Weight | None = None,
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


def lr_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """c^nu_{lam mu} by lattice-word tableau enumeration."""
    lam, mu, nu = tuple(lam), tuple(mu), tuple(nu)
    if sum(nu) != sum(lam) + sum(mu):
        return 0
    rows = max(len(lam), len(mu), len(nu), 1)
    exp = lr_expand(lam, mu, rows)
    return exp.get(tuple(x for x in nu if x), 0)


def hook_content_dim(lam: Partition, k: int) -> int:
    """Dimension of the gl_k module of highest weight lam (hook content)."""
    lam = tuple(x for x in lam if x)
    if len(lam) > k:
        return 0
    num, den = 1, 1
    cols = lam[0] if lam else 0
    conj = [sum(1 for r in lam if r > j) for j in range(cols)]
    for i, row in enumerate(lam):
        for j in range(row):
            hook = (row - j) + (conj[j] - i) - 1
            num *= k + j - i
            den *= hook
    assert num % den == 0
    return num // den


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


@lru_cache(maxsize=None)
def _kostka_weights(lam: Partition, n1: int) -> dict[tuple[int, ...], int]:
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


def multiplicity_oracle(pi_a: ProblemInstance, lam_inf: Weight) -> int:
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


# -- exact rank-one counting ------------------------------------------------------


def count_critical_sl2(pi: ProblemInstance, l: int) -> int:
    """Exact number of degree-l critical polynomials of a rank-one instance.

    The divisibility criterion is a zero-dimensional polynomial system in
    the coefficients of a monic degree-l polynomial.  Its lex Groebner
    basis must be in shape position (true for generic marked points):
    every coordinate is then a polynomial in the last one, and distinct
    critical polynomials are counted by gcd arithmetic on the squarefree
    eliminant, discarding the locus where the candidate has a multiple
    root or vanishes at a marked point.
    """
    if pi.rd.rank != 1:
        raise ValueError("exact counting is rank-one only")
    if l == 0:
        return 1
    x = sympy.Symbol("x")
    f = sympy.prod([x - sympy.Rational(z) for z in pi.points])
    g = sympy.S(0)
    for lam, z in zip(pi.weights, pi.points):
        g += lam[0] * sympy.prod(
            [x - sympy.Rational(w) for w in pi.points if w != z]
        )
    coeffs = list(sympy.symbols(f"a0:{l}"))
    y = x**l + sum(coeffs[i] * x**i for i in range(l))
    num = sympy.expand(f * sympy.diff(y, x, 2) - g * sympy.diff(y, x))
    rem = sympy.rem(num, y, x)
    system = [
        e
        for i in range(l)
        if (e := sympy.expand(sympy.Poly(rem, x).coeff_monomial(x**i))) != 0
    ]
    if not system:
        raise ValueError("degenerate criterion system")
    bad = sympy.discriminant(sympy.Poly(y, x))
    for z in pi.points:
        bad = bad * y.subs(x, sympy.Rational(z))
    for lam in (0, 1, 2, 3, 5, 7, -1, -2, 11, 13, -3, 17):
        got = _shape_count(system, coeffs, sympy.expand(bad), lam)
        if got is not None:
            return got
    raise ValueError("no separating linear form found")


def _shape_count(system, coeffs, bad, lam: int) -> int | None:
    """Distinct good points of a zero-dimensional system via a shape-position
    eliminant in the separating form t = a_{l-1} + lam * (a_0 + ... )."""
    t = sympy.Symbol("t_sep")
    sep = coeffs[-1] + lam * sum(
        (i + 1) * c for i, c in enumerate(coeffs[:-1])
    )
    gens = list(coeffs) + [t]
    gb = sympy.groebner(system + [t - sep], *gens, order="lex")
    if gb.exprs == [1]:
        return 0  # inconsistent system: no critical polynomial of this degree
    univ = [p for p in gb.exprs if p.free_symbols <= {t}]
    if len(univ) != 1:
        return None
    elim = univ[0]
    subs: dict = {}
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
    bad_t = sympy.expand(bad.subs(subs))
    bad_t = sympy.rem(bad_t, elim, t)
    elim_sf = sympy.quo(elim, sympy.gcd(elim, sympy.diff(elim, t)), t)
    overlap = sympy.gcd(elim_sf, bad_t)
    return int(sympy.degree(elim_sf, t) - sympy.degree(overlap, t))


def population_count_report(pi: ProblemInstance, l: int):
    """(exact count, multiplicity bound) for a rank-one instance."""
    lam_inf_val = sum(w[0] for w in pi.weights) - 2 * l
    if lam_inf_val < 0:
        return 0, 0
    exact = count_critical_sl2(pi, l)
    bound = multiplicity_bound(pi, (lam_inf_val,))
    return exact, bound
