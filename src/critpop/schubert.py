"""Littlewood-Richardson expansions, the multiplicity upper bound on
population counts, and exact critical-point counts at rank one.

LR expansions are computed by explicit lattice-word tableau enumeration;
the tests cross-check them against a brute-force weight-multiplicity
oracle (Kostka counts fed through an alternating Weyl sum).  The rank-one
count is linear algebra on the Bethe algebra B: the Gaudin operators on
the singular vectors of the weight at infinity, whose dimension is the LR
bound, give the criterion's q over B (Mukhin-Tarasov-Varchenko: B is the
coordinate ring of the intersection of Schubert cells of the paper's last
theorem).  From q follow the monic y over B, the bad element b = the
product of y at the marked points, and the count, the rank of the trace
form Tr(b x x') on B.  Every step works on integer matrices through
`_zrref`, and three run-time checks guard it (see `count_critical_sl2`).
The tests compare the count with sympy's Groebner bases; no module of the
library imports sympy.
"""

from __future__ import annotations

from math import lcm
from operator import mul, sub

from .core import ProblemInstance, _lambda_inf
from .errors import ConstructionFailed
from .poly import _zmul, _zquo, _zrref
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
# A d x d matrix is one row-major list of d*d ints.  The count reads only
# ranks and vanishing, so every operator below is an integer multiple of the
# one it stands for.


def _matmul(a: list[int], b: list[int], d: int) -> list[int]:
    cols = [b[j::d] for j in range(d)]
    return [sum(map(mul, a[i:i + d], c)) for i in range(0, d * d, d) for c in cols]


def _singular_q(ms: list[int], lins: list[tuple[int, int]], f: list[int], l: int):
    """(d, den, qs): d = dim Sing, for the weight-(M - 2l) singular vectors
    of V_{m_1} x ... x V_{m_n}, and qs[k], k = 0..n-2, the x^k coefficient
    of 2 den q(x) on Sing, den > 0, for f = prod_s lins[s].

    V_m has the basis v_0..v_m, f v_j = v_{j+1}, e v_j = j(m - j + 1)
    v_{j-1}, h v_j = (m - 2j) v_j; the weight space has the basis of the j
    with sum j_s = l.  Sing is the kernel of e = sum_s e_s, one `_zrref`,
    with a singular vector's entries at the free columns as coordinates
    (den times the kernel basis is integral).  q is summed in pairs,
    sum_{s<r} (Omega_sr - m_s m_r/2) f(x)/((x - z_s)(x - z_r)), with
    Omega_sr = e_s f_r + f_s e_r + h_s h_r/2: 1/((x - z_s)(x - z_r)) =
    (1/(x - z_s) - 1/(x - z_r))/(z_s - z_r), so no z_s - z_r divides, and
    the x^(n-1) coefficient sum_s (H_s - c_s) = 0 cancels pair by pair.
    Over Z, f/((x - z_s)(x - z_r)) is q_s q_r f/(lins[s] lins[r]) for the
    forms q x - p."""
    tuples = [()]
    for m in ms:
        tuples = [t + (j,) for t in tuples for j in range(min(m, l - sum(t)) + 1)]
    tuples = [t for t in tuples if sum(t) == l]
    index = {t: i for i, t in enumerate(tuples)}
    e_rows: dict = {}
    for i, t in enumerate(tuples):
        for s, j in enumerate(t):
            if j:
                row = e_rows.setdefault(t[:s] + (j - 1,) + t[s + 1:], [0] * len(tuples))
                row[i] = j * (ms[s] - j + 1)
    rows, pivots = _zrref(list(e_rows.values()))
    free = {c: k for k, c in enumerate(c for c in range(len(tuples)) if c not in pivots)}
    d, den = len(free), lcm(*(r[p] for r, p in zip(rows, pivots)))
    basis = [(k, {c: den} | {p: -row[c] * (den // row[p]) for row, p in zip(rows, pivots) if row[c]})
             for c, k in free.items()]
    qs = [[0] * (d * d) for _ in range(len(f) - 2)]
    for s, r in ((s, r) for r in range(len(ms)) for s in range(r)):
        op = [0] * (d * d)  # (2 Omega_sr - m_s m_r) den on Sing
        for k, vec in basis:
            for i, v in vec.items():
                t = tuples[i]
                # h_s h_r, and -m_s m_r for the pair's share of c_s and c_r
                out = [(i, ((ms[s] - 2 * t[s]) * (ms[r] - 2 * t[r]) - ms[s] * ms[r]) * v)]
                for a, b in ((s, r), (r, s)):  # 2 e_a f_b
                    if t[a] and t[b] < ms[b]:
                        u = list(t)
                        u[a], u[b] = t[a] - 1, t[b] + 1
                        out.append((index[tuple(u)], 2 * t[a] * (ms[a] - t[a] + 1) * v))
                for u, w in out:
                    if u in free:
                        op[free[u] * d + k] += w
        coeffs = _zquo(_zquo(f, lins[s]), lins[r])
        for qk, ck in zip(qs, coeffs):
            if ck := ck * lins[s][1] * lins[r][1]:
                qk[:] = [x + ck * y for x, y in zip(qk, op)]
    return d, den, qs


def _cyclic_words(gens: list[list[int]], d: int) -> list[list[int]]:
    """Words X_1 = 1, X_2, ... in `gens` (d x d matrices that commute) with
    X_i v a basis of Q^d for one v = (1, t, ..., t^(d-1)), t < d^2; raises
    `ConstructionFailed` if there is none.

    Each new X v is some generator times an earlier one; the closure under
    the generators is the span of every word on v.  If Q^d is a cyclic
    module of the algebra the generators span, its cyclic vectors are its
    units: v avoids each of the <= d maximal ideals, proper subspaces that
    each hold at most d - 1 points of the moment curve (Vandermonde), so
    one of the first d^2 values of t works."""
    eye = [int(i % (d + 1) == 0) for i in range(d * d)]
    for t in range(d * d):
        vecs, words = [[t**i for i in range(d)]], [eye]
        echelon = vecs[:]  # the span of vecs, reduced
        for w, x in zip(vecs, words):  # both grow while the closure runs
            if len(vecs) == d:
                return words
            for gen in gens:
                u = [sum(map(mul, gen[i:i + d], w)) for i in range(0, d * d, d)]
                if len(rows := _zrref(echelon + [u])[0]) > len(echelon):
                    echelon = rows
                    vecs.append(u)
                    words.append(_matmul(gen, x, d))
    raise ConstructionFailed("no cyclic vector: Sing is not the regular module")


def count_critical_sl2(pi: ProblemInstance, l: int) -> int:
    """Exact number of degree-l critical polynomials of a rank-one instance
    with weights m_s, for 2l <= M = sum_s m_s: monic y of degree l with
    simple roots, none at a marked point, that solve f y'' - g y' = q y for
    a polynomial q, f = prod_s (x - z_s) and g/f = sum_s m_s/(x - z_s) over
    the points of nonzero weight (as in `core.heine_stieltjes_test`).

    The theorem relied on (E. Mukhin, V. Tarasov, A. Varchenko, "Schubert
    calculus and representations of the general linear group", J. Amer.
    Math. Soc. 22 (2009), 909-940, stated for gl_N): for distinct z_s and
    polynomial gl_N weights Lambda_s, Lambda, the Bethe algebra acting on
    the singular vectors of weight Lambda in the tensor product of the
    V_{Lambda_s}(z_s) is isomorphic to the algebra of functions on the
    scheme-theoretic intersection of the Schubert cells of N-planes in
    C[x] with ramification Lambda_s at z_s and Lambda at infinity; a point
    is the kernel of the universal differential operator there.  Here
    N = 2, Lambda_s = (m_s, 0) and Lambda = (M - l, l): the singular vectors
    are Sing, the kernel of e = sum_s e_s on the sl2 weight space of weight
    M - 2l, and the algebra B is generated by 1 and the Gaudin operators
    H_s = sum_{r != s} Omega_sr/(z_s - z_r).  With c_s = sum_{r != s}
    m_s m_r/(2 (z_s - z_r)), the universal operator is d^2 - (g/f) d - q/f
    for q(x) = sum_s (H_s - c_s) f(x)/(x - z_s): on a Bethe vector,
    H_s - c_s = -m_s y'(z_s)/y(z_s) = q(z_s)/f'(z_s) (Reshetikhin-Varchenko
    1995).  A point is the plane of a monic y of degree l and a solution of
    degree M + 1 - l, the intersection of the paper's last theorem, and its
    y is a critical polynomial exactly where it is good.  Four exact steps:

    1. Sing and q over B (`_singular_q`).  Check 1: q's x^(n-2)
       coefficient, sum_{s<r} (Omega_sr - m_s m_r/2) on Sing, is
       -l(M - l + 1), as the Casimirs of V_(M - 2l) and the V_{m_s} make it
       and the criterion's top coefficient needs.  Its x^(n-1) coefficient
       is 0 by the pairing in `_singular_q`.
    2. y over B, top-down: the x^(k+n-2) coefficient of f y'' - g y' - q y
       fixes a_k with the pivot I(k) - I(l) = (l - k)(M - l - k + 1) > 0,
       I(k) = k(k - 1) - Mk; fraction-free, each pivot multiplies the
       coefficients found so far.  Check 2: the n - 2 equations below
       x^(n-2) vanish on Sing.
    3. A basis of B: words in q's coefficients on a vector v
       (`_cyclic_words`).  Check 3, the certificate: if they span Sing,
       a -> a v is injective (B is commutative and faithful on Sing), so
       dim B = dim Sing and Sing is B's regular module, with B's trace.
    4. b = prod_s y(z_s) over every marked point; points of weight 0 enter
       only here.  A solution has simple roots off the points of nonzero
       weight (f != 0 there, and y(x0) = y'(x0) = 0 forces y = 0), and
       exponents 0 and m_s + 1 at z_s (the indicial equation; Ince,
       *Ordinary Differential Equations* (1926), ch. XVI), so b vanishes
       exactly at the bad points.  The count is the number of points of B
       where b != 0, the rank of Hermite's trace form Tr(b X_i X_j)
       (Pedersen-Roy-Szpirglas 1993; Cox-Little-O'Shea, *Using Algebraic
       Geometry*, ch. 2 sec. 5): one `_zrref`.

    A failed check raises `ConstructionFailed`.
    """
    if pi.rd.rank != 1:
        raise ValueError("exact counting is rank-one only")
    pts = [(lam[0], lin) for lam, lin in zip(pi.weights, pi.lins) if lam[0]]
    ms, lins = [m for m, _ in pts], [lin for _, lin in pts]
    big_m, n = sum(ms), len(pts)
    if 2 * l > big_m:
        raise ValueError("exact counting needs 2l <= M")
    if l == 0:
        return 1
    f, g = [1], [0] * n
    for lin in lins:
        f = _zmul(f, lin)
    for m, lin in pts:
        for k, v in enumerate(_zquo(f, lin)):
            g[k] += m * lin[1] * v
    d, den, qs = _singular_q(ms, lins, f, l)
    if not d:
        return 0
    eye = [int(i % (d + 1) == 0) for i in range(d * d)]
    if qs[n - 2] != [-2 * den * f[n] * l * (big_m - l + 1) * x for x in eye]:
        raise ConstructionFailed("q's x^(n-2) coefficient is not -l(M - l + 1)")

    def at(p: list[int], k: int) -> int:
        return p[k] if 0 <= k < len(p) else 0

    a = {l: eye}  # x^i -> its coefficient in B, times one positive integer
    for big_n in range(l + n - 3, -1, -1):
        rest = [0] * (d * d)  # the x^big_n coefficient of 2 den (f y'' - g y' - q y)
        for i, ai in a.items():
            if c := 2 * den * (i * (i - 1) * at(f, big_n - i + 2) - i * at(g, big_n - i + 1)):
                rest = [x + c * y for x, y in zip(rest, ai)]
            if big_n >= i:
                rest = list(map(sub, rest, _matmul(qs[big_n - i], ai, d)))
        k = big_n - n + 2
        if k >= 0:
            pivot = 2 * den * f[n] * (l - k) * (big_m - l - k + 1)
            a = {i: [pivot * x for x in ai] for i, ai in a.items()}
            a[k] = [-x for x in rest]
        elif any(rest):
            raise ConstructionFailed(f"y over the Bethe algebra misses x^{big_n}")
    words = _cyclic_words(qs[:n - 2], d)
    entries = list(zip(*(a[k] for k in range(l + 1))))
    b = eye
    for p, q in pi.lins:  # q^l y(-p/q) for the form q x + p
        powers = [(-p) ** k * q ** (l - k) for k in range(l + 1)]
        b = _matmul(b, [sum(map(mul, powers, e)) for e in entries], d)
    cols = [[v for j in range(d) for v in x[j::d]] for x in words]  # transposed
    form = [[sum(map(mul, bx, xt)) for xt in cols] for bx in (_matmul(b, x, d) for x in words)]
    return len(_zrref(form)[1])


def population_count_report(pi: ProblemInstance, l: int):
    """(exact count, multiplicity bound) for a rank-one instance."""
    lam_inf = _lambda_inf(pi, (l,))
    if lam_inf[0] < 0:
        return 0, 0
    exact = count_critical_sl2(pi, l)
    bound = multiplicity_bound(pi, lam_inf)
    return exact, bound
