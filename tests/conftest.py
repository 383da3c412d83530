import random
import sys
from fractions import Fraction

import pytest

from critpop.core import ProblemInstance, is_generic, monic_tuple
from critpop.errors import ConstructionFailed, NotDivisible, NotInImage
from critpop.fundamental import PolySpace, generating_morphism
from critpop.poly import (ONE, ZERO, Poly, QVec, _zrref, _zscaled, divided_wronskians, gcd,
                          solve_combination, t_ladder, wronskian_minors, wronskian_rows)
from critpop.reproduction import _sample_generic, immediate_descendants
from critpop.roots import reflect, root_data


def instance(code, weights=(), points=()):
    return ProblemInstance(
        root_data(code),
        tuple(tuple(w) for w in weights),
        tuple(Fraction(z) for z in points),
    )


A3W = instance("A3", [(1, 0, 0), (0, 1, 0), (0, 0, 1)], ["0", "1", "3"])
# the (6,8,6) member of the A3W atlas
A3W_686 = tuple(Poly.from_text(t) for t in (
    "54 0 -12 48 0 -56/5 1", "48 -72 -108 96 0 -24 448/15 -48/5 1", "6 -72 84 -40 12 -26/5 1"))


def divided_wronskian(us, ts):
    """Wronskian of us divided exactly by prod_{j<i} T_j^(i-j), i = len(us)."""
    return divided_wronskians(us, [(1 << len(us)) - 1], ts)[0]


def seeded_points(rng, n):
    """Distinct small-height rationals."""
    out = set()
    while len(out) < n:
        out.add(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
    return tuple(sorted(out))


def random_monic(rng, deg):
    return Poly([Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(deg)] + [1])


def random_generic_tuple(rng, pi, max_deg=3, tries=100):
    """Seeded generic tuple for the instance, drawn until `is_generic`
    accepts one.  Fails the test after `tries` draws: a broken genericity
    test rejects every tuple."""
    for _ in range(tries):
        y = monic_tuple(random_monic(rng, rng.randint(0, max_deg)) for _ in range(pi.rd.rank))
        if is_generic(pi, y)[0]:
            return y
    raise AssertionError(f"no generic tuple in {tries} draws")


@pytest.fixture
def rng():
    return random.Random(20240817)


def count_calls(monkeypatch, module, name):
    """Record the arguments of every call to module.name, wherever a critpop
    module binds that function: the defining module, whose own calls go
    through its global, and every module that imported it."""
    calls = []
    fn = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return fn(*args)

    for key, mod in list(sys.modules.items()):
        if key.split(".")[0] == "critpop" and getattr(mod, name, None) is fn:
            monkeypatch.setattr(mod, name, counting)
    return calls


def from_roots(roots):
    """prod_r (x - r), one linear factor per root."""
    out = ONE
    for r in roots:
        out = out * Poly([-Fraction(r), 1])
    return out


def is_squarefree(p):
    """Squarefreeness over Q from the monic gcd of p and p'."""
    if p.is_zero():
        return False
    return p.degree == 0 or gcd(p, p.deriv()).degree == 0


def euclid_gcd(a, b):
    """Monic gcd by Euclid's algorithm over Q: the reference for `gcd`."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else ZERO


def fraction_coeffs(p):
    """The coefficients of p as Fractions, lowest degree first: the view
    that the Fraction references read."""
    return tuple(Fraction(c, p.den) for c in p.num)


def schoolbook_mul(p, q):
    """p q by the Fraction convolution of the coefficients: the reference
    for `Poly.__mul__`."""
    out = [Fraction(0)] * max(len(fraction_coeffs(p)) + len(fraction_coeffs(q)) - 1, 0)
    for i, a in enumerate(fraction_coeffs(p)):
        for j, b in enumerate(fraction_coeffs(q)):
            out[i + j] += a * b
    return Poly(out)


def fraction_divmod(p, q):
    """divmod by long division over Fraction coefficients: the reference for
    `Poly.__divmod__`."""
    rem = list(fraction_coeffs(p))
    dd, dv = len(rem) - 1, len(fraction_coeffs(q)) - 1
    if dd < dv:
        return ZERO, p
    inv = 1 / q.leading()
    quot = [Fraction(0)] * (dd - dv + 1)
    for k in range(dd - dv, -1, -1):
        c = rem[dv + k] * inv
        if c:
            quot[k] = c
            for j, b in enumerate(fraction_coeffs(q)):
                rem[j + k] -= c * b
    return Poly(quot), Poly(rem[:dv])


def fraction_shift(p, z):
    """p(x + z) by summing c_k (x + z)^k over Fraction coefficients: the
    reference for `Poly.shift`."""
    result = [Fraction(0)] * len(fraction_coeffs(p))
    acc = [Fraction(1)]  # (x+z)^k coefficients
    for c in fraction_coeffs(p):
        if c:
            for i, a in enumerate(acc):
                result[i] += c * a
        nxt = [Fraction(0)] * (len(acc) + 1)
        for i, a in enumerate(acc):
            nxt[i] += a * z
            nxt[i + 1] += a
        acc = nxt
    return Poly(result)


def schoolbook_pow(p, n):
    """p**n as n products with `schoolbook_mul`: the reference for
    `Poly.__pow__`."""
    out = ONE
    for _ in range(n):
        out = schoolbook_mul(out, p)
    return out


def laplace_wronskian(gs):
    """W(g_1,...,g_s) by a memoized Laplace expansion over Fraction
    polynomials: the reference for `wronskian`."""
    s = len(gs)
    table = []
    for g in gs:
        row = [g]
        for _ in range(s - 1):
            row.append(row[-1].deriv())
        table.append(row)
    memo = {(): ONE}

    def minor(rows):
        if rows not in memo:
            col, acc = len(rows) - 1, ZERO
            for pos, ri in enumerate(rows):
                term = table[ri][col] * minor(rows[:pos] + rows[pos + 1:])
                acc = acc + term if (len(rows) - 1 - pos) % 2 == 0 else acc - term
            memo[rows] = acc
        return memo[rows]

    return minor(tuple(range(s)))


def fraction_criterion(pi, y):
    """The divisibility criterion over Fraction polynomials, without the
    genericity test: the reference for `heine_stieltjes_test`.

    F_i = prod_s (x - z_s) * prod_{j != i, a_ij != 0} y_j clears every
    denominator of the logarithmic derivative of T_i prod_j y_j^(-a_ij);
    G_i is F_i times it, and y is critical iff y_i divides
    F_i y_i'' - G_i y_i' for every i.
    """
    a, r = pi.rd.cartan, pi.rd.rank
    for i in range(r):
        linked = [j for j in range(r) if j != i and a[i][j] != 0]
        f = from_roots(pi.points)
        for j in linked:
            f = f * y[j]
        g = ZERO
        for lam, z in zip(pi.weights, pi.points):
            if lam[i]:
                g = g + lam[i] * f.exact_div(Poly([-z, 1]))
        for j in linked:
            g = g - a[i][j] * (f.exact_div(y[j]) * y[j].deriv())
        num = f * y[i].deriv().deriv() - g * y[i].deriv()
        if not (num % y[i]).is_zero():
            return False
    return True



def fraction_to_text(p):
    """`Poly.to_text` from the Fraction coefficients: the reference for the
    num/den renderer."""
    if p.is_zero():
        return "0"
    return " ".join(
        str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
        for c in fraction_coeffs(p)
    )


def fraction_str(p):
    """`str(Poly)` from the Fraction coefficients: the reference for the
    num/den renderer."""
    if p.is_zero():
        return "0"
    parts = []
    for i, c in reversed(list(enumerate(fraction_coeffs(p)))):
        if not c:
            continue
        mono = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
        if mono and abs(c) == 1:
            s = mono if c > 0 else f"-{mono}"
        else:
            s = f"{c}{'*' + mono if mono else ''}"
        parts.append(s)
    out = parts[0]
    for q in parts[1:]:
        out += f" - {q[1:]}" if q.startswith("-") else f" + {q}"
    return out

def hook_content_dim(lam, k: int) -> int:
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


def fraction_solve_linear(rows, rhs):
    """Gauss-Jordan over Fractions: the reference for `solve_linear`.

    Returns (particular_solution, kernel_basis) or None if inconsistent.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    pivots: list[int] = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [v * inv for v in a[r]]
        for i in range(m):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [vi - f * vr for vi, vr in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if a[i][n]:
            return None
    sol = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        sol[c] = a[i][n]
    free = [c for c in range(n) if c not in pivots]
    kernel = []
    for f in free:
        vec = [Fraction(0)] * n
        vec[f] = Fraction(1)
        for i, c in enumerate(pivots):
            vec[c] = -a[i][f]
        kernel.append(vec)
    return sol, kernel


def fraction_solve_combination(gens, target):
    """`solve_combination` on Fraction rows read through `p[k]`, one row per
    degree, solved by `fraction_solve_linear`: the reference for the
    integer rows it builds and the integer elimination that solves them."""
    cap = max([int(p.degree) for p in [*gens, target] if p] + [0])
    rows = [[g[k] for g in gens] for k in range(cap + 1)]
    return fraction_solve_linear(rows, [target[k] for k in range(cap + 1)])


def _reduce(p, rows):
    """Normal form of p against rows of distinct degrees: the coefficient at
    every row's degree is cleared, highest first, over Fractions.  Zero iff
    p lies in the span of the rows."""
    for q in sorted(rows, key=lambda q: q.degree, reverse=True):
        c = p[int(q.degree)]
        if c:
            p = p - c / q.leading() * q
    return p


def reduce_span(polys):
    """Canonical reduced span by `_reduce` over Fraction polynomials: the
    reference for `span`."""
    rows = []
    for p in polys:
        p = _reduce(p, rows)
        if not p.is_zero():
            rows.append(p.monic())
    rows.sort(key=lambda q: q.degree, reverse=True)
    return PolySpace(tuple(_reduce(q, rows[k + 1:]) for k, q in enumerate(rows)))


def span(polys) -> PolySpace:
    """Canonical reduced span of the given polynomials: the `_zrref` of
    their numerators, columns from the highest degree down, each row over
    its pivot entry, which is its leading coefficient."""
    nums = [p.num for p in polys]
    n = max(map(len, nums), default=0)
    rows, pivots = _zrref([(0,) * (n - len(a)) + a[::-1] for a in nums])
    return PolySpace(tuple(_zscaled(r[::-1], r[c]) for r, c in zip(rows, pivots)))


def flag_from_basis(space, basis):
    """The canonical adapted basis of the flag of an independent basis
    inside the space: element i is the row of span(basis[:i+1]) of the
    degree that basis[i] adds to span(basis[:i])."""
    canon, part = [], span([])
    for u in basis:
        if not space.contains(u):
            raise ValueError("flag basis element outside the space")
        old, part = part.degrees(), span([*part.basis, u])
        if part.dim == len(old):
            raise ValueError("flag basis is dependent")
        canon.append(next(b for b in part.basis if b.degree not in old))
    return tuple(canon)


def random_flag(rng, space, tries=100):
    """The flag of a random basis of the space, as its `flag_from_basis`
    adapted basis, the coordinates drawn in
    [-3, 3] row by row until `flag_from_basis` accepts them.  Fails the
    test after `tries` draws: a wrong space rejects every basis."""
    n1 = space.dim
    for _ in range(tries):
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(n1)] for _ in range(n1)]
        try:
            return flag_from_basis(space, [space.member(QVec.of(row)) for row in rows])
        except ValueError:
            continue
    raise AssertionError(f"no basis of the space accepted in {tries} draws")


def reduce_flag(basis):
    """Each element reduced by `_reduce` against its predecessors and made
    monic: the reference for `flag_from_basis` on an independent basis."""
    canon = []
    for u in basis:
        canon.append(_reduce(u, canon).monic())
    return tuple(canon)


def reversal_exponents(space, at):
    """Exponents by reversal: x^d p(z + 1/x) has degree d - v when p vanishes
    to order v at z, so the orders are d minus the degrees of the
    `reduce_span` of the reversed shifted basis.  The reference for
    `exponents`; at "inf" the realized degrees."""
    if at == "inf":
        return space.degrees()
    z, d = Fraction(at), max(space.degrees(), default=0)
    rev = reduce_span(Poly((0,) * (d - int(p.degree)) + fraction_coeffs(p.shift(z))[::-1])
                      for p in space.basis)
    assert rev.dim == space.dim
    return sorted(d - e for e in rev.degrees())


def dual_space(space, framing):
    """V+ = span of the omitted divided Wronskians; asserts V++ = V.

    The dual space has reversed exponent gaps, so the second application
    divides by the reversed framing.  `gram` certifies selfduality without
    it; this is the independent reference.
    """
    n1 = space.dim
    dual = span(divided_wronskian(_omit(space.basis, i), framing) for i in range(n1))
    if dual.dim != n1:
        raise ConstructionFailed("dual space has wrong dimension")
    rev = framing[::-1]
    ddual = span(divided_wronskian(_omit(dual.basis, i), rev) for i in range(n1))
    if ddual != space:
        raise ConstructionFailed("double dual differs from the original space")
    return dual


def is_selfdual(space, framing):
    """V = V+ test with the exponent-symmetry fast reject."""
    n = space.dim - 1
    if framing != framing[::-1]:
        return False
    degs = space.degrees()
    gaps = [degs[i + 1] - degs[i] - 1 for i in range(n)]
    if gaps != gaps[::-1]:
        return False
    try:
        return dual_space(space, framing) == space
    except (NotDivisible, ConstructionFailed):
        return False


def _omit(items, i):
    return [items[k] for k in range(len(items)) if k != i]


# -- Bruhat cells and the folded Weyl groups: test certificates of the
# flag-variety picture, with no caller in the library.


def bruhat_index(space, flag):
    """Permutation of the flag against the degree flag, plus its position
    profile (the minimal echelon level of each successive quotient).

    Returns (w, degs) where w is 1-based one-line notation: w_j is the
    level of the degree flag first containing the j-th flag step, and
    degs[j] the matching realized degree (a canonical adapted basis, as
    `flag_from_basis` gives, is reduced).
    """
    pos_of_degree = {d: k + 1 for k, d in enumerate(space.degrees())}
    levels = tuple(int(p.degree) for p in flag)
    return tuple(pos_of_degree[d] for d in levels), levels


def weyl_apply(rd, w, lam):
    """w(lambda) for the word w = s_{w[0]} ... s_{w[-1]}, reflecting by the
    last letter first."""
    for i in reversed(w):
        lam = reflect(rd, i, lam)
    return lam


def shifted_action(rd, w, lam):
    """w . lambda = w(lambda + rho) - rho."""
    return tuple(c - 1 for c in weyl_apply(rd, w, tuple(c + 1 for c in lam)))


def perm_to_weyl(perm):
    """A reduced word of the A_N Weyl element of a 1-based one-line permutation.

    Simple transpositions (i, i+1) correspond to the generating
    reflections, so a bubble-sort decomposition gives a reduced word.
    """
    p = list(perm)
    swaps = []
    changed = True
    while changed:
        changed = False
        for j in range(len(p) - 1):
            if p[j] > p[j + 1]:
                p[j], p[j + 1] = p[j + 1], p[j]
                swaps.append(j)
                changed = True
    return tuple(swaps)


def _perm_mul(p, q):
    """(p q)(i) = p(q(i)); one-line notation over range(n)."""
    return tuple(p[q[i]] for i in range(len(p)))


def _transposition(n, i):
    p = list(range(n))
    p[i], p[i + 1] = p[i + 1], p[i]
    return tuple(p)


def folded_weyl_embed(kind, rank, w):
    """Image of a B_N/C_N Weyl element in the folded symmetric group.

    B_N embeds in S^2N via s_i -> s_i s_{2N-i}, s_N -> s_N; C_N embeds in
    S^(2N+1) via s_i -> s_i s_{2N-i}, s_N -> s_N s_{N+1} s_N.  Images are
    exactly the centro-symmetric permutations (w_i + w_{m+1-i} = m + 1 in
    1-based terms).
    """
    n = rank
    if kind == "B":
        m = 2 * n
        gens = [
            _perm_mul(_transposition(m, i), _transposition(m, m - 2 - i))
            if i < n - 1
            else _transposition(m, n - 1)
            for i in range(n)
        ]
    elif kind == "C":
        m = 2 * n + 1
        gens = []
        for i in range(n - 1):
            gens.append(_perm_mul(_transposition(m, i), _transposition(m, m - 2 - i)))
        sm = _perm_mul(
            _transposition(m, n - 1),
            _perm_mul(_transposition(m, n), _transposition(m, n - 1)),
        )
        gens.append(sm)
    else:
        raise ValueError("kind must be B or C")
    img = tuple(range(m))
    for i in w:
        img = _perm_mul(img, gens[i])
    return img


def is_centro_symmetric(perm):
    m = len(perm)
    return all(perm[i] + perm[m - 1 - i] == m - 1 for i in range(m))


# -- the constructive proof: the reference for the kernel of the operator


def _basis_vector(pi, y, k):
    """u_k of the sibling recursion (1-based k): u_1 = y_1, u_2 solves
    W(y_1, u) = T_1 y_2, and u_{k} = u_{k-1} of the tuple with y_{k-1}
    replaced by a generic sibling."""
    if k == 1:
        return y[0]
    if k == 2:
        return immediate_descendants(pi, monic_tuple(y), 0).base
    fam = immediate_descendants(pi, monic_tuple(y), k - 2)
    want = max(int(fam.base.degree), int(fam.fiber.degree))
    sib, _ = _sample_generic(pi, monic_tuple(y), k - 2, fam, want)
    return _basis_vector(pi, sib, k - 1)


def sibling_fundamental_space(pi, y):
    """The fundamental space by the sibling recursion: builds u_1, ...,
    u_{N+1} from generic siblings and checks the prescribed Wronskian ladder
    W(u_1..u_i) ~ y_i T_1^{i-1} ... T_{i-1} for every i, plus absence of
    base points.  The reference for `fundamental_space`."""
    if pi.rd.kind != "A":
        raise ValueError("fundamental_space expects type-A data")
    y = monic_tuple(y)
    n = wronskian_rows(pi.rd.rank + 1) - 1
    us = [_basis_vector(pi, y, k) for k in range(1, n + 2)]
    ladder = t_ladder(pi.ts)
    prefixes = wronskian_minors(us, [(1 << i) - 1 for i in range(1, n + 2)])
    for i, w in enumerate(prefixes, 1):
        expected = (y[i - 1] if i <= n else ONE) * ladder[i]
        if w.is_zero() or expected.is_zero():
            raise ConstructionFailed("degenerate Wronskian ladder")
        if w.monic() != expected.monic():
            raise ConstructionFailed(f"Wronskian ladder failed at level {i}")
    space = span(us)
    if space.dim != n + 1:
        raise ConstructionFailed("fundamental space has wrong dimension")
    for z in pi.points:
        if all(b.eval(z) == 0 for b in space.basis):
            raise ConstructionFailed(f"base point at {z}")
    return space


def wronskian_flag_from_tuple(space, y, ts):
    """The flag with beta(F) = y, reconstructed greedily: u_{i+1} solves
    W(u_1..u_i, v) / L_{i+1} = c y_{i+1} for v in the space.  The reference
    for `flag_from_tuple`."""
    n = space.dim - 1
    y = monic_tuple(y)
    if len(y) != n:
        raise NotInImage("tuple length does not match the space")
    if not space.contains(y[0]):
        raise NotInImage("y_1 is not a member of the space")
    us = [y[0]]
    for i in range(1, n):
        try:
            cols = [divided_wronskian(us + [b], ts) for b in space.basis]
        except NotDivisible as exc:
            raise NotInImage(str(exc)) from exc
        _, kernel = solve_combination(cols + [-y[i]], Poly())
        pick = next((vec for vec in kernel if vec[-1]), None)
        if pick is None:
            raise NotInImage(f"no flag level matches y_{i + 1}")
        us.append(space.member(QVec.of([a / pick[-1] for a in pick[:-1]])))
    part = span(us)
    us += [b for b in space.basis if not part.contains(b)][:1]
    if len(us) != space.dim:
        raise NotInImage("flag reconstruction did not complete")
    flag = flag_from_basis(space, us)
    if generating_morphism(flag, ts) != y:
        raise NotInImage("reconstructed flag does not map back to the tuple")
    return flag
