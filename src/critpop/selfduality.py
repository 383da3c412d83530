"""Selfduality, the canonical bilinear form and isotropic flags.

The framing of a fundamental space is the `ts` of its instance (for B/C,
of the folded instance): T_1..T_N with W(V) = const L_{N+1}, L_{N+1} =
prod_j T_j^(N+1-j) the top of `poly.t_ladder`.  It is passed to
`divided_wronskians` and `generating_morphism` as it is.  For a selfdual
space the pairing (u, v) = W+(u, w_1..w_N), where v = W+(w_1..w_N), is
evaluated exactly.  A `SelfdualSpace` holds the space, its framing and its
Gram matrix, computed once when it is built.  `gram` is the one
selfduality certificate: one Laplace expansion gives the full and the N+1
omitted divided Wronskians, the full one a nonzero constant exactly when
W(V) ~ L_{N+1}, one elimination gives the coordinates of every basis
vector in the omitted ones, and it raises `NotSelfdual` unless the space
equals its dual.  `quasi_witt_basis` takes its prefix and omitted
Wronskians from one expansion too.

The isotropic layer runs over Z.  The Gram matrix is integer numerators
over one denominator, the layout of `Poly`, and so is every coordinate
vector in the echelon basis (a `QVec`).  `SelfdualSpace.gv` forms G v
once per vector; a pairing is then one integer dot product, with the sign
and the zeros of the value, and `form` divides it out only where a value
is wanted.  `is_isotropic` tests those dot products for zero.
`antidiagonal_basis` adjusts a flag's adapted basis by integer corrections
and reads its anti-diagonal values g_j once.  A generator move
(`IsotropicFamily.deformed_basis`) keeps the basis anti-diagonal with the
same g_j, so they are carried from move to move and a move evaluates no
form; `space.member` makes polynomials only where a Wronskian needs them.
Witt normalization is attempted over Q.  Where its scalars are not
rational, the basis is reported as quasi-Witt with its mirror ratios, and
the status names the one case (dimension 6) in which they lie in a single
quadratic extension.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from operator import mul
from typing import NamedTuple

from .errors import ConstructionFailed, NotConstant, NotSelfdual
from .fundamental import PolySpace
from .poly import ZERO, Poly, QVec, _qvec, divided_wronskians, solve_combination


# -- canonical bilinear form ---------------------------------------------------


class GramMatrix(NamedTuple):
    """Canonical bilinear form in the echelon basis of the space:
    (u_i, u_k) = num[i][k] / den, ints over one den > 0 coprime to their
    content.  `entries` makes the `Fraction`s on demand."""

    num: tuple[tuple[int, ...], ...]
    den: int

    @property
    def dim(self) -> int:
        return len(self.num)

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(v, self.den) for v in row) for row in self.num)

    def is_symmetric(self) -> bool:
        e = self.num
        return all(e[i][j] == e[j][i] for i in range(self.dim) for j in range(i, self.dim))

    def is_skew(self) -> bool:
        e = self.num
        return all(e[i][j] == -e[j][i] for i in range(self.dim) for j in range(i, self.dim))


def _constant_of(p: Poly, what: str) -> Fraction:
    if p.is_zero():
        return Fraction(0)
    if p.degree != 0:
        raise NotConstant(f"{what} has positive degree: {p}")
    return p[0]


def gram(space: PolySpace, framing: tuple[Poly, ...]) -> GramMatrix:
    """(u_i, u_k) on the echelon basis, through the dual pairing; the
    selfduality certificate.

    Writing u_k = sum_j g_j W_j with W_j the j-omitted divided Wronskian,
    the pairing gives (u_i, u_k) = g_i (-1)^i W+(u_1..u_{N+1}) (0-based i).
    All N+1 coordinate vectors come from one elimination: the kernel of the
    columns W_0..W_N, -u_0..-u_N.  Every u_k has coordinates exactly when
    that kernel has a basis (g^(k), e_k), one per k, that is when V lies in
    V+ = span(W_j), that is V = V+ (both have dimension N+1); otherwise
    `NotSelfdual` is raised.  The entries are put over one denominator once,
    here.  They must be skew in even dimension and symmetric in odd.  They
    are nondegenerate without a check: V lies in the span of the N+1
    omitted Wronskians and has dimension N+1, so they are a basis of V, the
    coordinate matrix C is invertible, and the entries are
    diag((-1)^i c) C^T with c != 0.
    """
    n1 = space.dim
    full = (1 << n1) - 1
    w, *wjs = divided_wronskians(space.basis, [full] + [full ^ (1 << j) for j in range(n1)],
                                 framing)
    c = _constant_of(w, "full divided Wronskian")
    if c == 0:
        raise ConstructionFailed("degenerate basis")
    _, kernel = solve_combination(wjs + [-u for u in space.basis], ZERO)
    if [v[n1:] for v in kernel] != [[int(i == k) for i in range(n1)] for k in range(n1)]:
        raise NotSelfdual("space is not selfdual; Gram undefined")
    q = QVec.of([v[i] * (-1) ** i * c for i in range(n1) for v in kernel])
    gm = GramMatrix(tuple(q.num[i * n1:(i + 1) * n1] for i in range(n1)), q.den)
    if n1 % 2 == 1 and not gm.is_symmetric():
        raise ConstructionFailed("odd-dimensional form is not symmetric")
    if n1 % 2 == 0 and not gm.is_skew():
        raise ConstructionFailed("even-dimensional form is not skew")
    return gm


class SelfdualSpace:
    """A selfdual space with its framing, the instance's `ts`, and its
    canonical form.

    The Gram matrix is computed once, when the object is built, and so
    certifies the space selfdual and its Wronskian ~ L_{N+1} of the
    framing; every isotropy test and anti-diagonalization reads its integer
    rows through `gv`.
    """

    def __init__(self, space: PolySpace, framing: tuple[Poly, ...]):
        self.space, self.framing = space, framing
        self.gm = gram(space, framing)

    @property
    def dim(self) -> int:
        return self.space.dim

    def gv(self, v: QVec) -> tuple[int, ...]:
        """G v up to the positive scale gm.den v.den: the integer Gram rows
        times v.num.  (a, v) has the sign and zeros of a.num . gv(v)."""
        return tuple(sum(map(mul, row, v.num)) for row in self.gm.num)

    def form(self, a: QVec, b: QVec) -> Fraction:
        """The canonical form on coordinate vectors in the echelon basis:
        a.num . gv(b) over gm.den a.den b.den."""
        return Fraction(sum(map(mul, a.num, self.gv(b))), self.gm.den * a.den * b.den)


def is_isotropic(sd: SelfdualSpace, u) -> bool:
    """F_i orthogonal to F_{N+1-i}, on the coordinate vectors u (echelon
    basis) of a basis adapted to the flag: they pair to zero whenever the
    1-based indices sum to at most N+1 = dim V.  G u_j is formed once per
    vector, and each pair is one integer dot product tested for zero.
    Isotropy is a property of the flag, so every adapted basis gives the
    same answer."""
    n1 = sd.dim
    gu = [sd.gv(v) for v in u[: n1 - 1]]
    return not any(sum(map(mul, u[i].num, gu[j]))
                   for i in range(n1) for j in range(i, n1 - 1 - i))


# -- quasi-Witt bases -----------------------------------------------------------


class QuasiWittResult(NamedTuple):
    """The quasi-Witt basis q_1..q_{N+1}: its ratios and Witt scalars, and
    `base` and `g`, the `antidiagonal_basis` of the degree flag, kept for
    the sampler; `sd.space.member` maps `base` back to polynomials."""

    ratios: tuple[Fraction, ...]  # a_i with W+(q_1..q_i) = a_i W+(q_1..q_{N+1-i})
    witt_scalars: tuple[Fraction, ...] | None  # rational beta_i per q_i, if they exist
    base: list  # coordinate vectors of q_1..q_{N+1}
    g: QVec  # g_j = (q_j, q_{N+2-j})

    @property
    def status(self) -> str:
        """`witt` when the Witt scalars are rational.  Otherwise B^e has a
        nonzero right-hand side with no rational root (see `_witt_scalars`):
        in dimension 6, the one dimension with e = 2, B lies in Q(sqrt d)
        and the status is `witt-quadratic`; elsewhere it is `quasi`."""
        if self.witt_scalars is not None:
            return "witt"
        return "witt-quadratic" if len(self.base) == 6 else "quasi"


def quasi_witt_basis(sd: SelfdualSpace) -> QuasiWittResult:
    """Decreasing-degree basis satisfying the mirrored relation
    W+(q_1..q_i) = a_i W+(q_1..q_{N+1-i}), plus exact Witt normalization
    when its scalars are rational.

    The basis is the anti-diagonalized degree flag, highest degree first:
    every element pairs to zero with everything except its mirror partner,
    so its flag is isotropic, the mirrored relation holds exactly, and
    every omitted divided Wronskian is an exact multiple of the partner
    element.  Clearing only subtracts lower-degree vectors, so q is canonical.
    """
    n1, full = sd.dim, (1 << sd.dim) - 1
    u, g = antidiagonal_basis(sd, sd.space.basis[::-1])
    q = [sd.space.member(v) for v in u][::-1]
    # W+(q_1..q_i) for i < N+1, then W+ of q without q_i for i <= N
    ws = divided_wronskians(q, [(1 << i) - 1 for i in range(n1)]
                            + [full ^ (1 << i) for i in range(n1 - 1)], sd.framing)
    prefix, omitted = ws[:n1], ws[n1:] + ws[n1 - 1:n1]
    if any(w.is_zero() for w in prefix):
        raise ConstructionFailed("vanishing flag Wronskian")
    ratios = []
    for i in range(1, n1):
        num, den = prefix[i], prefix[n1 - i]
        ratio = num.leading() / den.leading()
        if num != ratio * den:
            raise ConstructionFailed("mirrored Wronskian relation failed")
        ratios.append(ratio)
    gammas = []
    for w, partner in zip(omitted, q[::-1]):
        ratio = w.leading() / partner.leading()
        if w != ratio * partner:
            raise ConstructionFailed("omitted Wronskian is not a partner multiple")
        gammas.append(ratio)
    for i in range(n1):
        if gammas[i] != gammas[n1 - 1 - i]:
            raise ConstructionFailed("asymmetric Witt constants")
    return QuasiWittResult(tuple(ratios), _witt_scalars(gammas), u[::-1],
                           QVec(g.num[::-1], g.den))


def _witt_scalars(gammas: list[Fraction]) -> tuple[Fraction, ...] | None:
    """Rational beta_i with beta_i beta_{N+2-i} = B gamma_i and
    prod beta_j = B, or None.

    Setting beta_i = 1 on the first half forces B^e = 1/prod_{i<=k} gamma_i
    with e = k-1 in even dimension 2k and B^e = 1/prod_all gamma_i with
    e = 2k-1 in odd dimension 2k+1; the remaining scalars follow rationally
    from B, the odd middle one last.  None when B has no rational root.
    The right-hand side is never 0, and e = 2 only in dimension 6 (2k-1 is
    odd), so there a None means B is a square root outside Q.
    """
    n1 = len(gammas)
    k = n1 // 2
    e = k - 1 if n1 % 2 == 0 else 2 * k - 1
    rhs = Fraction(1) / prod(gammas if n1 % 2 else gammas[:k])
    b = nth_root_scalar(rhs, e)
    if b is None:
        return None
    betas = [Fraction(1)] * n1
    for i in range(k):
        betas[n1 - 1 - i] = b * gammas[i]
    if n1 % 2:
        betas[k] = b / prod(betas[:k] + betas[k + 1:])
        if betas[k] ** 2 != b * gammas[k]:
            raise ConstructionFailed("middle Witt scalar inconsistent")
    return tuple(betas)


def nth_root_scalar(q: Fraction, e: int) -> Fraction | None:
    """Exact rational e-th root of q, if one exists."""
    if e == 0:
        return Fraction(1) if q == 1 else None
    if e == 1:
        return q
    sign = 1
    if q < 0:
        if e % 2 == 0:
            return None
        sign, q = -1, -q

    rn, rd = _iroot(q.numerator, e), _iroot(q.denominator, e)
    if rn**e != q.numerator or rd**e != q.denominator:
        return None
    return sign * Fraction(rn, rd)


def _iroot(m: int, e: int) -> int:
    """floor(m^(1/e)) for m >= 0 by integer Newton steps, as math.isqrt does."""
    if m < 2:
        return m
    x = 1 << -(-m.bit_length() // e)  # 2^ceil(bits/e) exceeds the root
    while True:
        y = ((e - 1) * x + m // x ** (e - 1)) // e
        if y >= x:
            return x
        x = y


# -- isotropic one-parameter generators -----------------------------------------


def _axpy(x: QVec, p: int, q: int, y: QVec) -> QVec:
    """The coordinate vector x + (p/q) y, for ints p and q != 0."""
    s, t = q * y.den, p * x.den
    return _qvec([s * a + t * b for a, b in zip(x.num, y.num)], q * x.den * y.den)


def antidiagonal_basis(sd: SelfdualSpace, basis) -> tuple[list, QVec]:
    """Adjust a basis adapted to a flag (element k spans F_k modulo F_{k-1})
    within that flag so the form is anti-diagonal:
    (u_a, u_b) = 0 unless the 1-based indices satisfy a + b = N + 2.
    Returns the coordinate vectors in the echelon basis and the
    anti-diagonal values g_j = (u_j, u_{N+2-j}), read once here; raises
    unless the result is anti-diagonal, which makes the flag isotropic.
    The pairings are integer numerators (see `SelfdualSpace.gv`), whose
    positive scales enter each correction through the vectors' dens."""
    n1 = sd.dim
    u = [sd.space.coords(p) for p in basis]
    gu = [sd.gv(v) for v in u]

    def val(a: int, b: int) -> int:
        return sum(map(mul, u[a].num, gu[b]))

    def clear(b: int, c: int, gj: int, m: int) -> None:
        """u_b -= (c / gj) u_m in values, for numerators c and gj of the
        pairings of u_b and u_m with one vector: their scales differ by the
        dens of u_b and u_m only."""
        u[b] = _axpy(u[b], -c * u[m].den, gj * u[b].den, u[m])
        gu[b] = sd.gv(u[b])

    for b in range(n1 - 1, 0, -1):
        for j in range(n1 - b, b):
            m = n1 - 1 - j  # 0-based partner of j, m < b here
            gj = val(j, m)
            if not gj:
                raise ConstructionFailed("vanishing anti-diagonal entry")
            c = val(j, b)
            if c:
                clear(b, c, gj, m)
        if 2 * (b + 1) > n1 + 1:
            m = n1 - 1 - b
            c = val(b, b)
            if c:
                clear(b, c, 2 * val(b, m), m)
    for a in range(n1):
        for b in range(a, n1):
            on_pair = a + b == n1 - 1
            v = val(a, b)
            if on_pair and not v:
                raise ConstructionFailed("anti-diagonal entry vanished")
            if not on_pair and v:
                raise ConstructionFailed("anti-diagonalization failed")
    return u, QVec.of([sd.form(u[a], u[n1 - 1 - a]) for a in range(n1)])


class IsotropicFamily(NamedTuple):
    """The one-parameter family of isotropic flags moving one level."""

    direction: int  # 1-based, <= k
    base: list  # anti-diagonal adjusted basis, as coordinate vectors
    g: QVec  # its anti-diagonal values g_1..g_{N+1}, from `antidiagonal_basis`

    def deformed_basis(self, c: Fraction) -> list:
        """The moved basis as coordinate vectors, anti-diagonal with the
        values g_j of `base`, so it can be moved again with the same g; for a
        side move, (u_i + c u_{i+1}, u_{N+1-i} + c eps u_{N+2-i})
        = c (eps g_i + g_{i+1}) = 0.  Only ratios of the g_j enter, as
        ratios of their numerators, so no form is evaluated."""
        u = list(self.base)
        n1 = len(u)
        k = n1 // 2
        i0 = self.direction
        a = i0 - 1
        cn, cd = c.numerator, c.denominator
        g = self.g.num  # g[j - 1] is g_j
        if n1 % 2 == 0 and i0 == k:
            u[a] = _axpy(u[a], cn, cd, u[a + 1])
            return u
        if n1 % 2 == 1 and i0 == k:
            bn, bd = -g[k], g[k - 1]  # bb = -g_{k+1} / g_k
            u[a] = _axpy(_axpy(u[a], cn, cd, u[a + 1]), cn * cn * bn, 2 * cd * cd * bd, u[a + 2])
            u[a + 1] = _axpy(u[a + 1], cn * bn, cd * bd, u[a + 2])
            return u
        b = n1 - i0 - 1  # 0-based mirror slot N+1-i0
        u[a] = _axpy(u[a], cn, cd, u[a + 1])
        u[b] = _axpy(u[b], -cn * g[i0], cd * g[i0 - 1], u[b + 1])  # eps = -g_{i0+1} / g_{i0}
        return u


def isotropic_generators(sd: SelfdualSpace, basis, direction: int) -> IsotropicFamily:
    """The degree-`direction` generator family through the isotropic flag of `basis`."""
    k = sd.dim // 2
    if not 1 <= direction <= k:
        raise ValueError(f"direction must be in 1..{k}")
    return IsotropicFamily(direction, *antidiagonal_basis(sd, basis))
