"""Dual spaces, selfduality, the canonical bilinear form and isotropic flags.

A framing is the tuple T_1..T_N built from the exponent gaps of the space
at its finite ramification points, with prod_j T_j^(N+1-j) matching the
Wronskian of a basis; it has the type of `ProblemInstance.ts` and is
passed to `divided_wronskian` and `generating_morphism` as it is.  For a
selfdual space the pairing (u, v) = W+(u, w_1..w_N), where
v = W+(w_1..w_N), is evaluated exactly.  A `SelfdualSpace` holds the space,
its framing and its Gram matrix, computed once when it is built.  `gram`
is the one selfduality certificate: it raises `NotSelfdual` unless the
space equals its dual.  `dual_space` and `is_selfdual` compute V+ on
their own, with the V++ = V check; no library path calls them, and they
stay as an independent reference.  The `form` of a `SelfdualSpace`
evaluates its Gram matrix on coordinate vectors in the echelon basis.
The isotropic layer works on these vectors; `space.member` makes
polynomials only where a `Flag` or a Wronskian needs them.  Witt
normalization is attempted over Q and over a single quadratic extension;
otherwise the basis is reported as quasi-Witt with its mirror ratios.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

from .errors import (ConstructionFailed, NotConstant, NotDivisible, NotSelfdual,
                     SquareRootMissing)
from .fundamental import Flag, PolySpace, degree_flag, exponents, generating_morphism, span
from .poly import (ONE, Poly, divided_wronskian, poly_sqrt, solve_combination, solve_linear,
                   wronskian)


# -- scalars in a quadratic extension -----------------------------------------


@dataclass(frozen=True)
class QuadExt:
    """a + b*sqrt(d) with rational a, b and integer d not a perfect square."""

    a: Fraction
    b: Fraction
    d: int

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QuadExt(self.a * other, self.b * other, self.d)
        assert self.d == other.d
        return QuadExt(
            self.a * other.a + self.b * other.b * self.d,
            self.a * other.b + self.b * other.a,
            self.d,
        )

    __rmul__ = __mul__

    def square(self) -> Fraction | None:
        sq = self * self
        return sq.a if sq.b == 0 else None

    def is_rational(self) -> bool:
        return self.b == 0

    def __repr__(self):
        return f"({self.a}+{self.b}*sqrt({self.d}))"


def sqrt_scalar(q: Fraction):
    """Exact sqrt of a nonzero rational: Fraction when perfect, else QuadExt."""
    if q == 0:
        return Fraction(0)
    sign = 1 if q > 0 else -1
    mag = abs(q)
    n, d = mag.numerator, mag.denominator
    sn, sd = isqrt(n), isqrt(d)
    if sign == 1 and sn * sn == n and sd * sd == d:
        return Fraction(sn, sd)
    # sqrt(q) = sqrt(sign * n * d) / d
    return QuadExt(Fraction(0), Fraction(1, d), sign * n * d)


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


# -- framings ------------------------------------------------------------------


def framing_of(space: PolySpace, points) -> tuple[Poly, ...]:
    """T_1..T_N of a space from its exponent gaps at the given finite points.

    Points where every gap is zero contribute nothing.  The framing must
    reproduce the Wronskian of the basis, so a point list that misses a
    ramification point is rejected.
    """
    w = wronskian(list(space.basis))
    if w.is_zero():
        raise ConstructionFailed("degenerate space")
    n = space.dim - 1
    ts = [ONE] * n
    for z in sorted(points):
        e = exponents(space, z)
        for i in range(n):
            gap = e[i + 1] - e[i] - 1
            if gap:
                ts[i] = ts[i] * Poly([-z, 1]) ** gap
    check = ONE
    for j, t in enumerate(ts):
        check = check * t ** (n - j)
    if check.monic() != w.monic():
        raise ConstructionFailed("framing does not reproduce the Wronskian")
    return tuple(ts)


def _omit(items, i):
    return [items[k] for k in range(len(items)) if k != i]


def dual_space(space: PolySpace, framing: tuple[Poly, ...]) -> PolySpace:
    """V+ = span of the omitted divided Wronskians; asserts V++ = V.

    The dual space has reversed exponent gaps, so the second application
    divides by the reversed framing.
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


def is_selfdual(space: PolySpace, framing: tuple[Poly, ...]) -> bool:
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


# -- canonical bilinear form ---------------------------------------------------


@dataclass(frozen=True)
class GramMatrix:
    """Canonical bilinear form in the echelon basis of the space."""

    entries: tuple[tuple[Fraction, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.entries)

    def is_symmetric(self) -> bool:
        e = self.entries
        return all(e[i][j] == e[j][i] for i in range(self.dim) for j in range(i, self.dim))

    def is_skew(self) -> bool:
        e = self.entries
        return all(e[i][j] == -e[j][i] for i in range(self.dim) for j in range(i, self.dim))

    def is_nondegenerate(self) -> bool:
        rows = [list(r) for r in self.entries]
        sol = solve_linear(rows, [Fraction(0)] * self.dim)
        return sol is not None and not sol[1]


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
    Every u_k has such coordinates exactly when V lies in V+ = span(W_j),
    that is V = V+ (both have dimension N+1); otherwise `NotSelfdual` is
    raised.  The entries must form a nondegenerate matrix, skew in even
    dimension and symmetric in odd.
    """
    n1 = space.dim
    c = _constant_of(divided_wronskian(space.basis, framing), "full divided Wronskian")
    if c == 0:
        raise ConstructionFailed("degenerate basis")
    wjs = [divided_wronskian(_omit(space.basis, j), framing) for j in range(n1)]
    coords = []
    for u in space.basis:
        solved = solve_combination(wjs, u)
        if solved is None:
            raise NotSelfdual("space is not selfdual; Gram undefined")
        coords.append(solved[0])
    entries = tuple(
        tuple(coords[k][i] * (-1) ** i * c for k in range(n1)) for i in range(n1)
    )
    gm = GramMatrix(entries)
    if not gm.is_nondegenerate():
        raise ConstructionFailed("canonical form is degenerate")
    if n1 % 2 == 1 and not gm.is_symmetric():
        raise ConstructionFailed("odd-dimensional form is not symmetric")
    if n1 % 2 == 0 and not gm.is_skew():
        raise ConstructionFailed("even-dimensional form is not skew")
    return gm


@dataclass(frozen=True)
class SelfdualSpace:
    """A selfdual space with its framing and canonical form.

    The Gram matrix is computed once, when the object is built, and so
    certifies the space selfdual; every isotropy test, anti-diagonalization
    and generator family reads it through `form`, on coordinate vectors.
    """

    space: PolySpace
    framing: tuple[Poly, ...]
    gm: GramMatrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "gm", gram(self.space, self.framing))

    @property
    def dim(self) -> int:
        return self.space.dim

    def form(self, a, b) -> Fraction:
        """The canonical form on coordinate vectors in the echelon basis."""
        return sum((ai * bk * g for ai, row in zip(a, self.gm.entries) if ai
                    for bk, g in zip(b, row) if bk), Fraction(0))


def is_isotropic(sd: SelfdualSpace, flag: Flag) -> bool:
    """F_i orthogonal to F_{N+1-i}: the adjusted basis pairs to zero
    whenever the 1-based indices sum to at most N+1 = dim V."""
    n1 = sd.dim
    u = [sd.space.coords(p) for p in flag.basis]
    return all(
        not sd.form(u[i], u[j])
        for i in range(n1)
        for j in range(i, n1)
        if (i + 1) + (j + 1) <= n1
    )


# -- quasi-Witt bases -----------------------------------------------------------


@dataclass
class QuasiWittResult:
    flag: Flag
    ratios: tuple[Fraction, ...]  # a_i with W+(q_1..q_i) = a_i W+(q_1..q_{N+1-i})
    witt_polys: tuple[Poly, ...] | None
    witt_scalars: tuple | None  # Fraction or QuadExt per basis element

    @property
    def status(self) -> str:
        if self.witt_polys is None:
            return "quasi"
        if self.witt_scalars and any(
            isinstance(s, QuadExt) and not s.is_rational() for s in self.witt_scalars
        ):
            return "witt-quadratic"
        return "witt"


def quasi_witt_basis(sd: SelfdualSpace) -> QuasiWittResult:
    """Decreasing-degree basis satisfying the mirrored relation
    W+(q_1..q_i) = a_i W+(q_1..q_{N+1-i}), plus opportunistic exact Witt
    normalization over Q or one quadratic extension.

    The basis is the anti-diagonalized degree flag, highest degree first:
    every element pairs to zero with everything except its mirror partner,
    so its flag is isotropic, the mirrored relation holds exactly, and
    every omitted divided Wronskian is an exact multiple of the partner
    element.
    """
    n1, framing = sd.dim, sd.framing
    q = [sd.space.member(v) for v in antidiagonal_basis(sd, degree_flag(sd.space))][::-1]
    prefix = [divided_wronskian(q[:i], framing) for i in range(n1)]  # W+(q_1..q_i)
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
    for i in range(1, n1 + 1):
        w = prefix[n1 - 1] if i == n1 else divided_wronskian(_omit(q, i - 1), framing)
        partner = q[n1 - i]
        ratio = w.leading() / partner.leading()
        if w != ratio * partner:
            raise ConstructionFailed("omitted Wronskian is not a partner multiple")
        gammas.append(ratio)
    for i in range(n1):
        if gammas[i] != gammas[n1 - 1 - i]:
            raise ConstructionFailed("asymmetric Witt constants")
    scalars = _witt_scalars(gammas)
    if scalars is None:
        witt_polys, witt_scalars = None, None
    else:
        witt_polys, witt_scalars = tuple(q), tuple(scalars)
    return QuasiWittResult(Flag.from_basis(sd.space, q), tuple(ratios), witt_polys, witt_scalars)


def _witt_scalars(gammas: list[Fraction]):
    """beta_i beta_{N+2-i} = B gamma_i with prod beta_j = B.

    Setting beta_i = 1 on the first half forces B^(k-1) = 1/prod_{i<=k}
    gamma_i in even dimension 2k and B^(2k-1) = 1/prod_all gamma_i in odd
    dimension 2k+1; the remaining scalars follow rationally from B.
    """
    n1 = len(gammas)
    k = n1 // 2
    if n1 % 2 == 0:
        e = k - 1
        rhs = Fraction(1)
        for i in range(k):
            rhs /= gammas[i]
        if e == 0:
            if rhs != 1:
                return None
            b = Fraction(1)
        else:
            b = nth_root_scalar(rhs, e)
            if b is None and e % 2 == 0:
                root = sqrt_scalar(rhs) if e == 2 else None
                if isinstance(root, QuadExt):
                    b = root
            if b is None:
                return None
        betas: list = [Fraction(1)] * n1
        for i in range(k):
            betas[n1 - 1 - i] = b * gammas[i]
        return betas
    e = 2 * k - 1
    rhs = Fraction(1)
    for g in gammas:
        rhs /= g
    b = nth_root_scalar(rhs, e)
    if b is None:
        return None
    betas = [Fraction(1)] * n1
    for i in range(k):
        betas[n1 - 1 - i] = b * gammas[i]
    prod_pairs = Fraction(1)
    for i in range(n1):
        if i != k:
            prod_pairs *= betas[i]
    betas[k] = b / prod_pairs
    if betas[k] ** 2 != b * gammas[k]:
        raise ConstructionFailed("middle Witt scalar inconsistent")
    return betas


def verify_witt(framing: tuple[Poly, ...], result: QuasiWittResult) -> bool:
    """Exact dar-2 check for rational Witt scalars; quadratic scalars were
    already verified at the scalar level during construction."""
    if result.witt_polys is None or result.witt_scalars is None:
        return False
    if any(isinstance(s, QuadExt) and not s.is_rational() for s in result.witt_scalars):
        return True
    polys = [
        (s if isinstance(s, Fraction) else s.a) * p
        for s, p in zip(result.witt_scalars, result.witt_polys)
    ]
    n1 = len(polys)
    return all(
        divided_wronskian(_omit(polys, n1 - i), framing) == polys[i - 1]
        for i in range(1, n1 + 1)
    )


# -- isotropic one-parameter generators -----------------------------------------


def antidiagonal_basis(sd: SelfdualSpace, flag: Flag) -> list:
    """Adjust the flag basis within its flag so the form is anti-diagonal:
    (u_a, u_b) = 0 unless the 1-based indices satisfy a + b = N + 2.
    Returns coordinate vectors in the echelon basis; raises unless the
    result is anti-diagonal, which makes the flag isotropic."""
    n1 = sd.dim
    u = [sd.space.coords(p) for p in flag.basis]

    def val(a: int, b: int) -> Fraction:
        return sd.form(u[a], u[b])

    for b in range(n1 - 1, 0, -1):
        for j in range(n1 - b, b):
            m = n1 - 1 - j  # 0-based partner of j, m < b here
            gj = val(j, m)
            if not gj:
                raise ConstructionFailed("vanishing anti-diagonal entry")
            c = val(j, b)
            if c:
                u[b] = [x - c / gj * y for x, y in zip(u[b], u[m])]
        if 2 * (b + 1) > n1 + 1:
            m = n1 - 1 - b
            c = val(b, b)
            if c:
                u[b] = [x - c / (2 * val(b, m)) * y for x, y in zip(u[b], u[m])]
    for a in range(n1):
        for b in range(a, n1):
            on_pair = a + b == n1 - 1
            v = val(a, b)
            if on_pair and not v:
                raise ConstructionFailed("anti-diagonal entry vanished")
            if not on_pair and v:
                raise ConstructionFailed("anti-diagonalization failed")
    return u


@dataclass
class IsotropicFamily:
    """The one-parameter family of isotropic flags moving one level."""

    direction: int  # 1-based, <= k
    base: list  # anti-diagonal adjusted basis, as coordinate vectors
    sd: SelfdualSpace

    def _g(self, j: int) -> Fraction:
        """Anti-diagonal value (u_j, u_{N+2-j}), 1-based j."""
        n1 = len(self.base)
        return self.sd.form(self.base[j - 1], self.base[n1 - j])

    def deformed_basis(self, c: Fraction) -> list[Poly]:
        u = [self.sd.space.member(v) for v in self.base]
        n1 = len(u)
        k = n1 // 2
        i0 = self.direction
        a = i0 - 1
        if n1 % 2 == 0 and i0 == k:
            u[a] = u[a] + c * u[a + 1]
            return u
        if n1 % 2 == 1 and i0 == k:
            bb = -self._g(k + 1) / self._g(k)
            u[a] = u[a] + c * u[a + 1] + (c * c * bb / 2) * u[a + 2]
            u[a + 1] = u[a + 1] + c * bb * u[a + 2]
            return u
        eps = -self._g(i0 + 1) / self._g(i0)
        b = n1 - i0 - 1  # 0-based mirror slot N+1-i0
        u[a] = u[a] + c * u[a + 1]
        u[b] = u[b] + c * eps * u[b + 1]
        return u

    def flag_at(self, c: Fraction) -> Flag:
        return Flag.from_basis(self.sd.space, self.deformed_basis(c))

    def tuple_at(self, c: Fraction):
        return generating_morphism(self.sd.space, self.flag_at(c), self.sd.framing)


def isotropic_generators(sd: SelfdualSpace, flag: Flag, direction: int) -> IsotropicFamily:
    """Build the degree-`direction` generator family through an isotropic flag."""
    k = sd.dim // 2
    if not 1 <= direction <= k:
        raise ValueError(f"direction must be in 1..{k}")
    return IsotropicFamily(direction, antidiagonal_basis(sd, flag), sd)


def middle_square_data(fam: IsotropicFamily):
    """For odd dimension 2k+1 and direction k: the middle coordinate of the
    family is a perfect square (p + c q)^2 projectively.

    Returns (p, q, wron) with p monic and wron = W(p, q); raises
    SquareRootMissing when the square structure is absent.
    """
    n1 = fam.sd.dim
    k = n1 // 2
    assert n1 % 2 == 1 and fam.direction == k
    mid = k - 1  # 0-based middle tuple slot (the tuple has 2k coordinates)

    def root_at(c) -> Poly:
        y = fam.tuple_at(Fraction(c))[mid]
        r = poly_sqrt(y)
        if r is None:
            raise SquareRootMissing(f"middle coordinate at c={c} is not a square")
        return r

    p = root_at(0)
    p1, p2 = root_at(1), root_at(2)
    # solve 2*l1*P1 - l2*P2 = p for the joint normalization of the line
    solved = solve_combination([2 * p1, -p2], p)
    if solved is None:
        raise SquareRootMissing("square roots are not collinear")
    l1, _ = solved[0]
    q = l1 * p1 - p
    for c in (1, 2, 3):
        lhs = p + c * q
        if lhs.is_zero() or (lhs.monic()) ** 2 != fam.tuple_at(Fraction(c))[mid]:
            raise SquareRootMissing("square decomposition failed to verify")
    return p, q, wronskian([p, q])
