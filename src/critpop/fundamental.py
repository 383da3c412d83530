"""Type-A machinery: fundamental spaces, flags, exponents, the operator.

A `PolySpace` is kept in a canonical reduced echelon form (monic basis of
strictly decreasing degrees, each fully reduced against the others), so
space equality is plain basis equality.  A member's coordinates are its
numerators at the pivot degrees, a `QVec` over its denominator, `member`
maps them back by one integer combination, and membership is that round
trip.  The pivot columns of `poly._zrref` on p(x + z) are the exponents at z.

The fundamental space of a critical tuple y is the kernel of its operator
D_y, the same for every member of the population.  `_operator` folds
the first-order factors over Z[x], rightmost first, into
L = (1/D) sum_j n_j d^j; D = n_{N+1} is W(V) by the Frobenius-Polya
factorization (G. Polya, Trans. AMS 24 (1922)), and the Wronskian ladder
W(u_1..u_i) ~ y_i L_i (`poly.t_ladder`) predicts each partial denominator,
so a fold is exact quotients, with no gcd; it is memoized per tuple
prefix, which y's flag levels and its descendants share.  `_kernel`
solves for the polynomial kernel of an operator with `poly._zsolve`, the
solver of the reproduction step's Wronskian equation: of D_y for
`fundamental_space`, and of the k-th partial operator, F_k of the flag
with beta(F) = y, for `flag_from_tuple`.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import lcm, perm

from .core import (
    ProblemInstance,
    TupleY,
    monic_tuple,
    weight_at_infinity,
)
from .errors import ConstructionFailed, NotInImage
from .poly import (ONE, Poly, QVec, _qvec, _zderiv, _zimage, _zindicial, _zmul, _zpoly,
                   _zquo, _zrref, _zscaled, _zsolve, _zsub, divided_wronskians, t_ladder,
                   wronskian_rows)
from .roots import dominant_representative


class PolySpace:
    """Reduced span: monic echelon basis in strictly decreasing degree.
    `==` and `hash` read the basis, which is canonical."""

    def __init__(self, basis: tuple[Poly, ...]):
        self.basis = basis

    def __eq__(self, other):
        return type(other) is PolySpace and self.basis == other.basis

    def __hash__(self):
        return hash((self.basis,))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def degrees(self) -> list[int]:
        """Realized degrees, increasing."""
        return sorted(int(p.degree) for p in self.basis)

    def contains(self, p: Poly) -> bool:
        return self.coords(p) is not None

    def coords(self, p: Poly) -> QVec | None:
        """Coordinates of p in the echelon basis, or None.

        The basis is monic and reduced, so a member's coordinates are its
        coefficients at the pivot degrees: p's numerators there, over p.den."""
        num = p.num
        v = _qvec([num[len(b.num) - 1] if len(b.num) <= len(num) else 0 for b in self.basis],
                  p.den)
        return v if self.member(v) == p else None

    def member(self, v: QVec) -> Poly:
        """sum_k v_k b_k: one integer combination of the basis numerators,
        scaled to their common denominator d, over v.den d."""
        rows, d = self._zbasis
        out = [0] * len(rows[0]) if rows else []
        for x, row in zip(v.num, rows):
            if x:
                for j, c in enumerate(row):
                    out[j] += x * c
        return _zscaled(out, v.den * d)

    @cached_property
    def _zbasis(self) -> tuple[list[list[int]], int]:
        """The basis numerators scaled to their common denominator d, and d."""
        d = lcm(*(b.den for b in self.basis))
        return [[c * (d // b.den) for c in b.num] for b in self.basis], d


# -- fundamental space --------------------------------------------------------


def _kernel(op: list[list[int]]) -> PolySpace:
    """Polynomial solutions of L u = 0, L = (1/n_k) sum_j n_j d^j, by the
    indicial equation at infinity (`poly._zindicial`).

    A member's degree is a root of I, at most deg n_k + k - 1 if the kernel
    V has dimension k (deg W(V) = sum(degrees) - k(k-1)/2).  Each root e, in
    descending order, gives the member x^e + v for the (v, S) of
    `poly._zsolve` on -L x^e, cut at e and made monic, or no member if
    `_zsolve` finds none.  When the kernel has dimension k, every root is
    one of its degrees, and the members are its reduced echelon basis;
    callers check the dimension.
    """
    k = len(op) - 1
    s, lead = _zindicial(op)
    basis = []
    for e in reversed(range(len(op[-1]) + k - 1)):
        if not sum(c * perm(e, j) for j, c in enumerate(lead)):
            f = [0] * (e + s + 1)  # -L x^e, zero at x^(e+s) since I(e) = 0
            _zimage(f, op, e, -1)
            if sol := _zsolve(op, f):
                v, scale = sol  # at least e + 1 entries, v_e = 0
                basis.append(_zscaled(v[:e] + [scale], scale))
    return PolySpace(tuple(basis))


def fundamental_space(pi: ProblemInstance, y: TupleY) -> PolySpace:
    """The (N+1)-dimensional space attached to a type-A critical tuple:
    the kernel of D_y, the `_operator` of (y_1, ..., y_N, 1), checked for
    full dimension and for absence of base points.  The kernel consists of
    polynomials and is the same for every member of the population."""
    if pi.rd.kind != "A":
        raise ValueError("fundamental_space expects type-A data")
    n = wronskian_rows(pi.rd.rank + 1) - 1  # refused before the operator is composed
    op = _operator(pi.ts, (*monic_tuple(y), ONE))
    space = None if op is None else _kernel(op)
    if space is None or space.dim != n + 1:
        raise ConstructionFailed("the operator has no polynomial kernel of full dimension")
    for z in pi.points:
        if all(b.eval(z) == 0 for b in space.basis):
            raise ConstructionFailed(f"base point at {z}")
    return space


# -- exponents and ramification ----------------------------------------------


def exponents(space: PolySpace, at) -> list[int]:
    """Exponents of the space at a finite point or at infinity.

    At a finite z these are the orders of vanishing realized by members:
    the pivot columns of `_zrref` on the coefficients of p(x + z), lowest
    degree first.  At infinity ("inf") they are the realized degrees.
    """
    if at == "inf":
        return space.degrees()
    _, pivots = _zrref([p.shift(at).num for p in space.basis])
    if len(pivots) != space.dim:
        raise ConstructionFailed("dependent basis in exponent computation")
    return pivots


def expected_exponents_finite(pi: ProblemInstance, s: int) -> list[int]:
    """Closed form 0, (L_s+rho, a_1), ..., (L_s+rho, a_1+..+a_N) for type A."""
    lam = pi.weights[s]
    out, acc = [0], 0
    for m in lam:
        acc += m + 1
        out.append(acc)
    return out


def expected_exponents_infinity(pi: ProblemInstance, y: TupleY) -> list[int]:
    """Closed form l~_1, l~_1 + (L~inf+rho, a_1), ... from the dominant member."""
    lam_tilde = dominant_representative(pi.rd, weight_at_infinity(pi, y))
    if lam_tilde is None:
        raise ConstructionFailed("weight at infinity lies on a wall")
    base = [sum(w[i] for w in pi.weights) for i in range(pi.rd.rank)]
    combo = pi.rd.root_combination_of(
        tuple(base[i] - lam_tilde[i] for i in range(pi.rd.rank))
    )
    if combo is None or any(c.denominator != 1 or c < 0 for c in combo):
        raise ConstructionFailed("dominant member degrees are not integral")
    l1 = int(combo[0])
    out, acc = [l1], l1
    for m in lam_tilde:
        acc += m + 1
        out.append(acc)
    return out


def schubert_index_finite(e: list[int]) -> tuple[int, ...]:
    """Non-increasing a-vector at a finite point, from the space's
    `exponents` e there."""
    return tuple(e[j] - j for j in reversed(range(len(e))))


def schubert_index_infinity(space: PolySpace, d: int) -> tuple[int, ...]:
    degs = space.degrees()
    n1 = space.dim
    return tuple(d - (n1 - 1) + i - degs[i] for i in range(n1))


def pluecker_check(space: PolySpace, finite_exps) -> bool:
    """Sum of ramification codimensions equals dim Gr(N+1, C_d[x]), d the
    top degree of the space, given its `exponents` at each finite point."""
    d = max(space.degrees())
    n1 = space.dim
    total = sum(sum(schubert_index_finite(e)) for e in finite_exps)
    total += sum(schubert_index_infinity(space, d))
    return total == n1 * (d - (n1 - 1))


# -- generating morphism ------------------------------------------------------


def generating_morphism(basis, ts) -> TupleY:
    """beta(F): y_i = W(u_1..u_i) / (T_1^{i-1} ... T_{i-1}), projectivized,
    on any basis u adapted to F.  A triangular change of basis only scales
    each prefix Wronskian, and `monic` removes the scale.  The prefixes
    come from one expansion of W(u_1..u_N)."""
    n = len(basis) - 1
    return tuple(w.monic() for w in
                 divided_wronskians(basis[:n], [(1 << i) - 1 for i in range(1, n + 1)], ts))


def flag_from_tuple(space: PolySpace, y: TupleY, ts) -> tuple[Poly, ...]:
    """The unique flag F with beta(F) = y, as its adapted basis: element k
    spans F_k modulo F_{k-1}.  F_k is the kernel of the `_operator` of
    y_1..y_k (Frobenius-Polya), a prefix of D_y, of dimension k and inside
    the space, and element k is the echelon element of F_k of the degree
    that F_{k-1} lacks, monic and reduced."""
    n = space.dim - 1
    y = monic_tuple(y)
    if len(y) != n:
        raise NotInImage("tuple length does not match the space")
    basis, old, ts = [], set(), tuple(ts)
    for k in range(1, n + 1):
        op = _operator(ts, y[:k])
        part = None if op is None else _kernel(op)
        if part is None or part.dim != k:
            raise NotInImage(f"no flag level matches y_{k}")
        basis.append(next(b for b in part.basis if b.degree not in old))
        old = set(part.degrees())
    basis.append(next(b for b in space.basis if b.degree not in old))
    if not all(map(space.contains, basis[:-1])):
        raise NotInImage("the flag of y leaves the space")
    if generating_morphism(basis, ts) != y:
        raise NotInImage("reconstructed flag does not map back to the tuple")
    return tuple(basis)


def verify_dp(pi: ProblemInstance, space: PolySpace, member: TupleY) -> bool:
    """Operator invariance: the operator built from a member, the
    `_operator` of (member, 1), annihilates the space, checked on each
    echelon basis vector by `_apply_factored_operator`."""
    op = _operator(pi.ts, (*member, ONE))
    return op is not None and all(_apply_factored_operator(op, u).is_zero() for u in space.basis)


@lru_cache(maxsize=256)
def _operator(ts: tuple[Poly, ...], y: TupleY) -> tuple[tuple[int, ...], ...] | None:
    """The partial operator after one fold per entry of y, rightmost factor
    first: integer polynomials n_0..n_k, k = len(y), with no common factor
    and L = (1/n_k) sum_j n_j d^j, whose kernel is F_k of the flag with
    beta(F) = y, or None once a fold is not exact.  Memoized, so a tuple
    that shares a prefix with an earlier one reuses its folds.

    L is the product of N+1 monic first-order factors d - R'/R, the k-th
    (k = 0..N, rightmost first) with R = y_{k+1} T_1...T_k / y_k,
    y_0 = y_{N+1} = 1.  Folded in from the right, a factor maps
    (1/D) sum_j n_j d^j to (1/P) sum_j ((n_j' + n_{j-1}) P - n_j P')/D d^j
    for P ~ D R, and D R ~ y_{k+1} L_{k+1} for the ladder of `t_ladder`,
    so P = prim(y_{k+1} L_{k+1}) is read from y alone.  If L annihilates
    an (N+1)-dimensional polynomial space V, every partial operator is
    f -> W(u_1..u_{k+1}, f)/W_{k+1} for a flag u of V (Frobenius-Polya),
    with polynomial numerators and W_{k+1} ~ P, so each new n_j is an exact
    quotient by the primitive D, which `_zquo` checks.  With y_{N+1} = 1
    appended, n_{N+1} ends as the primitive associate of W(V).
    """
    if not y:
        return ((1,),)
    ns = _operator(ts, y[:-1])
    if ns is None:
        return None
    d, p = [*ns[-1]], _zmul(_zpoly(y[-1]), _zpoly(t_ladder(ts)[len(y)]))
    dp = _zderiv(p)
    out = [_zquo(_zsub(_zmul(_zsub(_zderiv(n), [-x for x in prev]), p), _zmul(n, dp)), d)
           for prev, n in zip([(), *ns], ns)]
    return None if None in out else (*map(tuple, out), tuple(p))


def _apply_factored_operator(op, u: Poly) -> Poly:
    """sum_j n_j u^(j) for an operator L = (1/n_k) sum_j n_j d^j of
    `_operator`, on the primitive integer associate of u: n_k L u up to a
    nonzero rational scalar, so it is zero iff L annihilates u."""
    num, z = [], _zpoly(u)
    for n in op:
        if not z:
            break
        num = _zsub(num, _zmul(n, z))
        z = _zderiv(z)
    return _zscaled(num, 1)
