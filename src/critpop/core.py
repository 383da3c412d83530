"""Problem instances and the polynomial criteria for critical points.

A problem instance fixes a root system, dominant integral weights at
distinct rational marked points, and derives the T-polynomials

    T_i(x) = prod_s (x - z_s)^(m_i^(s)),    m_i^(s) = <Lambda_s, alpha_i^vee>.

A candidate critical point is a tuple of monic polynomials; the
divisibility criterion `heine_stieltjes_test` decides whether a generic
tuple represents a critical point.

`is_generic`, `heine_stieltjes_test` and `wronskian_rhs` run over Z[x], in
the integer section of `poly`: the first two decide properties that hold
up to a scalar, so they make no rational at all, and `wronskian_rhs`
applies one rational scale at the end.  Given `changed = i`, `is_generic`
tests only what reads y_i, for a tuple one reproduction step from a generic
one, and returns the verdict of the full test.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import product

from .errors import InvalidInstance, NotGeneric
from .poly import (ONE, Poly, _zderiv, _zgcd, _zmul, _zpoly, _zprem, _zquo, _zscaled, _zsub,
                   parse_rational)
from .roots import _RANK_CAP, _T_DEGREE_CAP, RootData, Weight, root_data

TupleY = tuple[Poly, ...]


class ProblemInstance:
    """Dominant weights at distinct marked points, with T_1..T_N in `ts`,
    the integer forms q x - p of the points p/q in `lins` and their product
    over Z[x] in `lin_prod`.  `==` and `hash` read the root data, weights
    and points."""

    def __init__(self, rd: RootData, weights: tuple[Weight, ...], points: tuple[Fraction, ...]):
        if len(weights) != len(points):
            raise InvalidInstance(f"{len(weights)} weights for {len(points)} marked points")
        if len(set(points)) != len(points):
            raise InvalidInstance("marked points must be distinct")
        for lam in weights:
            if len(lam) != rd.rank:
                raise InvalidInstance(f"weight {lam} does not have rank {rd.rank}")
            if not rd.is_dominant(lam):
                raise InvalidInstance(f"weight {lam} is not dominant")
        deg = max(map(sum, zip(*weights)), default=0)
        if deg > _T_DEGREE_CAP:
            raise InvalidInstance(f"deg T_i is capped at {_T_DEGREE_CAP}, got {deg}")
        self.rd, self.weights, self.points = rd, weights, points
        self.ts: tuple[Poly, ...] = tuple(t_polys(self))
        self.lins = tuple((-z.numerator, z.denominator) for z in points)
        self.lin_prod = tuple(reduce(_zmul, self.lins, [1]))

    def __eq__(self, other):
        return type(other) is ProblemInstance and (
            (self.rd, self.weights, self.points) == (other.rd, other.weights, other.points))

    def __hash__(self):
        return hash((self.rd, self.weights, self.points))

    @staticmethod
    def from_config(cfg: dict) -> "ProblemInstance":
        try:
            code = cfg["root_system"]
            rank = int(code[1:])
            if rank > _RANK_CAP:  # refused before root_data builds an r x r Cartan matrix
                raise InvalidInstance(f"rank is capped at {_RANK_CAP}, got {rank}")
            rd = root_data(code)
        except (IndexError, KeyError, TypeError, ValueError) as exc:
            raise InvalidInstance(f"bad root_system: {exc}") from exc
        weights = cfg.get("weights", [])
        if not isinstance(weights, list) or not all(
            isinstance(w, list) and all(type(c) is int for c in w) for w in weights
        ):
            raise InvalidInstance("weights must be lists of integers")
        points = cfg.get("points", [])
        if not isinstance(points, list) or not all(
            isinstance(z, (str, int)) and not isinstance(z, bool) for z in points
        ):
            raise InvalidInstance("points must be a list of strings or integers")
        try:
            points = tuple(parse_rational(str(z)) for z in points)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInstance(f"bad marked point: {exc}") from exc
        return ProblemInstance(rd, tuple(tuple(w) for w in weights), points)


def monic_tuple(polys) -> TupleY:
    return tuple(p.monic() for p in polys)


def ones_tuple(rd: RootData) -> TupleY:
    return (ONE,) * rd.rank


def degree_vector(y: TupleY) -> tuple[int, ...]:
    return tuple(int(p.degree) if p else 0 for p in y)


def t_polys(pi: ProblemInstance) -> list[Poly]:
    """T_i = prod_s (x - z_s)^<Lambda_s, alpha_i^vee>, one power per point."""
    out = []
    for i in range(pi.rd.rank):
        t = ONE
        for lam, z in zip(pi.weights, pi.points):
            if lam[i]:
                t = t * Poly([-z, 1]) ** lam[i]
        out.append(t)
    return out


def is_generic(pi: ProblemInstance, y: TupleY, changed: int | None = None) -> tuple[bool, str]:
    """Genericity of a tuple: squarefree coordinates, no roots at marked
    points, and no shared roots between linked coordinates.

    Coordinates must avoid every marked point, not only the roots of the
    matching T_i: critical points live where all coordinates and marked
    points are distinct, and the divisibility criterion needs that
    exclusion to characterize them.  The tests run on the primitive
    integer associates of the coordinates: y_i(p/q) = 0 iff q x - p
    divides y_i.

    With `changed = i`, y must be a generic tuple except in coordinate i.
    Then only coordinate i and the pairs (i, j) with a_ij != 0 are tested:
    every other test reads unchanged coordinates and passed, so the verdict
    and the first failure, hence the reason, are those of the full test.
    """
    a, r, lins = pi.rd.cartan, pi.rd.rank, pi.lins
    zs = [_zpoly(p) for p in y]
    for i in range(len(y)) if changed is None else (changed,):
        zp = zs[i]
        if not zp:
            return False, f"y_{i + 1} is zero"
        if len(zp) > 2 and len(_zgcd(zp, _zderiv(zp))) > 1:
            return False, f"y_{i + 1} has a multiple root"
        if any(not _zprem(zp, lin) for lin in lins):
            return False, f"y_{i + 1} vanishes at a marked point"
    for i in range(r):
        for j in range(i + 1, r):
            if (a[i][j] != 0 and changed in (None, i, j)
                    and len(_zgcd(zs[i], zs[j])) > 1):
                return False, f"y_{i + 1} and y_{j + 1} share a root (a_ij != 0)"
    return True, "generic"


def wronskian_rhs(pi: ProblemInstance, y: TupleY, i: int) -> Poly:
    """Right-hand side T_i prod_{j != i} y_j^(-a_ij) of the Wronskian
    equation in direction i (0-based).

    The product of the numerators is expanded over Z[x] and divided once by
    den(T_i) prod den(y_j)^e at the end.
    """
    acc, den = pi.ts[i].num, pi.ts[i].den
    for j in range(pi.rd.rank):
        e = -pi.rd.cartan[i][j] if j != i else 0
        if e:
            for _ in range(e):
                acc = _zmul(acc, y[j].num)
            den *= y[j].den ** e
    return _zscaled(acc, den)


def heine_stieltjes_test(pi: ProblemInstance, y: TupleY) -> bool:
    """Exact divisibility criterion: y represents a critical point iff
    F_i y_i'' - G_i y_i' is divisible by y_i for every direction i, where
    G_i / F_i is the logarithmic derivative of T_i prod_j y_j^(-a_ij).

    It runs over Z[x], with Y_j the primitive integer associate of y_j and
    q_s x - p_s that of x - z_s, z_s = p_s/q_s:

        F_i = prod_s (q_s x - p_s) * prod_{j != i, a_ij != 0} Y_j,
        G_i = sum_s m_i^(s) q_s F_i/(q_s x - p_s) - sum_j a_ij (F_i/Y_j) Y_j'.

    Scaling a factor leaves the logarithmic derivative alone and scaling
    y_i only scales the numerator, so a zero pseudo-remainder of
    F_i Y_i'' - G_i Y_i' by Y_i decides divisibility.  Raises `NotGeneric`,
    with the reason of `is_generic`, on a non-generic tuple.
    """
    ok, reason = is_generic(pi, y)
    if not ok:
        raise NotGeneric(reason)
    a, r, lins = pi.rd.cartan, pi.rd.rank, pi.lins
    zs = [_zpoly(p) for p in y]
    for i, zi in enumerate(zs):
        if len(zi) == 1:
            continue  # a constant divides everything
        linked = [j for j in range(r) if j != i and a[i][j] != 0]
        f = pi.lin_prod
        for j in linked:
            f = _zmul(f, zs[j])
        terms = [(lam[i] * lin[1], _zquo(f, lin))
                 for lam, lin in zip(pi.weights, lins) if lam[i]]
        terms += [(-a[i][j], _zmul(_zquo(f, zs[j]), _zderiv(zs[j]))) for j in linked]
        g = [0] * (len(f) - 1)
        for c, t in terms:
            for k, v in enumerate(t):
                g[k] += c * v
        d1 = _zderiv(zi)
        if _zprem(_zsub(_zmul(f, _zderiv(d1)), _zmul(g, d1)), zi):
            return False
    return True


def _lambda_inf(pi: ProblemInstance, l: tuple[int, ...]) -> Weight:
    """Lambda_inf = sum Lambda_s - sum l_i alpha_i for a degree vector l."""
    lcoords = pi.rd.root_coroot_coords(l)
    return tuple(sum(lam[i] for lam in pi.weights) - c for i, c in enumerate(lcoords))


def weight_at_infinity(pi: ProblemInstance, y: TupleY) -> Weight:
    """Lambda_inf = sum Lambda_s - sum deg(y_i) alpha_i, coroot coordinates."""
    return _lambda_inf(pi, degree_vector(y))


def check_separating(pi: ProblemInstance, l: tuple[int, ...]) -> bool:
    """(2 Lambda_inf + 2 rho + sum c_i alpha_i, sum c_i alpha_i) != 0 for all
    0 <= c <= l with c != 0."""
    rd = pi.rd
    r = rd.rank
    lam_inf = _lambda_inf(pi, l)
    for c in product(*(range(li + 1) for li in l)):
        # (2 lam_inf + 2 rho + gamma, gamma) with gamma = sum c_i alpha_i
        val = 0
        for a in range(r):
            val += c[a] * rd.d[a] * (2 * lam_inf[a] + 2)
            for b in range(r):
                val += c[a] * c[b] * rd.alpha_scalar(a, b)
        if val == 0 and any(c):
            return False
    return True
