"""Problem instances and the polynomial criteria for critical points.

A problem instance fixes a root system, dominant integral weights at
distinct rational marked points, and derives the T-polynomials

    T_i(x) = prod_s (x - z_s)^(m_i^(s)),    m_i^(s) = <Lambda_s, alpha_i^vee>.

A candidate critical point is a tuple of monic polynomials; the
divisibility criterion `heine_stieltjes_test` decides whether a generic
tuple represents a critical point, and `bethe_residual` provides the
floating-point cross-check directly on the defining equations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import CoincidentCoordinates, InvalidInstance, NotGeneric
from .poly import ONE, Poly, from_roots, gcd, is_squarefree, parse_rational
from .roots import RootData, Weight, root_data

TupleY = tuple[Poly, ...]


@dataclass(frozen=True)
class ProblemInstance:
    """Dominant weights at distinct marked points, with T_1..T_N in `ts`."""

    rd: RootData
    weights: tuple[Weight, ...]
    points: tuple[Fraction, ...]
    ts: tuple[Poly, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.weights) != len(self.points):
            raise InvalidInstance(
                f"{len(self.weights)} weights for {len(self.points)} marked points")
        if len(set(self.points)) != len(self.points):
            raise InvalidInstance("marked points must be distinct")
        for lam in self.weights:
            if len(lam) != self.rd.rank:
                raise InvalidInstance(f"weight {lam} does not have rank {self.rd.rank}")
            if not self.rd.is_dominant(lam):
                raise InvalidInstance(f"weight {lam} is not dominant")
        object.__setattr__(self, "ts", tuple(t_polys(self)))

    @property
    def n(self) -> int:
        return len(self.points)

    @staticmethod
    def from_config(cfg: dict) -> "ProblemInstance":
        try:
            rd = root_data(cfg["root_system"])
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
    """T_i = prod_s (x - z_s)^<Lambda_s, alpha_i^vee>."""
    out = []
    for i in range(pi.rd.rank):
        t = ONE
        for lam, z in zip(pi.weights, pi.points):
            t = t * from_roots([z] * lam[i])
        out.append(t)
    return out


def is_generic(pi: ProblemInstance, y: TupleY) -> tuple[bool, str]:
    """Genericity of a tuple: squarefree coordinates, no roots at marked
    points, and no shared roots between linked coordinates.

    Coordinates must avoid every marked point, not only the roots of the
    matching T_i: critical points live where all coordinates and marked
    points are distinct, and the divisibility criterion needs that
    exclusion to characterize them.
    """
    a = pi.rd.cartan
    for i, p in enumerate(y):
        if p.is_zero():
            return False, f"y_{i + 1} is zero"
        if not is_squarefree(p):
            return False, f"y_{i + 1} has a multiple root"
        if any(p.eval(z) == 0 for z in pi.points):
            return False, f"y_{i + 1} vanishes at a marked point"
    r = pi.rd.rank
    for i in range(r):
        for j in range(i + 1, r):
            if a[i][j] != 0 and gcd(y[i], y[j]).degree > 0:
                return False, f"y_{i + 1} and y_{j + 1} share a root (a_ij != 0)"
    return True, "generic"


def wronskian_rhs(pi: ProblemInstance, y: TupleY, i: int) -> Poly:
    """Right-hand side T_i prod_{j != i} y_j^(-a_ij) of the Wronskian
    equation in direction i (0-based)."""
    rhs = pi.ts[i]
    for j in range(pi.rd.rank):
        if j != i:
            e = -pi.rd.cartan[i][j]
            if e:
                rhs = rhs * y[j] ** e
    return rhs


def _log_deriv_numerator(pi: ProblemInstance, y: TupleY, i: int):
    """F_i and the exact polynomial G_i = F_i * logderiv(T_i prod y_j^-a_ij).

    F_i = prod_s (x - z_s) * prod_{j != i, a_ij != 0} y_j clears every
    denominator of the logarithmic derivative term by term.
    """
    f = from_roots(pi.points)
    r = pi.rd.rank
    linked = [j for j in range(r) if j != i and pi.rd.cartan[i][j] != 0]
    for j in linked:
        f = f * y[j]
    g = Poly()
    # sum_s m_i^(s) / (x - z_s)
    for lam, z in zip(pi.weights, pi.points):
        if lam[i]:
            g = g + lam[i] * f.exact_div(Poly([-z, 1]))
    # - sum_j a_ij y_j' / y_j
    for j in linked:
        g = g - pi.rd.cartan[i][j] * (f.exact_div(y[j]) * y[j].deriv())
    return f, g


def heine_stieltjes_test(pi: ProblemInstance, y: TupleY) -> bool:
    """Exact divisibility criterion: y represents a critical point iff
    F_i y_i'' - G_i y_i' is divisible by y_i for every direction i."""
    ok, reason = is_generic(pi, y)
    if not ok:
        raise NotGeneric(reason)
    for i in range(pi.rd.rank):
        f, g = _log_deriv_numerator(pi, y, i)
        num = f * y[i].deriv().deriv() - g * y[i].deriv()
        if not (num % y[i]).is_zero():
            return False
    return True


def bethe_residual(pi: ProblemInstance, roots: list[list[float]]) -> float:
    """Max |LHS| of the defining equations at a float root assignment.

    `roots[i]` lists the coordinates of color i+1.  All coordinates must be
    distinct from each other within a color, across linked colors, and from
    the marked points.
    """
    zs = [float(z) for z in pi.points]
    eps = 1e-12
    flat = []
    for i, ts in enumerate(roots):
        for t in ts:
            flat.append((i, t))
    for idx, (i, t) in enumerate(flat):
        for j, u in flat[idx + 1 :]:
            if (i == j or pi.rd.cartan[i][j] != 0) and abs(t - u) < eps:
                raise CoincidentCoordinates(f"colliding coordinates {t} and {u}")
        if any(abs(t - z) < eps for z in zs):
            raise CoincidentCoordinates(f"coordinate {t} hits a marked point")
    worst = 0.0
    for i, ts in enumerate(roots):
        for a, t in enumerate(ts):
            acc = 0.0
            for lam, z in zip(pi.weights, zs):
                acc -= pi.rd.weight_alpha_scalar(lam, i) / (t - z)
            for j, us in enumerate(roots):
                scal = pi.rd.alpha_scalar(j, i)
                if j == i:
                    for b, u in enumerate(us):
                        if b != a:
                            acc += scal / (t - u)
                elif scal:
                    for u in us:
                        acc += scal / (t - u)
            worst = max(worst, abs(acc))
    return worst


def weight_at_infinity(pi: ProblemInstance, y: TupleY) -> Weight:
    """Lambda_inf = sum Lambda_s - sum deg(y_i) alpha_i, coroot coordinates."""
    r = pi.rd.rank
    l = degree_vector(y)
    base = [sum(lam[i] for lam in pi.weights) for i in range(r)]
    lcoords = pi.rd.root_coroot_coords(l)
    return tuple(base[i] - lcoords[i] for i in range(r))


def check_separating(pi: ProblemInstance, l: tuple[int, ...]) -> bool:
    """(2 Lambda_inf + 2 rho + sum c_i alpha_i, sum c_i alpha_i) != 0 for all
    0 <= c <= l with c != 0."""
    rd = pi.rd
    r = rd.rank
    base = [sum(lam[i] for lam in pi.weights) for i in range(r)]
    lcoords = rd.root_coroot_coords(l)
    lam_inf = [base[i] - lcoords[i] for i in range(r)]

    def scan(c: list[int], i: int) -> bool:
        if i == r:
            if not any(c):
                return True
            # (2 lam_inf + 2 rho + gamma, gamma) with gamma = sum c_i alpha_i
            val = 0
            for a in range(r):
                val += c[a] * rd.d[a] * (2 * lam_inf[a] + 2)
                for b in range(r):
                    val += c[a] * c[b] * rd.alpha_scalar(a, b)
            return val != 0
        for v in range(l[i] + 1):
            c[i] = v
            if not scan(c, i + 1):
                return False
        c[i] = 0
        return True

    return scan([0] * r, 0)
