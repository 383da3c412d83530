"""Dense univariate polynomials over exact rationals.

A polynomial is a tuple of `Fraction` coefficients ordered from degree 0
upward with no trailing zeros; the zero polynomial is the empty tuple.
This module is the arithmetic substrate for everything else: Wronskians,
divided Wronskians, exact division, gcd, square roots and the linear
solver that every solve over polynomial coefficients goes through.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .errors import IdentityViolated, InvalidInstance, NotDivisible

NEG_INF = float("-inf")  # degree of the zero polynomial


def _frac(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


class Poly:
    """Immutable dense polynomial with Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- basics ---------------------------------------------------------

    @property
    def degree(self):
        """Degree, with -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly([other])
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __getitem__(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    # -- ring operations -------------------------------------------------

    def __add__(self, other) -> "Poly":
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self[i] + other[i] for i in range(n)])

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other) -> "Poly":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "Poly":
        return _as_poly(other) - self

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        other = _as_poly(other)
        if not self.coeffs or not other.coeffs:
            return ZERO
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        result, base = ONE, self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other) -> tuple["Poly", "Poly"]:
        other = _as_poly(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dd, dv = len(rem) - 1, len(other.coeffs) - 1
        if dd < dv:
            return ZERO, self
        inv = 1 / other.leading()
        quot = [Fraction(0)] * (dd - dv + 1)
        for k in range(dd - dv, -1, -1):
            c = rem[dv + k] * inv
            if c:
                quot[k] = c
                for j, b in enumerate(other.coeffs):
                    rem[j + k] -= c * b
        return Poly(quot), Poly(rem[:dv])

    def __mod__(self, other) -> "Poly":
        return divmod(self, other)[1]

    def exact_div(self, other) -> "Poly":
        """Exact quotient; raises NotDivisible on a nonzero remainder."""
        q, r = divmod(self, _as_poly(other))
        if not r.is_zero():
            raise NotDivisible(f"{self} is not divisible by {other}")
        return q

    # -- calculus and helpers ---------------------------------------------

    def deriv(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def eval(self, x):
        """Evaluate by Horner, exactly for int and Fraction inputs."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def monic(self) -> "Poly":
        if self.is_zero():
            raise ValueError("cannot normalize the zero polynomial")
        lc = self.leading()
        return self if lc == 1 else self * (1 / lc)

    def shift(self, z: Fraction) -> "Poly":
        """Taylor rebase: returns p(x + z)."""
        result = [Fraction(0)] * len(self.coeffs)
        acc = [Fraction(1)]  # (x+z)^k coefficients
        for k, c in enumerate(self.coeffs):
            if c:
                for i, a in enumerate(acc):
                    result[i] += c * a
            # acc *= (x + z)
            nxt = [Fraction(0)] * (len(acc) + 1)
            for i, a in enumerate(acc):
                nxt[i] += a * z
                nxt[i + 1] += a
            acc = nxt
        return Poly(result)

    # -- text form ---------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text: space-separated num/den, lowest degree first."""
        if self.is_zero():
            return "0"
        return " ".join(
            str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
            for c in self.coeffs
        )

    @staticmethod
    def from_text(text: str) -> "Poly":
        text = text.strip()
        if text == "0":
            return ZERO
        return Poly([Fraction(tok) for tok in text.split()])

    def __repr__(self) -> str:
        return f"Poly({self.to_text()!r})"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            mono = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
            if mono and abs(c) == 1:
                s = mono if c > 0 else f"-{mono}"
            else:
                s = f"{c}{'*' + mono if mono else ''}"
            parts.append(s)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


def _as_poly(v) -> Poly:
    if isinstance(v, Poly):
        return v
    if isinstance(v, (int, Fraction)):
        return Poly([v])
    raise TypeError(f"cannot coerce {type(v).__name__} to Poly")


ZERO = Poly()
ONE = Poly([1])
X = Poly([0, 1])


def from_roots(roots) -> Poly:
    out = ONE
    for r in roots:
        out = out * Poly([-_frac(r), 1])
    return out


def gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd; gcd(0, 0) = 0."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else ZERO


def is_squarefree(p: Poly) -> bool:
    if p.is_zero():
        return False
    if p.degree == 0:
        return True
    return gcd(p, p.deriv()).degree == 0


def poly_sqrt(p: Poly) -> Poly | None:
    """Exact square root over Q, or None.

    The root is normalized to a positive leading coefficient.
    """
    if p.is_zero():
        return ZERO
    d = p.degree
    if d % 2:
        return None
    lc = p.leading()
    if lc < 0:
        return None
    ln, ld = lc.numerator, lc.denominator
    sn, sd = isqrt(ln), isqrt(ld)
    if sn * sn != ln or sd * sd != ld:
        return None
    m = d // 2
    q = [Fraction(0)] * (m + 1)
    q[m] = Fraction(sn, sd)
    for k in range(m - 1, -1, -1):
        # coefficient of x^(m+k) in q^2 must match p
        s = sum(q[i] * q[m + k - i] for i in range(k + 1, m) if 0 <= m + k - i <= m)
        q[k] = (p[m + k] - s) / (2 * q[m])
    cand = Poly(q)
    return cand if cand * cand == p else None


# -- exact linear algebra over Q ------------------------------------------


def solve_linear(rows: list[list[Fraction]], rhs: list[Fraction]):
    """Solve A x = b exactly by Gaussian elimination.

    Returns (particular_solution, kernel_basis) or None if inconsistent.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [[_frac(v) for v in row] + [_frac(rhs[i])] for i, row in enumerate(rows)]
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


def solve_combination(gens: list[Poly], target: Poly):
    """`solve_linear` for sum_j x_j gens[j] = target, one row per degree."""
    cap = max([int(p.degree) for p in [*gens, target] if p] + [0])
    rows = [[g[k] for g in gens] for k in range(cap + 1)]
    return solve_linear(rows, [target[k] for k in range(cap + 1)])


# -- Wronskians -------------------------------------------------------------


def wronskian(gs: Sequence[Poly]) -> Poly:
    """W(g_1,...,g_s) = det(g_i^{(j-1)}), rows by function, columns by order.

    The empty list returns 1 by convention.
    """
    s = len(gs)
    if s == 0:
        return ONE
    table = []
    for g in gs:
        row, cur = [g], g
        for _ in range(s - 1):
            cur = cur.deriv()
            row.append(cur)
        table.append(row)
    # Laplace expansion along columns with memoization on row subsets;
    # cheap for the orders (s <= 6) used here.
    memo: dict[tuple[int, ...], Poly] = {(): ONE}

    def minor(rows: tuple[int, ...]) -> Poly:
        if rows in memo:
            return memo[rows]
        col = len(rows) - 1
        acc = ZERO
        for pos, ri in enumerate(rows):
            sub = rows[:pos] + rows[pos + 1 :]
            term = table[ri][col] * minor(sub)
            acc = acc + term if (len(rows) - 1 - pos) % 2 == 0 else acc - term
        memo[rows] = acc
        return acc

    return minor(tuple(range(s)))


def divided_wronskian(us: Sequence[Poly], ts: Sequence[Poly]) -> Poly:
    """Wronskian of us divided exactly by prod_{j<i} T_j^(i-j), i = len(us)."""
    i = len(us)
    w = wronskian(us)
    for j in range(1, i):
        w = w.exact_div(ts[j - 1] ** (i - j))
    return w


# -- appendix identity suite -------------------------------------------------


@dataclass
class IdentityReport:
    passed: bool
    trials: int
    checks: dict[str, int]
    counterexample: str | None = None


_FACT = [1, 1, 2, 6, 24, 120, 720]


def _rand_poly(rng: random.Random, max_deg: int, nonzero: bool = True) -> Poly:
    while True:
        deg = rng.randint(0, max_deg)
        p = Poly([rng.randint(-4, 4) for _ in range(deg)] + [rng.randint(1, 4)])
        if not nonzero or not p.is_zero():
            return p


def identity_suite(seed: int, trials: int) -> IdentityReport:
    """Check the five Wronskian identities on seeded random data.

    Orders s <= 4, k <= s, degrees <= 5.  Raises IdentityViolated on the
    first failure (and reports it), since a failure means a bug in
    `wronskian` itself.
    """
    if trials < 1:
        raise InvalidInstance("trials must be >= 1")
    rng = random.Random(seed)
    checks = {"one-in-front": 0, "common-factor": 0, "two-generators": 0,
              "wr-id-2": 0, "wr-id-1": 0}

    def fail(name: str, detail: str):
        raise IdentityViolated(f"{name}: {detail}")

    for _ in range(trials):
        s = rng.randint(1, 4)
        k = rng.randint(0, s)
        gs = [_rand_poly(rng, 5) for _ in range(s + 1)]
        f = _rand_poly(rng, 3)
        g = _rand_poly(rng, 3)

        # W_{s+1}(1, g_1..g_s) = W_s(g_1'..g_s')
        lhs = wronskian([ONE] + gs[:s])
        rhs = wronskian([p.deriv() for p in gs[:s]])
        if lhs != rhs:
            fail("one-in-front", f"s={s} gs={gs[:s]}")
        checks["one-in-front"] += 1

        # W_s(f g_1..f g_s) = f^s W_s(g_1..g_s)
        lhs = wronskian([f * p for p in gs[:s]])
        rhs = f**s * wronskian(gs[:s])
        if lhs != rhs:
            fail("common-factor", f"s={s} f={f}")
        checks["common-factor"] += 1

        # W_{s+1}(f^s, f^{s-1}g, ..., g^s) = (prod i!) W_2(f, g)^{s(s+1)/2}
        lhs = wronskian([f ** (s - i) * g**i for i in range(s + 1)])
        rhs = Fraction(1)
        for i in range(1, s + 1):
            rhs *= _FACT[i]
        rhs = rhs * wronskian([f, g]) ** (s * (s + 1) // 2)
        if lhs != rhs:
            fail("two-generators", f"s={s} f={f} g={g}")
        checks["two-generators"] += 1

        # W_{k+1}(V(s-k+1),...,V(s+1)) = W_{s-k}(g_1..g_{s-k})^k W_{s+1}(g)
        head = gs[: s - k]
        vs = [wronskian(head + [gs[i]]) for i in range(s - k, s + 1)]
        lhs = wronskian(vs)
        rhs = wronskian(head) ** k * wronskian(gs)
        if lhs != rhs:
            fail("wr-id-2", f"s={s} k={k}")
        checks["wr-id-2"] += 1

        # W_{k+1}(W_s(s+1), W_s(s), ..., W_s(s-k+1))
        #   = W_{s-k}(g_1..g_{s-k}) W_{s+1}(g)^k
        ws = [wronskian(gs[:i] + gs[i + 1 :]) for i in range(s + 1)]
        lhs = wronskian([ws[i] for i in range(s, s - k - 1, -1)])
        rhs = wronskian(head) * wronskian(gs) ** k
        if lhs != rhs:
            fail("wr-id-1", f"s={s} k={k}")
        checks["wr-id-1"] += 1

    return IdentityReport(passed=True, trials=trials, checks=checks)
