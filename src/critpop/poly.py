"""Dense univariate polynomials over exact rationals.

A polynomial is a tuple of `Fraction` coefficients ordered from degree 0
upward with no trailing zeros; the zero polynomial is the empty tuple.
This module is the arithmetic substrate for everything else: Wronskians,
divided Wronskians, exact division, gcd, square roots and the linear
solver that every solve over polynomial coefficients goes through.

One private section works on integer polynomials (int lists, lowest
degree first), so that no Fraction is made in an inner loop.  `Poly`
products and powers run there: each factor is scaled by the lcm d of its
denominators, the integer lists are multiplied, and the one scale
1/(d_a d_b), or 1/d^n for a power, is applied at the end.  `gcd` runs a
primitive remainder sequence there and returns the monic gcd, the
factored-operator check in `fundamental` runs on it end to end, and
`wronskian` expands its determinant there on denominator-cleared rows and
applies the one rational scale at the end.  The population walk uses it
too: `core.is_generic` and `core.heine_stieltjes_test` decide on primitive
integer associates, which needs no scale at all; `core.wronskian_rhs`
expands its product on cleared lists and applies one scale at the end;
`reproduction.solve_wronskian_equation` back-substitutes fraction-free and
makes its rationals only when it returns.

`wronskian` and `Poly.__pow__` use Kronecker substitution: they evaluate
at x = 2^k (`_zpack`), compute on big ints and read the result back as
signed base-2^k digits (`_zunpack`), exactly, since k comes from a bound on
the result's 1-norm.  `_zmul` stays schoolbook: the population walk
multiplies lists of 2-6 coefficients, where packing costs more than it
saves (Kronecker products made the `populate` workload slower).
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import gcd as igcd
from math import isqrt, lcm

from .errors import IdentityViolated, InvalidInstance, NotDivisible

NEG_INF = float("-inf")  # degree of the zero polynomial


def _frac(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


def parse_rational(text: str) -> Fraction:
    """An integer, decimal or a/b text as an exact rational.  Exponent
    notation is refused with ValueError: a few characters such as 1e999999
    would name an integer of arbitrary size."""
    if "e" in text or "E" in text:
        raise ValueError(f"exponent notation in {text!r}")
    return Fraction(text)


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
        (a, da), (b, db) = _zclear(self), _zclear(_as_poly(other))
        return _zscaled(_zmul(a, b), da * db)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        """One big-int power by Kronecker substitution: the cleared integer
        list a is evaluated at 2^k, raised to the n-th power and read back,
        and d^n is applied once.  Every coefficient of a^n is at most
        ||a||_1^n in absolute value, which fixes k (see `_zunpack`)."""
        if n < 0:
            raise ValueError("negative power")
        a, d = _zclear(self)
        k = (sum(map(abs, a)) ** n).bit_length() + 1
        return _zscaled(_zunpack(_zpack(a, k) ** n, k), d**n)

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
        return Poly([parse_rational(tok) for tok in text.split()])

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


# -- integer polynomials ----------------------------------------------------
# Lists of ints, lowest degree first, no trailing zeros; [] is zero.  No
# Fraction enters a loop here.  Where a result is wanted up to a nonzero
# rational scalar, contents are divided out as they appear.


def _zprimitive(a: list[int]) -> list[int]:
    """a divided by its integer content, with a positive leading coefficient."""
    if not a:
        return a
    g = igcd(*a)
    return [c // g for c in a] if a[-1] > 0 else [-c // g for c in a]


def _zclear(p: Poly) -> tuple[list[int], int]:
    """(d p, d) for d the lcm of p's denominators: d p has int coefficients."""
    d = lcm(*(c.denominator for c in p.coeffs))
    return [c.numerator * (d // c.denominator) for c in p.coeffs], d


def _zscaled(a: list[int], d: int) -> Poly:
    """The Poly a / d, made of plain ints when d = 1."""
    return Poly(a if d == 1 else [Fraction(c, d) for c in a])


def _zpoly(p: Poly) -> list[int]:
    """Primitive integer associate of p: denominators cleared, content out."""
    return _zprimitive(_zclear(p)[0])


def _zpack(a: list[int], k: int) -> int:
    """a(2^k), by a shift-Horner loop."""
    v = 0
    for c in reversed(a):
        v = (v << k) + c
    return v


def _zunpack(v: int, k: int) -> list[int]:
    """The int list a with a(2^k) = v, provided every coefficient of a has
    absolute value below 2^(k-1): v is read as signed base-2^k digits, and a
    digit of 2^(k-1) or more is negative and borrows one from the next."""
    out, mask, half = [], (1 << k) - 1, 1 << (k - 1)
    while v:
        c = v & mask
        v >>= k
        if c >= half:
            c -= 1 << k
            v += 1
        out.append(c)
    return out


def _zmul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u:
            for j, v in enumerate(b):
                out[i + j] += u * v
    return out


def _zsub(a: list[int], b: list[int]) -> list[int]:
    out = a + [0] * (len(b) - len(a))
    for j, v in enumerate(b):
        out[j] -= v
    while out and not out[-1]:
        out.pop()
    return out


def _zderiv(a: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(a)][1:]


def _zprem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder: m a - q b of degree below deg b, for some nonzero
    integer m.  Each step scales by lc(b)/g only, g = gcd(lc(r), lc(b))."""
    r, db, lb = list(a), len(b) - 1, b[-1]
    while len(r) > db:
        g = igcd(r[-1], lb)
        m, c, k = lb // g, r[-1] // g, len(r) - 1 - db
        if m != 1:
            r = [m * v for v in r]
        for j, v in enumerate(b):
            r[j + k] -= c * v
        while r and not r[-1]:
            r.pop()
    return r


def _zquo(a: list[int], b: list[int]) -> list[int]:
    """Exact quotient a / b for a primitive divisor b of a; integral by
    Gauss's lemma."""
    if b == [1]:
        return a
    r, db, lb = list(a), len(b) - 1, b[-1]
    q = [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + db] // lb
        if c:
            q[k] = c
            for j, v in enumerate(b):
                r[j + k] -= c * v
    return q


def _zgcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd by the primitive remainder sequence (Collins 1967;
    Knuth, TAOCP vol. 2, 4.6.1, Algorithm E); [] for two zeros."""
    a, b = _zprimitive(a), _zprimitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _zprimitive(_zprem(a, b))
    return a


def gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd; gcd(0, 0) = 0.  The monic gcd is unique, so taking it
    from the primitive gcd over Z gives exactly Euclid's answer over Q."""
    g = _zgcd(_zpoly(a), _zpoly(b))
    return Poly(g).monic() if g else ZERO


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

    The empty list returns 1 by convention.  W is linear in each row, so
    W(c_1 g_1, ..., c_s g_s) = c_1...c_s W(g): row i is scaled by the lcm
    d_i of its denominators, the determinant is expanded over Z[x], and
    the result is that integer Wronskian times 1/(d_1...d_s).

    The expansion runs at x = 2^k (Kronecker substitution): every entry
    becomes one int, each polynomial product one big-int product, and the
    integer Wronskian is read back from its value.  The 1-norm of a
    determinant is at most the permanent of its entries' 1-norms, hence at
    most B = prod_i sum_j ||g_i^(j)||_1, so 2^(k-1) > B makes the read-back
    exact.
    """
    s = len(gs)
    if s == 0:
        return ONE
    table, den, bound = [], 1, 1
    for g in gs:
        cur, d = _zclear(g)
        row = [cur]
        for _ in range(s - 1):
            cur = _zderiv(cur)
            row.append(cur)
        table.append(row)
        den *= d
        bound *= sum(sum(map(abs, a)) for a in row)
    k = bound.bit_length() + 1
    vals = [[_zpack(a, k) for a in row] for row in table]
    # Laplace expansion along columns, memoized on row subsets: minors[m] is
    # the minor on the rows in bit mask m and the first popcount(m) columns,
    # computed after its subsets.  The 2^s minors take s 2^(s-1) products.
    minors = [1] * (1 << s)
    for m in range(1, 1 << s):
        col, acc = m.bit_count() - 1, 0
        # acc = term - acc alternates the signs so the last row enters with +
        for ri in range(s):
            if m >> ri & 1:
                acc = vals[ri][col] * minors[m ^ (1 << ri)] - acc
        minors[m] = acc
    return _zscaled(_zunpack(minors[-1], k), den)


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
