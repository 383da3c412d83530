"""Dense univariate polynomials over exact rationals.

A `Poly` is an integer numerator over one common denominator, the layout
of FLINT's `fmpq_poly`: `num` is a tuple of ints ordered from degree 0
upward with no trailing zeros, and `den` is a positive int coprime to the
content of `num`.  That form is canonical, so equality and hashing compare
`(num, den)`; the zero polynomial is `((), 1)`.  The `Fraction`
coefficients `p[k]` and `leading` are made on demand.  This module is
the arithmetic substrate for everything else: Wronskians, divided
Wronskians, exact division, gcd, square roots, the one elimination,
`_zrref` over Z, that `solve_linear` and `fundamental.exponents` go
through, and the one solver of L u = f for polynomial u, `_zsolve`, that
the Wronskian equation of a reproduction step and the operator kernels
of `fundamental` share.  `QVec` keeps a rational vector in the same
layout, and `solve_combination` hands `solve_linear` integer rows scaled
to one common denominator.

Every ring operation works on the numerators over Z and makes one
canonical `Poly` at the end (`_zscaled`: one gcd and a sign fix).  Sums
scale to the lcm of the denominators, products multiply numerators and
denominators, and `divmod` pseudo-divides the numerators.  The private
integer section (int lists, lowest degree first) serves the callers that
want a result only up to a scalar: `gcd` runs a primitive remainder
sequence there and returns the monic gcd, the factored-operator check in
`fundamental` runs on it end to end (`_zquo` checks and takes its
exact quotients in one pass), and `core.is_generic` and
`core.heine_stieltjes_test` decide on primitive integer associates.
`core.wronskian_rhs` and `reproduction.solve_wronskian_equation` read
`num` and `den` and make one `Poly` at the end.

`wronskian_minors` and `Poly.__pow__` use Kronecker substitution: they
evaluate at x = 2^k (`_zpack`), compute on big ints and read the result
back as signed base-2^k digits (`_zunpack`), exactly, since k comes from a
bound on the result's 1-norm.  `_zmul` stays schoolbook: the population
walk multiplies lists of 2-6 coefficients, where packing costs more than
it saves (Kronecker products made the `populate` workload slower).

One memoized Laplace expansion forms the Wronskian of every sublist of a
basis (`wronskian_minors`; `wronskian` is its full-mask case), and
`divided_wronskians` divides each by its entry of one `t_ladder`.  The
identity suite, this expansion's oracle, reads its right-hand sides from
one expansion per trial and its left sides from separate `wronskian` calls.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from math import gcd as igcd
from math import isqrt, lcm, perm, prod
from operator import mul
from typing import NamedTuple

from .errors import IdentityViolated, InvalidInstance, NotDivisible

NEG_INF = float("-inf")  # degree of the zero polynomial
# `wronskian_minors` builds 2^s minors, and their cost grows with the rows'
# density: on one core, W(1, x, ..., x^12) takes about 0.1 s, and 13 dense
# rows of degree 19 with coefficients in -9..9 take 17-30 s
_WRONSKIAN_ROW_CAP = 13


def parse_rational(text: str) -> Fraction:
    """An integer, decimal or a/b text as an exact rational.  Exponent
    notation is refused with ValueError: a few characters such as 1e999999
    would name an integer of arbitrary size."""
    if "e" in text or "E" in text:
        raise ValueError(f"exponent notation in {text!r}")
    return Fraction(text)


class Poly:
    """Immutable dense polynomial num/den: `num` a tuple of ints (lowest
    degree first, no trailing zeros), `den` an int > 0 with
    gcd(content(num), den) = 1.  Built from ints and Fractions (any values
    with `numerator` and `denominator`); the zero polynomial is ((), 1)."""

    __slots__ = ("num", "den")

    def __new__(cls, coeffs=()):
        cs = tuple(coeffs)
        d = lcm(*(c.denominator for c in cs))
        return _zscaled([c.numerator * (d // c.denominator) for c in cs], d)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- basics ---------------------------------------------------------

    @property
    def degree(self):
        """Degree, with -inf for the zero polynomial."""
        return len(self.num) - 1 if self.num else NEG_INF

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        if type(other) is not Poly:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = _as_poly(other)
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __getitem__(self, k: int) -> Fraction:
        return Fraction(self.num[k], self.den) if 0 <= k < len(self.num) else Fraction(0)

    def leading(self) -> Fraction:
        if not self.num:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.num[-1], self.den)

    # -- ring operations -------------------------------------------------

    def __add__(self, other) -> "Poly":
        """The numerators scaled to the lcm d of the denominators, added, over d."""
        other = _as_poly(other)
        d = lcm(self.den, other.den)
        m, n = d // self.den, d // other.den
        out = [m * c for c in self.num] + [0] * (len(other.num) - len(self.num))
        for j, c in enumerate(other.num):
            out[j] += n * c
        return _zscaled(out, d)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _zscaled([-c for c in self.num], self.den)

    def __sub__(self, other) -> "Poly":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "Poly":
        return _as_poly(other) - self

    def __mul__(self, other) -> "Poly":
        if type(other) is not Poly:
            other = _as_poly(other)
        return _zscaled(_zmul(self.num, other.num), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        """One big-int power by Kronecker substitution: num is evaluated at
        2^k, raised to the n-th power and read back, over den^n.  Every
        coefficient of num^n is at most ||num||_1^n in absolute value, which
        fixes k (see `_zunpack`)."""
        if n < 0:
            raise ValueError("negative power")
        k = (sum(map(abs, self.num)) ** n).bit_length() + 1
        return _zscaled(_zunpack(_zpack(self.num, k) ** n, k), self.den**n)

    def __divmod__(self, other) -> tuple["Poly", "Poly"]:
        """Pseudo-division of the numerators as in `_zprem`, tracking q and
        the scale s with s num_a = q num_b + r; then the quotient is
        q den_b / (s den_a) and the remainder r / (s den_a)."""
        other = _as_poly(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        b, db = other.num, len(other.num) - 1
        r, q, s = list(self.num), [0] * (len(self.num) - db), self.den
        while len(r) > db:
            g = igcd(r[-1], b[-1])
            m, c, k = b[-1] // g, r[-1] // g, len(r) - 1 - db
            if m != 1:
                r, q, s = [m * v for v in r], [m * v for v in q], s * m
            q[k] = c
            for j, v in enumerate(b):
                r[j + k] -= c * v
            while r and not r[-1]:
                r.pop()
        return _zscaled([other.den * c for c in q], s), _zscaled(r, s)

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
        return _zscaled(_zderiv(self.num), self.den)

    def eval(self, x) -> Fraction:
        """Evaluate exactly at an int or Fraction x: Horner on num, then one
        division by den."""
        acc = 0
        for c in reversed(self.num):
            acc = acc * x + c
        return Fraction(acc, self.den)

    def monic(self) -> "Poly":
        if self.is_zero():
            raise ValueError("cannot normalize the zero polynomial")
        return self if self.num[-1] == self.den else _zscaled(self.num, self.num[-1])

    def shift(self, z) -> "Poly":
        """Taylor rebase p(x + z): Horner's rule in b x + a = b (x + z) for
        z = a/b over Z, then one division by b^deg p."""
        z = Fraction(z)
        acc, w, lin = [], 1, [z.numerator, z.denominator]
        for c in reversed(self.num):
            acc = _zmul(acc, lin) or [0]
            acc[0] += c * w
            w *= lin[1]
        return _zscaled(acc, self.den * w // lin[1]) if acc else self

    # -- text form ---------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text: space-separated num/den, lowest degree first."""
        if self.is_zero():
            return "0"
        return " ".join(_qtext(c, self.den) for c in self.num)

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
        for i, c in reversed(list(enumerate(self.num))):
            if not c:
                continue
            mono = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
            if mono and abs(c) == self.den:
                s = mono if c > 0 else f"-{mono}"
            else:
                s = f"{_qtext(c, self.den)}{'*' + mono if mono else ''}"
            parts.append(s)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


def _qtext(n: int, d: int) -> str:
    """The text of the rational n/d, d > 0, as `str` prints a Fraction."""
    g = igcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _as_poly(v) -> Poly:
    if type(v) is Poly:
        return v
    if isinstance(v, (int, Fraction)):
        return _zscaled([v.numerator], v.denominator)
    raise TypeError(f"cannot coerce {type(v).__name__} to Poly")


_SET_NUM, _SET_DEN = Poly.num.__set__, Poly.den.__set__


def _zscaled(a, d: int) -> Poly:
    """The canonical Poly a / d, for a sequence a of ints and an int d != 0:
    trailing zeros are dropped, and one gcd(d, *a), with the sign of d, is
    divided out."""
    while a and not a[-1]:
        a = a[:-1]
    if d != 1:
        g = igcd(d, *a) if d > 0 else -igcd(d, *a)
        if g != 1:
            a, d = [c // g for c in a], d // g
    p = object.__new__(Poly)
    _SET_NUM(p, tuple(a))
    _SET_DEN(p, d)
    return p


ZERO = Poly()
ONE = Poly([1])
X = Poly([0, 1])


class QVec(NamedTuple):
    """A rational vector in the layout of `Poly`: `num` a tuple of ints over
    one `den` > 0 with gcd(content(num), den) = 1.  That form is canonical,
    so `==` compares vectors; `_qvec` is the normalizing constructor."""

    num: tuple[int, ...]
    den: int

    @staticmethod
    def of(values) -> "QVec":
        """The vector of the given ints and Fractions."""
        d = lcm(*(v.denominator for v in values))
        return _qvec([v.numerator * (d // v.denominator) for v in values], d)


def _qvec(a, d: int) -> QVec:
    """The canonical QVec a / d, for a sequence a of ints and an int d != 0."""
    g = igcd(d, *a) if d > 0 else -igcd(d, *a)
    return QVec(tuple(c // g for c in a), d // g) if g != 1 else QVec(tuple(a), d)


# -- integer polynomials ----------------------------------------------------
# Lists of ints, lowest degree first, no trailing zeros; [] is zero.  No
# Fraction enters a loop here.  Where a result is wanted up to a nonzero
# rational scalar, contents are divided out as they appear.  A `Poly`'s
# `num` tuple is read where a list is wanted.


def _zprimitive(a: list[int]) -> list[int]:
    """a divided by its integer content, with a positive leading coefficient."""
    if not a:
        return a
    g = igcd(*a)
    return [c // g for c in a] if a[-1] > 0 else [-c // g for c in a]


def _zpoly(p: Poly) -> list[int]:
    """Primitive integer associate of p: its numerator with the content out."""
    return _zprimitive(list(p.num))


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


def _zquo(a: list[int], b: list[int]) -> list[int] | None:
    """The q with a = q b over Z, or None if there is none: a check and a
    division in one pass.  For a primitive b, None means b does not divide
    a over Q either (Gauss's lemma)."""
    if b == [1]:
        return a
    r, db, lb = list(a), len(b) - 1, b[-1]
    q = [0] * max(0, len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + db] // lb
        if c:
            q[k] = c
            for j, v in enumerate(b):
                r[j + k] -= c * v
    return None if any(r) else q


def _zgcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd by the primitive remainder sequence (Collins 1967;
    Knuth, TAOCP vol. 2, 4.6.1, Algorithm E); [] for two zeros."""
    a, b = _zprimitive(a), _zprimitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _zprimitive(_zprem(a, b))
    return a


def _zrref(rows) -> tuple[list[list[int]], list[int]]:
    """Fraction-free reduced row echelon form of int rows, padded with
    zeros to one length: (pivot rows, pivot columns), in order.  Column c
    is cleared from each other row r as (p[c]/g) r - (r[c]/g) p,
    g = gcd(r[c], p[c]), against the pivot row p; a row that vanishes is
    dropped, the others are made primitive.  Row i over its pivot entry is
    row i of the rational RREF."""
    n = max(map(len, rows), default=0)
    done, rest, pivots = [], [[*r] + [0] * (n - len(r)) for r in rows if any(r)], []
    for c in range(n):
        k = next((i for i, r in enumerate(rest) if r[c]), None)
        if k is None:
            continue
        p, cleared = rest.pop(k), []
        for r in done + rest:
            if r[c]:
                g = igcd(r[c], p[c])
                m, f = p[c] // g, r[c] // g
                r = [m * u - f * v for u, v in zip(r, p)]
                g = igcd(*r)  # 0 for a row that vanished: no content to take
                if not g:
                    continue
                r = [u // g for u in r]
            cleared.append(r)
        done, rest = cleared[:len(done)] + [p], cleared[len(done):]
        pivots.append(c)
    return done, pivots


def _zindicial(op) -> tuple[int, list[int]]:
    """(s, c) for L = sum_j n_j d^j with int lists n_j: s = max_j (deg n_j - j)
    and c_j = n_j[s+j].  x^m first enters L x^m at x^(m+s), with the
    indicial value I(m) = sum_j c_j m!/(m-j)!."""
    s = max(len(n) - 1 - j for j, n in enumerate(op) if n)
    return s, [n[s + j] if 0 <= s + j < len(n) else 0 for j, n in enumerate(op)]


def _zsolve(op, f) -> tuple[list[int], int] | None:
    """(U, S) with S > 0 and sum_j n_j U^(j) = S f over Z, U_m = 0 at every
    root m of the indicial polynomial of `_zindicial`, or None if there is
    no such U: the indicial equation at infinity (E. L. Ince, Ordinary
    Differential Equations (1926), ch. XVI).

    Top-down: where I(m) != 0 the x^(m+s) coefficient of the residual
    S f - L U fixes U_m, and where I(m) does not divide it, U, S and the
    residual are scaled by |I(m)|/gcd; U_m = c takes c L x^m (`_zimage`)
    off the residual.  The residual must end at zero."""
    s, lead = _zindicial(op)
    u, r, scale = [0] * max(len(f) - s, 0), list(f), 1
    for m in range(len(u) - 1, -1, -1):
        piv = 0  # I(m), by Horner's rule in the factors m - j of m!/(m-j)!
        for j in range(len(op) - 1, -1, -1):
            piv = lead[j] + (m - j) * piv
        if piv and (t := r[m + s]):
            if t % piv:
                g = abs(piv) // igcd(piv, t)
                u, r, scale, t = [g * v for v in u], [g * v for v in r], scale * g, t * g
            u[m] = c = t // piv
            _zimage(r, op, m, -c)
    return None if any(r) else (u, scale)


def _zimage(r: list[int], op, m: int, c: int) -> None:
    """Add c L x^m = sum_j c n_j m!/(m-j)! x^(m-j) to r, in place."""
    for j, n in enumerate(op):
        for i, a in enumerate(n, m - j):
            r[i] += c * a
        c *= m - j
        if not c:
            return


def gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd; gcd(0, 0) = 0.  The monic gcd is unique, so taking it
    from the primitive gcd over Z gives exactly Euclid's answer over Q."""
    g = _zgcd(_zpoly(a), _zpoly(b))
    return _zscaled(g, g[-1]) if g else ZERO


def poly_sqrt(p: Poly) -> Poly | None:
    """Exact square root over Q with a positive leading coefficient, or None.

    sqrt(p) = sqrt(f)/den for the integer polynomial f = num den, and a
    square in Q[x] of an integer polynomial is the square of an integer
    polynomial (Gauss's lemma), so its coefficients are solved for over Z
    from the top down: x^(m+k) of q^2 is 2 q_m q_k + sum_(k<i<m) q_i q_(m+k-i).
    """
    f, m = [c * p.den for c in p.num], len(p.num) // 2
    if not f:
        return ZERO
    if len(f) % 2 == 0 or f[-1] < 0 or isqrt(f[-1]) ** 2 != f[-1]:
        return None
    q = [0] * m + [isqrt(f[-1])]
    for k in range(m - 1, -1, -1):
        r = f[m + k] - sum(q[i] * q[m + k - i] for i in range(k + 1, m))
        if r % (2 * q[m]):
            return None
        q[k] = r // (2 * q[m])
    root = _zscaled(q, p.den)
    return root if root * root == p else None


# -- exact linear algebra over Q ------------------------------------------


def solve_linear(rows: list[list[Fraction]], rhs: list[Fraction]):
    """Solve A x = b exactly for int or Fraction entries: (particular
    solution, kernel basis) as Fractions, or None if inconsistent.  `_zrref`
    reduces [A | b], each row cleared of denominators by `QVec`; the
    system is inconsistent iff b's column is a pivot."""
    n = len(rows[0]) if rows else 0
    red, pivots = _zrref([QVec.of([*row, b]).num for row, b in zip(rows, rhs)])
    if pivots and pivots[-1] == n:
        return None

    def vector(j, s):
        # x_j = 1 if j < n, and x_c = s row[j] / row[c] from each pivot row
        x = [Fraction(int(i == j)) for i in range(n)]
        for row, c in zip(red, pivots):
            x[c] = Fraction(s * row[j], row[c])
        return x

    return vector(n, 1), [vector(f, -1) for f in range(n) if f not in pivots]


def solve_combination(gens: list[Poly], target: Poly):
    """`solve_linear` for sum_j x_j gens[j] = target, one row per degree.

    Every polynomial is scaled to the common denominator d of gens and
    target, so row k holds the ints num[k] d / den and the solutions are
    those of the rational system."""
    ps = [*gens, target]
    d, m = lcm(*(p.den for p in ps)), max(1, *(len(p.num) for p in ps))
    cols = [[c * (d // p.den) for c in p.num] + [0] * (m - len(p.num)) for p in ps]
    return solve_linear([row[:-1] for row in zip(*cols)], cols[-1])


# -- Wronskians -------------------------------------------------------------


def wronskian_rows(s: int) -> int:
    """s, for a Wronskian of s rows; InvalidInstance above the row cap."""
    if s > _WRONSKIAN_ROW_CAP:
        raise InvalidInstance(f"Wronskians are capped at {_WRONSKIAN_ROW_CAP} rows, got {s}")
    return s


def wronskian_minors(gs: Sequence[Poly], masks: Sequence[int]) -> list[Poly]:
    """The Wronskian of the sublist of gs in each bit mask (bit i is gs[i]),
    in row order, from one Laplace expansion of W(gs).

    W(g_1,...,g_s) = det(g_i^{(j-1)}), rows by function, columns by order;
    the empty list gives 1.  W is linear in each row, so
    W(c_1 g_1, ..., c_s g_s) = c_1...c_s W(g): the determinant of the
    numerators g_i.num is expanded over Z[x], and a minor is that integer
    Wronskian over the product of its rows' denominators.

    The expansion runs at x = 2^k (Kronecker substitution): every entry
    becomes one int, each polynomial product one big-int product, and each
    minor is read back from its value.  The 1-norm of a determinant is at
    most the permanent of its entries' 1-norms, hence at most
    prod_i sum_j ||g_i^(j)||_1 over its rows, each sum read off g_i's
    coefficients by `_deriv_weight`.  Every factor is taken at least 1, so
    B, the product over all rows, bounds every minor, also one that leaves
    out a zero row, and 2^(k-1) > B makes each read-back exact.
    """
    s = wronskian_rows(len(gs))
    if s < 2:  # W() = 1 and W(g) = g: nothing to expand
        return [gs[0] if m else ONE for m in masks]
    weights = [_deriv_weight(s, n) for n in range(max(len(g.num) for g in gs))]
    k = prod(sum(map(mul, map(abs, g.num), weights)) or 1 for g in gs).bit_length() + 1
    # cols[j][1 << i] = g_i^(j)(2^k), each derivative packed as it is formed
    cols = [{} for _ in range(s)]
    for i, g in enumerate(gs):
        cur = g.num
        for col in cols:
            col[1 << i] = _zpack(cur, k)
            cur = _zderiv(cur)
    # Laplace expansion along columns, memoized on row subsets: minors[m] is
    # the minor on the rows in bit mask m and the first popcount(m) columns,
    # that is W of those rows, computed after its subsets.  The 2^s minors
    # take s 2^(s-1) products.
    minors = [1] * (1 << s)
    for m in range(1, 1 << s):
        col, acc, rest = cols[m.bit_count() - 1], 0, m
        # acc = term - acc alternates the signs so the last row enters with +
        while rest:
            low = rest & -rest
            acc = col[low] * minors[m ^ low] - acc
            rest ^= low
        minors[m] = acc
    return [_zscaled(_zunpack(minors[m], k), prod(g.den for i, g in enumerate(gs) if m >> i & 1))
            for m in masks]


@lru_cache(maxsize=None)
def _deriv_weight(s: int, n: int) -> int:
    """sum_{j<s} n!/(n-j)!, the sum of the 1-norms of x^n, ..., (x^n)^(s-1):
    sum_{j<s} ||g^(j)||_1 = sum_n |g_n| _deriv_weight(s, n)."""
    return sum(perm(n, j) for j in range(s))


def wronskian(gs: Sequence[Poly]) -> Poly:
    """W(g_1,...,g_s): the full-mask case of `wronskian_minors`."""
    return wronskian_minors(gs, [(1 << len(gs)) - 1])[0]


@lru_cache(maxsize=256)
def t_ladder(ts: tuple[Poly, ...]) -> tuple[Poly, ...]:
    """(L_0, ..., L_{m+1}), m = len(ts), with L_i = prod_{j<i} T_j^(i-j)
    (1-based j): the divisor of an i-row divided Wronskian and, times y_i,
    the ladder W(u_1..u_i) of a fundamental space; L_{i+1} = L_i T_1...T_i.
    Memoized: an instance keeps one ts, which is also the framing of its
    selfdual spaces, for all its Wronskians."""
    out, tp = [ONE, ONE], ONE
    for t in ts:
        tp = tp * t
        out.append(out[-1] * tp)
    return tuple(out)


def divided_wronskians(gs: Sequence[Poly], masks: Sequence[int], ts: Sequence[Poly]) -> list[Poly]:
    """`wronskian_minors` of gs, each divided exactly by L_i of `t_ladder`,
    i its number of rows; raises NotDivisible on a nonzero remainder."""
    ladder = t_ladder(tuple(ts))
    return [w.exact_div(ladder[m.bit_count()]) for w, m in zip(wronskian_minors(gs, masks), masks)]


# -- appendix identity suite -------------------------------------------------


class IdentityReport(NamedTuple):
    trials: int
    checks: dict[str, int]


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

    One `wronskian_minors` call per trial gives the right-hand sides of
    common-factor, wr-id-2 and wr-id-1 and their inner V and W_s; the left
    sides, one-in-front and two-generators call `wronskian`.  No weaker than
    a call per sublist: a wrong proper minor now breaks an identity.
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

        # W_s(g_1..g_s), W_{s-k}(g_1..g_{s-k}), W_{s+1}(g), each V and W_s
        full, h = (1 << (s + 1)) - 1, (1 << (s - k)) - 1
        w_first, w_head, w_all, *rest = wronskian_minors(gs, [full >> 1, h, full, *(
            h | 1 << i for i in range(s - k, s + 1)), *(full ^ 1 << i for i in range(s + 1))])
        vs, ws = rest[: k + 1], rest[k + 1 :]

        # W_s(f g_1..f g_s) = f^s W_s(g_1..g_s)
        lhs = wronskian([f * p for p in gs[:s]])
        rhs = f**s * w_first
        if lhs != rhs:
            fail("common-factor", f"s={s} f={f}")
        checks["common-factor"] += 1

        # W_{s+1}(f^s, f^{s-1}g, ..., g^s) = (prod i!) W_2(f, g)^{s(s+1)/2}
        lhs = wronskian([f ** (s - i) * g**i for i in range(s + 1)])
        rhs = prod(_FACT[: s + 1]) * wronskian([f, g]) ** (s * (s + 1) // 2)
        if lhs != rhs:
            fail("two-generators", f"s={s} f={f} g={g}")
        checks["two-generators"] += 1

        # W_{k+1}(V(s-k+1),...,V(s+1)) = W_{s-k}(g_1..g_{s-k})^k W_{s+1}(g)
        lhs = wronskian(vs)
        rhs = w_head**k * w_all
        if lhs != rhs:
            fail("wr-id-2", f"s={s} k={k}")
        checks["wr-id-2"] += 1

        # W_{k+1}(W_s(s+1), W_s(s), ..., W_s(s-k+1))
        #   = W_{s-k}(g_1..g_{s-k}) W_{s+1}(g)^k
        lhs = wronskian([ws[i] for i in range(s, s - k - 1, -1)])
        rhs = w_head * w_all**k
        if lhs != rhs:
            fail("wr-id-1", f"s={s} k={k}")
        checks["wr-id-1"] += 1

    return IdentityReport(trials=trials, checks=checks)
