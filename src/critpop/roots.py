"""Finite root-system data for types A_N, B_N, C_N.

Weights are stored in coroot coordinates (the integers <lambda, alpha_i^vee>),
which keeps every T-polynomial exponent integral.  Scalar products are
recovered on demand through the symmetrizers:

    (alpha_i, alpha_j) = d_i * a_ij,     (lambda, alpha_i) = d_i * lambda_i.

The pairing convention <alpha_j, alpha_i^vee> = a_ij is derived from these
two identities; `root_data`, the one constructor of `RootData`, asserts
the B/C scalar-product tables against it.

A Weyl group element is a word in the simple reflections, a tuple of
0-based indices acting by the last letter first, and `reflect` is the one
encoding of s_i.  Equal elements may have different words; they are told
apart by where they send rho: rho is regular, so its stabilizer is trivial.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .errors import ConstructionFailed
from .poly import solve_linear

Weight = tuple[int, ...]


class RootData(NamedTuple):
    kind: str  # "A", "B" or "C"
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    d: tuple[int, ...]  # symmetrizers

    def alpha_scalar(self, i: int, j: int) -> int:
        """(alpha_i, alpha_j), 0-based indices."""
        return self.d[i] * self.cartan[i][j]

    def rho(self) -> Weight:
        return (1,) * self.rank

    def is_dominant(self, lam: Weight) -> bool:
        return all(c >= 0 for c in lam)

    def root_coroot_coords(self, l: tuple[int, ...]) -> Weight:
        """Coroot coordinates of sum_i l_i alpha_i."""
        r = self.rank
        return tuple(sum(l[i] * self.cartan[j][i] for i in range(r)) for j in range(r))

    def root_combination_of(self, lam: Weight) -> tuple[Fraction, ...] | None:
        """Solve sum_i c_i alpha_i = lam in coroot coordinates, if possible."""
        r = self.rank
        rows = [[self.cartan[j][i] for i in range(r)] for j in range(r)]
        solved = solve_linear(rows, list(lam))
        if solved is None or solved[1]:
            return None
        return tuple(solved[0])


@lru_cache(maxsize=None)
def root_data(code: str) -> RootData:
    """Build root data from a two-character code such as "A3", "B2", "C2"."""
    kind, rank = code[0].upper(), int(code[1:])
    if kind not in "ABC":
        raise ValueError(f"unknown root-system kind {kind!r}")
    if rank < 1 or (kind in "BC" and rank < 2):
        raise ValueError(f"rank {rank} not supported for type {kind}")
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i in range(rank - 1):
        a[i][i + 1] = a[i + 1][i] = -1
    if kind == "A":
        d = [1] * rank
    elif kind == "B":
        d = [2] * (rank - 1) + [1]
        a[rank - 1][rank - 2] = -2
    else:  # C
        d = [1] * (rank - 1) + [2]
        a[rank - 2][rank - 1] = -2
    rd = RootData(kind, rank, tuple(tuple(row) for row in a), tuple(d))
    for i in range(rank):
        assert a[i][i] == 2
        for j in range(rank):
            assert d[i] * a[i][j] == d[j] * a[j][i], "scalar matrix not symmetric"
            if i != j:
                assert a[i][j] <= 0
                assert (a[i][j] == 0) == (a[j][i] == 0)
    if kind == "B":
        # long roots of square length 4, short last root of length 2
        assert all(rd.alpha_scalar(i, i) == 4 for i in range(rank - 1))
        assert rd.alpha_scalar(rank - 1, rank - 1) == 2
    if kind == "C":
        assert all(rd.alpha_scalar(i, i) == 2 for i in range(rank - 1))
        assert rd.alpha_scalar(rank - 1, rank - 1) == 4
    return rd


# -- Weyl group --------------------------------------------------------------


def reflect(rd: RootData, i: int, lam: Weight) -> Weight:
    """s_i(lambda) = lambda - <lambda, alpha_i^vee> alpha_i, 0-based i."""
    return tuple(lam[j] - rd.cartan[j][i] * lam[i] for j in range(rd.rank))


def dominant_representative(rd: RootData, lam: Weight) -> Weight | None:
    """Walk lambda + rho into the dominant chamber.

    Returns the dominant weight w . lambda of the shifted orbit of lambda,
    or None when lambda + rho lies on a reflection wall of the shifted
    action.  Each reflection lengthens the w walked so far, so the walk
    takes at most l(w0) steps, the number of positive roots.
    """
    longest = rd.rank * (rd.rank + 1) // 2 if rd.kind == "A" else rd.rank**2
    cur = tuple(c + 1 for c in lam)
    for _ in range(longest + 1):
        if any(c == 0 for c in cur):
            return None
        neg = next((i for i, c in enumerate(cur) if c < 0), None)
        if neg is None:
            return tuple(c - 1 for c in cur)
        cur = reflect(rd, neg, cur)
    raise ConstructionFailed(f"dominant walk exceeded l(w0) = {longest} steps")


_ENUM_RANK_CAP = 6
_T_DEGREE_CAP = 512  # bound on deg T_i = sum_s m_i^(s); every step's cost grows with it
_RANK_CAP = 512  # bound on the rank a config names; `verify` is quadratic in it


@lru_cache(maxsize=None)
def enumerate_weyl(code: str) -> tuple[tuple[int, ...], ...]:
    """All Weyl elements as their shortlex-least reduced words (0-based
    letters, s_{word[0]} ... s_{word[-1]}), in shortlex order (BFS by
    length), keyed by w^-1(rho): (w s_i)^-1(rho) = s_i(w^-1(rho)) is one
    reflection per edge.  A word's tail word[1:] is again shortlex-least
    (a smaller tail would give a smaller whole), so it names an earlier element."""
    rd = root_data(code)
    if rd.rank > _ENUM_RANK_CAP:
        raise ValueError(f"Weyl enumeration capped at rank {_ENUM_RANK_CAP}")
    seen = {rd.rho(): ()}
    frontier = [((), rd.rho())]
    while frontier:
        nxt = []
        for word, key in frontier:
            for i in range(rd.rank):
                k = reflect(rd, i, key)
                if k not in seen:
                    seen[k] = word + (i,)
                    nxt.append((word + (i,), k))
        frontier = sorted(nxt)
    return tuple(sorted(seen.values(), key=lambda w: (len(w), w)))


# -- foldings into the A series ----------------------------------------------


def fold_weight_B(lam: Weight) -> Weight:
    """B_N weight -> symmetric A_{2N-1} weight (m_1..m_N..m_1)."""
    n = len(lam)
    return lam + lam[: n - 1][::-1]


def fold_weight_C(lam: Weight) -> Weight:
    """C_N weight -> symmetric A_{2N} weight (m_1..m_N, m_N..m_1)."""
    return lam + lam[::-1]
