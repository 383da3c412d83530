"""B_N and C_N critical points through folding into symmetric A-series data.

Reproduction runs natively on the rank-N data; all flag-variety structure
is computed on the folded A side, where the type-A machinery applies
verbatim and is called directly.  `fold` returns the folded tuple
(y_1..y_{N-1}, y_N, y_{N-1}..y_1) for B_N and (y_1..y_{N-1}, y_N^2, y_N^2,
y_{N-1}..y_1) for C_N; `folded_instance` builds the matching A-series
instance, and so its T-polynomials, once per B/C instance.  B and C take
one path to the fundamental space: `fold_equivalence` certifies the folded
tuple on the A side (the criterion for B; for C, whose folded tuple is not
generic, fertility in every direction), and the space is the kernel of the
folded tuple's operator, which needs no generic member.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .core import ProblemInstance, TupleY, heine_stieltjes_test, monic_tuple
from .errors import ConstructionFailed, NotFertile, NotGeneric, SquareRootMissing
from .fundamental import fundamental_space, generating_morphism, verify_dp
from .poly import poly_sqrt
from .reproduction import is_fertile
from .roots import fold_weight_B, fold_weight_C, root_data
from .selfduality import IsotropicFamily, QuasiWittResult, SelfdualSpace, is_isotropic


def fold(y: TupleY, kind: str) -> TupleY:
    y = monic_tuple(y)
    n = len(y)
    if kind == "B":
        folded = y + y[: n - 1][::-1]
    elif kind == "C":
        sq = y[n - 1] * y[n - 1]
        folded = y[: n - 1] + (sq, sq) + y[: n - 1][::-1]
    else:
        raise ValueError("kind must be B or C")
    return monic_tuple(folded)


def unfold(folded: TupleY, kind: str) -> TupleY:
    """Inverse of fold; exact, with a square root on the C middle pair."""
    if folded != folded[::-1]:
        raise ConstructionFailed("folded tuple is not symmetric")
    n = (len(folded) + 1) // 2
    if kind == "B":
        return folded[:n]
    root = poly_sqrt(folded[n - 1])
    if root is None:
        raise SquareRootMissing("C-type middle coordinate is not a square")
    return folded[: n - 1] + (root.monic(),)


@lru_cache(maxsize=None)
def folded_instance(pi: ProblemInstance) -> ProblemInstance:
    """The symmetric A-series instance matching a B/C instance, built once."""
    if pi.rd.kind == "B":
        weights = tuple(fold_weight_B(w) for w in pi.weights)
        code = f"A{2 * pi.rd.rank - 1}"
    elif pi.rd.kind == "C":
        weights = tuple(fold_weight_C(w) for w in pi.weights)
        code = f"A{2 * pi.rd.rank}"
    else:
        raise ValueError("folded_instance expects B or C data")
    return ProblemInstance(root_data(code), weights, pi.points)


def bc_criterion(pi: ProblemInstance, y: TupleY) -> bool:
    """Direction-wise Wronskian solvability, cross-checked against the
    divisibility criterion on the native Cartan data, which raises
    `NotGeneric` on a non-generic tuple (one genericity test per call)."""
    crit = heine_stieltjes_test(pi, y)
    if is_fertile(pi, y) != crit:
        raise ConstructionFailed("criterion disagreement on B/C data")
    return crit


def bc_critical_test(pi: ProblemInstance, y: TupleY) -> bool:
    """`bc_criterion`, reading a non-generic tuple as not critical."""
    try:
        return bc_criterion(pi, monic_tuple(y))
    except NotGeneric:
        return False


def fold_equivalence(pi: ProblemInstance, y: TupleY, native: bool) -> bool:
    """Criticality transfers through folding; `native` is y's
    `bc_critical_test`.

    For B the folded tuple must itself pass the A-side criterion; for C the
    folded tuple is non-generic (squared middle), so the A-side check is
    fertility of the folded tuple in every direction.
    """
    y = monic_tuple(y)
    pia = folded_instance(pi)
    folded = fold(y, pi.rd.kind)
    if pi.rd.kind == "B":
        try:
            return native == heine_stieltjes_test(pia, folded)
        except NotGeneric:
            return False
    if not native:
        return True  # nothing to transfer
    return is_fertile(pia, folded)


def bc_fundamental_space(pi: ProblemInstance, y: TupleY) -> SelfdualSpace:
    """Fundamental space of the folded population with its framing and
    canonical form: the kernel of the folded tuple's operator, once
    `fold_equivalence` certifies the folded tuple on the A side.  Building
    the `SelfdualSpace` certifies it selfdual."""
    if not bc_critical_test(pi, y):
        raise NotFertile("tuple is not a B/C critical point")
    if not fold_equivalence(pi, y, True):
        raise ConstructionFailed("folded tuple fails the A-side certificate")
    pia = folded_instance(pi)
    space = fundamental_space(pia, fold(y, pi.rd.kind))
    # gram raises NotSelfdual unless V = V+, and rejects a form of the wrong parity
    return SelfdualSpace(space, pia.ts)


class IsotropicSampleReport(NamedTuple):
    generic_hits: int
    operator_checks: int
    all_symmetric: bool
    all_critical: bool


def bc_population_as_isotropic_flags(
    pi: ProblemInstance,
    sd: SelfdualSpace,
    start: QuasiWittResult,
    samples: int,
    seed: int,
) -> IsotropicSampleReport:
    """Sample isotropic flags by sweeps of generator moves from the
    quasi-Witt flag `start`, push them through the generating morphism,
    unfold and re-test criticality; also verify the displayed B/C operator
    by kernel equality on at least three samples.  `start` is
    anti-diagonalized once, in `quasi_witt_basis`, which raises unless it
    is isotropic; every sweep moves that basis as coordinate vectors with
    its values g, `is_isotropic` on the vectors it ends with certifies
    it, and their polynomials are the basis the morphism reads."""
    rng = random.Random(seed)
    kind = pi.rd.kind
    k = sd.dim // 2
    base, g = start.base, start.g
    hits = 0
    op_checks = 0
    all_symmetric = True
    all_critical = True
    attempts = 0
    while hits < samples and attempts < 20 * samples:
        attempts += 1
        u = base
        # a longest-word sweep of one-parameter moves lands in the open cell
        for r in range(k):
            for direction in range(1, k + 1):
                c = Fraction(rng.randint(1, 9) * rng.choice((1, -1)), rng.randint(1, 4))
                u = IsotropicFamily(direction, u, g).deformed_basis(c)
        if not is_isotropic(sd, u):
            raise ConstructionFailed("generator left the isotropic variety")
        tup = generating_morphism([sd.space.member(v) for v in u], sd.framing)
        try:
            native = unfold(tup, kind)  # rejects an asymmetric tuple
        except (ConstructionFailed, SquareRootMissing):
            all_symmetric = False
            continue
        try:
            crit = bc_criterion(pi, native)
        except NotGeneric:
            continue
        hits += 1
        all_critical = all_critical and crit
        if op_checks < 3:
            # the B/C operator displays are the type-A operator of the folded tuple
            if not verify_dp(folded_instance(pi), sd.space, fold(native, kind)):
                raise ConstructionFailed("B/C operator does not annihilate the space")
            op_checks += 1
    if hits < samples:
        raise ConstructionFailed("could not sample enough generic isotropic flags")
    return IsotropicSampleReport(hits, op_checks, all_symmetric, all_critical)
