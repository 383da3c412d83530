"""B_N and C_N critical points through folding into symmetric A-series data.

Reproduction runs natively on the rank-N data; all flag-variety structure
is computed on the folded A side, where the type-A machinery applies
verbatim and is called directly.  `fold` returns the folded tuple
(y_1..y_{N-1}, y_N, y_{N-1}..y_1) for B_N and (y_1..y_{N-1}, y_N^2, y_N^2,
y_{N-1}..y_1) for C_N; `folded_instance` builds the matching A-series
instance, and so its T-polynomials, once per B/C instance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .core import (
    ProblemInstance,
    TupleY,
    heine_stieltjes_test,
    is_generic,
    monic_tuple,
    weight_at_infinity,
)
from .errors import ConstructionFailed, NotFertile, SquareRootMissing
from .fundamental import Flag, fundamental_space, generating_morphism, verify_dp
from .poly import Poly, poly_sqrt, wronskian
from .reproduction import (
    PopulationAtlas,
    degree_vector_to_weyl,
    immediate_descendants,
    is_fertile,
    param_candidates,
    predicted_degree_vectors,
)
from .roots import (
    dominant_representative,
    fold_weight_B,
    fold_weight_C,
    folded_weyl_embed,
    is_centro_symmetric,
    root_data,
)
from .selfduality import SelfdualSpace, framing_of, is_isotropic, isotropic_generators


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
    m = len(folded)
    if kind == "B":
        n = (m + 1) // 2
        for i in range(m):
            if folded[i] != folded[m - 1 - i]:
                raise ConstructionFailed("folded tuple is not symmetric")
        return folded[:n]
    n = m // 2
    for i in range(n - 1):
        if folded[i] != folded[m - 1 - i]:
            raise ConstructionFailed("folded tuple is not symmetric")
    if folded[n - 1] != folded[n]:
        raise ConstructionFailed("middle pair differs")
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


def bc_critical_test(pi: ProblemInstance, y: TupleY) -> bool:
    """Genericity plus direction-wise Wronskian solvability, cross-checked
    against the divisibility criterion on the native Cartan data."""
    y = monic_tuple(y)
    ok, _ = is_generic(pi, y)
    if not ok:
        return False
    fertile = is_fertile(pi, y)
    if fertile != heine_stieltjes_test(pi, y):
        raise ConstructionFailed("criterion disagreement on B/C data")
    return fertile


def fold_equivalence(pi: ProblemInstance, y: TupleY) -> bool:
    """Criticality transfers through folding.

    For B the folded tuple must itself pass the A-side criterion; for C the
    folded tuple is non-generic (squared middle), so the A-side check is
    fertility of the folded tuple in every direction.
    """
    y = monic_tuple(y)
    pia = folded_instance(pi)
    folded = fold(y, pi.rd.kind)
    native = bc_critical_test(pi, y)
    if pi.rd.kind == "B":
        ok, _ = is_generic(pia, folded)
        if not ok:
            return False
        return native == heine_stieltjes_test(pia, folded)
    if not native:
        return True  # nothing to transfer
    return is_fertile(pia, folded)


def c_bridge_tuples(pi: ProblemInstance, y: TupleY, c: Fraction,
                    ytil: Poly | None = None):
    """The two bridge tuples linking a C_N critical point to its folded
    A-population, with their defining Wronskian identities verified.

    `ytil` must solve the direction-N Wronskian equation; by default the
    base of the solution line is used.
    """
    if pi.rd.kind != "C":
        raise ValueError("c_bridge_tuples expects C data")
    if c == 0:
        raise ValueError("bridge parameter must be nonzero")
    y = monic_tuple(y)
    n = pi.rd.rank
    if ytil is None:
        ytil = immediate_descendants(pi, y, n - 1).base
    ts = pi.ts
    yn = y[n - 1]
    if wronskian([yn * yn, yn * ytil]) != ts[n - 1] * y[n - 2] * yn * yn:
        raise ConstructionFailed("first bridge identity failed")
    if wronskian([yn * yn, yn * yn + c * ytil * ytil]) != (
        2 * c * ts[n - 1] * y[n - 2] * yn * ytil
    ):
        raise ConstructionFailed("second bridge identity failed")
    head = y[: n - 1]
    tail = y[: n - 1][::-1]
    y_a1 = head + (yn * ytil, yn * yn) + tail
    y_a2 = head + (yn * ytil, yn * yn + c * ytil * ytil) + tail
    return monic_tuple(y_a1), monic_tuple(y_a2)


def _sample_bridge(pi: ProblemInstance, y: TupleY):
    """A generic A-side member of the folded population of a C-type point.

    Both the direction-N sibling (along its solution line) and the bridge
    parameter are sampled from the canonical sequence.
    """
    pia = folded_instance(pi)
    n = pi.rd.rank
    y = monic_tuple(y)
    fam = immediate_descendants(pi, y, n - 1)
    sib_params = [t for _, t in zip(range(8), param_candidates())]
    for t in sib_params:
        ytil = fam.member(t)
        for _, c in zip(range(16), param_candidates()):
            if c == 0:
                continue
            _, y_a2 = c_bridge_tuples(pi, y, c, ytil)
            ok, _ = is_generic(pia, y_a2)
            if ok and heine_stieltjes_test(pia, y_a2):
                return y_a2
    raise ConstructionFailed("no generic bridge parameter found")


def bc_fundamental_space(pi: ProblemInstance, y: TupleY) -> SelfdualSpace:
    """Fundamental space of the folded population with its framing and
    canonical form; building the `SelfdualSpace` certifies it selfdual."""
    kind = pi.rd.kind
    if not bc_critical_test(pi, y):
        raise NotFertile("tuple is not a B/C critical point")
    pia = folded_instance(pi)
    if kind == "B":
        folded = fold(y, "B")
        if not heine_stieltjes_test(pia, folded):
            raise ConstructionFailed("folded tuple fails the A-side criterion")
        space = fundamental_space(pia, folded)
    else:
        member = _sample_bridge(pi, y)
        space = fundamental_space(pia, member)
    expected_dim = 2 * pi.rd.rank if kind == "B" else 2 * pi.rd.rank + 1
    if space.dim != expected_dim:
        raise ConstructionFailed("folded fundamental space has wrong dimension")
    # gram raises NotSelfdual unless V = V+, and rejects a form of the wrong parity
    return SelfdualSpace(space, framing_of(space, pia.points))


@dataclass
class IsotropicSampleReport:
    samples: int
    generic_hits: int
    operator_checks: int
    all_symmetric: bool
    all_critical: bool


def bc_population_as_isotropic_flags(
    pi: ProblemInstance,
    sd: SelfdualSpace,
    start: Flag,
    samples: int,
    seed: int,
) -> IsotropicSampleReport:
    """Sample isotropic flags by sweeps of generator moves from the isotropic
    flag `start`, push them through the generating morphism, unfold and
    re-test criticality; also verify the displayed B/C operator by kernel
    equality on at least three samples.  `antidiagonal_basis` raises unless
    `start` and every move of a sweep but the last are isotropic."""
    rng = random.Random(seed)
    kind = pi.rd.kind
    k = sd.dim // 2
    hits = 0
    op_checks = 0
    all_symmetric = True
    all_critical = True
    attempts = 0
    while hits < samples and attempts < 20 * samples:
        attempts += 1
        flag = start
        # a longest-word sweep of one-parameter moves lands in the open cell
        for r in range(k):
            for direction in range(1, k + 1):
                c = Fraction(rng.randint(1, 9) * rng.choice((1, -1)), rng.randint(1, 4))
                fam = isotropic_generators(sd, flag, direction)
                flag = fam.flag_at(c)
        # the one check of the sweep's last move
        if not is_isotropic(sd, flag):
            raise ConstructionFailed("generator left the isotropic variety")
        tup = generating_morphism(sd.space, flag, sd.framing)
        try:
            native = unfold(tup, kind)  # rejects an asymmetric tuple
        except (ConstructionFailed, SquareRootMissing):
            all_symmetric = False
            continue
        ok, _ = is_generic(pi, native)
        if not ok:
            continue
        hits += 1
        if not bc_critical_test(pi, native):
            all_critical = False
        if op_checks < 3:
            # the B/C operator displays are the type-A operator of the folded tuple
            if not verify_dp(folded_instance(pi), [sd.space], fold(native, kind)):
                raise ConstructionFailed("B/C operator does not annihilate the space")
            op_checks += 1
    if hits < samples:
        raise ConstructionFailed("could not sample enough generic isotropic flags")
    return IsotropicSampleReport(samples, hits, op_checks, all_symmetric, all_critical)


def bc_degree_law(pi: ProblemInstance, atlas: PopulationAtlas, max_degree: int) -> bool:
    """Reached degree vectors match the shifted-orbit prediction and embed
    bijectively into centro-symmetric permutations at full depth."""
    if pi.rd.kind not in "BC":
        raise ValueError("bc_degree_law expects B or C data")
    some = next(iter(atlas.members.values())).tuple_y
    lam_inf = weight_at_infinity(pi, some)
    dom = dominant_representative(pi.rd, lam_inf)
    if dom is None:
        return False
    lam_dom, _ = dom
    predicted = predicted_degree_vectors(pi, lam_dom, max_degree)
    reached = set(atlas.members)
    if reached != predicted:
        return False
    images = set()
    for l in sorted(reached):
        w = degree_vector_to_weyl(pi, lam_dom, l)
        if w is None:
            return False
        img = folded_weyl_embed(pi.rd.kind, pi.rd.rank, w)
        if not is_centro_symmetric(img):
            return False
        images.add(img)
    return len(images) == len(reached)
