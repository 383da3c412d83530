"""B_N and C_N critical points through folding into symmetric A-series data.

Reproduction runs natively on the rank-N data; all flag-variety structure
is computed on the folded A side, where the type-A machinery applies
verbatim.  The folded tuple is (y_1..y_{N-1}, y_N, y_{N-1}..y_1) for B_N
and (y_1..y_{N-1}, y_N^2, y_N^2, y_{N-1}..y_1) for C_N.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    ProblemInstance,
    TupleY,
    heine_stieltjes_test,
    is_generic,
    monic_tuple,
    weight_at_infinity,
    wronskian_rhs,
)
from .errors import ConstructionFailed, NotFertile, SquareRootMissing
from .fundamental import PolySpace, fundamental_space, generating_morphism
from .poly import poly_sqrt, wronskian
from .reproduction import (
    PopulationAtlas,
    degree_vector_to_weyl,
    is_fertile,
    param_candidates,
    predicted_degree_vectors,
    solve_wronskian_equation,
)
from .roots import (
    dominant_representative,
    fold_weight_B,
    fold_weight_C,
    folded_weyl_embed,
    is_centro_symmetric,
    root_data,
)
from .selfduality import (
    SelfdualSpace,
    framing_of,
    is_isotropic,
    is_selfdual,
    isotropic_generators,
    quasi_witt_basis,
)


@dataclass(frozen=True)
class FoldedTuple:
    original: TupleY
    folded: TupleY
    kind: str


def fold(y: TupleY, kind: str) -> FoldedTuple:
    y = monic_tuple(y)
    n = len(y)
    if kind == "B":
        folded = y + y[: n - 1][::-1]
    elif kind == "C":
        sq = y[n - 1] * y[n - 1]
        folded = y[: n - 1] + (sq, sq) + y[: n - 1][::-1]
    else:
        raise ValueError("kind must be B or C")
    return FoldedTuple(y, monic_tuple(folded), kind)


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


def folded_instance(pi: ProblemInstance) -> ProblemInstance:
    """The symmetric A-series instance matching a B/C instance."""
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
    ft = fold(y, pi.rd.kind)
    native = bc_critical_test(pi, y)
    if pi.rd.kind == "B":
        ok, _ = is_generic(pia, ft.folded)
        if not ok:
            return False
        return native == heine_stieltjes_test(pia, ft.folded)
    if not native:
        return True  # nothing to transfer
    return is_fertile(pia, ft.folded)


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
        fam = solve_wronskian_equation(y[n - 1], wronskian_rhs(pi, y, n - 1))
        if fam is None:
            raise NotFertile("direction N is infertile")
        ytil = fam.base
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
    fam = solve_wronskian_equation(y[n - 1], wronskian_rhs(pi, y, n - 1))
    if fam is None:
        raise NotFertile("direction N is infertile")
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
    """Fundamental space of the folded population, certified selfdual, with
    its framing and canonical form."""
    kind = pi.rd.kind
    if not bc_critical_test(pi, y):
        raise NotFertile("tuple is not a B/C critical point")
    pia = folded_instance(pi)
    if kind == "B":
        folded = fold(y, "B").folded
        if not heine_stieltjes_test(pia, folded):
            raise ConstructionFailed("folded tuple fails the A-side criterion")
        space = fundamental_space(pia, folded)
    else:
        member = _sample_bridge(pi, y)
        space = fundamental_space(pia, member)
    expected_dim = 2 * pi.rd.rank if kind == "B" else 2 * pi.rd.rank + 1
    if space.dim != expected_dim:
        raise ConstructionFailed("folded fundamental space has wrong dimension")
    framing = framing_of(space, pia.points)
    if not is_selfdual(space, framing):
        raise ConstructionFailed("folded fundamental space is not selfdual")
    sd = SelfdualSpace(space, framing)
    if expected_dim % 2 == 0 and not sd.gm.is_skew():
        raise ConstructionFailed("B-type form must be skew")
    if expected_dim % 2 == 1 and not sd.gm.is_symmetric():
        raise ConstructionFailed("C-type form must be symmetric")
    return sd


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
    samples: int,
    seed: int,
) -> IsotropicSampleReport:
    """Sample isotropic flags, push through the generating morphism, unfold
    and re-test criticality; also verify the displayed B/C operator by
    kernel equality on at least three samples."""
    rng = random.Random(seed)
    kind = pi.rd.kind
    qw = quasi_witt_basis(sd)
    if not is_isotropic(sd, qw.flag):
        raise ConstructionFailed("quasi-Witt flag is not isotropic")
    k = sd.dim // 2
    hits = 0
    op_checks = 0
    all_symmetric = True
    all_critical = True
    attempts = 0
    while hits < samples and attempts < 20 * samples:
        attempts += 1
        flag = qw.flag
        # a longest-word sweep of one-parameter moves lands in the open cell
        for r in range(k):
            for direction in range(1, k + 1):
                c = Fraction(rng.randint(1, 9) * rng.choice((1, -1)), rng.randint(1, 4))
                fam = isotropic_generators(sd, flag, direction)
                flag = fam.flag_at(c)
        if not is_isotropic(sd, flag):
            raise ConstructionFailed("generator left the isotropic variety")
        tup = generating_morphism(sd.space, flag, sd.framing.ts)
        m = len(tup)
        if any(tup[i] != tup[m - 1 - i] for i in range(m)):
            all_symmetric = False
        try:
            native = unfold(tup, kind)
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
            if not _bc_operator_annihilates(pi, native, sd.space):
                raise ConstructionFailed("B/C operator does not annihilate the space")
            op_checks += 1
    if hits < samples:
        raise ConstructionFailed("could not sample enough generic isotropic flags")
    return IsotropicSampleReport(samples, hits, op_checks, all_symmetric, all_critical)


def _bc_operator_annihilates(pi: ProblemInstance, y: TupleY, space: PolySpace) -> bool:
    """Kernel test for the displayed B/C factored operator.

    The B/C operator displays coincide with the type-A operator of the
    folded tuple against the folded T-polynomials, so the check runs the
    factored application on the folded side.
    """
    from .fundamental import _apply_factored_operator

    pia = folded_instance(pi)
    folded = fold(y, pi.rd.kind).folded
    return all(_apply_factored_operator(pia, folded, u).is_zero() for u in space.basis)


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
