"""Reproduction procedure and population exploration.

`solve_wronskian_equation` solves W(y, ytilde) = R by back-substitution;
its solution set is a line {base + c*y}.  Replacing a coordinate by a
member of that line is the simple reproduction step; the breadth-first
closure of these steps over all directions, bookkept by degree vector, is
a population atlas.  `explore_population` certifies each member as it
stores it, so callers need not check the members again.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .core import (
    ProblemInstance,
    TupleY,
    degree_vector,
    heine_stieltjes_test,
    monic_tuple,
    wronskian_rhs,
)
from .errors import (ConstructionFailed, InvalidInstance, NonGenericExhausted, NotFertile,
                     NotGeneric)
from .poly import Poly
from .roots import enumerate_weyl, shifted_action

RETRY_CAP = 64


def param_candidates():
    """The deterministic parameter sequence 0, 1, -1, 2, 1/2, -2, -1/2, ...

    Stern-Brocot levels, positives of a level in decreasing order, then
    their negatives.
    """
    yield Fraction(0)
    level = [Fraction(1)]
    while True:
        for q in level:
            yield q
        for q in level:
            yield -q
        nxt = []
        seen = set()
        for q in level:
            for cand in (q + 1, q / (q + 1)):
                if cand not in seen:
                    seen.add(cand)
                    nxt.append(cand)
        level = sorted(nxt, reverse=True)


@dataclass(frozen=True)
class DescendantFamily:
    """The solution line {base + c * fiber} of one Wronskian equation."""

    base: Poly
    fiber: Poly

    def member(self, c: Fraction) -> Poly:
        return self.base + c * self.fiber


def solve_wronskian_equation(y: Poly, rhs: Poly) -> DescendantFamily | None:
    """Solve y u' - y' u = rhs in polynomials u by back-substitution.

    With d = deg y, the x^(j+d-1) equation has pivot (j - d) lc(y) on u_j and
    no other unknown below j; u_d, the zero pivot, stays 0 (the fiber is y).
    The pivot-free equations x^k, k < d - 1 or k = 2d - 1, decide fertility:
    a nonzero residual there returns None.
    """
    if y.is_zero() or rhs.is_zero():
        raise ValueError("y and rhs must be nonzero")
    d = int(y.degree)
    n = max(int(rhs.degree) + 1 - d, d)
    ys, u = y.coeffs, [Fraction(0)] * (n + 1)

    def residual(k: int) -> Fraction:
        """x^k coefficient of y u' - y' u - rhs: sum_{a+j=k+1} (j - a) y_a u_j."""
        return sum(((k + 1 - 2 * a) * ys[a] * u[k + 1 - a]
                    for a in range(max(0, k + 1 - n), min(d, k + 1) + 1)), -rhs[k])

    for j in range(n, -1, -1):
        if j != d:
            u[j] = -residual(j + d - 1) / ((j - d) * ys[d])
    if d and any(residual(k) for k in [*range(d - 1), 2 * d - 1]):
        return None
    base = Poly(u)
    if base.is_zero():
        raise ConstructionFailed("degenerate base solution")
    return DescendantFamily(base, y)


def immediate_descendants(pi: ProblemInstance, y: TupleY, i: int) -> DescendantFamily:
    """The one-parameter family of descendants of y in direction i (0-based)."""
    fam = solve_wronskian_equation(y[i], wronskian_rhs(pi, y, i))
    if fam is None:
        raise NotFertile(f"tuple is not fertile in direction {i + 1}")
    return fam


def is_fertile(pi: ProblemInstance, y: TupleY) -> bool:
    """Solvability of the Wronskian equation in every direction."""
    return all(
        solve_wronskian_equation(y[i], wronskian_rhs(pi, y, i)) is not None
        for i in range(pi.rd.rank)
    )


@dataclass
class AtlasMember:
    tuple_y: TupleY
    path: tuple[tuple[int, str], ...]  # (direction, parameter) trail from y0
    generic: bool


@dataclass
class PopulationAtlas:
    """One concrete representative per reachable degree vector."""

    pi: ProblemInstance
    members: dict[tuple[int, ...], AtlasMember] = field(default_factory=dict)
    edges: list[tuple[tuple[int, ...], int, tuple[int, ...]]] = field(default_factory=list)

    def degree_vectors(self) -> list[tuple[int, ...]]:
        return sorted(self.members)

    def to_json(self, seed: int, max_degree: int, code: str) -> str:
        payload = {
            "schema": "atlas-v1",
            "root_system": code,
            "weights": [list(w) for w in self.pi.weights],
            "points": [str(z) for z in self.pi.points],
            "seed": seed,
            "max_degree": max_degree,
            "members": {
                ",".join(map(str, l)): {
                    "tuple": [p.to_text() for p in m.tuple_y],
                    "path": [[d, c] for d, c in m.path],
                    "generic": m.generic,
                }
                for l, m in sorted(self.members.items())
            },
            "edges": [
                [",".join(map(str, a)), d, ",".join(map(str, b))]
                for a, d, b in sorted(self.edges)
            ],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _certified(pi: ProblemInstance, cand: TupleY) -> bool:
    """Genericity of cand from one run of the criterion, which raises
    `NotGeneric`; a generic cand that is not critical is `ConstructionFailed`."""
    try:
        if heine_stieltjes_test(pi, cand):
            return True
    except NotGeneric:
        return False
    raise ConstructionFailed("generic descendant failed the criterion")


def _sample_generic(pi: ProblemInstance, y: TupleY, i: int, fam: DescendantFamily,
                    want_degree: int):
    """First parameter along the canonical sequence giving a generic member
    of prescribed degree in direction i; checks the criterion on success."""
    for k, c in zip(range(RETRY_CAP), param_candidates()):
        cand_poly = fam.member(c)
        if cand_poly.is_zero() or cand_poly.degree != want_degree:
            continue
        cand = monic_tuple(y[:i] + (cand_poly,) + y[i + 1 :])
        if _certified(pi, cand):
            return cand, c
    raise NonGenericExhausted(
        f"no generic member of degree {want_degree} in direction {i + 1} "
        f"after {RETRY_CAP} parameters"
    )


def explore_population(pi: ProblemInstance, y0: TupleY, max_degree: int,
                       seed: int = 0) -> PopulationAtlas:
    """Breadth-first closure over degree vectors, capped componentwise.

    Certifies every member it stores: a generic member passes the
    divisibility criterion when it is inserted, and every member, generic or
    not, is expanded in every direction, which raises `ConstructionFailed`
    if a Wronskian equation has no solution.  Deterministic: directions are
    visited in order and parameters are drawn from the canonical sequence.
    The seed is recorded for provenance; the walk itself does not consume
    randomness.
    """
    y0 = monic_tuple(y0)
    l0 = degree_vector(y0)
    if max_degree < max(l0):
        raise InvalidInstance(f"max degree {max_degree} is below the starting degrees {l0}")
    if not heine_stieltjes_test(pi, y0):
        raise NotFertile("starting tuple does not represent a critical point")
    atlas = PopulationAtlas(pi)
    atlas.members[l0] = AtlasMember(y0, (), True)
    frontier = [l0]
    while frontier:
        next_frontier = []
        for l in sorted(frontier):
            member = atlas.members[l]
            y = member.tuple_y
            for i in range(pi.rd.rank):
                fam = solve_wronskian_equation(y[i], wronskian_rhs(pi, y, i))
                if fam is None:
                    raise ConstructionFailed("atlas member lost fertility")
                # every member has degree max(deg base, deg y) but a lower-degree base
                low = int(fam.base.degree)
                for want in sorted({low, max(low, int(fam.fiber.degree))}):
                    l_new = l[:i] + (want,) + l[i + 1 :]
                    if want > max_degree:
                        continue
                    if l_new != l and (l, i, l_new) not in atlas.edges:
                        atlas.edges.append((l, i, l_new))
                    if l_new in atlas.members or l_new == l:
                        continue
                    if want < int(fam.fiber.degree):
                        # unique low-degree member of the line
                        cand = monic_tuple(y[:i] + (fam.base,) + y[i + 1 :])
                        atlas.members[l_new] = AtlasMember(
                            cand, member.path + ((i, "base"),), _certified(pi, cand)
                        )
                    else:
                        cand, c = _sample_generic(pi, y, i, fam, want)
                        atlas.members[l_new] = AtlasMember(
                            cand, member.path + ((i, str(c)),), True
                        )
                    next_frontier.append(l_new)
        frontier = next_frontier
    return atlas


def degree_vector_to_weyl(pi: ProblemInstance, y0_weight, l: tuple[int, ...]):
    """The Weyl element w with sum Lambda_s - sum l_i alpha_i = w . Lambda_inf,
    or None if the vector is not in the predicted family."""
    rd = pi.rd
    r = rd.rank
    base = [sum(lam[i] for lam in pi.weights) for i in range(r)]
    lcoords = rd.root_coroot_coords(l)
    target = tuple(base[i] - lcoords[i] for i in range(r))
    for w in enumerate_weyl(f"{rd.kind}{r}"):
        if shifted_action(rd, w, y0_weight) == target:
            return w
    return None


def predicted_degree_vectors(pi: ProblemInstance, lam_inf, max_degree: int):
    """{l >= 0, l <= cap : sum Lambda_s - sum l_i alpha_i in W . Lambda_inf}."""
    rd = pi.rd
    r = rd.rank
    base = [sum(lam[i] for lam in pi.weights) for i in range(r)]
    out = set()
    for w in enumerate_weyl(f"{rd.kind}{r}"):
        img = shifted_action(rd, w, lam_inf)
        diff = tuple(base[i] - img[i] for i in range(r))
        combo = rd.root_combination_of(diff)
        if combo is None:
            continue
        if all(c.denominator == 1 and 0 <= c <= max_degree for c in combo):
            out.add(tuple(int(c) for c in combo))
    return out
