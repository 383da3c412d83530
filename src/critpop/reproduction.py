"""Reproduction procedure and population exploration.

`solve_wronskian_equation` solves W(y, ytilde) = R as an exact linear
system; its solution set is a line {base + c*y}.  Replacing a coordinate
by a member of that line is the simple reproduction step; the breadth-
first closure of these steps over all directions, bookkept by degree
vector, is a population atlas.  `explore_population` certifies each member
as it stores it, so callers need not check the members again.
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
    is_generic,
    monic_tuple,
    wronskian_rhs,
)
from .errors import ConstructionFailed, InvalidInstance, NonGenericExhausted, NotFertile
from .poly import Poly, solve_combination
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
    """Solve y u' - y' u = rhs in polynomials u.

    Returns the full solution line or None when the linear system is
    inconsistent (y is not fertile in this direction).  The kernel of the
    homogeneous system is exactly span{y}; this is asserted.
    """
    if y.is_zero() or rhs.is_zero():
        raise ValueError("y and rhs must be nonzero")
    dy = int(y.degree)
    bound = max(int(rhs.degree) + 1 - dy, dy) + 1
    yp = y.deriv()
    # column j is y*u' - y'*u for u = x^j
    cols = []
    for j in range(bound + 1):
        xj = Poly([0] * j + [1])
        cols.append(y * xj.deriv() - yp * xj)
    solved = solve_combination(cols, rhs)
    if solved is None:
        return None
    sol, kernel = solved
    base = Poly(sol)
    if len(kernel) != 1 or Poly(kernel[0]).monic() != y.monic():
        raise ConstructionFailed("Wronskian equation kernel is not exactly span{y}")
    # canonicalize: base degree different from deg y, reduced once
    if base.degree == y.degree:
        base = base - (base.leading() / y.leading()) * y
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


def _sample_generic(pi: ProblemInstance, y: TupleY, i: int, fam: DescendantFamily,
                    want_degree: int, forbid: set[Fraction] = frozenset()):
    """First parameter along the canonical sequence giving a generic member
    of prescribed degree in direction i; checks the criterion on success."""
    for k, c in zip(range(RETRY_CAP), param_candidates()):
        if c in forbid:
            continue
        cand_poly = fam.member(c)
        if cand_poly.is_zero() or cand_poly.degree != want_degree:
            continue
        cand = monic_tuple(y[:i] + (cand_poly,) + y[i + 1 :])
        ok, _ = is_generic(pi, cand)
        if ok:
            if not heine_stieltjes_test(pi, cand):
                raise ConstructionFailed("generic descendant failed the criterion")
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
                deg_hi = max(int(fam.base.degree), int(fam.fiber.degree))
                targets = {deg_hi}
                if fam.base.degree < fam.fiber.degree:
                    targets.add(int(fam.base.degree))
                for want in sorted(targets):
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
                        ok, _ = is_generic(pi, cand)
                        if ok and not heine_stieltjes_test(pi, cand):
                            raise ConstructionFailed("descendant failed the criterion")
                        atlas.members[l_new] = AtlasMember(
                            cand, member.path + ((i, "base"),), ok
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
