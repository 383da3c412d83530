"""Reproduction procedure and population exploration.

`solve_wronskian_equation` solves W(y, ytilde) = R, a first-order
equation, by `poly._zsolve` over Z[x] and makes the rational coefficients
of its answer only at the end; the solution set is a line {base + c*y}.
Replacing a coordinate by a member of that line is the simple reproduction
step; the breadth-first closure of these steps over all directions,
bookkept by degree vector, is a population atlas.  `explore_population`
certifies each member as it stores it, so callers need not check the
members again; a child of a generic member is certified only on what its
step changed (`changed` in `core.heine_stieltjes_test`).  `weyl_degree_map`
names the degree vectors that the shifted Weyl orbit predicts, each with the
word of its Weyl element, in one sweep.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii as _q
from typing import NamedTuple

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
from .poly import Poly, _zderiv, _zscaled, _zsolve
from .roots import enumerate_weyl, reflect

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


class DescendantFamily(NamedTuple):
    """The solution line {base + c * fiber} of one Wronskian equation."""

    base: Poly
    fiber: Poly

    def member(self, c: Fraction) -> Poly:
        return self.base + c * self.fiber


def solve_wronskian_equation(y: Poly, rhs: Poly) -> DescendantFamily | None:
    """Solve y u' - y' u = rhs in polynomials u, or return None.

    With y = Y/a and rhs = R/b, the `num`/`den` of each, `poly._zsolve`
    solves Y U' - Y' U = S R over Z for integer U and a scale S > 0, with
    U zero at the indicial root deg y (the fiber is y), and u = a U / (b S)
    is made exact only once, at the end.
    """
    if y.is_zero() or rhs.is_zero():
        raise ValueError("y and rhs must be nonzero")
    sol = _zsolve([[-c for c in _zderiv(y.num)], y.num], rhs.num)
    if sol is None:
        return None
    u, scale = sol
    return DescendantFamily(_zscaled([y.den * v for v in u], rhs.den * scale), y)


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


class AtlasMember(NamedTuple):
    tuple_y: TupleY
    path: tuple[tuple[int, str], ...]  # (direction, parameter) trail from y0
    generic: bool


class PopulationAtlas:
    """One concrete representative per reachable degree vector."""

    def __init__(self, pi: ProblemInstance):
        self.pi = pi
        self.members: dict[tuple[int, ...], AtlasMember] = {}
        self.edges: set[tuple[tuple[int, ...], int, tuple[int, ...]]] = set()

    def degree_vectors(self) -> list[tuple[int, ...]]:
        return sorted(self.members)

    def to_json(self, seed: int, max_degree: int, code: str) -> str:
        """`json.dumps(payload, sort_keys=True, indent=2)` of the `atlas-v1`
        payload, written in schema order: member keys sort as strings
        ("14,14" before "7,0"), edges as tuples; strings escape as json's."""
        members = []
        for k, m in sorted((",".join(map(str, l)), m) for l, m in self.members.items()):
            path = [f'[\n          {d},\n          {_q(c)}\n        ]' for d, c in m.path]
            tup = _block([_q(p.to_text()) for p in m.tuple_y], 6)
            members.append(f'"{k}": {{\n      "generic": {"true" if m.generic else "false"},\n'
                           f'      "path": {_block(path, 6)},\n      "tuple": {tup}\n    }}')
        edges = [f'[\n      "{",".join(map(str, a))}",\n      {d},\n      '
                 f'"{",".join(map(str, b))}"\n    ]' for a, d, b in sorted(self.edges)]
        return _block([
            f'"edges": {_block(edges, 2)}',
            f'"max_degree": {max_degree}',
            f'"members": {_block(members, 2, "{}")}',
            f'"points": {_block([_q(str(z)) for z in self.pi.points], 2)}',
            f'"root_system": {_q(code)}',
            '"schema": "atlas-v1"',
            f'"seed": {seed}',
            f'"weights": {_block([_block(list(map(str, w)), 4) for w in self.pi.weights], 2)}',
        ], 0, "{}") + "\n"


def _block(items: list[str], indent: int, brackets: str = "[]") -> str:
    """Items as `json.dumps(indent=2)` lays out an array or object at depth `indent`."""
    if not items:
        return brackets
    pad = "\n" + " " * (indent + 2)
    return f"{brackets[0]}{pad}{(',' + pad).join(items)}\n{' ' * indent}{brackets[1]}"


def _certified(pi: ProblemInstance, cand: TupleY, changed: int | None) -> bool:
    """Genericity of cand from one run of the criterion, which raises
    `NotGeneric`; a generic cand that is not critical is `ConstructionFailed`."""
    try:
        if heine_stieltjes_test(pi, cand, changed):
            return True
    except NotGeneric:
        return False
    raise ConstructionFailed("generic descendant failed the criterion")


def _sample_generic(pi: ProblemInstance, y: TupleY, i: int, fam: DescendantFamily,
                    want_degree: int, changed: int | None = None):
    """First parameter along the canonical sequence giving a generic member
    of prescribed degree in direction i; checks the criterion on success,
    passing `changed` on."""
    for k, c in zip(range(RETRY_CAP), param_candidates()):
        cand_poly = fam.member(c)
        if cand_poly.is_zero() or cand_poly.degree != want_degree:
            continue
        cand = monic_tuple(y[:i] + (cand_poly,) + y[i + 1 :])
        if _certified(pi, cand, changed):
            return cand, c
    raise NonGenericExhausted(
        f"no generic member of degree {want_degree} in direction {i + 1} "
        f"after {RETRY_CAP} parameters"
    )


def explore_population(pi: ProblemInstance, y0: TupleY, max_degree: int) -> PopulationAtlas:
    """Breadth-first closure over degree vectors, capped componentwise.

    Certifies every member it stores: a generic member passes the
    divisibility criterion when it is inserted, and every member, generic or
    not, is expanded in every direction, which raises `ConstructionFailed`
    if a Wronskian equation has no solution.  A child of a generic member,
    which passed the criterion, differs from it only in coordinate i, so it
    is certified with `changed = i` and gets the verdict of the full test;
    y0 and the children of a non-generic member get the full test.
    Deterministic: directions are visited in order and parameters are drawn
    from the canonical sequence, so the walk consumes no randomness.
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
                changed = i if member.generic else None
                fam = solve_wronskian_equation(y[i], wronskian_rhs(pi, y, i))
                if fam is None:
                    raise ConstructionFailed("atlas member lost fertility")
                # every member has degree max(deg base, deg y) but a lower-degree base
                low = int(fam.base.degree)
                for want in sorted({low, max(low, int(fam.fiber.degree))}):
                    l_new = l[:i] + (want,) + l[i + 1 :]
                    if want > max_degree:
                        continue
                    if l_new != l:
                        atlas.edges.add((l, i, l_new))
                    if l_new in atlas.members or l_new == l:
                        continue
                    if want < int(fam.fiber.degree):
                        # unique low-degree member of the line
                        cand = monic_tuple(y[:i] + (fam.base,) + y[i + 1 :])
                        atlas.members[l_new] = AtlasMember(
                            cand, member.path + ((i, "base"),), _certified(pi, cand, changed)
                        )
                    else:
                        cand, c = _sample_generic(pi, y, i, fam, want, changed)
                        atlas.members[l_new] = AtlasMember(
                            cand, member.path + ((i, str(c)),), True
                        )
                    next_frontier.append(l_new)
        frontier = next_frontier
    return atlas


def weyl_degree_map(pi: ProblemInstance, lam_inf, max_degree: int):
    """{l: w}, w a word of `enumerate_weyl`, over the degree vectors
    0 <= l <= cap with sum Lambda_s - sum l_i alpha_i = w . lam_inf, from
    one sweep of W; the first w in enumeration order (a shortest one) names
    each l.  For w = s_j u, u the tail w[1:] and met earlier, w(lam_inf + rho) is
    one reflection of u(lam_inf + rho), and l_j grows by <u(lam_inf + rho),
    alpha_j^vee> (the degree law); l(e) not integral gives the empty map."""
    rd = pi.rd
    base = [sum(lam[i] for lam in pi.weights) for i in range(rd.rank)]
    l0 = rd.root_combination_of(tuple(b - c for b, c in zip(base, lam_inf)))
    if any(c.denominator != 1 for c in l0):
        return {}
    images = {(): (tuple(c + 1 for c in lam_inf), tuple(map(int, l0)))}
    out = {}
    for w in enumerate_weyl(f"{rd.kind}{rd.rank}"):
        if w:
            j, (v, l) = w[0], images[w[1:]]
            images[w] = (reflect(rd, j, v), l[:j] + (l[j] + v[j],) + l[j + 1:])
        l = images[w][1]
        if all(0 <= c <= max_degree for c in l):
            out.setdefault(l, w)
    return out
