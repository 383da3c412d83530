"""Acceptance suite: one test and one printed pass/fail line per criterion."""

import json
import math
import random
import time
from fractions import Fraction

import pytest

from critpop.bc import bc_critical_test, bc_fundamental_space, bc_population_as_isotropic_flags
from critpop.cli import main as cli_main
from critpop.core import (
    degree_vector,
    heine_stieltjes_test,
    is_generic,
    monic_tuple,
    t_polys,
    weight_at_infinity,
)
from critpop.fundamental import (
    exponents,
    expected_exponents_finite,
    expected_exponents_infinity,
    flag_from_tuple,
    fundamental_space,
    generating_morphism,
    pluecker_check,
    verify_dp,
)
from critpop.poly import ONE, Poly, identity_suite, poly_sqrt
from critpop.reproduction import (explore_population, immediate_descendants, is_fertile,
                                  weyl_degree_map)
from critpop.roots import dominant_representative
from critpop.schubert import lr_expand, population_count_report
from critpop.selfduality import is_isotropic, quasi_witt_basis
from conftest import (bruhat_index, hook_content_dim, instance, is_selfdual, perm_to_weyl,
                      random_flag, random_generic_tuple, seeded_points, shifted_action)


def report(num, name, ok):
    print(f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def top_cell_samples(pi, atlas, cs):
    """Members of the atlas's top degree vector drawn from the family of an
    edge into it, `immediate_descendants(...).member(c)` at each c in `cs`,
    made monic; the generic ones of that degree are kept."""
    top = max(atlas.members)
    src, i = min((a, i) for a, i, b in atlas.edges if b == top)
    y = atlas.members[src].tuple_y
    fam = immediate_descendants(pi, y, i)
    out = []
    for c in cs:
        cand = monic_tuple(y[:i] + (fam.member(Fraction(c)),) + y[i + 1:])
        if degree_vector(cand) == top and is_generic(pi, cand)[0]:
            out.append(cand)
    return out


def test_01_sl3_golden():
    t0 = time.time()
    pi = instance("A2")
    atlas = explore_population(pi, (ONE, ONE), 2)
    ok = set(atlas.members) == {(0, 0), (1, 0), (0, 1), (1, 2), (2, 1), (2, 2)}
    # every sampled degree-(2,2) member satisfies the displayed relation
    samples = [atlas.members[(2, 2)].tuple_y, *top_cell_samples(pi, atlas, (1, 2, -3))]
    ok = ok and len(set(samples)) == len(samples) == 4
    for y1, y2 in samples:
        ok = ok and y1[1] * y2[1] == 2 * y1[0] * y2[2] + 2 * y1[2] * y2[0]
    elapsed = time.time() - t0
    report(1, f"sl3 golden degrees + relation ({elapsed:.2f}s < 1s)", ok and elapsed < 1.0)


def test_02_identity_suite():
    t0 = time.time()
    rep = identity_suite(seed=2024, trials=100)
    elapsed = time.time() - t0
    ok = all(v == 100 for v in rep.checks.values()) and elapsed < 10.0
    report(2, f"appendix identities 5x100 ({elapsed:.2f}s < 10s)", ok)


def test_03_criterion_equivalence():
    rng = random.Random(33)
    disagreements = 0
    total = 0
    for code in ("A1", "A2", "A3", "B2", "C2"):
        pi_plain = instance(code)
        rank = pi_plain.rd.rank
        weights = [tuple(rng.choice([0, 1]) for _ in range(rank)) for _ in range(2)]
        pi_weighted = instance(code, weights, [str(z) for z in seeded_points(rng, 2)])
        pool = []
        atlas = explore_population(pi_plain, (ONE,) * rank, 3)
        pool.extend(
            (pi_plain, m.tuple_y) for m in atlas.members.values() if m.generic
        )
        while len(pool) < 50:
            pi = rng.choice((pi_plain, pi_weighted))
            pool.append((pi, random_generic_tuple(rng, pi, max_deg=2)))
        for pi, y in pool[:50]:
            total += 1
            if heine_stieltjes_test(pi, y) != is_fertile(pi, y):
                disagreements += 1
    report(3, f"criterion == fertility on {total} tuples", disagreements == 0)


def _population_battery():
    """Explored type-A populations used by criteria 4-6."""
    out = []
    pi3 = instance("A2")
    out.append((pi3, explore_population(pi3, (ONE, ONE), 2)))
    pi2 = instance("A1", [(1,), (1,)], ["0", "2"])
    out.append((pi2, explore_population(pi2, (Poly([-1, 1]),), 4)))
    piw = instance("A2", [(1, 0), (0, 1)], ["0", "1"])
    start = None
    atlas0 = explore_population(piw, (ONE, ONE), 4)
    out.append((piw, atlas0))
    return out


def test_04_dp_invariance():
    ok = True
    for pi, atlas in _population_battery():
        members = [m.tuple_y for m in atlas.members.values() if m.generic]
        member_for_op = members[-1]
        if len(members) < 5:
            # sample distinct extra members of the top cell to reach five
            members += top_cell_samples(pi, atlas, (2, 3, -2, 5))
        ok = ok and len(set(members)) == len(members) >= 5
        spaces = [fundamental_space(pi, y) for y in members]
        ok = ok and len(set(spaces)) == 1 and verify_dp(pi, spaces[0], member_for_op)
    report(4, "fundamental space independent of the member (>=5 each)", ok)


def test_05_exponents_and_pluecker():
    ok = True
    for pi, atlas in _population_battery():
        for member in atlas.members.values():
            if not member.generic:
                continue
            V = fundamental_space(pi, member.tuple_y)
            for s, z in enumerate(pi.points):
                ok = ok and exponents(V, z) == expected_exponents_finite(pi, s)
            ok = ok and exponents(V, "inf") == expected_exponents_infinity(
                pi, member.tuple_y
            )
            ok = ok and pluecker_check(V, [exponents(V, z) for z in pi.points])
    report(5, "exponent closed forms and Pluecker identity", ok)


def test_06_round_trip_and_bruhat():
    rng = random.Random(64)
    ok = True
    for pi, atlas in _population_battery()[:2]:
        member = next(m for m in atlas.members.values() if m.generic)
        V = fundamental_space(pi, member.tuple_y)
        ts = t_polys(pi)
        lam_t = dominant_representative(
            pi.rd, weight_at_infinity(pi, member.tuple_y)
        )
        base = [sum(w[i] for w in pi.weights) for i in range(pi.rd.rank)]
        for _ in range(50):
            flag = random_flag(rng, V)
            tup = generating_morphism(flag, ts)
            back = flag_from_tuple(V, tup, ts)
            ok = ok and back == flag
            w, _ = bruhat_index(V, flag)
            welt = perm_to_weyl(w)
            lvec = tuple(int(p.degree) for p in tup)
            predicted = shifted_action(pi.rd, welt, lam_t)
            got = tuple(
                base[i] - c for i, c in enumerate(pi.rd.root_coroot_coords(lvec))
            )
            ok = ok and got == predicted
    report(6, "generating-morphism round trip + Bruhat degree law (50 flags/space)", ok)


def test_07_weyl_orbit_law():
    rng = random.Random(77)
    battery = [
        ("A1", [(1,), (1,)], 2),
        ("A2", [], 2),
        ("A2", [(1, 0), (0, 1)], 4),
        ("A3", [], 8),
        ("B2", [], 8),
        ("B2", [(1, 0)], 8),
        ("C2", [], 8),
        ("C2", [(0, 1)], 8),
        ("B3", [], 8),
        ("C3", [], 8),
    ]
    ok = True
    for code, weights, cap in battery:
        pi = instance(code, weights, [str(z) for z in seeded_points(rng, len(weights))])
        rank = pi.rd.rank
        atlas = explore_population(pi, (ONE,) * rank, cap)
        lam0 = weight_at_infinity(pi, (ONE,) * rank)
        predicted = set(weyl_degree_map(pi, lam0, cap))
        ok = ok and set(atlas.members) == predicted
        if code in ("B2", "C2") and not weights:
            ok = ok and len(atlas.members) == 8
    report(7, "reachable degree vectors == shifted Weyl orbit (10 instances)", ok)


def test_08_bc_selfduality():
    rng = random.Random(88)
    ok = True
    per_type = 20
    for kind in ("B", "C"):
        done = 0
        attempts = 0
        while done < per_type and attempts < 4 * per_type:
            attempts += 1
            n = rng.randint(0, 2)
            weights = [
                rng.choice([(1, 0), (0, 1)]) for _ in range(n)
            ]
            pi = instance(f"{kind}2", weights, [str(z) for z in seeded_points(rng, n)])
            y0 = (ONE, ONE)
            if not bc_critical_test(pi, y0):
                continue
            rng.randint(0, 99)  # unread; drawn so that every later draw stays the same
            atlas = explore_population(pi, y0, 4)
            generics = [m.tuple_y for m in atlas.members.values() if m.generic]
            y = generics[rng.randrange(len(generics))]
            sd = bc_fundamental_space(pi, y)
            expected_dim = 4 if kind == "B" else 5
            ok = ok and sd.dim == expected_dim
            ok = ok and is_selfdual(sd.space, sd.framing)
            gm = sd.gm
            ok = ok and (gm.is_skew() if kind == "B" else gm.is_symmetric())
            qw = quasi_witt_basis(sd)
            ok = ok and all(a != 0 for a in qw.ratios)
            q = [sd.space.member(v) for v in qw.base]
            ok = ok and is_isotropic(sd, [sd.space.coords(p) for p in q])
            if kind == "C":
                rep = bc_population_as_isotropic_flags(
                    pi, sd, qw, samples=2, seed=rng.randint(0, 99)
                )
                ok = ok and rep.all_symmetric and rep.all_critical
            done += 1
            assert ok, (kind, pi.weights, pi.points)
        ok = ok and done == per_type
    report(8, "B/C selfduality, Gram parity, isotropy, C squares (20+20)", ok)


def test_09_counting_and_lr():
    rng = random.Random(99)
    ok = True
    for n in (2, 3, 4, 5):
        pts = seeded_points(rng, n)
        pi = instance("A1", [(1,)] * n, [str(z) for z in pts])
        for l in (1, 2):
            if n - 2 * l < 0:
                continue
            exact, bound = population_count_report(pi, l)
            expected = math.comb(n, l) - math.comb(n, l - 1)
            ok = ok and exact == bound == expected
    checked = 0
    while checked < 50:
        lam = tuple(sorted((rng.randint(0, 3) for _ in range(3)), reverse=True))
        mu = tuple(sorted((rng.randint(0, 3) for _ in range(3)), reverse=True))
        if sum(lam) > 6 or sum(mu) > 6:
            continue
        k = 4
        exp = lr_expand(lam, mu, k)
        total = sum(c * hook_content_dim(nu, k) for nu, c in exp.items())
        ok = ok and total == hook_content_dim(lam, k) * hook_content_dim(mu, k)
        checked += 1
    report(9, "rank-1 exact counts == bounds; LR dimension oracle (50)", ok)


def test_10_determinism(tmp_path, capsys):
    cfg = tmp_path / "sl3.json"
    cfg.write_text(json.dumps({"root_system": "A2", "weights": [], "points": []}))
    outs = []
    for name in ("one.json", "two.json"):
        out = tmp_path / name
        code = cli_main(
            ["populate", "--config", str(cfg), "--seed", "42",
             "--max-degree", "2", "--output", str(out)]
        )
        assert code == 0
        outs.append(out.read_bytes())
    capsys.readouterr()
    ok = outs[0] == outs[1]
    cfgb = tmp_path / "b2.json"
    cfgb.write_text(json.dumps({"root_system": "B2", "weights": [], "points": []}))
    outs = []
    for name in ("b1.json", "b2out.json"):
        out = tmp_path / name
        assert cli_main(
            ["populate", "--config", str(cfgb), "--seed", "5",
             "--max-degree", "8", "--output", str(out)]
        ) == 0
        outs.append(out.read_bytes())
    capsys.readouterr()
    ok = ok and outs[0] == outs[1]
    report(10, "byte-identical atlases for identical (config, seed)", ok)
