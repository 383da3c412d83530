import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import critpop
from critpop import bc, cli, core, fundamental, poly, reproduction, roots, schubert, selfduality
from critpop.cli import main
from critpop.poly import ONE, Poly
from conftest import count_calls


def write_cfg(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


@pytest.fixture
def sl3_cfg(tmp_path):
    return write_cfg(tmp_path, "sl3.json", {"root_system": "A2", "weights": [], "points": []})


@pytest.fixture
def sl2_cfg(tmp_path):
    return write_cfg(
        tmp_path,
        "sl2.json",
        {"root_system": "A1", "weights": [[1], [1]], "points": ["0", "2"], "tuple": ["-1 1"]},
    )


def run(args):
    return main(args)


# the stress instances: (name, config, first 16 hex digits of the SHA-256 of
# the seed-0 `selfdual --samples 5` stdout)
STRESS = [
    ("B4", {"root_system": "B4", "weights": [], "points": []}, "9c1f964ce61c49b5"),
    ("C4", {"root_system": "C4", "weights": [], "points": []}, "66e958ff92fa1f85"),
    ("C3w", {"root_system": "C3", "weights": [[0, 1, 0], [1, 0, 0]], "points": ["0", "-1"]},
     "b0f11be581b7604e"),
]

# the `fundamental` probes: (name, first 16 hex digits of the SHA-256 of the
# seed-0 stdout, folds of the operators: N(N+3)/2 + N + 1 for rank N)
FUNDAMENTAL_PROBES = [
    ("A3-20-5", "754a8d2a66461202", 13),
    ("A1-60", "50ae35cc5e8e3dcb", 4),
    ("A3w-686", "6c232f7d6ba70b08", 13),
]


class TestVerify:
    def test_critical_tuple(self, sl2_cfg, capsys):
        assert run(["verify", "--config", sl2_cfg]) == 0
        out = capsys.readouterr().out
        assert "[deg-2-lem]" in out and "PASS" in out

    def test_trivial_tuple(self, sl3_cfg, capsys):
        assert run(["verify", "--config", sl3_cfg]) == 0

    def test_non_critical_fails(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "bad.json",
            {"root_system": "A1", "weights": [[1], [1]], "points": ["0", "2"],
             "tuple": ["-3 1"]},
        )
        assert run(["verify", "--config", cfg]) == 1

    def test_bc_tuple(self, tmp_path):
        cfg = write_cfg(tmp_path, "b2.json", {"root_system": "B2", "weights": [], "points": []})
        assert run(["verify", "--config", cfg]) == 0

    @pytest.mark.parametrize("code", ["A2", "B2", "C2"])
    def test_genericity_tested_once_per_tuple(self, tmp_path, monkeypatch, capsys, code):
        cfg = write_cfg(tmp_path, "c.json", {"root_system": code, "weights": [], "points": []})
        calls = count_calls(monkeypatch, core, "is_generic")
        assert run(["verify", "--config", cfg]) == 0
        assert calls and len(calls) == len(set(calls))

    def test_non_generic_reason(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "b2.json", {"root_system": "B2", "weights": [], "points": [],
                                              "tuple": ["0 1", "0 1"]})
        assert run(["verify", "--config", cfg]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "[generic] tuple (x, x): y_1 and y_2 share a root (a_ij != 0) : FAIL"]


class TestPopulate:
    def test_sl3_table(self, sl3_cfg, tmp_path, capsys):
        out_path = str(tmp_path / "atlas.json")
        assert run(["populate", "--config", sl3_cfg, "--seed", "7",
                    "--max-degree", "2", "--output", out_path]) == 0
        out = capsys.readouterr().out
        assert "[inf-weight] reached 6 degree vectors == predicted 6 : PASS" in out
        payload = json.loads(open(out_path).read())
        assert payload["schema"] == "atlas-v1"
        assert len(payload["members"]) == 6

    def test_byte_identical_reruns(self, sl3_cfg, tmp_path, capsys):
        p1, p2 = str(tmp_path / "a1.json"), str(tmp_path / "a2.json")
        run(["populate", "--config", sl3_cfg, "--seed", "11", "--max-degree", "2",
             "--output", p1])
        run(["populate", "--config", sl3_cfg, "--seed", "11", "--max-degree", "2",
             "--output", p2])
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_t_polys_computed_once(self, tmp_path, monkeypatch, capsys):
        cfg = write_cfg(tmp_path, "a2w.json",
                        {"root_system": "A2", "weights": [[1, 0], [0, 1]], "points": ["0", "1"]})
        calls = count_calls(monkeypatch, core, "t_polys")
        assert run(["populate", "--config", cfg, "--max-degree", "3"]) == 0
        assert len(calls) == 1

    def test_members_certified_once(self, tmp_path, monkeypatch, capsys):
        cfg = write_cfg(tmp_path, "b2.json", {"root_system": "B2", "weights": [], "points": []})
        calls = count_calls(monkeypatch, core, "heine_stieltjes_test")
        assert run(["populate", "--config", cfg, "--max-degree", "3"]) == 0
        assert "[duplicate-thm] every stored member is critical/fertile : PASS" in (
            capsys.readouterr().out)
        assert calls and len(calls) == len(set(calls))

    def test_one_weyl_sweep(self, sl3_cfg, monkeypatch, capsys):
        """The prediction and the six member labels come from one pass over
        the six elements of W(A2): one reflection for each element but the
        identity, which each word's tail reaches from an earlier one."""
        roots.enumerate_weyl("A2")  # cached: its own reflections are not counted
        calls = count_calls(monkeypatch, reproduction, "reflect")
        assert run(["populate", "--config", sl3_cfg, "--max-degree", "2"]) == 0
        assert len(calls) == 5
        out = capsys.readouterr().out
        assert "[member] l=(0, 0) w=e tuple=(1, 1) : PASS" in out
        assert "[member] l=(2, 2) w=s1 s2 s1 " in out

    def test_member_without_weyl_element(self, sl3_cfg, monkeypatch, capsys):
        """A member that no Weyl element names is labelled none and fails,
        never passed off as the identity."""
        full = cli.weyl_degree_map
        monkeypatch.setattr(cli, "weyl_degree_map", lambda pi, lam, cap: {
            l: w for l, w in full(pi, lam, cap).items() if l != (0, 0)})
        assert run(["populate", "--config", sl3_cfg, "--max-degree", "2"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "[member] l=(0, 0) w=none tuple=(1, 1) : FAIL" in lines
        assert "[inf-weight] reached 6 degree vectors == predicted 5 : FAIL" in lines
        assert sum(ln.endswith(": FAIL") for ln in lines) == 2

    def test_walk_is_the_certificate(self, sl3_cfg, monkeypatch, capsys):
        """A member the walk cannot certify stops the run; nothing after the
        walk re-checks it into a report line."""
        test = reproduction.heine_stieltjes_test
        y0 = (ONE, ONE)
        monkeypatch.setattr(reproduction, "heine_stieltjes_test",
                            lambda pi, y, changed=None: y == y0 and test(pi, y, changed))
        assert run(["populate", "--config", sl3_cfg, "--max-degree", "2"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("[error] ConstructionFailed")

    @pytest.mark.parametrize("code, digest", [("A5", "5a200e7d13d31693"),
                                              ("B4", "abe7f66bdec9cb07")])
    def test_rank_five_output(self, tmp_path, code, digest):
        """`populate --max-degree 3` in a fresh interpreter prints the pinned
        output, so the `w=` word of every member (121 on A5) stays fixed."""
        cfg = write_cfg(tmp_path, f"{code}.json",
                        {"root_system": code, "weights": [], "points": []})
        src = str(Path(critpop.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "critpop.cli", "populate", "--config", cfg,
             "--max-degree", "3", "--seed", "0"],
            capture_output=True, env=env, timeout=120,
        )
        assert proc.returncode == 0
        assert hashlib.sha256(proc.stdout).hexdigest()[:16] == digest

    def test_closed_stdout(self, tmp_path):
        """A reader that closes stdout at once, as `| head` does, ends the run
        with exit 2 and a one-line error instead of a traceback."""
        cfg = write_cfg(tmp_path, "a4.json", {"root_system": "A4", "weights": [], "points": []})
        src = str(Path(critpop.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.Popen([sys.executable, "-m", "critpop.cli", "populate", "--config", cfg],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 2
        assert b"Traceback" not in err
        assert err.startswith(b"[error] BrokenPipeError") and err.count(b"\n") == 1


class TestFundamental:
    def test_report(self, sl2_cfg, capsys):
        assert run(["fundamental", "--config", sl2_cfg, "--seed", "1"]) == 0
        out = capsys.readouterr().out
        for tag in ("[wr-u-lem]", "[z-exp]", "[inf-exp]", "[pluecker]", "[ind-thm]"):
            assert tag in out

    def test_round_trip_certified_once(self, tmp_path, monkeypatch, capsys):
        """`flag_from_tuple` raises unless y_1 lies in the space and the
        generating morphism maps its flag back to y, so the report reads
        that certificate instead of running the morphism again."""
        cfg = write_cfg(tmp_path, "a3w.json", A3W_686)
        calls = count_calls(monkeypatch, fundamental, "generating_morphism")
        assert run(["fundamental", "--config", cfg]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "[pol-crit] generating morphism round trip : PASS" in out
        assert "[first-coor] y_1 lies in the space : PASS" in out
        assert len(calls) == 1

    def test_independence_reads_each_descendant(self, tmp_path, monkeypatch, capsys):
        """The space is the kernel of y's own operator, so [ind-thm] checks
        the paper's independence statement instead: the operator of each
        immediate descendant of y annihilates it.  `verify_dp` gets N
        tuples, the i-th y with only coordinate i replaced."""
        cfg = write_cfg(tmp_path, "a3w.json", A3W_686)
        calls = count_calls(monkeypatch, fundamental, "verify_dp")
        assert run(["fundamental", "--config", cfg]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "[ind-thm] factored operator annihilates the space : PASS" in out
        y = tuple(Poly.from_text(t) for t in A3W_686["tuple"])
        changed = [[i for i, (a, b) in enumerate(zip(args[2], y)) if a != b] for args in calls]
        assert changed == [[0], [1], [2]]

    @pytest.mark.parametrize("name", ["A3w-686", "A3-20-5"])
    def test_exponents_once_per_point(self, tmp_path, monkeypatch, capsys, name):
        """[z-exp], [ram-a] and [pluecker] read one `exponents` list per
        finite point, and [inf-exp] one at infinity."""
        payload = {"A3w-686": A3W_686, "A3-20-5": A3_20_5}[name]
        cfg = write_cfg(tmp_path, "cfg.json", payload)
        calls = count_calls(monkeypatch, fundamental, "exponents")
        assert run(["fundamental", "--config", cfg]) == 0
        assert "[pluecker] sum of ramification codimensions : PASS" in capsys.readouterr().out
        assert [at == "inf" for _, at in calls] == [False] * len(payload["points"]) + [True]

    @pytest.mark.parametrize("name, digest, folds", FUNDAMENTAL_PROBES,
                             ids=[job[0] for job in FUNDAMENTAL_PROBES])
    def test_probe_output(self, tmp_path, capsys, name, digest, folds):
        """The seed-0 table of each probe is pinned, and its operators take
        one fold per distinct tuple prefix: y's N+1, none more for the flag
        levels, and N+1-i for descendant i, which shares y's first i.  The
        cache also holds the empty prefix."""
        payload = {"A3-20-5": A3_20_5, "A1-60": A1_60, "A3w-686": A3W_686}[name]
        cfg = write_cfg(tmp_path, f"{name}.json", payload)
        fundamental._operator.cache_clear()
        assert run(["fundamental", "--config", cfg, "--seed", "0"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16] == digest
        assert fundamental._operator.cache_info().misses - 1 == folds

    def test_json_format(self, sl2_cfg, capsys):
        assert run(["fundamental", "--config", sl2_cfg, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True


class TestSelfdual:
    def test_b2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "b2.json", {"root_system": "B2", "weights": [], "points": []})
        assert run(["selfdual", "--config", cfg, "--seed", "3", "--samples", "3"]) == 0
        out = capsys.readouterr().out
        assert "[symm] canonical form is skew : PASS" in out
        assert "[isotropic]" in out and "[dar-1]" in out

    def test_c2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c2.json", {"root_system": "C2", "weights": [], "points": []})
        assert run(["selfdual", "--config", cfg, "--seed", "5", "--samples", "3"]) == 0
        out = capsys.readouterr().out
        assert "[symm] canonical form is symmetric : PASS" in out

    @pytest.mark.parametrize("name", ["gram", "quasi_witt_basis"])
    def test_computed_once(self, tmp_path, monkeypatch, capsys, name):
        cfg = write_cfg(tmp_path, "b2.json", {"root_system": "B2", "weights": [], "points": []})
        calls = count_calls(monkeypatch, selfduality, name)
        assert run(["selfdual", "--config", cfg, "--samples", "5"]) == 0
        assert len(calls) == 1

    def test_coordinates_solved_once_per_flag_element(self, tmp_path, monkeypatch, capsys):
        """The isotropic layer solves for each flag element's coordinates once
        per anti-diagonalization, and never per pairing, per move or per
        isotropy test: one anti-diagonalization for the quasi-Witt basis,
        which the sampling run starts from; each sample's isotropy test reads
        the coordinate vectors its sweep carries."""
        cfg = write_cfg(tmp_path, "b2.json", B2)
        solves = []
        coords = fundamental.PolySpace.coords
        monkeypatch.setattr(fundamental.PolySpace, "coords",
                            lambda space, p: solves.append(p) or coords(space, p))
        adjusted = count_calls(monkeypatch, selfduality, "antidiagonal_basis")
        tested = count_calls(monkeypatch, selfduality, "is_isotropic")
        assert run(["selfdual", "--config", cfg, "--samples", "5"]) == 0
        assert len(adjusted) == 1 and len(tested) == 5
        assert len(solves) == 4 * len(adjusted) == 4

    def test_type_a_selfdual(self, sl3_cfg, monkeypatch, capsys):
        # antidiagonal_basis certifies the quasi-Witt flag; nothing re-tests it
        calls = count_calls(monkeypatch, selfduality, "is_isotropic")
        assert run(["selfdual", "--config", sl3_cfg]) == 0
        out = capsys.readouterr().out.splitlines()
        for line in ("[selfdual] dim 3 space selfdual: True : PASS",
                     "[symm] canonical form is symmetric : PASS",
                     "[gram] rows [0 0 2]; [0 -1 0]; [2 0 0] : PASS",
                     "[isotropic] quasi-Witt flag is isotropic : PASS"):
            assert line in out
        assert not calls

    @pytest.mark.parametrize("cfg, digest", [
        ({"root_system": "A5", "weights": [], "points": []}, "41dc4294cc8c0d38"),
        ({"root_system": "A5", "weights": [[0, 1, 0, 1, 0], [1, 0, 0, 0, 1]],
          "points": ["0", "-1"]}, "faf54769b275e634"),
    ], ids=["A5", "A5w"])
    def test_type_a_dim6_selfdual(self, tmp_path, capsys, cfg, digest):
        """Dimension 6 is the one dimension where the Witt scalars need a
        square root: the seed-0 stdout is pinned (first 16 hex digits of its
        SHA-256), and its `[witt]` line reads `witt`."""
        assert run(["selfdual", "--config", write_cfg(tmp_path, "a5.json", cfg),
                    "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "[witt] normalization status: witt : PASS" in out.splitlines()
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest

    def test_type_a_not_selfdual(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "a2w.json",
                        {"root_system": "A2", "weights": [[1, 0]], "points": ["0"]})
        assert run(["selfdual", "--config", cfg]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "[selfdual] dim 3 space selfdual: False : PASS"]

    def test_genericity_tested_once_per_tuple(self, tmp_path, monkeypatch, capsys):
        """The B/C criterion and the sampler read `NotGeneric` from one run
        of the criterion instead of testing genericity first."""
        cfg = write_cfg(tmp_path, "b2.json", B2)
        calls = count_calls(monkeypatch, core, "is_generic")
        assert run(["selfdual", "--config", cfg, "--samples", "5"]) == 0
        assert calls and len(calls) == len(set(calls))

    @pytest.mark.parametrize("code, digest", [("B2", "9d297736fa8d5654"),
                                              ("C2", "def2c4b089bf7450"),
                                              ("B3", "8778364c963d12b3")], ids=["B2", "C2", "B3"])
    def test_sampler_start_flag(self, tmp_path, monkeypatch, capsys, code, digest):
        """The tuples the B/C sampler pushes through the generating morphism
        in a seed-0 `selfdual --samples 5` run: they depend on the flag the
        sweeps start from, which the printed report does not show.  The
        digest is the first 16 hex digits of the SHA-256 of their text, one
        tuple a line."""
        cfg = write_cfg(tmp_path, f"{code}.json", {"root_system": code, "weights": [],
                                                   "points": []})
        sampled = []
        morphism = bc.generating_morphism
        monkeypatch.setattr(bc, "generating_morphism",
                            lambda *args: sampled.append(morphism(*args)) or sampled[-1])
        assert run(["selfdual", "--config", cfg, "--samples", "5", "--seed", "0"]) == 0
        text = "".join(" | ".join(p.to_text() for p in tup) + "\n" for tup in sampled)
        assert len(sampled) >= 5
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("name, cfg, digest", STRESS, ids=[job[0] for job in STRESS])
    def test_rank_four_stress_output(self, tmp_path, name, cfg, digest):
        """`--samples 5` on the stress instances in a fresh interpreter prints
        the pinned output: the largest Kronecker exponents, Wronskian orders
        and composed operators of the suite."""
        cfg = write_cfg(tmp_path, f"{name}.json", cfg)
        src = str(Path(critpop.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "critpop.cli", "selfdual", "--config", cfg,
             "--samples", "5", "--seed", "0"],
            capture_output=True, env=env, timeout=120,
        )
        assert proc.returncode == 0
        assert hashlib.sha256(proc.stdout).hexdigest()[:16] == digest

    def test_operator_prediction_holds(self, tmp_path, monkeypatch, capsys):
        """The operator's predicted divisor divides every fold of the four
        benchmark `selfdual` jobs and of the stress jobs: `_operator` never
        returns None, on a full tuple or on any of its prefixes."""
        jobs = [["fundamental", "--config", write_cfg(tmp_path, "a3w.json", A3W_686)]] + [
            ["selfdual", "--config", write_cfg(tmp_path, f"{name}.json", cfg), "--samples", "5"]
            for name, cfg in [(c, {"root_system": c, "weights": [], "points": []})
                              for c in ("B2", "C2", "B3")] + [job[:2] for job in STRESS]]
        ops, compose = [], fundamental._operator
        monkeypatch.setattr(fundamental, "_operator",
                            lambda ts, y: ops.append(compose(ts, y)) or ops[-1])
        for argv in jobs:
            assert run([*argv, "--seed", "0"]) == 0
        assert len(ops) >= len(jobs) and None not in ops

    def test_space_expanded_once(self, tmp_path, monkeypatch, capsys):
        """The echelon basis of the selfdual space is expanded once, by
        `gram`: the framing is the instance's `ts`, not derived from a second
        Wronskian of the basis.  On C3w the quasi-Witt basis differs from the
        echelon one, so `quasi_witt_basis` expands another basis."""
        cfg = write_cfg(tmp_path, "c3w.json", STRESS[2][1])
        spaces = count_calls(monkeypatch, selfduality, "gram")
        minors = count_calls(monkeypatch, poly, "wronskian_minors")
        assert run(["selfdual", "--config", cfg, "--samples", "5"]) == 0
        (space, _), = spaces
        assert sum(tuple(gs) == space.basis for gs, _ in minors) == 1

    def test_type_a_framing_is_instance_ts(self, sl3_cfg, monkeypatch, capsys):
        built = count_calls(monkeypatch, fundamental, "fundamental_space")
        sds = count_calls(monkeypatch, selfduality, "quasi_witt_basis")
        assert run(["selfdual", "--config", sl3_cfg]) == 0
        ((pi, _),), ((sd,),) = built, sds
        assert sd.framing is pi.ts

    def test_folded_instance_built_once(self, tmp_path, monkeypatch, capsys):
        # the folded instance is cached across runs, so only repeats are counted
        cfg = write_cfg(tmp_path, "b2.json", {"root_system": "B2", "weights": [], "points": []})
        calls = count_calls(monkeypatch, core, "t_polys")
        assert run(["selfdual", "--config", cfg, "--samples", "5"]) == 0
        assert calls and len(calls) == len(set(calls))


class TestCount:
    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_sl2_exact(self, tmp_path, capsys, fmt):
        cfg = write_cfg(
            tmp_path,
            "count.json",
            {"root_system": "A1", "weights": [[1], [1], [1]], "points": ["0", "1", "3"]},
        )
        assert run(["count", "--config", cfg, "--max-degree", "1", "--format", fmt]) == 0
        out = capsys.readouterr().out
        if fmt == "table":
            assert "l=1: exact 2 <= bound 2 : PASS" in out
        else:
            payload = json.loads(out)
            assert payload["ok"] is True
            line = {"tag": "estimate", "text": "l=1: exact 2 <= bound 2", "pass": True}
            assert line in payload["lines"]

    def test_max_degree_default(self, tmp_path, capsys):
        """Without --max-degree, rank 1 reads 8 and rank 2 gives its bound."""
        cfg = write_cfg(tmp_path, "a1.json", A1)
        assert run(["count", "--config", cfg, "--max-degree", "8"]) == 0
        out = capsys.readouterr().out
        assert run(["count", "--config", cfg]) == 0
        assert capsys.readouterr().out == out
        assert run(["count", "--config", write_cfg(tmp_path, "a2.json", A2)]) == 0
        assert capsys.readouterr().out == "[estimate] multiplicity bound 1 : PASS\n"

    def test_high_degree_count(self, tmp_path):
        """A1 [[8],[8]] at 0,1 with the default --max-degree 8 counts every
        degree up to l = 8 within the timeout, one critical polynomial each:
        the bad locus is y at the two marked points, taken in Q[t] and never
        expanded over the coefficients of the candidate."""
        cfg = write_cfg(tmp_path, "count.json",
                        {"root_system": "A1", "weights": [[8], [8]], "points": ["0", "1"]})
        src = str(Path(critpop.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-m", "critpop.cli", "count", "--config", cfg],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            f"[estimate] l={l}: exact 1 <= bound 1 : PASS" for l in range(9)]

    def test_six_point_count(self, tmp_path):
        """A1 [[1]] x 6 at 0,1,3,-2,1/2,5 counts every degree up to l = 3,
        and each count reaches its bound."""
        cfg = write_cfg(tmp_path, "count.json", {"root_system": "A1", "weights": [[1]] * 6,
                                                 "points": ["0", "1", "3", "-2", "1/2", "5"]})
        src = str(Path(critpop.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-m", "critpop.cli", "count", "--config", cfg,
                               "--max-degree", "3"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            f"[estimate] l={l}: exact {c} <= bound {c} : PASS" for l, c in enumerate((1, 5, 9, 5))]

    def test_four_double_points_digest(self, tmp_path):
        """The default-degree stdout of A1 [[2]] x 4 at 0,1,3,-2, l <= 4
        (exact 1, 3, 6, 6, 3, each its bound)."""
        cfg = write_cfg(tmp_path, "count.json", {"root_system": "A1", "weights": [[2]] * 4,
                                                 "points": ["0", "1", "3", "-2"]})
        src = str(Path(critpop.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-m", "critpop.cli", "count", "--config", cfg],
                              capture_output=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(proc.stdout).hexdigest()[:16] == "7e783e799f8ee814"

    def test_failed_bethe_check(self, tmp_path, capsys, monkeypatch):
        """A Bethe check that fails ends the run with exit 2 and one
        `[error] ConstructionFailed` line, with no traceback: here one entry
        of q's x^0 coefficient is off by one, so y over the Bethe algebra
        leaves a nonzero equation."""
        real = schubert._singular_q

        def broken(*args):
            d, den, qs = real(*args)
            qs[0][0] += 1
            return d, den, qs

        monkeypatch.setattr(schubert, "_singular_q", broken)
        cfg = write_cfg(tmp_path, "count.json", {"root_system": "A1", "weights": [[1]] * 5,
                                                 "points": ["0", "1", "3", "-2", "1/2"]})
        assert run(["count", "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("[error] ConstructionFailed: y over the Bethe algebra misses x^")

    def test_huge_max_degree(self, tmp_path):
        """The rank-1 loop stops at the first negative weight, so its time
        does not grow with the digits of --max-degree."""
        cfg = write_cfg(tmp_path, "count.json", A1_THREE)
        src = str(Path(critpop.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        outs = [subprocess.run(
            [sys.executable, "-m", "critpop.cli", "count", "--config", cfg, "--max-degree", m],
            capture_output=True, text=True, env=env, timeout=60,
        ).stdout for m in ("8", str(10**18))]
        assert outs[0] == outs[1] and "l=1: exact 2 <= bound 2" in outs[0]

    def test_huge_weight(self, tmp_path):
        """A weight above the deg T_i cap is refused while the instance is
        read, before any T_i is built: every subcommand exits 2 at once with
        a one-line message and no traceback."""
        cfg = write_cfg(tmp_path, "huge.json", {"root_system": "A1", "weights": [[10**6]],
                                                "points": ["0"], "tuple": ["1"]})
        src = str(Path(critpop.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        for cmd in ("verify", "populate", "fundamental", "selfdual", "count"):
            proc = subprocess.run([sys.executable, "-m", "critpop.cli", cmd, "--config", cfg],
                                  capture_output=True, text=True, env=env, timeout=60)
            assert proc.returncode == 2, cmd
            assert proc.stderr.startswith("[error] InvalidInstance: deg T_i is capped at 512")
            assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr

    def test_huge_rank(self, tmp_path):
        """A rank above the cap is refused while the instance is read, before
        any Cartan matrix is built: every subcommand exits 2 at once with a
        one-line message and no traceback."""
        cfg = write_cfg(tmp_path, "rank.json", {"root_system": "A513", "weights": [],
                                                "points": []})
        src = str(Path(critpop.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        for cmd in ("verify", "populate", "fundamental", "selfdual", "count"):
            proc = subprocess.run([sys.executable, "-m", "critpop.cli", cmd, "--config", cfg],
                                  capture_output=True, text=True, env=env, timeout=60)
            assert proc.returncode == 2, cmd
            assert proc.stderr == "[error] InvalidInstance: rank is capped at 512, got 513\n"

    def test_import_leaves_sympy_unloaded(self):
        """Start-up loads neither sympy nor `critpop.schubert`, which only the
        `count` subcommand imports; and no record is a dataclass, so start-up
        loads neither `dataclasses` nor the `inspect`, `ast`, `dis` and
        `tokenize` that it imports."""
        src = str(Path(critpop.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        names = ("sympy", "critpop.schubert", "dataclasses", "inspect", "ast", "dis", "tokenize")
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys, critpop.cli; print([m for m in {names!r} if m in sys.modules])"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.stdout == "[]\n"

    def test_count_builds_no_expressions(self):
        """The count works on its own integer matrices: the l = 1, 2 counts
        on A1x5 leave sympy unloaded, and with it sympy.tensor.tensor, which
        the first sum of two sympy expressions imports (in Add.flatten)."""
        src = str(Path(critpop.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = ("import sys\n"
                "from critpop.core import ProblemInstance\n"
                "from critpop.schubert import count_critical_sl2\n"
                "pi = ProblemInstance.from_config({'root_system': 'A1', 'weights': [[1]] * 5,\n"
                "                                  'points': ['0', '1', '3', '-2', '1/2']})\n"
                "print([count_critical_sl2(pi, l) for l in (1, 2)], 'sympy' in sys.modules,\n"
                "      'sympy.tensor.tensor' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.stdout == "[4, 5] False False\n", proc.stderr

    @pytest.mark.parametrize("weight", [2, 3])
    def test_sl2_inconsistent_system(self, tmp_path, capsys, weight):
        # at l = 1 the singular space is 0 (the criterion system has Groebner
        # basis [1]): no critical point
        cfg = write_cfg(tmp_path, "count.json",
                        {"root_system": "A1", "weights": [[weight]], "points": ["0"]})
        assert run(["count", "--config", cfg, "--max-degree", "3"]) == 0
        assert "[estimate] l=1: exact 0 <= bound 0 : PASS" in capsys.readouterr().out.splitlines()


A1 = {"root_system": "A1", "weights": [[1], [1]], "points": ["0", "2"]}
A1_THREE = {"root_system": "A1", "weights": [[1], [1], [1]], "points": ["0", "1", "3"]}
BAD_CONFIGS = {
    "missing-root-system": {"weights": [], "points": []},
    "unknown-root-system": {"root_system": "D4"},
    "non-integer-weight": dict(A1, weights=[[1.5], [1]]),
    "unparsable-point": dict(A1, points=["0", "two"]),
    "weight-point-count": dict(A1, points=["0"]),
    "repeated-point": dict(A1, points=["0", "0"]),
    "weight-length": dict(A1, weights=[[1, 0], [1]]),
    "non-dominant-weight": dict(A1, weights=[[-1], [1]]),
    "bad-polynomial-text": dict(A1, tuple=["-1 x"]),
    "zero-polynomial": dict(A1, tuple=["0"]),
    "tuple-length": dict(A1, tuple=["-1 1", "1"]),
    "exponent-point": dict(A1, points=["0", "1e5000"]),
    "exponent-coefficient": dict(A1, tuple=["1e5000 1"]),
    "string-points": dict(A1, points="02"),
    "null-point": dict(A1, points=["0", None]),
    "bool-point": dict(A1, points=["0", True]),
    "float-point": dict(A1, points=["0", 2.5]),
}
A2 = {"root_system": "A2", "weights": [], "points": []}
B2 = {"root_system": "B2", "weights": [], "points": []}
# the (6,8,6) member of the A3 population with three weighted points
A3W_686 = {"root_system": "A3", "weights": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
           "points": ["0", "1", "3"],
           "tuple": ["54 0 -12 48 0 -56/5 1", "48 -72 -108 96 0 -24 448/15 -48/5 1",
                     "6 -72 84 -40 12 -26/5 1"]}
# the A3 probe with two heavily weighted points and the ones tuple
A3_20_5 = {"root_system": "A3", "weights": [[20, 20, 20], [5, 5, 5]], "points": ["0", "1"]}
# the A1 probe with two points of weight 60 and the ones tuple
A1_60 = {"root_system": "A1", "weights": [[60], [60]], "points": ["0", "1"]}
# a critical start tuple of degree 3
A1_CUBIC = {"root_system": "A1", "weights": [[2]], "points": ["0"], "tuple": ["3 0 0 1"]}


class TestInvalidInput:
    @pytest.mark.parametrize("name", [*BAD_CONFIGS, "missing-file", "invalid-json"])
    def test_one_line_error(self, tmp_path, capsys, name):
        path = tmp_path / "cfg.json"
        if name == "invalid-json":
            path.write_text("{not json")
        elif name != "missing-file":
            path.write_text(json.dumps(BAD_CONFIGS[name]))
        assert run(["verify", "--config", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("[error] InvalidInstance")

    @pytest.mark.parametrize("text", ["[]", "null", "3"])
    @pytest.mark.parametrize("command", ["verify", "populate", "fundamental", "selfdual", "count"])
    def test_config_not_an_object(self, tmp_path, capsys, command, text):
        """A config whose top level is not an object is refused before any
        key is read, with one message for every such document."""
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert run([command, "--config", str(path)]) == 2
        assert capsys.readouterr().err == "[error] InvalidInstance: config must be a JSON object\n"

    @pytest.mark.parametrize("name", ["string-points", "null-point", "bool-point", "float-point"])
    def test_points_type(self, tmp_path, capsys, name):
        """A string is not iterated into points, and None or True is not
        reported as exponent notation."""
        cfg = write_cfg(tmp_path, "bad.json", BAD_CONFIGS[name])
        assert run(["populate", "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            "[error] InvalidInstance: points must be a list of strings or integers\n")

    def test_checked_without_assert(self, tmp_path):
        """Validation must survive `python -O`, which strips asserts."""
        cfg = write_cfg(tmp_path, "bad.json", BAD_CONFIGS["non-dominant-weight"])
        src = str(Path(critpop.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "critpop.cli", "verify", "--config", cfg],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("[error] InvalidInstance")

    @pytest.mark.parametrize("args, cfg", [
        (["identities", "--trials", "0"], None),
        (["selfdual", "--samples", "0"], B2),
        (["selfdual", "--samples", "-3"], B2),
        (["count", "--max-degree", "-1"], A1),
        (["count", "--max-degree", "5"], A2),
        (["count", "--max-degree", "0"], A2),
        (["populate", "--max-degree", "-1"], A1),
        (["populate", "--max-degree", "2"], A1_CUBIC),
    ], ids=["trials-0", "samples-0", "samples-negative", "count-max-degree-negative",
            "count-max-degree-rank-2", "count-max-degree-0-rank-2",
            "populate-max-degree-negative", "populate-max-degree-below-start"])
    def test_count_below_one(self, tmp_path, capsys, args, cfg):
        if cfg is not None:
            args = [*args, "--config", write_cfg(tmp_path, "cfg.json", cfg)]
        assert run(args) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("[error] InvalidInstance")

    @pytest.mark.parametrize("code, args", [("A7", []), ("B7", ["--max-degree", "0"])],
                             ids=["A7-default", "B7-max-degree-0"])
    def test_populate_above_weyl_cap(self, tmp_path, code, args):
        """The degree prediction enumerates the Weyl group up to rank 6, so a
        larger instance is refused before the walk, not after it."""
        cfg = write_cfg(tmp_path, "cfg.json", {"root_system": code, "weights": [], "points": []})
        src = str(Path(critpop.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "critpop.cli", "populate", "--config", cfg, *args],
            capture_output=True, text=True, env=env, timeout=30,
        )
        assert proc.returncode == 2
        assert proc.stderr == "[error] InvalidInstance: populate supports rank at most 6\n"

    @pytest.mark.parametrize("command, code, rows", [("fundamental", "A13", 14),
                                                     ("selfdual", "B7", 14),
                                                     ("selfdual", "C512", 1025)])
    def test_wronskian_row_cap(self, tmp_path, command, code, rows):
        """A Wronskian of more than 13 rows is refused before its 2^s minors
        are built, and a fundamental space of more than 13 dimensions before
        its basis is: A13 and the folded B7 have 14 rows and the folded C512
        1025, and each run exits 2 at once with a one-line message and no
        traceback."""
        cfg = write_cfg(tmp_path, "cfg.json", {"root_system": code, "weights": [], "points": []})
        src = str(Path(critpop.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-m", "critpop.cli", command, "--config", cfg],
                              capture_output=True, text=True, env=env, timeout=30)
        assert proc.returncode == 2
        assert proc.stderr == (
            f"[error] InvalidInstance: Wronskians are capped at 13 rows, got {rows}\n")

    @pytest.mark.parametrize("target", ["missing_dir/a.json", "."], ids=["missing-dir", "dir"])
    def test_unwritable_output(self, tmp_path, capsys, target):
        cfg = write_cfg(tmp_path, "cfg.json", A1)
        out = str(tmp_path / target)
        assert run(["populate", "--config", cfg, "--max-degree", "1", "--output", out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("[error] InvalidInstance")


class TestIdentities:
    def test_runs(self, capsys):
        assert run(["identities", "--seed", "3", "--trials", "10"]) == 0
        assert "wronskian-identities" in capsys.readouterr().out


UNREAD_OPTIONS = [
    ("verify", "--seed"), ("verify", "--max-degree"), ("verify", "--output"),
    ("fundamental", "--max-degree"), ("fundamental", "--output"),
    ("selfdual", "--max-degree"), ("selfdual", "--output"),
    ("count", "--output"),
    ("identities", "--max-degree"), ("identities", "--output"),
]


@pytest.mark.parametrize("command, option", UNREAD_OPTIONS)
def test_unread_option_rejected(sl2_cfg, tmp_path, command, option):
    value = str(tmp_path / "out.json") if option == "--output" else "1"
    config = [] if command == "identities" else ["--config", sl2_cfg]
    with pytest.raises(SystemExit) as exc:
        run([command, *config, option, value])
    assert exc.value.code == 2


# the options each subcommand reads
READS = {
    "verify": ["--config", "--format"],
    "populate": ["--config", "--seed", "--max-degree", "--output", "--format"],
    "fundamental": ["--config", "--seed", "--format"],
    "selfdual": ["--config", "--seed", "--samples", "--format"],
    "count": ["--config", "--seed", "--max-degree", "--format"],
    "identities": ["--seed", "--trials", "--format"],
}

# (argv, the values argparse parsed from it): each subcommand's minimal line,
# where every value but --config is a default, and a line that sets every
# option it reads; then the other forms of an option: --name=value, a unique
# prefix, the last value winning, and values that start with "-" or that
# int() reads
PARSED = [
    (["verify", "--config", "c.json"], {"config": "c.json", "format": "table"}),
    (["verify", "--config", "c.json", "--format", "json"], {"config": "c.json", "format": "json"}),
    (["populate", "--config", "c.json"],
     {"config": "c.json", "seed": 0, "max_degree": 8, "output": None, "format": "table"}),
    (["populate", "--config", "c.json", "--seed", "3", "--max-degree", "2", "--output", "a.json",
      "--format", "json"],
     {"config": "c.json", "seed": 3, "max_degree": 2, "output": "a.json", "format": "json"}),
    (["fundamental", "--config", "c.json"], {"config": "c.json", "seed": 0, "format": "table"}),
    (["fundamental", "--config", "c.json", "--seed", "3", "--format", "json"],
     {"config": "c.json", "seed": 3, "format": "json"}),
    (["selfdual", "--config", "c.json"],
     {"config": "c.json", "seed": 0, "samples": 5, "format": "table"}),
    (["selfdual", "--config", "c.json", "--seed", "3", "--samples", "2", "--format", "json"],
     {"config": "c.json", "seed": 3, "samples": 2, "format": "json"}),
    (["count", "--config", "c.json"],
     {"config": "c.json", "seed": 0, "max_degree": None, "format": "table"}),
    (["count", "--config", "c.json", "--seed", "3", "--max-degree", "2", "--format", "json"],
     {"config": "c.json", "seed": 3, "max_degree": 2, "format": "json"}),
    (["identities"], {"seed": 0, "trials": 100, "format": "table"}),
    (["identities", "--seed", "3", "--trials", "2", "--format", "json"],
     {"seed": 3, "trials": 2, "format": "json"}),
    (["populate", "--config=c.json", "--seed=3", "--max-degree=2", "--output=a.json",
      "--format=json"],
     {"config": "c.json", "seed": 3, "max_degree": 2, "output": "a.json", "format": "json"}),
    (["populate", "--conf", "c.json", "--se", "3", "--m=2", "--o", "a.json", "--f", "json"],
     {"config": "c.json", "seed": 3, "max_degree": 2, "output": "a.json", "format": "json"}),
    (["selfdual", "--config", "a.json", "--samples", "2", "--config=c.json", "--sa", "4"],
     {"config": "c.json", "seed": 0, "samples": 4, "format": "table"}),
    (["selfdual", "--config", "c.json", "--sa", "-1", "--seed", "+7"],
     {"config": "c.json", "seed": 7, "samples": -1, "format": "table"}),
    (["populate", "--config", "-", "--output", "-", "--max-degree", "1_0"],
     {"config": "-", "seed": 0, "max_degree": 10, "output": "-", "format": "table"}),
    (["identities", "--trials", " 2 ", "--seed=-3"], {"seed": -3, "trials": 2, "format": "table"}),
]

# lines that argparse refused, too: no command, an unknown or misplaced one;
# a missing --config or value; a bad int or --format; an ambiguous prefix
# (--s: --seed or --samples); a stray word, option or "--"; a value that
# looks like an option; --help given a value
REJECTED = [
    [], ["bogus"], ["ver", "--config", "c.json"], ["--config", "c.json", "verify"],
    ["verify"], ["verify", "--config"], ["verify", "--config", "--format", "json"],
    ["populate", "--config", "c.json", "--seed", "x"], ["identities", "--seed="],
    ["populate", "--config", "c.json", "--max-degree=1.5"],
    ["verify", "--config", "c.json", "--format", "xml"],
    ["selfdual", "--config", "c.json", "--s", "1"],
    ["verify", "--config", "c.json", "extra"], ["populate", "--config", "c.json", "--bogus", "1"],
    ["verify", "--config", "c.json", "-x"], ["verify", "--config", "c.json", "--"],
    ["identities", "--trials", "--seed", "1"], ["populate", "--config", "-5."],
    ["verify", "--help=1"],
]

OPTION_NAMES = ["--config", "--seed", "--max-degree", "--output", "--samples", "--trials",
                "--format", "--help"]
JUNK = st.sampled_from(["-", "--", "-x", "x", "json", "-1.5", "a b", "", "="]) | st.text(max_size=3)
CLI_TOKENS = st.one_of(
    st.sampled_from(list(READS)),
    st.sampled_from(OPTION_NAMES),
    st.sampled_from(OPTION_NAMES).flatmap(lambda opt: st.integers(2, len(opt)).map(
        lambda n: opt[:n])),
    st.builds("{}={}".format, st.sampled_from(OPTION_NAMES), st.integers(-3, 9) | JUNK),
    st.integers(-3, 9).map(str),
    JUNK,
)


@pytest.fixture(scope="module")
def sl2_path(tmp_path_factory):
    return write_cfg(tmp_path_factory.mktemp("cli"), "sl2.json", dict(A1, tuple=["-1 1"]))


def cli_env():
    src = str(Path(critpop.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


class TestCommandLine:
    @pytest.mark.parametrize("argv, values", PARSED)
    def test_parsed_values(self, argv, values):
        args = cli.parse_args(argv)
        assert args.command == argv[0] and args.func is getattr(cli, f"cmd_{argv[0]}")
        assert {k: v for k, v in vars(args).items() if k not in ("command", "func")} == values

    @pytest.mark.parametrize("argv", REJECTED)
    def test_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("[error] ") and err.count("\n") == 1

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.sampled_from(["verify", "identities"]), st.lists(CLI_TOKENS, max_size=6))
    def test_fuzz(self, sl2_path, command, tokens):
        """Any line of commands, options, prefixes, ints and junk ends in exit
        0, 1 or 2, or in SystemExit 0 (--help) or 2 (a bad line), never in
        another exception.  The cheap fixed options go last and win."""
        fixed = ["--config", sl2_path] if command == "verify" else ["--trials", "1"]
        try:
            assert run([command, *tokens, *fixed]) in (0, 1, 2)
        except SystemExit as exc:
            assert exc.code in (0, 2)

    def test_loads_no_argparse(self, sl2_path):
        """A run parses its line without argparse, whose first use costs more
        than an A1 `verify`, and so without the gettext it imports."""
        code = ("import sys, critpop.cli\n"
                f"critpop.cli.main(['verify', '--config', {sl2_path!r}])\n"
                "print([m for m in ('argparse', 'gettext') if m in sys.modules])\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=cli_env(), timeout=60)
        assert proc.stdout.splitlines()[-1:] == ["[]"], proc.stderr

    @pytest.mark.parametrize("command", [None, *READS])
    def test_help(self, command):
        """`critpop --help` names every command and `critpop <command> --help`
        every option that command reads."""
        argv = [sys.executable, "-m", "critpop.cli", *([command] if command else []), "--help"]
        proc = subprocess.run(argv, capture_output=True, text=True, env=cli_env(), timeout=60)
        assert proc.returncode == 0 and proc.stderr == ""
        assert all(name in proc.stdout for name in (READS if command is None else READS[command]))

    def test_bad_option_one_line(self):
        proc = subprocess.run([sys.executable, "-m", "critpop.cli", "populate", "--bogus", "1"],
                              capture_output=True, text=True, env=cli_env(), timeout=60)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("[error]") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr


POINTS = ["0", "1", "-1", "1/2"]
COEFFS = st.sampled_from([-1, 0, 1, 2])


@st.composite
def fuzz_configs(draw):
    code = draw(st.sampled_from(["A1", "A2", "B2", "C2"]))
    rank = int(code[1])
    n = draw(st.integers(0, 2))
    cfg = {
        "root_system": code,
        "weights": [draw(st.lists(COEFFS, min_size=rank, max_size=rank)) for _ in range(n)],
        "points": draw(st.lists(st.sampled_from(POINTS), min_size=n, max_size=n)),
    }
    if draw(st.booleans()):
        cfg["tuple"] = [" ".join(map(str, draw(st.lists(COEFFS, min_size=1, max_size=3))))
                        for _ in range(rank)]
    return cfg


@settings(max_examples=50, deadline=None, derandomize=True)
@given(fuzz_configs())
def test_fuzz_main_never_raises(cfg):
    """Any small config ends in exit 0, 1 or 2: never an uncaught exception."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        for args in (["verify"], ["populate", "--max-degree", "1"], ["fundamental"]):
            assert main([*args, "--config", path]) in (0, 1, 2)


def test_bench_layers_resolve():
    """Every function the benchmark traces still exists under its name."""
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for mod_name, fns in spans.LAYERS.items():
        mod = importlib.import_module(f"critpop.{mod_name}")
        for fn_name in fns:
            if "." in fn_name:
                cls_name, attr = fn_name.split(".")
                assert attr in vars(getattr(mod, cls_name)), f"{mod_name}.{fn_name}"
            else:
                assert callable(getattr(mod, fn_name, None)), f"{mod_name}.{fn_name}"


def check_bench_golden(tmp_path, monkeypatch, capsys, workloads):
    """Run the seed-0 jobs of `bench/run.py`'s `workloads` in process, under
    the benchmark's relative paths (the `populate` table prints the atlas
    path) and its configs, and check the SHA-256 digests of each table and
    atlas against `bench/golden.json`.  Returns `bench/run.py`'s workloads
    and the golden digests."""
    bench = Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))  # run.py imports its sibling `spans`
    spec = importlib.util.spec_from_file_location("bench_run", bench / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    golden = json.loads((bench / "golden.json").read_text(encoding="utf-8"))
    assert golden["seed"] == 0
    monkeypatch.chdir(tmp_path)
    for sub in ("configs", "atlas"):
        (tmp_path / run.WORK / sub).mkdir(parents=True)
    for name, cfg in run.CONFIGS.items():
        Path(run._config(name)).write_text(json.dumps(cfg), encoding="utf-8")
    for name, args in [job for workload in workloads for job in run.WORKLOADS[workload]]:
        assert main([*args, "--seed", "0", "--format", "table"]) == 0, name
        got = {"stdout": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()}
        if "--output" in args:
            atlas = Path(args[args.index("--output") + 1]).read_bytes()
            got["atlas"] = hashlib.sha256(atlas).hexdigest()
        assert got == golden["jobs"][name], name
    return run.WORKLOADS, golden["jobs"]


def test_populate_matches_bench_golden(tmp_path, monkeypatch, capsys):
    """The six `populate` jobs: the walk, the Weyl prediction and the atlas."""
    check_bench_golden(tmp_path, monkeypatch, capsys, ["populate"])


def test_other_jobs_match_bench_golden(tmp_path, monkeypatch, capsys):
    """The `selfdual` and `oracles` jobs, the only ones that print the
    [pol-crit], [ind-thm], [witt] and [cor-so]/[cor-sp] lines; with the
    `populate` test, every job that `bench/golden.json` pins."""
    workloads, pinned = check_bench_golden(tmp_path, monkeypatch, capsys,
                                           ["selfdual", "oracles"])
    assert sorted(name for jobs in workloads.values() for name, _ in jobs) == sorted(pinned)


def test_traced_run_records_layers(tmp_path):
    """The benchmark's tracer installs on the current modules and a traced
    `selfdual` run records the sampler's generating-morphism spans."""
    root = Path(__file__).resolve().parents[1]
    cfg = write_cfg(tmp_path, "b2.json", B2)
    span_file = str(tmp_path / "spans.bin")
    code = ("import sys\n"
            f"sys.path[:0] = [{str(root / 'src')!r}, {str(root / 'bench')!r}]\n"
            "import critpop.cli, spans\n"
            "rec = spans.Recorder()\n"
            "spans.install(rec)\n"
            f"exit_code = critpop.cli.main(['selfdual', '--config', {cfg!r}, '--samples', '1'])\n"
            f"rec.write({span_file!r})\n"
            f"calls = spans.summarize([{span_file!r}])['fundamental.generating_morphism.calls']\n"
            "print(exit_code, calls > 0)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=tmp_path, timeout=120)
    assert proc.stdout.splitlines()[-1:] == ["0 True"], proc.stderr
