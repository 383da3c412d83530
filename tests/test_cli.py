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
from critpop import bc, cli, core, fundamental, reproduction, selfduality
from critpop.cli import main
from critpop.poly import ONE


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


def count_calls(monkeypatch, module, name):
    """Record the arguments of every call to module.name, wherever a critpop
    module has bound that function by import."""
    calls = []
    fn = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return fn(*args)

    for mod in (bc, cli, core, reproduction, selfduality):
        if getattr(mod, name, None) is fn:
            monkeypatch.setattr(mod, name, counting)
    return calls


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

    def test_walk_is_the_certificate(self, sl3_cfg, monkeypatch, capsys):
        """A member the walk cannot certify stops the run; nothing after the
        walk re-checks it into a report line."""
        test = reproduction.heine_stieltjes_test
        y0 = (ONE, ONE)
        monkeypatch.setattr(reproduction, "heine_stieltjes_test",
                            lambda pi, y: y == y0 and test(pi, y))
        assert run(["populate", "--config", sl3_cfg, "--max-degree", "2"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("[error] ConstructionFailed")


class TestFundamental:
    def test_report(self, sl2_cfg, capsys):
        assert run(["fundamental", "--config", sl2_cfg, "--seed", "1"]) == 0
        out = capsys.readouterr().out
        for tag in ("[wr-u-lem]", "[z-exp]", "[inf-exp]", "[pluecker]", "[ind-thm]"):
            assert tag in out

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
        per anti-diagonalization or isotropy test, and never per pairing."""
        cfg = write_cfg(tmp_path, "b2.json", B2)
        solves = []
        coords = fundamental.PolySpace.coords
        monkeypatch.setattr(fundamental.PolySpace, "coords",
                            lambda space, p: solves.append(p) or coords(space, p))
        adjusted = count_calls(monkeypatch, selfduality, "antidiagonal_basis")
        tested = count_calls(monkeypatch, selfduality, "is_isotropic")
        assert run(["selfdual", "--config", cfg, "--samples", "5"]) == 0
        assert len(solves) == 4 * (len(adjusted) + len(tested)) == 104

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

    def test_type_a_not_selfdual(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "a2w.json",
                        {"root_system": "A2", "weights": [[1, 0]], "points": ["0"]})
        assert run(["selfdual", "--config", cfg]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "[selfdual] dim 3 space selfdual: False : PASS"]

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

    @pytest.mark.parametrize("weight", [2, 3])
    def test_sl2_inconsistent_system(self, tmp_path, capsys, weight):
        # at l = 1 the criterion system has Groebner basis [1]: no critical point
        cfg = write_cfg(tmp_path, "count.json",
                        {"root_system": "A1", "weights": [[weight]], "points": ["0"]})
        assert run(["count", "--config", cfg, "--max-degree", "3"]) == 0
        assert "[estimate] l=1: exact 0 <= bound 0 : PASS" in capsys.readouterr().out.splitlines()


A1 = {"root_system": "A1", "weights": [[1], [1]], "points": ["0", "2"]}
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
}
B2 = {"root_system": "B2", "weights": [], "points": []}
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
        (["populate", "--max-degree", "-1"], A1),
        (["populate", "--max-degree", "2"], A1_CUBIC),
    ], ids=["trials-0", "samples-0", "samples-negative", "count-max-degree-negative",
            "populate-max-degree-negative", "populate-max-degree-below-start"])
    def test_count_below_one(self, tmp_path, capsys, args, cfg):
        if cfg is not None:
            args = [*args, "--config", write_cfg(tmp_path, "cfg.json", cfg)]
        assert run(args) == 2
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
