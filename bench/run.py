"""Cold-process benchmark of the critpop command line.  See README.md.

    python3 bench/run.py --workload populate --seed 0 --seconds 40 --trace 0

Run from the repository root.  One client runs a workload's job list as a
closed loop, one job at a time, each job a fresh interpreter, and repeats
the list while another repetition fits in --seconds.  End-to-end times are
scaled to a reference speed measured in the same run.  The last stdout line
is a JSON object with `correct`, `attempted`, `failed` (counted in jobs)
and `metrics`: end-to-end metrics with --trace 0, per-layer metrics from a
traced run with --trace 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent.relative_to(ROOT)
WORK = Path(".bench_run")  # relative to ROOT, so printed atlas paths are stable
GOLDEN = ROOT / BENCH / "golden.json"
# A fresh interpreter importing sympy: interpreter start-up and pure-Python
# module code, the same kind of work as a job's, that no change to critpop
# can alter.  Its time tracks the machine's drifting speed (README.md).
REFERENCE_CMD = [sys.executable, "-c", "import sympy"]
# Median REFERENCE_CMD wall time on the machine the bounds were set on.
REFERENCE_S = 0.45

A3_WEIGHTED = {"root_system": "A3", "weights": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
               "points": ["0", "1", "3"]}
CONFIGS = {
    "A4": {"root_system": "A4", "weights": [], "points": []},
    "B3": {"root_system": "B3", "weights": [], "points": []},
    "C3": {"root_system": "C3", "weights": [], "points": []},
    "A3w": A3_WEIGHTED,
    "B3w": {"root_system": "B3", "weights": [[1, 0, 0], [0, 0, 1]], "points": ["0", "1"]},
    "C3w": {"root_system": "C3", "weights": [[0, 1, 0], [1, 0, 0]], "points": ["0", "-1"]},
    # the (6,8,6) member of the A3w atlas
    "A3w-686": dict(A3_WEIGHTED, tuple=["54 0 -12 48 0 -56/5 1",
                                        "48 -72 -108 96 0 -24 448/15 -48/5 1",
                                        "6 -72 84 -40 12 -26/5 1"]),
    "B2": {"root_system": "B2", "weights": [], "points": []},
    "C2": {"root_system": "C2", "weights": [], "points": []},
    "A1x5": {"root_system": "A1", "weights": [[1]] * 5,
             "points": ["0", "1", "3", "-2", "1/2"]},
}


def _config(name: str) -> str:
    return str(WORK / "configs" / f"{name}.json")


def _atlas(name: str) -> str:
    return str(WORK / "atlas" / f"{name}.json")


# workload -> [(job name, CLI arguments without --seed and --format)]
WORKLOADS = {
    "populate": [
        (f"populate-{c}", ["populate", "--config", _config(c), "--max-degree", "8",
                           "--output", _atlas(c)])
        for c in ("A4", "B3", "C3", "A3w", "B3w", "C3w")
    ],
    "selfdual": [("fundamental-A3w-686", ["fundamental", "--config", _config("A3w-686")])] + [
        (f"selfdual-{c}", ["selfdual", "--config", _config(c), "--samples", "5"])
        for c in ("B2", "C2", "B3")
    ],
    "oracles": [
        ("count-A1x5", ["count", "--config", _config("A1x5"), "--max-degree", "3"]),
        ("identities", ["identities", "--trials", "100"]),
    ],
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_job(name: str, args: list[str], seed: int, traced: bool) -> dict:
    """One fresh interpreter running one CLI call; returns timings and outputs."""
    result_path = WORK / "results" / f"{name}.json"
    span_path = WORK / "spans" / f"{name}.bin"
    for p in (result_path, span_path):
        (ROOT / p).unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "job.py"), str(result_path)]
    if traced:
        cmd += ["--spans", str(span_path)]
    cmd += ["--", *args, "--seed", str(seed), "--format", "table"]
    start = time.perf_counter()
    subprocess.run(REFERENCE_CMD, cwd=ROOT, capture_output=True, timeout=170, check=True)
    ref_s = time.perf_counter() - start
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=170)
    job = {"name": name, "wall_s": time.perf_counter() - start, "ref_s": ref_s,
           "returncode": proc.returncode, "stdout": proc.stdout,
           "stderr": proc.stderr.decode(errors="replace")}
    if proc.returncode == 0 and (ROOT / result_path).exists():
        job.update(json.loads((ROOT / result_path).read_text()))
        job["peak_rss_mb"] = job.pop("maxrss_kb") / 1024
    if "--output" in args:
        atlas = ROOT / args[args.index("--output") + 1]
        job["atlas"] = _digest(atlas.read_bytes()) if atlas.exists() else None
    if traced:
        job["spans"] = ROOT / span_path
    return job


def failure(job: dict, seed: int, golden: dict) -> str | None:
    """Why a job failed, or None.  Golden digests apply at the golden seed."""
    if "exit_code" not in job:
        return f"job runner exited {job['returncode']}: {job['stderr'].strip()[-500:]}"
    if job["exit_code"] != 0:
        return f"exit code {job['exit_code']}"
    if any(line.endswith(b": FAIL") for line in job["stdout"].splitlines()):
        return "a report line is FAIL"
    if seed == golden.get("seed"):
        want = golden["jobs"].get(job["name"], {})
        if _outputs(job) != want:
            return f"output differs from golden: {_outputs(job)} != {want}"
    return None


def _outputs(job: dict) -> dict:
    out = {"stdout": _digest(job["stdout"])}
    if "atlas" in job:
        out["atlas"] = job["atlas"]
    return out


def run_list(workload: str, seed: int, traced: bool, golden: dict) -> dict:
    """One repetition of the workload's job list."""
    jobs = [run_job(name, args, seed, traced) for name, args in WORKLOADS[workload]]
    rep = {"traced": traced, "failed": {}, "timings": {}, "outputs": {}}
    for job in jobs:
        why = failure(job, seed, golden)
        if why:
            rep["failed"][job["name"]] = why
        if "solve_s" in job:
            rep["timings"][job["name"]] = {
                key: job[key] for key in ("wall_s", "import_s", "solve_s", "peak_rss_mb", "ref_s")}
        rep["outputs"][job["name"]] = _outputs(job)
    if traced:
        rep["layers"] = spans.summarize([job["spans"] for job in jobs if job["spans"].exists()])
    return rep


def prepare() -> None:
    """Fresh work directory with the configs; a warm-up import compiles bytecode."""
    if not (ROOT / "src" / "critpop").is_dir():
        raise SystemExit("src/critpop not found; run from a full checkout")
    shutil.rmtree(ROOT / WORK, ignore_errors=True)
    for sub in ("configs", "atlas", "results", "spans"):
        (ROOT / WORK / sub).mkdir(parents=True)
    for name, cfg in CONFIGS.items():
        (ROOT / _config(name)).write_text(json.dumps(cfg))
    warm = subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, 'src');"
                           " import critpop.cli"], cwd=ROOT, capture_output=True, timeout=170)
    if warm.returncode != 0:
        sys.stderr.write(warm.stderr.decode(errors="replace"))
        raise SystemExit("cannot import critpop.cli from src/; run from a full checkout")


def environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "sympy": metadata.version("sympy"),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "seed": seed}


def measure(workload: str, seed: int, seconds: float, trace: bool, golden: dict) -> list:
    """Repeat the job list while the next repetition is expected to fit.

    A traced run alternates untraced and traced repetitions, so the
    tracing overhead compares neighbours in time.
    """
    start = time.perf_counter()
    reps = []
    while True:
        t = time.perf_counter()
        for traced in ((False, True) if trace else (False,)):
            reps.append(run_list(workload, seed, traced, golden))
        now = time.perf_counter()
        if (now - start) + (now - t) > seconds:
            return reps


def _job_medians(reps: list, key: str) -> list[float]:
    """Each job's median of `key` over the repetitions.

    Taking medians per job, not per job list, rejects a slow spell of the
    machine that hits one job of a repetition.
    """
    names = dict.fromkeys(name for r in reps for name in r["timings"])
    return [statistics.median(r["timings"][name][key] for r in reps if name in r["timings"])
            for name in names]


def speed_factor(reps: list) -> float:
    """REFERENCE_S over this run's median REFERENCE_CMD time.

    Multiplying a time by it gives the time at the reference speed, which
    removes the machine's drift between runs.
    """
    return REFERENCE_S / statistics.median(
        t["ref_s"] for r in reps for t in r["timings"].values())


def end_to_end(reps: list, factor: float) -> dict:
    return {
        "setup_s": (factor * statistics.median(t["import_s"] for r in reps
                                               for t in r["timings"].values()), "s"),
        "solve_s": (factor * sum(_job_medians(reps, "solve_s")), "s"),
        "wall_s": (factor * sum(_job_medians(reps, "wall_s")), "s"),
        "peak_rss_mb": (max(_job_medians(reps, "peak_rss_mb")), "MB"),
    }


def per_layer(reps: list) -> dict:
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    out = {}
    for key in traced[0]["layers"]:
        unit = "count" if key.endswith(".calls") else "s" if key.endswith("_s") else "ratio"
        out[key] = (statistics.median(r["layers"][key] for r in traced), unit)
    overhead = sum(_job_medians(traced, "solve_s")) / sum(_job_medians(plain, "solve_s")) - 1
    out["trace.overhead_frac"] = (overhead, "ratio")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true",
                    help="write this run's digests to golden.json (only at a trusted commit)")
    args = ap.parse_args()

    golden = {} if args.record_golden else json.loads(GOLDEN.read_text())
    prepare()
    reps = measure(args.workload, args.seed, args.seconds, bool(args.trace), golden)
    attempted = sum(len(r["outputs"]) for r in reps)
    failed = sum(len(r["failed"]) for r in reps)
    for r in reps:
        for name, why in r["failed"].items():
            print(f"FAILED {args.workload}/{name}: {why}", file=sys.stderr)
    if args.record_golden:
        if failed:
            raise SystemExit("refusing to record goldens from a run with failures")
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"jobs": {}}
        golden["seed"] = args.seed
        golden["jobs"].update(reps[0]["outputs"])
        GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    factor = speed_factor(reps)
    print(json.dumps({
        "env": environment(args.seed),
        "workload": args.workload,
        "speed_factor": factor,
        "unscaled": {k: v for k, (v, _) in end_to_end(reps, 1.0).items()},
        "reps": [{"traced": r["traced"], "timings": r["timings"]} for r in reps],
    }))
    metrics = per_layer(reps) if args.trace else end_to_end(reps, factor)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
