"""Run one critpop CLI call in this fresh interpreter and record its cost.

    python3 bench/job.py RESULT_JSON [--spans SPAN_FILE] -- CLI_ARGS...

Run from the repository root.  The CLI's stdout passes through unchanged.
RESULT_JSON receives the import time of `critpop.cli`, the time spent in
`main(argv)`, its exit code and the process's peak RSS.  With --spans the
layer functions are wrapped after the import and their spans are written
to SPAN_FILE when `main` returns.
"""

import json
import resource
import sys
import time


def run() -> int:
    argv = sys.argv[1:]
    sep = argv.index("--")
    opts, cli_args = argv[:sep], argv[sep + 1:]
    result_path, span_path = opts[0], opts[2] if opts[1:2] == ["--spans"] else None

    t0 = time.perf_counter()
    sys.path.insert(0, "src")
    import critpop.cli

    import_s = time.perf_counter() - t0
    rec = None
    if span_path:
        import spans

        rec = spans.Recorder()
        spans.install(rec)
    t1 = time.perf_counter()
    try:
        code = critpop.cli.main(cli_args)
    except SystemExit as exc:  # argparse rejects its arguments this way
        code = exc.code if isinstance(exc.code, int) else 2
    solve_s = time.perf_counter() - t1
    sys.stdout.flush()
    if rec is not None:
        rec.write(span_path)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({
            "import_s": import_s,
            "solve_s": solve_s,
            "exit_code": code,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }, fh)
    return 0


if __name__ == "__main__":
    sys.exit(run())
