"""Command-line interface: verify | populate | fundamental | selfdual | count | identities.

Configs are JSON: {"root_system": "A2", "weights": [[1,0], ...],
"points": ["0", "1/2", ...], "tuple": ["1 1", ...]}. Tuples use the
canonical polynomial text form (space-separated rationals, lowest degree
first).  Every report line that certifies a named fact carries a
machine-greppable tag such as [ind-thm] or [wr-u-lem].  Exit code 0 means
every asserted check passed and 1 that some check failed.  Exit code 2
means the run was refused or cut short, by a bad command line, a bad input
(a `CritpopError`) or a closed stdout (`BrokenPipeError`, e.g. under
`| head`), and comes with one `[error]` line on stderr, never a traceback.
"""

from __future__ import annotations

import json
import os
import re
import sys
from types import SimpleNamespace

from . import bc as bcmod
from .core import (
    ProblemInstance,
    _lambda_inf,
    check_separating,
    degree_vector,
    heine_stieltjes_test,
    monic_tuple,
    ones_tuple,
    weight_at_infinity,
)
from .errors import CritpopError, IdentityViolated, InvalidInstance, NotGeneric, NotSelfdual
from .fundamental import (
    exponents,
    expected_exponents_finite,
    expected_exponents_infinity,
    flag_from_tuple,
    fundamental_space,
    pluecker_check,
    schubert_index_finite,
    schubert_index_infinity,
    verify_dp,
)
from .poly import Poly, identity_suite
from .reproduction import explore_population, immediate_descendants, is_fertile, weyl_degree_map
from .roots import _ENUM_RANK_CAP, dominant_representative
from .selfduality import SelfdualSpace, quasi_witt_basis


class Report:
    def __init__(self, fmt: str):
        self.fmt = fmt
        self.lines: list[dict] = []
        self.ok = True

    def add(self, tag: str, text: str, passed: bool = True):
        self.lines.append({"tag": tag, "text": text, "pass": passed})
        self.ok = self.ok and passed

    def emit(self) -> int:
        if self.fmt == "json":
            text = json.dumps({"ok": self.ok, "lines": self.lines}, sort_keys=True, indent=2) + "\n"
        else:
            text = "".join(f"[{ln['tag']}] {ln['text']} : {'PASS' if ln['pass'] else 'FAIL'}\n"
                           for ln in self.lines)
        sys.stdout.write(text)  # one write: unbuffered, `print` makes two per line
        return 0 if self.ok else 1


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise InvalidInstance(f"cannot load config: {exc}") from exc
    if not isinstance(cfg, dict):
        raise InvalidInstance("config must be a JSON object")
    return cfg


def _tuple_from_config(cfg: dict, pi: ProblemInstance):
    if "tuple" not in cfg:
        return ones_tuple(pi.rd)
    texts = cfg["tuple"]
    if not isinstance(texts, list) or len(texts) != pi.rd.rank:
        raise InvalidInstance(f"tuple must list {pi.rd.rank} polynomial texts")
    try:
        polys = [Poly.from_text(t) for t in texts]
    except (AttributeError, ValueError, ZeroDivisionError) as exc:
        raise InvalidInstance(f"bad polynomial text: {exc}") from exc
    if any(p.is_zero() for p in polys):
        raise InvalidInstance("tuple has a zero polynomial")
    return monic_tuple(polys)


def _fmt_tuple(y) -> str:
    return "(" + ", ".join(str(p) for p in y) + ")"


def cmd_verify(args) -> int:
    cfg = _load_config(args.config)
    pi = ProblemInstance.from_config(cfg)
    y = _tuple_from_config(cfg, pi)
    rep = Report(args.format)
    # one genericity test: the criterion raises NotGeneric with the reason
    try:
        crit = (heine_stieltjes_test if pi.rd.kind == "A" else bcmod.bc_criterion)(pi, y)
    except NotGeneric as exc:
        rep.add("generic", f"tuple {_fmt_tuple(y)}: {exc}", False)
        return rep.emit()
    rep.add("generic", f"tuple {_fmt_tuple(y)}: generic")
    if pi.rd.kind == "A":
        rep.add("deg-2-lem", f"divisibility criterion on {_fmt_tuple(y)}", crit)
        rep.add(
            "fertile-cor",
            "criterion agrees with direction-wise solvability",
            crit == is_fertile(pi, y),
        )
    else:
        rep.add("bc-critical", f"B/C criterion on {_fmt_tuple(y)}", crit)
        rep.add("fold-equiv", "criticality transfers through folding",
                bcmod.fold_equivalence(pi, y, crit))
    return rep.emit()


def cmd_populate(args) -> int:
    cfg = _load_config(args.config)
    pi = ProblemInstance.from_config(cfg)
    y0 = _tuple_from_config(cfg, pi)
    rep = Report(args.format)
    if pi.rd.rank > _ENUM_RANK_CAP:  # the prediction enumerates the Weyl group
        raise InvalidInstance(f"populate supports rank at most {_ENUM_RANK_CAP}")
    atlas = explore_population(pi, y0, args.max_degree)
    lam_dom = dominant_representative(pi.rd, weight_at_infinity(pi, y0))
    if lam_dom is None:
        rep.add("on-wall", "weight at infinity lies on a shifted wall", False)
        return rep.emit()
    weyl = weyl_degree_map(pi, lam_dom, args.max_degree)
    reached = set(atlas.members)
    rep.add(
        "inf-weight",
        f"reached {len(reached)} degree vectors == predicted {len(weyl)}",
        reached == set(weyl),
    )
    for l in atlas.degree_vectors():
        w = weyl.get(l)
        word = "none" if w is None else " ".join(f"s{i + 1}" for i in w) or "e"
        rep.add("member", f"l={l} w={word} tuple={_fmt_tuple(atlas.members[l].tuple_y)}",
                w is not None)
    # explore_population raises unless every generic member passes the
    # criterion and every member is fertile in every direction
    rep.add("duplicate-thm", "every stored member is critical/fertile")
    lvec = degree_vector(y0)
    rep.add(
        "separating",
        f"separating condition at l={lvec}",
        check_separating(pi, lvec),
    )
    if args.output:
        text = atlas.to_json(args.seed, args.max_degree, cfg["root_system"])
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InvalidInstance(f"cannot write atlas: {exc}") from exc
        rep.add("atlas", f"wrote {args.output}")
    return rep.emit()


def cmd_fundamental(args) -> int:
    cfg = _load_config(args.config)
    pi = ProblemInstance.from_config(cfg)
    y = _tuple_from_config(cfg, pi)
    rep = Report(args.format)
    if pi.rd.kind != "A":
        rep.add("usage", "fundamental expects a type-A instance", False)
        return rep.emit()
    if not heine_stieltjes_test(pi, y):
        rep.add("deg-2-lem", f"{_fmt_tuple(y)} is not critical", False)
        return rep.emit()
    space = fundamental_space(pi, y)
    rep.add("wr-u-lem", f"basis {[str(b) for b in space.basis]}")
    d = max(space.degrees())
    finite_exps = [exponents(space, z) for z in pi.points]
    for s, (z, got) in enumerate(zip(pi.points, finite_exps)):
        want = expected_exponents_finite(pi, s)
        rep.add("z-exp", f"exponents at z={z}: {got}", got == want)
        rep.add("ram-a", f"a({z}) = {schubert_index_finite(got)}")
    got_inf = exponents(space, "inf")
    want_inf = expected_exponents_infinity(pi, y)
    rep.add("inf-exp", f"exponents at infinity: {got_inf}", got_inf == want_inf)
    rep.add("ram-a", f"a(inf) = {schubert_index_infinity(space, d)}")
    rep.add("pluecker", "sum of ramification codimensions",
            pluecker_check(space, finite_exps))
    # flag_from_tuple raises NotInImage unless y_1 lies in the space and beta(F) = y
    flag_from_tuple(space, y, pi.ts)
    rep.add("pol-crit", "generating morphism round trip")
    # independence of the member: each immediate descendant's operator annihilates V
    descendants = [y[:i] + (immediate_descendants(pi, y, i).base,) + y[i + 1:]
                   for i in range(pi.rd.rank)]
    rep.add("ind-thm", "factored operator annihilates the space",
            all(verify_dp(pi, space, desc) for desc in descendants))
    rep.add("first-coor", "y_1 lies in the space")
    return rep.emit()


def cmd_selfdual(args) -> int:
    cfg = _load_config(args.config)
    pi = ProblemInstance.from_config(cfg)
    y = _tuple_from_config(cfg, pi)
    rep = Report(args.format)
    if args.samples < 1:
        raise InvalidInstance("--samples must be at least 1")
    if pi.rd.kind == "A":
        if not heine_stieltjes_test(pi, y):
            rep.add("deg-2-lem", f"{_fmt_tuple(y)} is not critical", False)
            return rep.emit()
        space = fundamental_space(pi, y)
        try:
            sd = SelfdualSpace(space, pi.ts)
        except NotSelfdual:
            rep.add("selfdual", f"dim {space.dim} space selfdual: False")
            return rep.emit()
        rep.add("selfdual", f"dim {space.dim} space selfdual: True")
    else:
        sd = bcmod.bc_fundamental_space(pi, y)
        rep.add("so-self" if pi.rd.kind == "B" else "sp-self",
                f"folded fundamental space selfdual, dim {sd.dim}")
    # gram raises unless the form is skew in even and symmetric in odd dimension
    parity = "skew" if sd.dim % 2 == 0 else "symmetric"
    rep.add("symm", f"canonical form is {parity}")
    rep.add("gram", "rows " + "; ".join(
        "[" + " ".join(str(v) for v in row) + "]" for row in sd.gm.entries
    ))
    qw = quasi_witt_basis(sd)
    rep.add("dar-1", f"quasi-Witt ratios {[str(a) for a in qw.ratios]}")
    rep.add("witt", f"normalization status: {qw.status}")
    # antidiagonal_basis raises unless the quasi-Witt flag is isotropic
    rep.add("isotropic", "quasi-Witt flag is isotropic")
    if pi.rd.kind in "BC":
        report = bcmod.bc_population_as_isotropic_flags(pi, sd, qw, args.samples, args.seed)
        rep.add("cor-so" if pi.rd.kind == "B" else "cor-sp",
                f"{report.generic_hits} isotropic flag samples unfold to critical tuples",
                report.all_critical and report.all_symmetric)
    return rep.emit()


def cmd_count(args) -> int:
    # imported here: no other subcommand reads `schubert`, so start-up skips it
    from .schubert import multiplicity_bound, population_count_report

    cfg = _load_config(args.config)
    pi = ProblemInstance.from_config(cfg)
    rep = Report(args.format)
    if pi.rd.kind != "A":
        rep.add("usage", "count expects a type-A instance", False)
        return rep.emit()
    if args.max_degree is not None and (args.max_degree < 0 or pi.rd.rank > 1):
        raise InvalidInstance("--max-degree must be at least 0 and is read at rank 1 only")
    if pi.rd.rank == 1:
        for l in range((8 if args.max_degree is None else args.max_degree) + 1):
            if _lambda_inf(pi, (l,))[0] < 0:
                break  # Lambda_inf falls as l grows
            exact, bound = population_count_report(pi, l)
            rep.add("estimate", f"l={l}: exact {exact} <= bound {bound}", exact <= bound)
    else:
        y = _tuple_from_config(cfg, pi)
        lam_inf = weight_at_infinity(pi, y)
        dom = dominant_representative(pi.rd, lam_inf)
        if dom is None:
            rep.add("on-wall", "weight at infinity on a wall: no critical points", True)
            return rep.emit()
        bound = multiplicity_bound(pi, dom)
        rep.add("estimate", f"multiplicity bound {bound}")
    return rep.emit()


def cmd_identities(args) -> int:
    rep = Report(args.format)
    try:
        result = identity_suite(args.seed, args.trials)
        rep.add("wronskian-identities",
                f"{result.trials} trials, checks {result.checks}")
    except IdentityViolated as exc:
        rep.add("wronskian-identities", str(exc), False)
    return rep.emit()


# The command line as data: each option's type (int, str or its choices) and
# default; each subcommand's function, help line and the options it reads
# besides --format (fundamental and count take --seed for one seed per job).
OPTIONS = {"--config": (str, None), "--seed": (int, 0), "--max-degree": (int, 8),
           "--output": (str, None), "--samples": (int, 5), "--trials": (int, 100),
           "--format": (("table", "json"), "table")}
COMMANDS = {
    "verify": (cmd_verify, "genericity + criterion on a supplied tuple", ("--config",)),
    "populate": (cmd_populate, "explore a population and write the atlas",
                 ("--config", "--seed", "--max-degree", "--output")),
    "fundamental": (cmd_fundamental, "fundamental space, exponents, ramification",
                    ("--config", "--seed")),
    "selfdual": (cmd_selfdual, "dual space, Gram matrix, isotropic flags",
                 ("--config", "--seed", "--samples")),
    "count": (cmd_count, "multiplicity bounds and rank-one exact counts",
              ("--config", "--seed", "--max-degree")),
    "identities": (cmd_identities, "appendix Wronskian identity suite", ("--seed", "--trials")),
}


def _usage_error(prog: str, msg: str):
    print(f"[error] usage: {prog}: {msg}", file=sys.stderr)
    raise SystemExit(2)


def parse_args(argv):
    """The subcommand and option values of a `critpop` command line.  As with
    argparse, an option is given as `--name value`, `--name=value` or by a
    unique prefix of its name, and the last value wins.  -h or --help anywhere
    prints the table and exits 0; a bad line prints one [error] line, exits 2."""
    if any(tok == "-h" or tok[2:] and "--help".startswith(tok) for tok in argv):
        print("usage: critpop <command> [options]; --config is required where read\n")
        for cmd, (_, line, opts) in COMMANDS.items():
            print(f"  {cmd:<12} {line}\n{'':15}" + " ".join(
                f"{opt} {OPTIONS[opt][1]}".removesuffix(" None") for opt in (*opts, "--format")))
        raise SystemExit(0)
    if not argv or argv[0] not in COMMANDS:
        _usage_error("critpop", f"expected a command from {', '.join(COMMANDS)}")
    prog, (func, _, opts), rest = f"critpop {argv[0]}", COMMANDS[argv[0]], list(argv[1:])
    values = {opt: OPTIONS[opt][1] for opt in (*opts, "--format")}
    if argv[0] == "count":
        values["--max-degree"] = None  # read at rank 1 only, default 8
    while rest:
        key, eq, val = rest.pop(0).partition("=")
        hits = [opt for opt in values if opt.startswith(key)] if key[2:] else []
        if len(hits) != 1:
            _usage_error(prog, f"unknown or ambiguous {key!r}; options: {', '.join(values)}")
        opt, kind = hits[0], OPTIONS[hits[0]][0]
        if not eq:  # as in argparse, "-", a negative number or text with a space is a value
            if not rest or re.fullmatch(r"-(?!\d*\.?\d+\Z)[^ ]+", rest[0]):
                _usage_error(prog, f"{opt} expects one value")
            val = rest.pop(0)
        try:  # int() and the index in a tuple of choices raise ValueError on a bad value
            values[opt] = kind(val) if kind in (int, str) else kind[kind.index(val)]
        except ValueError:
            _usage_error(prog, f"{opt} expects {getattr(kind, '__name__', kind)}, got {val!r}")
    if values.get("--config", "") is None:  # read but not given
        _usage_error(prog, "--config is required")
    return SimpleNamespace(command=argv[0], func=func,
                           **{opt[2:].replace("-", "_"): v for opt, v in values.items()})


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        rc = args.func(args)
        sys.stdout.flush()
        return rc
    except (BrokenPipeError, CritpopError) as exc:
        if isinstance(exc, BrokenPipeError):
            # the reader closed stdout: point it at devnull, so that the
            # flush at interpreter shutdown cannot raise again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(f"[error] {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
