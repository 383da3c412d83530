"""Command-line interface: verify | populate | fundamental | selfdual | count | identities.

Configs are JSON: {"root_system": "A2", "weights": [[1,0], ...],
"points": ["0", "1/2", ...], "tuple": ["1 1", ...]}. Tuples use the
canonical polynomial text form (space-separated rationals, lowest degree
first).  Every report line that certifies a named fact carries a
machine-greppable tag such as [ind-thm] or [wr-u-lem].  Exit code 0 means
every asserted check passed.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bc as bcmod
from .core import (
    ProblemInstance,
    check_separating,
    degree_vector,
    heine_stieltjes_test,
    is_generic,
    monic_tuple,
    ones_tuple,
    weight_at_infinity,
)
from .errors import CritpopError, IdentityViolated, InvalidInstance, NotSelfdual
from .fundamental import (
    exponents,
    expected_exponents_finite,
    expected_exponents_infinity,
    flag_from_tuple,
    fundamental_space,
    generating_morphism,
    pluecker_check,
    schubert_index_finite,
    schubert_index_infinity,
    verify_dp,
)
from .poly import Poly, identity_suite
from .reproduction import (
    degree_vector_to_weyl,
    explore_population,
    is_fertile,
    predicted_degree_vectors,
)
from .roots import dominant_representative
from .schubert import multiplicity_bound, population_count_report
from .selfduality import SelfdualSpace, framing_of, quasi_witt_basis


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
            print(json.dumps({"ok": self.ok, "lines": self.lines}, sort_keys=True, indent=2))
        else:
            for ln in self.lines:
                status = "PASS" if ln["pass"] else "FAIL"
                print(f"[{ln['tag']}] {ln['text']} : {status}")
        return 0 if self.ok else 1


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise InvalidInstance(f"cannot load config: {exc}") from exc


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
    ok, reason = is_generic(pi, y)
    rep.add("generic", f"tuple {_fmt_tuple(y)}: {reason}", ok)
    if ok:
        if pi.rd.kind == "A":
            crit = heine_stieltjes_test(pi, y)
            rep.add("deg-2-lem", f"divisibility criterion on {_fmt_tuple(y)}", crit)
            rep.add(
                "fertile-cor",
                "criterion agrees with direction-wise solvability",
                crit == is_fertile(pi, y),
            )
        else:
            crit = bcmod.bc_critical_test(pi, y)
            rep.add("bc-critical", f"B/C criterion on {_fmt_tuple(y)}", crit)
            rep.add("fold-equiv", "criticality transfers through folding",
                    bcmod.fold_equivalence(pi, y))
    return rep.emit()


def cmd_populate(args) -> int:
    cfg = _load_config(args.config)
    pi = ProblemInstance.from_config(cfg)
    y0 = _tuple_from_config(cfg, pi)
    rep = Report(args.format)
    atlas = explore_population(pi, y0, args.max_degree, args.seed)
    lam0 = weight_at_infinity(pi, y0)
    dom = dominant_representative(pi.rd, lam0)
    if dom is None:
        rep.add("on-wall", "weight at infinity lies on a shifted wall", False)
        return rep.emit()
    lam_dom, _ = dom
    predicted = predicted_degree_vectors(pi, lam_dom, args.max_degree)
    reached = set(atlas.members)
    rep.add(
        "inf-weight",
        f"reached {len(reached)} degree vectors == predicted {len(predicted)}",
        reached == predicted,
    )
    for l in atlas.degree_vectors():
        w = degree_vector_to_weyl(pi, lam_dom, l)
        word = "s" + " s".join(str(i + 1) for i in w.word) if w and w.word else "e"
        rep.add("member", f"l={l} w={word} tuple={_fmt_tuple(atlas.members[l].tuple_y)}")
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
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
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
    for s, z in enumerate(pi.points):
        got = exponents(space, z)
        want = expected_exponents_finite(pi, s)
        rep.add("z-exp", f"exponents at z={z}: {got}", got == want)
        rep.add("ram-a", f"a({z}) = {schubert_index_finite(space, z)}")
    got_inf = exponents(space, "inf")
    want_inf = expected_exponents_infinity(pi, y)
    rep.add("inf-exp", f"exponents at infinity: {got_inf}", got_inf == want_inf)
    rep.add("ram-a", f"a(inf) = {schubert_index_infinity(space, d)}")
    rep.add("pluecker", "sum of ramification codimensions",
            pluecker_check(space, pi.points, d))
    flag = flag_from_tuple(space, y, pi.ts)
    rep.add("pol-crit", "generating morphism round trip",
            generating_morphism(space, flag, pi.ts) == y)
    rep.add("ind-thm", "factored operator annihilates the space",
            verify_dp(pi, [space], y))
    rep.add("first-coor", "y_1 lies in the space", space.contains(y[0]))
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
            sd = SelfdualSpace(space, framing_of(space, pi.points))
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
        report = bcmod.bc_population_as_isotropic_flags(pi, sd, qw.flag, args.samples,
                                                        args.seed)
        rep.add("cor-so" if pi.rd.kind == "B" else "cor-sp",
                f"{report.generic_hits} isotropic flag samples unfold to critical tuples",
                report.all_critical and report.all_symmetric)
    return rep.emit()


def cmd_count(args) -> int:
    cfg = _load_config(args.config)
    pi = ProblemInstance.from_config(cfg)
    rep = Report(args.format)
    if pi.rd.kind != "A":
        rep.add("usage", "count expects a type-A instance", False)
        return rep.emit()
    if args.max_degree < 0:
        raise InvalidInstance("--max-degree must be at least 0")
    if pi.rd.rank == 1:
        for l in range(args.max_degree + 1):
            lam = sum(w[0] for w in pi.weights) - 2 * l
            if lam < 0:
                continue
            exact, bound = population_count_report(pi, l)
            rep.add("estimate", f"l={l}: exact {exact} <= bound {bound}", exact <= bound)
    else:
        y = _tuple_from_config(cfg, pi)
        lam_inf = weight_at_infinity(pi, y)
        dom = dominant_representative(pi.rd, lam_inf)
        if dom is None:
            rep.add("on-wall", "weight at infinity on a wall: no critical points", True)
            return rep.emit()
        bound = multiplicity_bound(pi, dom[0])
        rep.add("estimate", f"multiplicity bound {bound}")
    return rep.emit()


def cmd_identities(args) -> int:
    rep = Report(args.format)
    try:
        result = identity_suite(args.seed, args.trials)
        rep.add("wronskian-identities",
                f"{result.trials} trials, checks {result.checks}", result.passed)
    except IdentityViolated as exc:
        rep.add("wronskian-identities", str(exc), False)
    return rep.emit()


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="critpop")
    sub = ap.add_subparsers(dest="command", required=True)
    options = {
        "--config": dict(required=True),
        "--seed": dict(type=int, default=0),
        "--max-degree": dict(type=int, default=8),
        "--output": dict(default=None),
        "--samples": dict(type=int, default=5),
        "--trials": dict(type=int, default=100),
    }
    # each subcommand declares only the options it reads, plus --format;
    # fundamental and count accept --seed so one seed can go to every job
    commands = [
        ("verify", cmd_verify, "genericity + criterion on a supplied tuple",
         ("--config",)),
        ("populate", cmd_populate, "explore a population and write the atlas",
         ("--config", "--seed", "--max-degree", "--output")),
        ("fundamental", cmd_fundamental, "fundamental space, exponents, ramification",
         ("--config", "--seed")),
        ("selfdual", cmd_selfdual, "dual space, Gram matrix, isotropic flags",
         ("--config", "--seed", "--samples")),
        ("count", cmd_count, "multiplicity bounds and rank-one exact counts",
         ("--config", "--seed", "--max-degree")),
        ("identities", cmd_identities, "appendix Wronskian identity suite",
         ("--seed", "--trials")),
    ]
    for name, func, help_text, opts in commands:
        p = sub.add_parser(name, help=help_text)
        for opt in opts:
            p.add_argument(opt, **options[opt])
        p.add_argument("--format", choices=("table", "json"), default="table")
        p.set_defaults(func=func)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CritpopError as exc:
        print(f"[error] {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
