"""Outside-in spans around critpop's layer functions, and their aggregation.

`install` runs inside a job process after `critpop.cli` is imported.  It
replaces each function in LAYERS by a wrapper that records one span per
call: name, start, end, the enclosing span and one integer note.  The
wrapper is bound wherever the original object is bound, because a
`from .poly import wronskian` in another module keeps its own reference.
Spans stay in memory and `Recorder.write` dumps them when the job ends.
`summarize` turns span files into the per-layer metrics; it runs in the
benchmark process and imports nothing from critpop.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
from array import array
from time import perf_counter

# module -> traced functions; "Class.method" wraps the method on the class.
LAYERS = {
    "poly": ["Poly.__mul__", "Poly.__add__", "Poly.__sub__", "Poly.__divmod__",
             "wronskian", "solve_linear", "gcd"],
    "core": ["is_generic", "heine_stieltjes_test", "t_polys", "wronskian_rhs"],
    "reproduction": ["solve_wronskian_equation", "explore_population"],
    "fundamental": ["fundamental_space", "generating_morphism", "_apply_factored_operator"],
    "selfduality": ["gram", "antidiagonal_basis", "isotropic_generators",
                    "quasi_witt_basis", "is_isotropic"],
    "bc": ["bc_fundamental_space", "bc_population_as_isotropic_flags", "bc_critical_test"],
    "schubert": ["count_critical_sl2"],
    "roots": ["enumerate_weyl"],
    "cli": ["main"],
}
SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]
# The arrays written per span, in file order.
_COLUMNS = (("name", "i"), ("parent", "i"), ("outer", "b"), ("note", "q"),
            ("start", "d"), ("end", "d"))


class Recorder:
    """Span store for one process: parallel arrays indexed by span id."""

    def __init__(self):
        self.cols = {key: array(code) for key, code in _COLUMNS}
        self.active = [0] * len(SPAN_NAMES)
        self.main_ident = threading.get_ident()
        self.stacks: dict[int, list[int]] = {self.main_ident: []}
        self.gram_inputs: dict = {}

    def _stack(self) -> list[int]:
        ident = threading.get_ident()
        stack = self.stacks.get(ident)
        if stack is None:
            # A worker thread's first span is caused by whatever the main
            # thread has open (it is blocked waiting on the worker).
            stack = self.stacks[ident] = self.stacks[self.main_ident][-1:]
        return stack

    def wrap(self, name_id: int, fn, note=None):
        c = self.cols
        names, parents, outers, notes = c["name"], c["parent"], c["outer"], c["note"]
        starts, ends = c["start"], c["end"]
        active = self.active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            outers.append(active[name_id] == 0)
            notes.append(0)
            ends.append(0.0)
            stack.append(idx)
            active[name_id] += 1
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                active[name_id] -= 1
                stack.pop()
            if note is not None:
                notes[idx] = note(args, result)
            return result

        return traced

    def _gram_note(self, args, result) -> int:
        """Index of the (space, framing) input among those seen so far."""
        return self.gram_inputs.setdefault((args[0], args[1]), len(self.gram_inputs))

    def write(self, path: str) -> None:
        with open(path, "wb") as fh:
            n = len(self.cols["name"])
            fh.write((json.dumps({"names": SPAN_NAMES, "count": n}) + "\n").encode())
            for key, _ in _COLUMNS:
                self.cols[key].tofile(fh)


def install(rec: Recorder) -> None:
    """Wrap every function in LAYERS wherever a critpop module binds it."""
    notes = {
        "selfduality.gram": rec._gram_note,
        "core.is_generic": lambda args, result: int(bool(result[0])),
        "bc.bc_population_as_isotropic_flags": lambda args, result: result.generic_hits,
    }
    for mod_name, fns in LAYERS.items():
        mod = importlib.import_module(f"critpop.{mod_name}")
        for fn_name in fns:
            span = f"{mod_name}.{fn_name}"
            name_id = SPAN_NAMES.index(span)
            if "." in fn_name:
                cls_name, attr = fn_name.split(".")
                owners = [getattr(mod, cls_name)]
                orig = owners[0].__dict__[attr]
            else:
                owners = [m for key, m in list(sys.modules.items())
                          if key == "critpop" or key.startswith("critpop.")]
                orig = getattr(mod, fn_name)
            traced = rec.wrap(name_id, orig, notes.get(span))
            for owner in owners:
                # `__radd__ = __add__` and re-exports bind the same object.
                for key, value in list(vars(owner).items()):
                    if value is orig:
                        setattr(owner, key, traced)


def _read(path: str):
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["count"]
        cols = {}
        for key, code in _COLUMNS:
            cols[key] = array(code)
            cols[key].fromfile(fh, n)
    return header["names"], cols


def summarize(paths) -> dict[str, float]:
    """Per-layer metrics summed over the span files of one run of a job list.

    A function's total time counts only its outermost calls, so recursion
    is not counted twice; self time is duration minus the duration of the
    spans it directly encloses.  A ratio whose base is 0 reads 0.
    """
    k = len(SPAN_NAMES)
    calls, total, self_s = [0] * k, [0.0] * k, [0.0] * k
    gram_distinct = generic_true = 0
    hits = morphisms_under_sampling = 0
    gram_id = SPAN_NAMES.index("selfduality.gram")
    generic_id = SPAN_NAMES.index("core.is_generic")
    sampling_id = SPAN_NAMES.index("bc.bc_population_as_isotropic_flags")
    morphism_id = SPAN_NAMES.index("fundamental.generating_morphism")
    for path in paths:
        names, cols = _read(path)
        if names != SPAN_NAMES:
            raise ValueError(f"{path}: span names differ from this benchmark's")
        name, parent, outer, note = cols["name"], cols["parent"], cols["outer"], cols["note"]
        dur = [e - s for s, e in zip(cols["start"], cols["end"])]
        child = [0.0] * len(dur)
        for i, p in enumerate(parent):
            if p >= 0:
                child[p] += dur[i]
        job_gram_inputs = -1
        for i, nid in enumerate(name):
            calls[nid] += 1
            if outer[i]:
                total[nid] += dur[i]
            self_s[nid] += max(0.0, dur[i] - child[i])
            if nid == gram_id:
                job_gram_inputs = max(job_gram_inputs, note[i])
            elif nid == generic_id:
                generic_true += note[i]
            elif nid == sampling_id:
                hits += note[i]
            elif nid == morphism_id:
                p = parent[i]
                while p >= 0 and name[p] != sampling_id:
                    p = parent[p]
                morphisms_under_sampling += p >= 0
        gram_distinct += job_gram_inputs + 1
    out: dict[str, float] = {}
    for nid, span in enumerate(SPAN_NAMES):
        out[f"{span}.calls"] = calls[nid]
        out[f"{span}.total_s"] = total[nid]
        out[f"{span}.self_s"] = self_s[nid]
    out["selfduality.gram.distinct_frac"] = _frac(gram_distinct, calls[gram_id])
    out["core.is_generic.true_frac"] = _frac(generic_true, calls[generic_id])
    out["bc.isotropic.hit_frac"] = _frac(hits, morphisms_under_sampling)
    return out


def _frac(num: int, den: int) -> float:
    return num / den if den else 0.0
