"""`critpop.fundamental` builds the fundamental space and its flags from
the operator of a tuple alone, so it imports nothing from
`critpop.reproduction`: the reproduction walk stays a client of the type-A
machinery, never a part of it.  `critpop.selfduality` frames a space by its
instance's T-polynomials, so it does not import `exponents` to derive a
framing from the space again.  The library imports the standard library
alone, at module level and inside functions: sympy and the other test
dependencies stay in `tests/`."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "critpop"


def imported(source: str, package: str = "critpop") -> set[str]:
    """Every module a source imports or imports from, absolute, together
    with each `from M import name` as M.name, which may be a submodule."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = ".".join(filter(None, [package, base]))
            out.add(base)
            out.update(f"{base}.{alias.name}" for alias in node.names)
    return out


def from_reproduction(source: str) -> set[str]:
    """The imports of a source that name `critpop.reproduction` or a part of it."""
    return {n for n in imported(source) if n.split(".")[:2] == ["critpop", "reproduction"]}


def test_fundamental_imports_nothing_from_reproduction():
    assert from_reproduction((SRC / "fundamental.py").read_text()) == set()


def test_guard_sees_every_import_form():
    for line in ("from .reproduction import immediate_descendants",
                 "from . import reproduction",
                 "from critpop import reproduction",
                 "from critpop.reproduction import param_candidates",
                 "import critpop.reproduction"):
        assert from_reproduction(line), line
    assert not from_reproduction("from .poly import reproduction_free\nimport reproduction")


def test_selfduality_derives_no_framing_from_exponents():
    assert "critpop.fundamental.exponents" not in imported((SRC / "selfduality.py").read_text())


def outside_stdlib(source: str) -> set[str]:
    """The top names of the absolute modules a source imports, anywhere in
    it, that are neither in the standard library nor `critpop` itself."""
    return {n.split(".")[0] for n in imported(source)} - set(sys.stdlib_module_names) - {"critpop"}


def test_src_imports_the_stdlib_alone():
    found = {p.name: got for p in sorted(SRC.glob("*.py")) if (got := outside_stdlib(p.read_text()))}
    assert found == {}


def test_stdlib_guard_sees_function_level_imports():
    source = "import math\nfrom . import poly\n\ndef count():\n    import sympy\n"
    assert outside_stdlib(source) == {"sympy"}
    assert outside_stdlib("def f():\n    from numpy.linalg import matrix_rank\n") == {"numpy"}
    assert outside_stdlib("from .poly import _zrref\nfrom operator import mul\n") == set()
