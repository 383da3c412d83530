"""`critpop.fundamental` builds the fundamental space and its flags from
the operator of a tuple alone, so it imports nothing from
`critpop.reproduction`: the reproduction walk stays a client of the type-A
machinery, never a part of it.  `critpop.selfduality` frames a space by its
instance's T-polynomials, so it does not import `exponents` to derive a
framing from the space again."""

import ast
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
