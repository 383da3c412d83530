"""Every top-level function and class in `src/critpop`, and every public
method of such a class, has a use in the library: a reference in `src/`
outside its own definition, or a place in the benchmark's traced layers
(`bench/spans.py` `LAYERS`).  A method counts as referenced only through
an attribute (`x.name`): a bare local name that happens to match it is no
use of it.  Test-only helpers live in `tests/`.  Every name a module
imports is read in it, except the re-exports of `__init__.py`, and every
parameter of a function or method is read in its body, except `self` and
the parameters of dunder methods, whose signatures Python fixes.  Every
top-level function of `tests/conftest.py`, fixtures included, is read by a
test module or by a conftest function that one reads."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "critpop"


def traced_layers() -> set[str]:
    """`LAYERS` of `bench/spans.py` as "module.name" strings, read with ast."""
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            layers = ast.literal_eval(node.value)
            return {f"{mod}.{fn}" for mod, fns in layers.items() for fn in fns}
    raise AssertionError("bench/spans.py defines no LAYERS")


def definitions(tree: ast.Module, module: str):
    """(qualified name, bare name, node) of each top-level function and
    class and of each public method of a top-level class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item.name, item


def references(tree: ast.Module, skip: ast.AST | None = None,
               attributes_only: bool = False) -> set[str]:
    """Names read or written as identifiers or attributes, outside `skip`;
    with `attributes_only`, the attribute names alone."""
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and not attributes_only:
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def unreferenced() -> list[str]:
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    everywhere = {only: {mod: references(tree, attributes_only=only) for mod, tree in trees.items()}
                  for only in (False, True)}
    allowed = traced_layers()
    dead = []
    for mod, tree in trees.items():
        for qual, name, node in definitions(tree, mod):
            method = qual.count(".") == 2  # module.Class.method
            others = set().union(*(refs for m, refs in everywhere[method].items() if m != mod))
            if name not in others and qual not in allowed \
                    and name not in references(tree, skip=node, attributes_only=method):
                dead.append(qual)
    return dead


def test_every_definition_is_used_in_src():
    assert unreferenced() == []


def test_guard_ignores_a_local_name_that_matches_a_method():
    tree = ast.parse("class C:\n    def n(self):\n        return 0\n\n"
                     "def f(n):\n    return n + 1\n")
    (_, _, _), (qual, name, node), (_, _, _) = definitions(tree, "m")
    assert qual == "m.C.n" and name in references(tree, skip=node)
    assert name not in references(tree, skip=node, attributes_only=True)
    tree = ast.parse("class C:\n    def n(self):\n        return 0\n\n"
                     "def f(c):\n    return c.n()\n")
    assert "n" in references(tree, attributes_only=True)


def test_guard_sees_a_helper_used_only_by_itself():
    tree = ast.parse("def helper(n):\n    return helper(n - 1) if n else 0\n")
    (qual, name, node), = definitions(tree, "m")
    assert name not in references(tree, skip=node)


def unread_imports(tree: ast.Module) -> list[str]:
    """The names a module's imports bind and it never reads; a `__future__`
    import binds none."""
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) \
                and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]  # `import a.b` binds a
                if name not in read:
                    out.append(name)
    return out


def test_every_import_is_read():
    assert [f"{p.stem}.{name}" for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"
            for name in unread_imports(ast.parse(p.read_text()))] == []


def test_guard_sees_an_unread_import():
    tree = ast.parse("from __future__ import annotations\nimport os.path\n"
                     "from math import gcd as igcd, lcm\nx = lcm(2, 3)\nigcd = 4\n")
    assert unread_imports(tree) == ["os", "igcd"]
    assert unread_imports(ast.parse("import os.path\nprint(os.sep)\n")) == []


def unread_parameters(tree: ast.AST, prefix: str) -> list[str]:
    """"prefix.Class.function.parameter" for each parameter of a function or
    method, nested ones included, that its body never reads; `self` and the
    parameters of dunder methods are exempt."""
    out = []
    for node in ast.iter_child_nodes(tree):
        name = getattr(node, "name", None)
        qual = prefix if name is None else f"{prefix}.{name}"
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and not (name.startswith("__") and name.endswith("__")):
            a = node.args
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            out += [f"{qual}.{p.arg}" for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                                  *filter(None, (a.vararg, a.kwarg)))
                    if p.arg != "self" and p.arg not in read]
        out += unread_parameters(node, qual)
    return out


def test_every_parameter_is_read():
    assert [q for p in sorted(SRC.glob("*.py"))
            for q in unread_parameters(ast.parse(p.read_text()), p.stem)] == []


def test_guard_sees_an_unread_parameter():
    tree = ast.parse("class C:\n    def __init__(self, a):\n        pass\n\n"
                     "    def m(self, b, c=0, *args, d, **kw):\n        return b + d\n\n"
                     "def f(x, y=1):\n    def g(z):\n        return x\n    return g\n")
    assert unread_parameters(tree, "m") == ["m.C.m.c", "m.C.m.args", "m.C.m.kw", "m.f.y",
                                            "m.f.g.z"]
    # a default or an annotation is no read, and a write is none either
    tree = ast.parse("def f(a: int = 0, b=None):\n    b = a\n    return a\n")
    assert unread_parameters(tree, "m") == ["m.f.b"]


def names_read(nodes) -> set[str]:
    """Names loaded, attributes read and parameters named in `nodes`: a
    test reads a fixture by naming it as a parameter."""
    out = set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                out.add(n.id)
            elif isinstance(n, ast.Attribute):
                out.add(n.attr)
            elif isinstance(n, ast.arg):
                out.add(n.arg)
    return out


def unread_conftest(conftest: ast.Module, modules: list[ast.Module]) -> list[str]:
    """The top-level functions and classes of `conftest` that no module of
    `modules` reads, neither directly nor through a conftest definition
    that is read, nor through conftest's own top-level statements."""
    defs = {node.name: node for node in conftest.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    read = names_read(modules) | names_read(n for n in conftest.body if n not in defs.values())
    todo = list(read & defs.keys())
    while todo:
        new = names_read([defs[todo.pop()]]) & defs.keys() - read
        read |= new
        todo += new
    return sorted(defs.keys() - read)


def test_every_conftest_function_is_read():
    tests = ROOT / "tests"
    modules = [ast.parse(p.read_text()) for p in sorted(tests.glob("test_*.py"))]
    assert unread_conftest(ast.parse((tests / "conftest.py").read_text()), modules) == []


def test_guard_sees_an_unread_conftest_function():
    conftest = ast.parse("import pytest\n\ndef substituted(bad):\n    return bad\n\n"
                         "def helper(n):\n    return n\n\ndef used(n):\n    return helper(n)\n\n"
                         "def built(n):\n    return n\n\nK = built(1)\n\n"
                         "@pytest.fixture\ndef rng():\n    return 0\n\n"
                         "@pytest.fixture\ndef unused_fixture():\n    return 0\n")
    module = ast.parse("from conftest import used\n\ndef test_a(rng):\n    assert used(rng) == 0\n")
    assert unread_conftest(conftest, [module]) == ["substituted", "unused_fixture"]
