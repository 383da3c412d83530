"""Every top-level function and class in `src/critpop`, and every public
method of such a class, has a use in the library: a reference in `src/`
outside its own definition, or a place in the benchmark's traced layers
(`bench/spans.py` `LAYERS`).  Test-only helpers live in `tests/`."""

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


def references(tree: ast.Module, skip: ast.AST | None = None) -> set[str]:
    """Names read or written as identifiers or attributes, outside `skip`."""
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def unreferenced() -> list[str]:
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    everywhere = {mod: references(tree) for mod, tree in trees.items()}
    allowed = traced_layers()
    dead = []
    for mod, tree in trees.items():
        others = set().union(*(refs for m, refs in everywhere.items() if m != mod))
        for qual, name, node in definitions(tree, mod):
            if name not in others and name not in references(tree, skip=node) \
                    and qual not in allowed:
                dead.append(qual)
    return dead


def test_every_definition_is_used_in_src():
    assert unreferenced() == []


def test_guard_sees_a_helper_used_only_by_itself():
    tree = ast.parse("def helper(n):\n    return helper(n - 1) if n else 0\n")
    (qual, name, node), = definitions(tree, "m")
    assert name not in references(tree, skip=node)
