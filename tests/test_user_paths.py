"""Every definition in the package is reached from a user path.

User paths are the Python files of the package, the demos and the benchmark
harness. Tests are not among them: code that only tests call belongs in the
tests. The scan is by name, so a name that another definition shares passes;
it can miss an unused definition, but it never flags a used one.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "offloadsim"
USER_FILES = sorted(p for d in ("src", "demos", "perfbench") for p in (ROOT / d).rglob("*.py"))


def _definitions(tree: ast.Module):
    """(name, is_method) of each top-level function, class and assigned name,
    and of each method, dunders excepted."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, False))
        if isinstance(node, ast.ClassDef):
            methods = (m for m in node.body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)))
            found += [(f"{node.name}.{m.name}", True) for m in methods]
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(n.id, False) for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
    return [(name, method) for name, method in found if not name.rsplit(".", 1)[-1].startswith("__")]


def _references(tree: ast.Module) -> tuple[set[str], set[str]]:
    """The names a file loads or imports, and the attributes and strings it
    names (the benchmark's tracer patches by string)."""
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            attributes.add(node.value)
    return names, attributes


def test_every_package_definition_is_named_on_a_user_path():
    assert PACKAGE / "cli.py" in USER_FILES and any(p.parent.name == "demos" for p in USER_FILES)
    names, attributes = set(), set()
    for path in USER_FILES:
        loaded, named = _references(ast.parse(path.read_text(encoding="utf-8")))
        names |= loaded
        attributes |= named
    unused = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name, method in _definitions(ast.parse(path.read_text(encoding="utf-8")))
        if (short := name.rsplit(".", 1)[-1]) not in attributes and (method or short not in names)
    ]
    assert not unused, f"defined in src/offloadsim but named on no user path: {', '.join(unused)}"
