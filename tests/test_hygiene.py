"""Dead-code gate: an ast scan of the package sources.

It fails on an imported name that its module never uses, and on a
module-level `_private` function or class that no package module references.
`__init__` re-exports and `from __future__` imports are exempt.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "incidence_scrolls"


def _trees():
    paths = sorted(PACKAGE.glob("*.py"))
    return {path.name: ast.parse(path.read_text(), str(path)) for path in paths}


def _referenced(node) -> set[str]:
    """Names a node reads: bare names, attributes and imported names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def test_every_import_is_used():
    unused = []
    for name, tree in _trees().items():
        if name == "__init__.py":
            continue
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}:{node.lineno}: {bound}")
    assert unused == []


def test_every_private_definition_is_referenced():
    definitions = []  # (module, statement, name)
    references: list[tuple[ast.stmt, set[str]]] = []
    for name, tree in _trees().items():
        for stmt in tree.body:
            references.append((stmt, _referenced(stmt)))
            defines = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            if isinstance(stmt, defines) and stmt.name.startswith("_"):
                definitions.append((name, stmt, stmt.name))
    # a definition that only refers to itself (a recursive helper) is dead
    dead = [
        f"{module}:{stmt.lineno}: {defined}"
        for module, stmt, defined in definitions
        if not any(defined in refs for other, refs in references if other is not stmt)
    ]
    assert dead == []
