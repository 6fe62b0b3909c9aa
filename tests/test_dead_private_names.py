"""Every private module-level name of the package is read somewhere in it.

A ``_name`` bound at module level by ``def``, ``class`` or an assignment
must be read in its own module, imported from it by another module of the
package, or read as an attribute ``module._name``.  Like the unused-import
check, this stands in for a linter with the stdlib ``ast``.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "graphmia"


def _private_bindings(tree: ast.Module) -> dict[str, int]:
    """Module-level ``_name`` (not ``__dunder__``) -> line it is first bound on."""
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                bound.setdefault(name, node.lineno)
    return bound


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """``module line N: _name`` for each private module-level name of the
    modules in ``sources`` (module name -> source text) that no module reads."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    # names read across modules: imported by name, or read as an attribute
    shared = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = (node.module or "").rsplit(".", 1)[-1]
                shared.update((module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Attribute):
                shared.add((None, node.attr))
    dead = []
    for mod, tree in trees.items():
        local = {n.id for n in ast.walk(tree)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for name, line in _private_bindings(tree).items():
            if name not in local and not {(mod, name), (None, name)} & shared:
                dead.append(f"{mod} line {line}: {name}")
    return dead


def test_finds_a_dead_helper():
    sources = {"a": "_LIMIT = 3\n\ndef _used():\n    return _LIMIT\n\ndef _dead():\n    pass\n\n"
                    "def api():\n    return _used()\n"}
    assert dead_private_names(sources) == ["a line 6: _dead"]


def test_reads_from_other_modules_count():
    sources = {
        "a": "_X = 1\n\ndef _f():\n    pass\n\nclass _C:\n    pass\n",
        "b": "from . import a\nfrom .a import _X\n\nprint(_X, a._f)\n",
    }
    assert dead_private_names(sources) == ["a line 6: _C"]


def test_no_dead_private_names():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert dead_private_names(sources) == []
