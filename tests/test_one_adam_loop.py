"""Only ``nn.py`` builds Adam state or takes Adam steps.

Every optimisation of the package goes through ``nn.minimize``, so its
finite check, divergence message and loss history are written once.  This
stdlib-``ast`` check fails when another module names ``AdamState`` or
``adam_step``.  ``__init__.py`` is exempt: its imports are the package's
public surface.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "graphmia"
ADAM_NAMES = frozenset({"AdamState", "adam_step"})


def adam_references(source: str) -> list[str]:
    """Lines of ``source`` that import, read or bind an Adam name, or read
    it as an attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.split(".")[-1] for alias in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        else:
            continue
        found += [(node.lineno, n) for n in names if n in ADAM_NAMES]
    return [f"line {line}: {n}" for line, n in sorted(found)]


def test_finds_every_kind_of_reference():
    source = ("from .nn import AdamState, minimize\n"
              "from . import nn\n"
              "nn.adam_step(s, p, g)\n"
              "def adam_step():\n    pass\n")
    assert adam_references(source) == [
        "line 1: AdamState", "line 3: adam_step", "line 4: adam_step",
    ]


def test_only_nn_names_adam():
    offenders = {
        path.name: refs
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name not in ("nn.py", "__init__.py")
        and (refs := adam_references(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}
