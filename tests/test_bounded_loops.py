"""No ``while`` statement in the package.

Every loop of the package is a ``for`` over a finite sequence: nodes,
actions, epochs, a file's lines.  So no input can make a stage hang.
This stdlib-``ast`` check fails on any ``while`` statement, however it
is bounded.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "graphmia"


def while_statements(source: str) -> list[str]:
    """``line N`` for each ``while`` statement of ``source``."""
    return [f"line {node.lineno}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.While)]


def test_finds_nested_while():
    source = ("def f(xs):\n"
              "    for x in xs:\n"
              "        while x:\n"
              "            x -= 1\n"
              "    return 'while True'\n")
    assert while_statements(source) == ["line 3"]


def test_package_has_no_while():
    offenders = {
        path.name: found
        for path in sorted(PACKAGE.glob("*.py"))
        if (found := while_statements(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}
