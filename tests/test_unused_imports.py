"""Every name a module of the package imports is used in that module.

No linter ships with the project's dependencies, so this stdlib-``ast``
check stands in for one.  ``__init__.py`` is exempt: its imports are the
package's public surface.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "graphmia"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` that no expression reads.

    A dotted ``import a.b`` binds ``a``; ``from __future__`` imports bind
    nothing.  Annotations count as reads.
    """
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_finds_an_unused_import():
    source = "import json\nfrom .nn import ParamSet, ShapeError\n\nx: ParamSet = json.loads('1')\n"
    assert unused_imports(source) == ["line 2: ShapeError"]


def test_dotted_import_and_alias():
    assert unused_imports("import scipy.sparse as sp\nimport os.path\nos.path.join(sp)\n") == []
    assert unused_imports("import numpy as np\n") == ["line 1: np"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
