"""Every name a library module imports is used in that module.

`__init__.py` is skipped: its imports are the package's exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import asmschub

PACKAGE = Path(asmschub.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_detects_unused():
    src = "import os\nimport sys\nfrom a.b import c, d as e\nprint(sys.argv, e)\n"
    assert unused_imports(src) == ["os", "c"]


def test_future_import_ignored():
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
