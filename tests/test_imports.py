"""Every name a urskit module imports is used in that module.

No linter is part of the test run, so each module's syntax tree is walked
with `ast`.  `__init__.py` is left out: its imports are the public
re-exports.  Names that occur only inside string annotations do not count
as uses.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "urskit"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by import statements in `source` that nothing reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    # `math.log` is an Attribute over the Name `math`, so this covers it too
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in imported if name not in used]


def test_checker_finds_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import math, os.path\n"
        "from fractions import Fraction as F, Decimal\n"
        "x = math.pi + F(1)\n"
    )
    assert unused_imports(source) == ["os", "Decimal"]


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []
