"""Every name a urskit module imports is used in that module, and the CLI
loads nothing outside the standard library.

No linter is part of the test run, so each module's syntax tree is walked
with `ast`.  `__init__.py` is left out: its imports are the public
re-exports.  Names that occur only inside string annotations do not count
as uses.
"""

import ast
import subprocess
import sys
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


def test_cli_imports_only_the_standard_library():
    # -S keeps site out: it would add the environment's own modules, and the
    # test dependencies (sympy, mpmath, hypothesis) with its site-packages
    probe = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC.parent)!r})\n"
        "import urskit.cli\n"
        "top = {name.split('.')[0] for name in sys.modules}\n"
        "print(sorted(top - set(sys.stdlib_module_names) - {'__main__', 'urskit'}))\n"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", probe],
        capture_output=True, text=True, check=True,
    ).stdout
    assert out == "[]\n"
