"""The library imports nothing outside the standard library: every absolute
import in ``src/treehopf`` names a standard-library module, and relative
imports stay inside the package."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "treehopf").glob("*.py"))


def foreign_imports(source: str) -> list[str]:
    """The top-level modules of the absolute imports in ``source`` that are
    not in the standard library."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return sorted({n.split(".")[0] for n in names} - sys.stdlib_module_names)


def test_the_library_imports_only_the_standard_library():
    assert len(SOURCES) > 5
    found = {p.name: foreign_imports(p.read_text()) for p in SOURCES}
    assert {name: mods for name, mods in found.items() if mods} == {}


def test_a_third_party_import_is_seen():
    source = (
        "import os.path, numpy as np\n"
        "from fractions import Fraction\n"
        "from .algebra import MAPS\n"
        "def f():\n    from sympy.core import S\n"
    )
    assert foreign_imports(source) == ["numpy", "sympy"]
