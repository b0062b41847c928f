"""No test module or test class defines the same test name twice: a second
definition replaces the first, whose tests then silently never run."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(ROOT.glob("tests/*.py")) + [ROOT / "perfbench" / "test_perfbench.py"]


def _test_names(body) -> list[str]:
    return [
        node.name
        for node in body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.lower().startswith("test")
    ]


def duplicate_test_names(source: str) -> list[str]:
    """Each test name defined twice in one module or class body, as
    ``scope.name``."""
    tree = ast.parse(source)
    scopes = [("<module>", tree.body)] + [
        (node.name, node.body) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
    ]
    return [
        f"{scope}.{name}"
        for scope, body in scopes
        for name, n in Counter(_test_names(body)).items()
        if n > 1
    ]


def test_no_test_name_is_defined_twice():
    assert len(MODULES) > 10
    found = {p.name: duplicate_test_names(p.read_text()) for p in MODULES}
    assert {name: dups for name, dups in found.items() if dups} == {}


def test_a_shadowed_class_or_method_is_seen():
    source = (
        "class TestA:\n    def test_x(self): pass\n    def test_x(self): pass\n"
        "class TestA:\n    pass\n"
        "def helper(): pass\ndef helper(): pass\n"
    )
    assert duplicate_test_names(source) == ["<module>.TestA", "TestA.test_x"]
