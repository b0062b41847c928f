"""The benchmark's trace targets exist in this treehopf.

``perfbench/layers.py`` wraps library functions by module and attribute
name, and reads memo caches the same way; a name it cannot find is reported
as a missing per-layer metric.  These tests load that table (without
installing any wrapper) and resolve every name, so that renaming or deleting
a traced function fails here first.
"""

import importlib
import types
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _load_layers():
    """Run the table's source in a fresh namespace; nothing is written next
    to it and nothing is installed."""
    module = types.ModuleType("perfbench_layers")
    module.__file__ = str(LAYERS)
    exec(compile(LAYERS.read_text(), str(LAYERS), "exec"), module.__dict__)
    return module


layers = _load_layers()


def _resolve(mod: str, attr: str):
    owner = importlib.import_module(f"treehopf.{mod}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize(
    "mod, attr",
    [(mod, attr) for _, mod, attr, _ in layers.TIMED] + [(mod, attr) for _, mod, attr in layers.COUNTED],
)
def test_wrapped_function_is_callable(mod, attr):
    assert callable(_resolve(mod, attr)), f"treehopf.{mod}.{attr}"


@pytest.mark.parametrize("metric, mod, attr", layers.CACHES)
def test_cache_has_a_size(metric, mod, attr):
    assert len(_resolve(mod, attr)) >= 0


def test_sweep_items_target_resolves():
    assert callable(_resolve(*layers.SWEEP_ITEMS))


def test_every_module_is_importable():
    for mod in layers.MODULES:
        importlib.import_module(f"treehopf.{mod}")
