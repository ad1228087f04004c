"""Every ``module.attr`` the benchmark reads from the library must exist.

The benchmark under ``bench/`` imports ``ensemble``, ``estimate``,
``gaussian``, ``simulate`` and ``tables`` and calls into them by
attribute; removing or renaming one of those names would only show up
when the benchmark runs.  This parses the benchmark's sources, without
importing or running them, and checks each name against the package.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = ("ensemble", "estimate", "gaussian", "simulate", "tables")


def bench_attributes():
    """Sorted (module, attribute) pairs referenced as ``module.attr`` in bench/*.py."""
    found = set()
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in MODULES
            ):
                found.add((node.value.id, node.attr))
    return sorted(found)


def test_benchmark_sources_found():
    # an empty parameter list below would pass vacuously
    assert bench_attributes()


@pytest.mark.parametrize("module, attr", bench_attributes())
def test_benchmark_attribute_exists(module, attr):
    assert hasattr(importlib.import_module(f"sqclick.{module}"), attr)
