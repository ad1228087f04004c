"""Every ``module.attr`` the benchmark reads from the library must exist,
and every direct ``module.attr(...)`` call must fit its signature.

The benchmark under ``bench/`` imports ``ensemble``, ``estimate``,
``gaussian``, ``simulate`` and ``tables`` and calls into them by
attribute; removing or renaming one of those names, or changing the
parameters a call relies on, would only show up when the benchmark runs.
This parses the benchmark's sources, without importing or running them,
and checks each name and call against the package.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = ("ensemble", "estimate", "gaussian", "simulate", "tables")


def is_library_attribute(node):
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in MODULES
    )


def bench_nodes():
    """(file name, AST node) for every node of bench/*.py."""
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            yield path.name, node


def bench_attributes():
    """Sorted (module, attribute) pairs referenced as ``module.attr`` in bench/*.py."""
    return sorted({(node.value.id, node.attr) for _, node in bench_nodes()
                   if is_library_attribute(node)})


def bench_calls():
    """One pytest param per direct ``module.attr(...)`` call in bench/*.py:
    (module, attribute, positional count, keyword names)."""
    calls = []
    for name, node in bench_nodes():
        if isinstance(node, ast.Call) and is_library_attribute(node.func):
            calls.append(pytest.param(
                node.func.value.id, node.func.attr,
                None if any(isinstance(a, ast.Starred) for a in node.args) else len(node.args),
                [k.arg for k in node.keywords],
                id=f"{name}:{node.lineno}:{node.col_offset}:{node.func.value.id}.{node.func.attr}",
            ))
    return calls


def test_benchmark_sources_found():
    # an empty parameter list below would pass vacuously
    assert bench_attributes()
    assert bench_calls()


@pytest.mark.parametrize("module, attr", bench_attributes())
def test_benchmark_attribute_exists(module, attr):
    assert hasattr(importlib.import_module(f"sqclick.{module}"), attr)


@pytest.mark.parametrize("module, attr, n_positional, keywords", bench_calls())
def test_benchmark_call_fits_signature(module, attr, n_positional, keywords):
    # None stands for an unpacked *args or **kwargs, which cannot be checked
    assert n_positional is not None and None not in keywords
    target = getattr(importlib.import_module(f"sqclick.{module}"), attr)
    inspect.signature(target).bind(*[None] * n_positional, **dict.fromkeys(keywords))
