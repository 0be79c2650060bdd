"""The module-level names the layer benchmark wraps must keep existing.

``perfbench/tracer.py`` installs timing wrappers around each ``(module,
attribute)`` of its ``ENTRY_POINTS``; a rename would otherwise surface only
in a traced benchmark run.  The table is read from the file's syntax tree, so
nothing under ``perfbench/`` is imported or run.
"""

import ast
import importlib
import os

import pytest

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracer.py")


def entry_points():
    with open(TRACER) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "ENTRY_POINTS" for t in node.targets
        ):
            return [(e.elts[0].value, e.elts[1].value) for e in node.value.elts]
    raise AssertionError("ENTRY_POINTS not found in perfbench/tracer.py")


@pytest.mark.parametrize("module, attr", entry_points())
def test_entry_point_is_callable(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
