"""Every wignerlab function the benchmark's traced run wraps still exists.

``perfbench/spans.install`` looks each ``(module, name)`` of
``perfbench/layers.py:LAYERS`` up with ``getattr`` and no default, so a
renamed or deleted function breaks ``perfbench/run.py --trace 1``.  The
table is read from the file's syntax tree, without importing the benchmark.
"""
from __future__ import annotations

import ast
import importlib
from pathlib import Path

LAYERS_FILE = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _layer_targets() -> list[tuple[str, str]]:
    for node in ast.parse(LAYERS_FILE.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "LAYERS" for target in node.targets
        ):
            return [(ast.literal_eval(row.elts[0]), ast.literal_eval(row.elts[1])) for row in node.value.elts]
    raise AssertionError("perfbench/layers.py defines no LAYERS table")


def test_traced_layers_resolve():
    targets = _layer_targets()
    assert ("walk_combinatorics", "enumerate_canonical_walks") in targets
    for module_name, attr in targets:
        module = importlib.import_module(f"wignerlab.{module_name}")
        assert callable(getattr(module, attr, None)), f"wignerlab.{module_name} has no {attr}"
