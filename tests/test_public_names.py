"""Every exported name exists: no stale ``__all__`` entry or package import."""
from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import wignerlab


def test_public_names_resolve():
    for info in pkgutil.iter_modules(wignerlab.__path__):
        module = importlib.import_module(f"wignerlab.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"wignerlab.{info.name}.__all__ lists missing {name}"
    tree = ast.parse(Path(wignerlab.__file__).read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            source = importlib.import_module(f"wignerlab.{node.module}")
            for alias in node.names:
                assert hasattr(source, alias.name), f"wignerlab.{node.module} has no {alias.name}"
                assert hasattr(wignerlab, alias.name), f"wignerlab does not export {alias.name}"
