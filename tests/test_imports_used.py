"""Unused-code checks in the standard library alone.

Every name a library module imports is read in that module, every private
``_name`` a library module defines is read somewhere in the library, and every
method or property of a library class is read in the library, the tests or
the benchmark.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

import wignerlab

SOURCES = sorted(Path(wignerlab.__file__).parent.glob("*.py"))
# the package's own imports are its exports, which test_public_names checks
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line for every import, ``from __future__`` aside."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """``_name`` (not dunder) -> line for every function, class and assignment target."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update((t.id, node.lineno) for t in targets if isinstance(t, ast.Name))
    return {name: line for name, line in out.items() if name.startswith("_") and not name.startswith("__")}


def _references(tree: ast.Module) -> set[str]:
    """Names read, attributes, imported names and string constants (``getattr`` targets)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_every_private_name_is_used():
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    used = set().union(*map(_references, trees.values()))
    unused = {
        f"{module}:{line} {name}"
        for module, tree in trees.items()
        for name, line in _private_definitions(tree).items()
        if name not in used
    }
    assert not unused, f"private names defined but never read in the library: {sorted(unused)}"


def _method_definitions(tree: ast.Module) -> dict[str, int]:
    """Method or property name (not dunder) -> line, for every class the module defines."""
    return {
        node.name: node.lineno
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("__")
    }


def test_every_method_is_read():
    """A method or property of a library class is read somewhere in the library,
    the tests or the benchmark: a lean pass deletes one that nothing reads."""
    tests = Path(__file__).resolve().parent
    readers = [*SOURCES, *sorted(tests.glob("*.py")), *sorted((tests.parent / "perfbench").rglob("*.py"))]
    used = set().union(*(_references(ast.parse(path.read_text())) for path in readers))
    unused = {
        f"{path.name}:{line} {name}"
        for path in MODULES
        for name, line in _method_definitions(ast.parse(path.read_text())).items()
        if name not in used
    }
    assert not unused, f"methods defined but never read: {sorted(unused)}"
