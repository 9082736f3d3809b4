"""The public surface: `kneserlab.__all__` names each export once, a star
import binds every one of them, and every one has a caller in the library."""

from __future__ import annotations

import ast
from pathlib import Path

import kneserlab

# exports with no caller in the library, each kept for a reason
UNCALLED = {
    "formula_kneser": "closed form of the paper, checked against the solver by the tests",
    "formula_hnka": "closed form of the paper, checked against the solver by the tests",
    "store_coloring": "writer of the documented colouring file format that --coloring reads",
    "store_hypergraph": "writer of the documented hypergraph file format that file: reads",
}


def test_star_import_binds_every_exported_name():
    names = kneserlab.__all__
    assert len(set(names)) == len(names)
    namespace: dict = {}
    exec("from kneserlab import *", namespace)
    assert [name for name in names if name not in namespace] == []


def _loaded_names(node: ast.AST, enclosing: tuple[str, ...] = ()) -> set[str]:
    """Names read as ``name`` or ``x.name`` under ``node``, leaving out the
    reads of a function or class inside its own definition."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        enclosing = (*enclosing, node.name)
    found = set()
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        found.add(node.id)
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        found.add(node.attr)
    for child in ast.iter_child_nodes(node):
        found |= _loaded_names(child, enclosing)
    return found - set(enclosing)


def test_every_export_has_a_library_caller():
    package = Path(kneserlab.__file__).parent
    loaded = set()
    for path in package.glob("*.py"):
        loaded |= _loaded_names(ast.parse(path.read_text()))
    uncalled = [name for name in kneserlab.__all__ if name not in loaded]
    assert sorted(uncalled) == sorted(UNCALLED)
