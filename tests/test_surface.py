"""The public surface: `kneserlab.__all__` names each export once, a star
import binds every one of them, and every one has a caller in the library.
The value records are immutable and keep their validation, and importing
the CLI loads none of the modules that only start-up would pay for."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kneserlab
from kneserlab import (
    AltResult,
    BoundReport,
    ChromaticValue,
    Coloring,
    ExperimentSpec,
    FactorBounds,
    PartiteWitness,
    Permutation,
    ProductSpace,
    ScanResult,
    Violation,
)
from kneserlab.experiments import TASKS, AtLeast, TaskResult

# exports with no caller in the library, each kept for a reason
UNCALLED = {
    "formula_kneser": "closed form of the paper, checked against the solver by the tests",
    "formula_hnka": "closed form of the paper, checked against the solver by the tests",
    "store_coloring": "writer of the documented colouring file format that --coloring reads",
    "store_hypergraph": "writer of the documented hypergraph file format that file: reads",
    # public memos: the bounds path calls the plain searches _cd, _ecd and
    # _alt_min under them, so that a self-checking cache re-derives values
    "cd": "public memo; the perfbench defects workload reads it through kneserlab.invariants",
    "ecd": "public memo; the perfbench defects workload reads it through kneserlab.invariants",
    "alt_min": "public memo; the perfbench defects workload reads it through kneserlab.invariants",
}


def test_star_import_binds_every_exported_name():
    names = kneserlab.__all__
    assert len(set(names)) == len(names)
    namespace: dict = {}
    exec("from kneserlab import *", namespace)
    assert [name for name in names if name not in namespace] == []


def _loaded_names(node: ast.AST, enclosing: tuple[str, ...] = ()) -> set[str]:
    """Names read bare under ``node``, leaving out the reads of a function or
    class inside its own definition. An attribute read ``x.name`` does not
    count: a record field of the same name (``f.ecd``) is not a call."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        enclosing = (*enclosing, node.name)
    found = set()
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        found.add(node.id)
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


def _records() -> list:
    factor = FactorBounds(2, 3, 0, 0, 0, True)
    return [
        Coloring((1, 2), 2),
        ChromaticValue(2),
        Permutation((2, 1)),
        AltResult(1, Permutation((1,)), True),
        ProductSpace((2, 3)),
        factor,
        BoundReport(2, (factor,), 0, 0, None, "BOUND_ONLY"),
        Violation("chain", (1,), None, "detail"),
        ScanResult(0, None, 0),
        PartiteWitness(2, ((), ()), ((), ())),
        AtLeast(1),
        ExperimentSpec(("star:4",), "invariants", r=2),
        TaskResult("build", "ok", {}),
        TASKS["build"],
    ]


def test_records_are_immutable():
    records = _records()
    defined = {
        obj
        for name, module in sys.modules.items()
        if name.startswith("kneserlab.")
        for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, tuple) and obj.__module__ == name
    }
    assert len(records) == 14
    assert defined | {AtLeast} == {type(record) for record in records}
    for record in records:
        for field in getattr(record, "_fields", None) or record.__slots__:
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.extra = 0  # no instance dict either


@pytest.mark.parametrize(
    "build",
    [
        lambda: Permutation((1, 1)),
        lambda: Permutation((0, 1)),
        lambda: Permutation((2, 3)),
        lambda: Permutation(sigma=(1, 3)),
        lambda: ProductSpace(()),
        lambda: ProductSpace((2, -1)),
        lambda: ProductSpace(dims=(-1,)),
        lambda: Coloring((1, 3), 2),
        lambda: Coloring(colors=(0,), color_count=1),
    ],
)
def test_records_keep_their_validation(build):
    with pytest.raises(ValueError):
        build()


def test_cli_import_skips_start_up_only_modules():
    """Importing the CLI loads none of these; ``-S`` keeps the site hooks,
    which may preload ``typing``, out of the count."""
    env = dict(os.environ, PYTHONPATH=str(Path(kneserlab.__file__).parents[1]))
    skipped = ("dataclasses", "inspect", "traceback", "typing")
    code = f"import kneserlab.cli, sys; print(*(m for m in {skipped} if m in sys.modules))"
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == []


def test_version_stated_once():
    """The package version, the cache keys' version and the distribution's
    version are one value."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    from kneserlab.cache import CODE_VERSION

    with (Path(__file__).parents[1] / "pyproject.toml").open("rb") as fh:
        declared = tomllib.load(fh)["project"]["version"]
    assert kneserlab.__version__ == CODE_VERSION == declared
