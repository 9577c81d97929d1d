"""Every library name the benchmark harness reaches must exist.

perfbench wraps the functions in ``tracing.TRACED`` and its workloads read
library attributes directly; a name pruned from the library breaks the
benchmark, not the unit tests.  The harness files are parsed, not
imported, so nothing under ``perfbench/`` runs here.  The fields it reads
of the records that library calls return are listed by hand.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _library_modules(tree: ast.Module) -> dict[str, str]:
    """Local name -> module path for every okamoto_k module the file imports."""
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "okamoto_k":
            for alias in node.names:
                modules[alias.asname or alias.name] = f"okamoto_k.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "okamoto_k":
                    modules[alias.asname or alias.name] = alias.name
    return modules


def _attribute_reads(tree: ast.Module, modules: dict[str, str]) -> set[tuple[str, str]]:
    """(module path, name) for every ``module.name`` read in the file."""
    return {
        (modules[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }


def _traced_pairs(tree: ast.Module, modules: dict[str, str]) -> set[tuple[str, str]]:
    """(module path, function name) of every entry of ``TRACED``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return {(modules[e.elts[0].id], e.elts[1].value) for e in node.value.elts}
    raise AssertionError("perfbench/tracing.py has no TRACED assignment")


def _names() -> list[tuple[str, str]]:
    names = set()
    for file in ("tracing.py", "workloads.py"):
        tree = ast.parse((PERFBENCH / file).read_text())
        modules = _library_modules(tree)
        names |= _attribute_reads(tree, modules)
        if file == "tracing.py":
            names |= _traced_pairs(tree, modules)
    return sorted(names)


def test_harness_reads_the_library():
    names = _names()
    modules = {module for module, _ in names}
    for module in ("functions", "ternary", "derivative", "dimension"):
        assert f"okamoto_k.{module}" in modules
    assert ("okamoto_k.cli", "main") in names


@pytest.mark.parametrize("module,name", _names())
def test_name_exists(module, name):
    assert hasattr(importlib.import_module(module), name)


# (module, record, field) for every result field the harness reads
FIELDS = [
    ("dimension", "WalkExperiment", "sample_count"),  # tracing._walk_paths
    ("dimension", "WalkExperiment", "horizon"),  # tracing._walk_paths
    ("ternary", "DigitSeq", "preperiod"),  # tracing._digits
    ("ternary", "DigitSeq", "period"),  # tracing._digits
    ("functions", "SeriesTruncation", "terms"),  # tracing._terms
    ("functions", "SeriesTruncation", "tail_bound"),  # workloads._GridFn.tolerance
    ("derivative", "DivergenceWitness", "partial_sums"),  # workloads._witness_check
    ("derivative", "DivergenceWitness", "all_steps_valid"),  # workloads._witness_check
]


@pytest.mark.parametrize("module,record,field", FIELDS)
def test_field_exists(module, record, field):
    cls = getattr(importlib.import_module(f"okamoto_k.{module}"), record)
    assert field in {f.name for f in dataclasses.fields(cls)}
