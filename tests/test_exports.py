"""Export hygiene: each module's ``__all__`` names what it has, and the package re-exports only those."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import dynloc

MODULES = ("engine", "experiments", "floattext", "geometry", "mobility", "oracles", "protocols")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"dynloc.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(dynloc.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports and all(node.level == 1 and node.module in MODULES for node in imports)
    for node in imports:
        exported = importlib.import_module(f"dynloc.{node.module}").__all__
        assert [alias.name for alias in node.names if alias.name not in exported] == [], node.module


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_reads(source: str) -> list[str]:
    """The ``module._name`` reads of another dynloc module's private names in ``source``."""
    tree = ast.parse(source)
    modules: set[str] = set()  # names this file binds to dynloc modules
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level == 1 or (node.module or "").startswith("dynloc")):
            if node.module in (None, "dynloc"):
                modules.update(alias.asname or alias.name for alias in node.names)
            else:
                reads += [f"{node.module}.{alias.name}" for alias in node.names if _private(alias.name)]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            if _private(node.attr):
                reads.append(f"{node.value.id}.{node.attr}")
    return reads


@pytest.mark.parametrize("name", ("__init__", "cli", *MODULES))
def test_no_module_reads_another_modules_private_names(name):
    source = (Path(dynloc.__file__).parent / f"{name}.py").read_text(encoding="utf-8")
    assert _private_reads(source) == []


def test_private_reads_are_found_by_attribute_and_by_import():
    source = "from . import experiments\nfrom .engine import _SCHED_EPS, run\nexperiments._parse(1)\n"
    assert _private_reads(source) == ["engine._SCHED_EPS", "experiments._parse"]
