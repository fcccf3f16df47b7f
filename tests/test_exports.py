"""Export hygiene: each module's ``__all__`` names what it has, and the package re-exports only those."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import dynloc

MODULES = ("engine", "experiments", "geometry", "mobility", "oracles", "protocols")


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
