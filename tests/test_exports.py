"""Every advertised name resolves.

Tools that wrap a module's public functions look each `__all__` entry up
with getattr, so a stale entry left behind by a deletion breaks them at once.
"""
from __future__ import annotations

import ast
import importlib
import pkgutil

import pytest

import graphskel

MODULES = sorted(info.name for info in pkgutil.iter_modules(graphskel.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"graphskel.{name}")
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert missing == []


def test_package_reexports_resolve():
    with open(graphskel.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        source = importlib.import_module(f"graphskel.{node.module}")
        for alias in node.names:
            assert getattr(graphskel, alias.asname or alias.name) is getattr(source, alias.name)
