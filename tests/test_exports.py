"""Every advertised name resolves.

Tools that wrap a module's public functions look each `__all__` entry up
with getattr, so a stale entry left behind by a deletion breaks them at once.
"""
from __future__ import annotations

import ast
import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import graphskel

MODULES = sorted(info.name for info in pkgutil.iter_modules(graphskel.__path__))
# Exact reference forms kept in tests/oracles.py, not in the package.
ORACLES = (
    "ball_query",
    "shell_query",
    "classify_point",
    "edge_density_quadrature",
    "edge_log_density_grad",
    "responsibilities",
    "log_likelihood",
    "marginal_log_likelihood",
    "grad_vertices",
)


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


def test_oracles_are_not_shipped():
    for module in [graphskel, *(importlib.import_module(f"graphskel.{name}") for name in MODULES)]:
        assert [name for name in ORACLES if hasattr(module, name)] == [], module.__name__


def test_import_leaves_quadrature_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(graphskel.__file__)))
    code = "import sys, graphskel; print('scipy.integrate' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
