"""Every advertised name resolves.

Tools that wrap a module's public functions look each `__all__` entry up
with getattr, so a stale entry left behind by a deletion breaks them at once.
"""
from __future__ import annotations

import ast
import importlib
import inspect
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


# What the benchmark's tracer (perfbench/tracing.py) reads off each traced
# call, keyed by (module, public function). The tracer wraps a function only
# while it is a module-level function listed in its module's __all__, and it
# replaces every binding of it, under any name, in every graphskel module.
TRACED_READS = {
    ("geometry", "threshold_components"): lambda args, result: (args[0].dim, result.indices.size),
    ("local_structure", "partition"): lambda args, result: (result.size, result.p0.size),
    ("abstract_graph", "refine"): lambda args, result: result.moved.size,
    ("em", "em_fit"): lambda args, result: (result.n_iterations, bool(result.converged)),
}
# Span names the tracer's per-layer metrics are summed from.
SPAN_NAMES = {
    "abstract_graph": ("cluster_p0", "cluster_p1", "refine", "build_graph", "recover_graph"),
    "em": ("em_fit", "m_step"),
    "fileio": ("read_cloud", "write_cloud", "write_text_atomic", "write_json_atomic"),
    "densities": ("edge_log_density_grad_batch",),
}


def test_tracer_contract(monkeypatch, tmp_path, fixture_cloud):
    from graphskel.cli import main
    from graphskel.fileio import graph_from_dict, read_json, write_cloud

    for module_name, names in [*SPAN_NAMES.items(), *((m, (n,)) for m, n in TRACED_READS)]:
        module = importlib.import_module(f"graphskel.{module_name}")
        for name in names:
            fn = getattr(module, name)
            assert name in module.__all__ and inspect.isfunction(fn) and fn.__module__ == module.__name__

    seen = {}
    for (module_name, name), read in TRACED_READS.items():
        real = getattr(importlib.import_module(f"graphskel.{module_name}"), name)

        def traced(*args, _real=real, _read=read, _name=name, **kwargs):
            result = _real(*args, **kwargs)
            seen.setdefault(_name, []).append(_read(args, result))
            return result

        for loaded, module in list(sys.modules.items()):
            if loaded.split(".")[0] == "graphskel":
                for attr in [attr for attr, value in vars(module).items() if value is real]:
                    monkeypatch.setattr(module, attr, traced)

    cloud, graph, fit = (str(tmp_path / name) for name in ("cloud.txt", "graph.json", "fit.json"))
    write_cloud(cloud, fixture_cloud)
    assert main(["graph", "--input", cloud, "--ratio", "8", "--eps", "0.1", "--output", graph]) == 0
    assert main(["fit", "--input", cloud, "--graph", graph, "--output", fit, "--max-iters", "3"]) == 0
    # the warm-started fits of a sweep: ratio 8 continues ratio 12's fit
    sweep = str(tmp_path / "pipeline.json")
    assert main(["pipeline", "--input", cloud, "--eps", "0.1", "--ratios", "12,8", "--output", sweep]) == 0
    assert len(seen["em_fit"]) == 3
    assert sorted(seen) == sorted(name for _, name in TRACED_READS)
    assert seen["threshold_components"][0][0] == fixture_cloud.dim

    # the benchmark's output checker unpacks a pair and matches the graph to the truth
    recovered, _ = graph_from_dict(read_json(graph), fixture_cloud)
    match = graphskel.match_to_ground_truth(recovered, graphskel.builtin_fixture())
    assert match.is_isomorphic and len(match.vertex_errors) == len(match.vertex_map) == 5
