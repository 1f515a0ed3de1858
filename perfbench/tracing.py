"""In-memory span tracing around graphskel's public functions.

The package imports names directly (``from .geometry import
threshold_components``), so a wrapper only takes effect where the caller looks
the name up. `Tracer.install` therefore replaces every module-level binding of
a wrapped function object in every loaded ``graphskel`` module, and
`Tracer.uninstall` puts the originals back.

Spans are tuples ``(id, parent, name, layer, start_ns, end_ns)`` kept in a
list; `layer_metrics` turns the spans and counters of one solve into the
per-layer metrics, and `write_spans` dumps the spans once the run ends.
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

# Layers in call order; each is a graphskel module whose public functions
# (its __all__, plus cli.main) get wrapped.
LAYERS = (
    "cli",
    "fileio",
    "abstract_graph",
    "local_structure",
    "geometry",
    "em",
    "densities",
    "synthetic",
)

_MIB = float(1 << 20)
_FILEIO_WRITES = ("write_cloud", "write_text_atomic", "write_json_atomic")
_EDGE_BATCHES = ("edge_log_density_batch", "edge_log_density_grad_batch")
_EDGE_SPANS = frozenset(f"densities.{name}" for name in _EDGE_BATCHES)


def _public_functions(module):
    names = ["main"] if module.__name__.endswith(".cli") else list(module.__all__)
    for name in names:
        obj = getattr(module, name)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


class Tracer:
    """Collects spans and work counts for the solves run while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"graphskel.{layer}"]
            for name, fn in _public_functions(module):
                wrappers[id(fn)] = (fn, self._wrap(fn, f"{layer}.{name}", layer))
        for modname, module in list(sys.modules.items()):
            if modname != "graphskel" and not modname.startswith("graphskel."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._originals.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._originals):
            setattr(module, attr, value)
        self._originals.clear()

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(float)

    # -- recording --------------------------------------------------------
    def _wrap(self, fn, span_name: str, layer: str):
        tracer = self
        short = span_name.split(".", 1)[1]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)  # reserve the id; filled on exit
            tracer._stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                tracer.spans[span_id] = (span_id, parent, span_name, layer, start, end)
            tracer.counts[span_name + ".calls"] += 1
            tracer._count_work(layer, short, args, result)
            return result

        return wrapper

    def _count_work(self, layer: str, name: str, args, result) -> None:
        """Work counts computed from arguments and results, outside the span."""
        c = self.counts
        if layer == "geometry":
            if name == "threshold_components":
                k = result.indices.size
                c["geometry.pairs"] += k * (k - 1) // 2
                # one (k, k, n) float64 difference temporary per call
                c["geometry.max_temp_mb"] = max(
                    c["geometry.max_temp_mb"], k * k * args[0].dim * 8 / _MIB
                )
            elif name in ("ball_query", "shell_query"):
                c[f"local_structure.{name[:-6]}_members"] += result.size
                c[f"local_structure.{name[:-6]}_queries"] += 1
        elif layer == "local_structure" and name == "partition":
            c["local_structure.points"] += result.size
            c["local_structure.vertex_like"] += result.p0.size
        elif layer == "abstract_graph" and name == "refine":
            c["abstract_graph.moved_points"] += result.moved.size
        elif layer == "densities" and name in _EDGE_BATCHES:
            m = np.atleast_2d(np.asarray(args[0])).shape[0]
            k = np.atleast_2d(np.asarray(args[1])).shape[0]
            c["densities.point_segment_evals"] += m * k
        elif layer == "em" and name == "em_fit":
            c["em.fits"] += 1
            c["em.iters"] += result.n_iterations
            c["em.converged"] += bool(result.converged)
        elif layer == "fileio" and name in _FILEIO_WRITES:
            c["fileio.bytes_written"] += os.path.getsize(args[0])


def _self_times(spans: list[tuple]) -> dict[str, float]:
    """Per-layer self seconds: span duration minus its direct children's."""
    child_ns = defaultdict(int)
    for _, parent, _, _, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for span_id, _, _, layer, start, end in spans:
        out[layer] += (end - start - child_ns[span_id]) / 1e9
    return out


def _inclusive(spans: list[tuple], *names: str) -> float:
    """Seconds spent in spans with one of `names`, not counting nested repeats."""
    wanted = set(names)
    by_id = {s[0]: s for s in spans}
    total = 0
    for span_id, parent, name, _, start, end in spans:
        if name not in wanted:
            continue
        while parent >= 0 and by_id[parent][2] not in wanted:
            parent = by_id[parent][1]
        if parent < 0:
            total += end - start
    return total / 1e9


def _em_density_passes(spans: list[tuple]) -> int:
    """Edge-density kernel calls made from inside em_fit."""
    by_id = {s[0]: s for s in spans}
    passes = 0
    for _, parent, name, _, _, _ in spans:
        if name not in _EDGE_SPANS:
            continue
        while parent >= 0 and by_id[parent][2] != "em.em_fit":
            parent = by_id[parent][1]
        passes += parent >= 0
    return passes


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of the solve(s) recorded since the last reset."""
    spans, c = tracer.spans, tracer.counts
    self_s = _self_times(spans)
    total_self = sum(self_s.values()) or 1.0
    fits = c["em.fits"]
    iters = c["em.iters"]

    def mean(members: str, queries: str) -> float:
        return c[members] / c[queries] if c[queries] else 0.0

    out = {
        "geometry.threshold_components.calls": c["geometry.threshold_components.calls"],
        "geometry.threshold_components.s": _inclusive(spans, "geometry.threshold_components"),
        "geometry.pairs": c["geometry.pairs"],
        "geometry.max_temp_mb": c["geometry.max_temp_mb"],
        "local_structure.partition.s": _inclusive(spans, "local_structure.partition"),
        "local_structure.points": c["local_structure.points"],
        "local_structure.ball_size.mean": mean("local_structure.ball_members", "local_structure.ball_queries"),
        "local_structure.shell_size.mean": mean("local_structure.shell_members", "local_structure.shell_queries"),
        "local_structure.vertex_like_frac": (
            c["local_structure.vertex_like"] / c["local_structure.points"] if c["local_structure.points"] else 0.0
        ),
        "abstract_graph.recover_graph.calls": c["abstract_graph.recover_graph.calls"],
        "abstract_graph.cluster.s": _inclusive(spans, "abstract_graph.cluster_p0", "abstract_graph.cluster_p1"),
        "abstract_graph.refine.s": _inclusive(spans, "abstract_graph.refine"),
        "abstract_graph.build_graph.s": _inclusive(spans, "abstract_graph.build_graph"),
        "abstract_graph.moved_points": c["abstract_graph.moved_points"],
        "densities.edge_log_density_batch.calls": c["densities.edge_log_density_batch.calls"],
        "densities.edge_log_density_grad_batch.calls": c["densities.edge_log_density_grad_batch.calls"],
        "densities.s": _inclusive(spans, *{sp[2] for sp in spans if sp[3] == "densities"}),
        "densities.point_segment_evals": c["densities.point_segment_evals"],
        "em.em_fit.s": _inclusive(spans, "em.em_fit"),
        "em.m_step.s": _inclusive(spans, "em.m_step"),
        "em.iters": iters / fits if fits else 0.0,
        "em.objective_evals": c["em.log_likelihood.calls"] / fits if fits else 0.0,
        "em.density_passes_per_iter": _em_density_passes(spans) / iters if iters else 0.0,
        "em.converged_frac": c["em.converged"] / fits if fits else 0.0,
        "fileio.read_cloud.s": _inclusive(spans, "fileio.read_cloud"),
        "fileio.write.s": _inclusive(spans, *(f"fileio.{n}" for n in _FILEIO_WRITES)),
        "fileio.bytes_written": c["fileio.bytes_written"],
        "cli.self_s": self_s["cli"],
    }
    for layer in LAYERS[1:-1]:  # cli's is cli.self_s; synthetic runs only in set-up
        out[f"self_s.{layer}"] = self_s[layer]
    out["self_frac.local_structure_geometry"] = (self_s["local_structure"] + self_s["geometry"]) / total_self
    out["self_frac.em_densities"] = (self_s["em"] + self_s["densities"]) / total_self
    return out


def write_spans(path: str, solves: list[tuple[str, list[tuple]]]) -> None:
    """One CSV row per span: solve label, id, parent, name, start_ns, end_ns."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("solve,id,parent,name,start_ns,end_ns\n")
        for label, spans in solves:
            for span_id, parent, name, _, start, end in spans:
                fh.write(f"{label},{span_id},{parent},{name},{start},{end}\n")
