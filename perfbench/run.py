#!/usr/bin/env python3
"""graphskel benchmark: drive the CLI in-process on generated clouds.

Usage (from the repository root):

    python3 perfbench/run.py --workload graph-dense --seed 0 --seconds 35 --trace 0

One run solves the workload's clouds in whole passes for about `--seconds`
seconds. Before each pass, and once more at the end, it sets the workload up
again (fresh package import, cloud generation, cloud files written) a few
times, so the set-up samples are spread over the run like the solves. A solve is one cloud through the
workload's CLI command(s); every solve is checked against the generating graph
and counted as failed when it is wrong, never retried.

`--trace 0` reports the end-to-end metrics. `--trace 1` solves every cloud
twice per pass, untraced and then with tracing wrappers installed, checks
that both runs write identical artifacts, and reports the per-layer metrics
and the tracing overhead. The last line of standard output is the result
JSON; the lines before it give every metric by name and unit and a `detail`
object with the run environment and the per-solve records.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass

# Pin native thread pools before numpy loads; GRAPHSKEL_THREADS stays unset,
# which is the package's default (one classification worker).
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("GRAPHSKEL_THREADS", None)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, ROOT)

from perfbench.tracing import Tracer, layer_metrics, write_spans  # noqa: E402
from perfbench.workloads import WORKLOADS, build_cases, check  # noqa: E402

WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
SETUP_REPS_PER_PASS = 3

END_TO_END_UNITS = {
    "solve_s.p50": "s",
    "solve_s.tail": "s",
    "points_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "vertex_err_eps": "eps",
}

PER_LAYER_UNITS = {
    "geometry.threshold_components.calls": "count",
    "geometry.threshold_components.s": "s",
    "geometry.pairs": "count",
    "geometry.max_temp_mb": "MiB",
    "local_structure.partition.s": "s",
    "local_structure.points": "count",
    "local_structure.ball_size.mean": "points",
    "local_structure.shell_size.mean": "points",
    "local_structure.vertex_like_frac": "frac",
    "abstract_graph.recover_graph.calls": "count",
    "abstract_graph.cluster.s": "s",
    "abstract_graph.refine.s": "s",
    "abstract_graph.build_graph.s": "s",
    "abstract_graph.moved_points": "count",
    "densities.edge_log_density_batch.calls": "count",
    "densities.edge_log_density_grad_batch.calls": "count",
    "densities.s": "s",
    "densities.point_segment_evals": "count",
    "em.em_fit.s": "s",
    "em.m_step.s": "s",
    "em.iters": "count",
    "em.objective_evals": "count",
    "em.density_passes_per_iter": "count",
    "em.converged_frac": "frac",
    "em.final_loglik": "nats",
    "fileio.read_cloud.s": "s",
    "fileio.write.s": "s",
    "fileio.bytes_written": "bytes",
    "cli.self_s": "s",
    "synthetic.s": "s",
    "self_s.fileio": "s",
    "self_s.abstract_graph": "s",
    "self_s.local_structure": "s",
    "self_s.geometry": "s",
    "self_s.em": "s",
    "self_s.densities": "s",
    "self_frac.local_structure_geometry": "frac",
    "self_frac.em_densities": "frac",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "frac",
}

# Computed from the solve's arguments and results, not timed: they repeat
# exactly from run to run on the same workload.
COMPUTED = ("geometry.pairs", "geometry.max_temp_mb", "densities.point_segment_evals")


@dataclass
class SolveRecord:
    case: str
    traced: bool
    seconds: float
    m: int
    ok: bool
    reason: str
    vertex_err_eps: float
    final_loglik: float | None


def _fresh_import():
    """Import graphskel from this checkout's src/, discarding any earlier import."""
    for name in [n for n in sys.modules if n == "graphskel" or n.startswith("graphskel.")]:
        del sys.modules[name]
    gs = importlib.import_module("graphskel")
    importlib.import_module("graphskel.cli")
    if not os.path.abspath(gs.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: graphskel imported from {gs.__file__}, not from {SRC}")
    return gs


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _environment(workload, seed: int) -> dict:
    import numpy
    import scipy

    uname = os.uname()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "machine": f"{uname.sysname} {uname.release} {uname.machine}",
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "GRAPHSKEL_THREADS": "unset",
        "run_seed": seed,
        "sample_seeds": list(workload.sample_seeds),
        "graph_seed": workload.graph_seed,
    }


def _tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least min(10, n/4) of the n samples beyond it.

    From 40 samples on this is the percentile with ten samples beyond it. A
    run of a few long solves never has eleven, and the ten-beyond rule would
    then put the "tail" at or below the median, so short runs keep a quarter
    of their samples beyond it (the 75th percentile). Returns (value,
    percentile), interpolating linearly between order statistics.
    """
    ordered = sorted(values)
    n = len(ordered)
    pct = 100.0 * (1.0 - min(10.0, n / 4.0) / n)
    pos = (n - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo]), pct


def _clear_outputs(case) -> None:
    for path in case.outputs:
        if os.path.exists(path):
            os.unlink(path)


def _read_outputs(case) -> dict[str, bytes]:
    out = {}
    for path in case.outputs:
        if os.path.exists(path):
            with open(path, "rb") as fh:
                out[path] = fh.read()
    return out


def _setup(workload, seed: int, workdir: str, setup_times: list, synthetic_times: list):
    """One timed set-up; the heap is collected first, as in a fresh process."""
    gc.collect()
    start = time.perf_counter()
    gs = _fresh_import()
    cases, synthetic_s = build_cases(gs, workload, seed, workdir)
    setup_times.append(time.perf_counter() - start)
    synthetic_times.append(synthetic_s)
    return gs, cases


def _solve(gs, workload, case, first_outputs: dict, tracer=None) -> SolveRecord:
    """Solve one cloud; `first_outputs` holds each cloud's first artifacts."""
    cli = sys.modules["graphskel.cli"]
    _clear_outputs(case)
    gc.collect()
    log = io.StringIO()
    codes: list[int] = []
    crash = ""
    if tracer is not None:
        tracer.reset()
        tracer.install()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            for argv in case.argvs:
                codes.append(cli.main(argv))  # looked up per call: may be the traced wrapper
                if codes[-1] != 0:
                    break
    except Exception as exc:  # a crash is a failed solve, reported with its type
        crash = f"{type(exc).__name__}: {exc}"
    finally:
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()

    record = SolveRecord(case.label, tracer is not None, seconds, case.m, False, "", math.nan, None)
    if crash:
        record.reason = f"crashed: {crash}"
        return record
    if codes[-1] != 0:
        record.reason = f"exit code {codes[-1]} on `{case.argvs[len(codes) - 1][0]}`: {log.getvalue()[-300:]}"
        return record
    outputs = _read_outputs(case)
    if first_outputs.setdefault(case.label, outputs) != outputs:
        record.reason = "artifacts differ from the first solve of this cloud"
        return record
    try:
        verdict = check(gs, workload, case)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        record.reason = f"unreadable output: {type(exc).__name__}: {exc}"
        return record
    record.ok, record.reason = verdict.ok, verdict.reason
    record.vertex_err_eps, record.final_loglik = verdict.vertex_err_eps, verdict.final_loglik
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "graphskel", "__init__.py")):
        print(f"perfbench: no graphskel sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return _run(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workload, workdir: str) -> int:
    setup_times: list[float] = []
    synthetic_times: list[float] = []
    first_outputs: dict[str, dict[str, bytes]] = {}
    tracer = Tracer() if args.trace else None
    records: list[SolveRecord] = []
    layer_rows: list[dict[str, float]] = []
    span_log: list[tuple[str, list[tuple]]] = []
    start = time.perf_counter()
    passes = 0
    while True:
        for _ in range(SETUP_REPS_PER_PASS):
            gs, cases = _setup(workload, args.seed, workdir, setup_times, synthetic_times)
        for case in cases:
            records.append(_solve(gs, workload, case, first_outputs))
            if tracer is not None:
                records.append(_solve(gs, workload, case, first_outputs, tracer))
                layer_rows.append(layer_metrics(tracer))
                span_log.append((f"{case.label}#{passes}", tracer.spans))
        passes += 1
        elapsed = time.perf_counter() - start
        # start another pass only if it should end nearer the deadline than stopping now
        if elapsed + 0.5 * elapsed / passes >= args.seconds:
            break
    for _ in range(SETUP_REPS_PER_PASS):
        _setup(workload, args.seed, workdir, setup_times, synthetic_times)

    untraced = [r for r in records if not r.traced]
    times = [r.seconds for r in untraced]
    failed = [r for r in records if not r.ok]
    fits = [r.final_loglik for r in records if r.final_loglik is not None]
    errs = [r.vertex_err_eps for r in records if math.isfinite(r.vertex_err_eps)]
    tail, tail_pct = _tail(times)

    if tracer is None:
        metrics = {
            "solve_s.p50": statistics.median(times),
            "solve_s.tail": tail,
            "points_per_s": sum(r.m for r in untraced) / sum(times),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "vertex_err_eps": max(errs, default=math.nan),
        }
        units = END_TO_END_UNITS
    else:
        traced_p50 = statistics.median(r.seconds for r in records if r.traced)
        untraced_p50 = statistics.median(times)
        metrics = {name: statistics.mean(row[name] for row in layer_rows) for name in layer_rows[0]}
        metrics["em.final_loglik"] = statistics.mean(fits) if fits else 0.0
        metrics["synthetic.s"] = statistics.median(synthetic_times)
        metrics["trace.overhead_s"] = traced_p50 - untraced_p50
        metrics["trace.overhead_frac"] = (traced_p50 - untraced_p50) / untraced_p50
        metrics = {name: metrics[name] for name in PER_LAYER_UNITS}
        units = PER_LAYER_UNITS
        os.makedirs(WORK_ROOT, exist_ok=True)
        write_spans(os.path.join(WORK_ROOT, f"spans-{workload.name}-seed{args.seed}.csv"), span_log)

    for name, value in metrics.items():
        tag = "  (computed)" if name in COMPUTED else ""
        print(f"{name} = {value:.6g} {units[name]}{tag}")
    print(f"fail_frac = {len(failed) / len(records):.6g} frac")
    if fits:
        print(f"final_loglik = {statistics.mean(fits):.6g} nats")
    detail = {
        "workload": workload.name,
        "why": workload.why,
        "environment": _environment(workload, args.seed),
        "passes": passes,
        "solves": len(records),
        "solve_s.tail": {"percentile": tail_pct, "samples": len(times)},
        "computed_metrics": [n for n in COMPUTED if n in metrics],
        "setup_s.samples": setup_times,
        "failures": [f"{r.case}{' (traced)' if r.traced else ''}: {r.reason}" for r in failed],
        "records": [
            {"case": r.case, "traced": r.traced, "s": r.seconds, "ok": r.ok, "vertex_err_eps": r.vertex_err_eps}
            for r in records
        ],
    }
    print(json.dumps({"detail": detail}, sort_keys=True))
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
