"""Command-line surface: partition | graph | fit | pipeline | simulate.

Exit codes: 0 success, 1 usage/parse errors, 2 structural errors (assumption
violation symptoms), 3 numerical aborts. Every error, argparse's own included,
is emitted as one machine-readable JSON line on stderr.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from typing import NoReturn

import numpy as np

from . import __version__
from .abstract_graph import _match_structure, recover_graph
from .densities import _check_sigma
from .em import EmConfig, EmState, em_fit, initialize
from .errors import CloudParseError, GenerationError, NumericalError, StructureError
from .fileio import (
    _document,
    graph_from_dict,
    graph_spec_from_dict,
    graph_to_dict,
    read_cloud,
    read_json,
    write_cloud,
    write_json_atomic,
    write_text_atomic,
)
from .local_structure import ReconstructionConfig, classify_all, classify_sweep
from .synthetic import SampleSpec, builtin_fixture, hausdorff_check, sample_graph

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_STRUCTURAL = 2
EXIT_NUMERICAL = 3


def _resolve_scales(args) -> ReconstructionConfig:
    R = args.R if args.ratio is None else args.ratio * args.eps
    return ReconstructionConfig(R=R, eps=args.eps)


def _warn_regime(config: ReconstructionConfig) -> None:
    if config.guarantee_warning:
        print(
            f"warning: R < 12*eps guarantee regime (R/eps = {config.ratio:.4g})",
            file=sys.stderr,
        )


def _config_dict(command: str, args, **extra) -> dict:
    out = {"command": command, "version": __version__}
    for key in ("R", "ratio", "eps", "sigma", "seed", "max_iters", "tol", "input", "output", "graph"):
        if hasattr(args, key) and getattr(args, key) is not None:
            out[key] = getattr(args, key)
    out.update(extra)
    return out


def cmd_partition(args) -> int:
    config = _resolve_scales(args)
    _warn_regime(config)
    cloud = read_cloud(args.input, skip_header=args.skip_header)
    labels = classify_all(cloud, config)
    cfg = _config_dict("partition", args, R=config.R)
    lines = [
        "# graphskel partition",
        "# config: " + json.dumps(cfg, sort_keys=True),
        "# columns: index,label,ball_connected,shell_components,inner_product",
    ]
    for i, (vertex_like, connected, n_shell, ip) in enumerate(zip(*(column.tolist() for column in labels))):
        lines.append(f"{i},{0 if vertex_like else 1},{int(connected)},{n_shell},{'' if math.isnan(ip) else repr(ip)}")
    write_text_atomic(args.output, "\n".join(lines) + "\n")
    m, n0 = len(cloud), int(labels.vertex_like.sum())
    print(f"partitioned {m} points: {n0} vertex-like, {m - n0} edge-like")
    return EXIT_OK


def cmd_graph(args) -> int:
    config = _resolve_scales(args)
    _warn_regime(config)
    cloud = read_cloud(args.input, skip_header=args.skip_header)
    graph = recover_graph(cloud, config)
    doc = graph_to_dict(graph, _config_dict("graph", args, R=config.R))
    doc["structure_verified"] = not config.guarantee_warning
    write_json_atomic(args.output, doc)
    print(f"recovered {graph.n_vertices} vertices / {graph.n_edges} edges -> {args.output}")
    return EXIT_OK


def _fit(cloud, graph, sigma: float, em_config: EmConfig, start: EmState | None = None):
    """EM from the graph's centroids and counting weights, or from `start`
    in the graph's numbering."""
    model, state = initialize(graph, cloud, sigma)
    report = em_fit(model, state if start is None else start, cloud, em_config)
    return model, report


def _wireframe_csv(graph_boundary, v: np.ndarray) -> str:
    dim = v.shape[1]
    header = "edge,point," + ",".join(f"c{k}" for k in range(dim))
    rows = [header]
    for j, (a, b) in enumerate(graph_boundary):
        for order, vid in enumerate((a, b)):
            rows.append(f"{j},{order}," + ",".join(repr(float(c)) for c in v[vid]))
    return "\n".join(rows) + "\n"


def _sigma(args, eps: float | None = None) -> float | None:
    """EM's noise scale, by the one rule of `fit` and `pipeline`: --sigma when
    given, else eps/2, checked; None when neither is known yet."""
    if args.sigma is None:
        return None if eps is None else _check_sigma(eps / 2)
    return _check_sigma(args.sigma)


def cmd_fit(args) -> int:
    em_config = EmConfig(max_iters=args.max_iters, tol_ll=args.tol)
    sigma = _sigma(args)  # a given --sigma is checked before any file is read
    cloud = read_cloud(args.input, skip_header=args.skip_header)
    graph, graph_cfg = graph_from_dict(read_json(args.graph), cloud)
    if sigma is None:
        eps = graph_cfg.get("eps")
        if eps is None:
            raise ValueError("--sigma not given and the graph document has no eps to default from")
        if type(eps) not in (int, float) or not 0 < eps < math.inf:
            raise ValueError("malformed document: field config.eps is not a positive finite number")
        sigma = _sigma(args, float(eps))
    model, report = _fit(cloud, graph, sigma, em_config)

    cfg = _config_dict("fit", args, sigma=sigma)
    out = {
        **_document("graphskel.fit", cfg),
        "graph_config": graph_cfg,
        "n0": model.n0,
        "n1": model.n1,
        "edge_endpoints": model.edge_endpoints.tolist(),
        "sigma": sigma,
        "vertices": report.state.v.tolist(),
        "pi": report.state.pi.tolist(),
        "final_loglik": float(report.loglik_trace[-1]),
        "iterations": report.n_iterations,
        "converged": report.converged,
        "loglik_trace": report.loglik_trace.tolist(),
        "vertex_displacement": report.vertex_displacement.tolist(),
    }
    write_json_atomic(args.output, out)
    wire_path = args.output + ".wireframe.csv" if not args.output.endswith(".json") else args.output[:-5] + ".wireframe.csv"
    write_text_atomic(wire_path, _wireframe_csv(model.edge_endpoints, report.state.v))
    print(
        f"fit: {report.n_iterations} iterations, loglik {out['final_loglik']:.6f} "
        f"-> {args.output} (+ {wire_path})"
    )
    return EXIT_OK


def cmd_pipeline(args) -> int:
    if not args.ratios:
        raise ValueError("--ratios must list at least one ratio")
    ratios = sorted({float(r) for r in args.ratios}, reverse=True)
    eps = args.eps
    configs = []
    for ratio in ratios:
        try:
            configs.append(ReconstructionConfig(R=ratio * eps, eps=eps))
        except ValueError as exc:
            raise ValueError(f"{exc}; ratio {ratio:g}") from None
    reference_ratio = ratios[0]
    sigma = _sigma(args, eps)
    em_config = EmConfig(max_iters=args.max_iters, tol_ll=args.tol)
    cloud = read_cloud(args.input, skip_header=args.skip_header)

    sweep = classify_sweep(cloud, configs)  # stage 1 for every ratio in one pass
    ref_graph = recover_graph(cloud, configs[0], sweep[0])

    rows = []
    selected = None  # the last matched row with a fit: the longest-continued fit
    warm = None  # the last matched fit's state in the reference numbering
    for ratio, config, labels in zip(ratios, configs, sweep):
        row = {"ratio": ratio, "R": config.R, "structure_match": False, "loglik": None,
               "iterations": None, "converged": None, "n_vertices": None, "n_edges": None,
               "vertices": None, "error": None}
        try:
            graph = ref_graph if ratio == reference_ratio else recover_graph(cloud, config, labels)
            row["n_vertices"], row["n_edges"] = graph.n_vertices, graph.n_edges
            match = _match_structure(graph, ref_graph.vertex_centroids, ref_graph.boundary)
            row["structure_match"] = match.is_isomorphic
            if not match.is_isomorphic:
                row["error"] = match.reason
            else:
                # every matched graph has the reference's strata, so it starts
                # where the last matched fit stopped: EM only continues it
                strata = np.concatenate([match.vertex_map, graph.n_vertices + np.array(match.edge_map, dtype=np.intp)])
                start = None if warm is None else EmState(v=warm.v[match.vertex_map], pi=warm.pi[strata])
                _, report = _fit(cloud, graph, sigma, em_config, start)
                v, pi = report.state.v, report.state.pi
                warm = EmState(v=np.empty_like(v), pi=np.empty_like(pi))
                warm.v[match.vertex_map], warm.pi[strata] = v, pi
                row["loglik"] = float(report.loglik_trace[-1])
                row["iterations"], row["converged"] = report.n_iterations, report.converged
                row["vertices"] = v.tolist()
                selected = row
        except (StructureError, NumericalError) as exc:
            row["error"] = str(exc)
        rows.append(row)

    out = {
        **_document("graphskel.pipeline", _config_dict("pipeline", args, sigma=sigma, ratios=ratios)),
        "reference_ratio": reference_ratio,
        "reference_in_guarantee_regime": not configs[0].guarantee_warning,
        "rows": rows,
        "selected_ratio": selected and selected["ratio"],
        "selected_loglik": selected and selected["loglik"],
        "selected_vertices": selected and selected["vertices"],
    }
    write_json_atomic(args.output, out)
    for row in rows:
        ll = "-" if row["loglik"] is None else f"{row['loglik']:.4f}"
        print(f"ratio {row['ratio']:g}: match={row['structure_match']} loglik={ll}")
    if selected:
        print(f"selected ratio {selected['ratio']:g} (loglik {selected['loglik']:.6f}) -> {args.output}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    spec = builtin_fixture() if args.builtin else graph_spec_from_dict(read_json(args.graph))
    sample = SampleSpec(
        eps=args.eps,
        spacing=args.spacing,
        noise=args.noise,
        seed=args.seed,
        noise_kind=args.noise_kind,
    )
    cloud = sample_graph(spec, sample)
    report = hausdorff_check(cloud, spec, sample.eps)
    write_cloud(args.output, cloud)
    manifest = {
        **_document("graphskel.cloud-manifest", _config_dict("simulate", args, eps=sample.eps)),
        "seed": sample.seed,
        "spacing": sample.spacing,
        "noise": sample.noise,
        "noise_kind": sample.noise_kind,
        "noiseless": sample.noise == 0,
        "n_points": len(cloud),
        "hausdorff_measured": report.measured,
        "hausdorff_tolerance": report.tolerance,
        "hausdorff_ok": report.passed,
    }
    write_json_atomic(args.output + ".manifest.json", manifest)
    print(f"wrote {len(cloud)} points -> {args.output} (hausdorff_ok={report.passed})")
    return EXIT_OK


def _add_common_io(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="input point-cloud file")
    p.add_argument("--output", required=True, help="output path")
    p.add_argument("--skip-header", action="store_true", help="skip one header line in the cloud file")


def _add_scales(p: argparse.ArgumentParser) -> None:
    scale = p.add_mutually_exclusive_group(required=True)
    scale.add_argument("--R", type=float, help="shell radius R")
    scale.add_argument("--ratio", type=float, help="R/eps shorthand (R = ratio * eps)")
    p.add_argument("--eps", type=float, required=True, help="sample noise bound epsilon")


def _add_em(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sigma", type=float, default=None, help="noise scale sigma (default eps/2)")
    p.add_argument("--max-iters", dest="max_iters", type=int, default=200, help="EM iteration cap")
    p.add_argument("--tol", type=float, default=1e-8, help="EM log-likelihood tolerance")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ValueError, so that `main`
    reports them with the JSON usage line like any other; subparsers inherit it."""

    def error(self, message: str) -> NoReturn:
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="graphskel", description=__doc__)
    parser.add_argument("--version", action="version", version=f"graphskel {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="classify each sample as vertex-like (0) or edge-like (1)")
    _add_common_io(p)
    _add_scales(p)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("graph", help="recover the abstract graph and boundary matrix")
    _add_common_io(p)
    _add_scales(p)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("fit", help="fit vertex locations by EM given a recovered graph")
    _add_common_io(p)
    p.add_argument("--graph", required=True, help="graph JSON produced by `graphskel graph`")
    _add_em(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("pipeline", help="structure at a guaranteed ratio, refits at lower ratios")
    _add_common_io(p)
    p.add_argument("--eps", type=float, required=True, help="sample noise bound epsilon")
    p.add_argument(
        "--ratios",
        type=lambda s: [float(tok) for tok in s.split(",") if tok],
        required=True,
        help="comma-separated R/eps ratios, e.g. 12,10,8,6",
    )
    _add_em(p)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("simulate", help="sample an epsilon-cloud from a graph spec")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--builtin", action="store_true", help="use the built-in 5-vertex fixture")
    source.add_argument("--graph", default=None, help="graph-spec JSON file")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--spacing", type=float, default=None, help="arc-length spacing (default eps)")
    p.add_argument("--noise", type=float, default=None, help="perturbation bound (default eps/2)")
    p.add_argument("--noise-kind", choices=("uniform", "gaussian"), default="uniform")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_simulate)
    return parser


def _emit_error_json(kind: str, exc: Exception) -> None:
    print(json.dumps({"error": kind, "message": str(exc)}, sort_keys=True), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # --help and --version; usage errors raise ValueError
            return exc.code
        return args.func(args)
    except (CloudParseError, FileNotFoundError, ValueError, GenerationError) as exc:
        _emit_error_json("usage", exc)
        return EXIT_USAGE
    except StructureError as exc:
        _emit_error_json("structural", exc)
        return EXIT_STRUCTURAL
    except NumericalError as exc:
        _emit_error_json("numerical", exc)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
