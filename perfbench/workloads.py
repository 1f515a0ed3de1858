"""The benchmark's workloads: generated clouds, CLI commands and output checks.

Every workload solves a fixed list of sampled clouds (its `sample_seeds`), so
each run repeats the same work. The lists hold one cloud each: two samples of
one graph can differ by half in solve time, and a median over a mix of them
jumps between the two. The run seed only picks a rigid motion and a
point order for each cloud. graphskel's output is invariant under both (up to
cluster and point relabelling), so a different seed changes the input files
but not the amount of work, and the ground truth moves with the cloud.
"""
from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

import numpy as np

EPS = 0.1
# Same floor as the acceptance suite's EM-monotonicity criterion.
TRACE_DECREASE_FLOOR = -1e-9
# Fitted vertices must land within this many eps of the truth (acceptance bound).
FIT_BOUND_EPS = 2.0
TRANSLATION_BOX = 5.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "graph", "graph+fit" or "pipeline"
    spacing: float
    sample_seeds: tuple[int, ...]
    graph_seed: int | None = None  # random_compliant_graph seed; None: builtin fixture
    dim: int = 3


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="graph-dense",
            why=(
                "graph at ratio 12 on the fixture at spacing 0.02 (m=1691): big balls, so "
                "classification dominates and EM never runs"
            ),
            kind="graph",
            spacing=0.02,
            sample_seeds=(0,),
        ),
        Workload(
            name="graph-fit-5d",
            why=(
                "graph then fit on a 12-vertex random compliant graph in R^5 (m=2290): small "
                "balls, so EM and densities dominate and P1 clustering sets peak RSS"
            ),
            kind="graph+fit",
            spacing=EPS,
            sample_seeds=(0,),
            graph_seed=0,
            dim=5,
        ),
        Workload(
            name="pipeline-sweep",
            why=(
                "pipeline over ratios 12,10,8,6 on the fixture at spacing 0.05 (m=680): the "
                "only workload that classifies and fits one cloud at several scales"
            ),
            kind="pipeline",
            spacing=0.05,
            sample_seeds=(0,),
        ),
    )
}


@dataclass
class Case:
    """One cloud of a workload, as written for the CLI, with its ground truth."""

    label: str
    coords: np.ndarray
    truth: object  # graphskel.EmbeddedGraphSpec, moved with the cloud
    cloud_path: str
    argvs: list[list[str]]
    outputs: list[str]

    @property
    def m(self) -> int:
        return self.coords.shape[0]


def _rigid_motion(rng: np.random.Generator, dim: int) -> tuple[np.ndarray, np.ndarray]:
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    q *= np.sign(np.diag(r))  # Haar-distributed orthogonal matrix
    return q, rng.uniform(-TRANSLATION_BOX, TRANSLATION_BOX, size=dim)


def build_cases(gs, workload: Workload, seed: int, workdir: str) -> tuple[list[Case], float]:
    """Generate and write the workload's clouds; returns (cases, synthetic seconds)."""
    synthetic_s = 0.0
    t0 = time.perf_counter()
    if workload.graph_seed is None:
        spec = gs.builtin_fixture()
    else:
        config = gs.GraphGenConfig(R=1.2, eps=EPS)
        spec = gs.random_compliant_graph(workload.dim, 12, config, seed=workload.graph_seed)
    synthetic_s += time.perf_counter() - t0

    cases = []
    for index, sample_seed in enumerate(workload.sample_seeds):
        t0 = time.perf_counter()
        base = gs.sample_graph(spec, gs.SampleSpec(eps=EPS, spacing=workload.spacing, seed=sample_seed))
        synthetic_s += time.perf_counter() - t0

        rng = np.random.default_rng([seed, index])
        q, shift = _rigid_motion(rng, spec.dim)
        coords = base.coords[rng.permutation(len(base))] @ q.T + shift
        truth = gs.EmbeddedGraphSpec(spec.vertices @ q.T + shift, spec.edges)

        label = f"s{sample_seed}"
        cloud_path = os.path.join(workdir, f"{label}.cloud.txt")
        gs.fileio.write_cloud(cloud_path, gs.PointCloud(coords))
        argvs, outputs = _commands(workload, cloud_path, os.path.join(workdir, label))
        cases.append(Case(label, coords, truth, cloud_path, argvs, outputs))
    return cases, synthetic_s


def _commands(workload: Workload, cloud: str, stem: str) -> tuple[list[list[str]], list[str]]:
    scales = ["--ratio", "12", "--eps", str(EPS)]
    graph = stem + ".graph.json"
    if workload.kind == "graph":
        return [["graph", "--input", cloud, *scales, "--output", graph]], [graph]
    if workload.kind == "graph+fit":
        fit = stem + ".fit.json"
        return (
            [
                ["graph", "--input", cloud, *scales, "--output", graph],
                ["fit", "--input", cloud, "--graph", graph, "--output", fit],
            ],
            [graph, fit, stem + ".fit.wireframe.csv"],
        )
    report = stem + ".pipeline.json"
    return (
        [["pipeline", "--input", cloud, "--ratios", "12,10,8,6", "--eps", str(EPS), "--output", report]],
        [report],
    )


@dataclass
class Verdict:
    ok: bool
    reason: str
    vertex_err_eps: float
    final_loglik: float | None = None


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def check(gs, workload: Workload, case: Case) -> Verdict:
    """Judge one solve's outputs against the cloud's ground truth.

    `graph` alone reports cluster centroids, which sit up to about R/2 from a
    low-degree vertex, so only their isomorphic matching is required; fitted
    vertices must also lie within FIT_BOUND_EPS * eps of the truth.
    """
    if workload.kind == "pipeline":
        return _check_pipeline(case)
    graph, _ = gs.fileio.graph_from_dict(_read_json(case.outputs[0]), gs.PointCloud(case.coords))
    match = gs.match_to_ground_truth(graph, case.truth)
    worst = max(match.vertex_errors) / EPS if match.vertex_errors else float("inf")
    if not match.is_isomorphic:
        return Verdict(False, f"structure not isomorphic: {match.reason}", worst)
    if workload.kind == "graph":
        return Verdict(True, "", worst)

    fit = _read_json(case.outputs[1])
    v = np.asarray(fit["vertices"], dtype=float)
    truth = case.truth.vertices[match.vertex_map]
    worst = float(np.max(np.linalg.norm(v - truth, axis=1))) / EPS
    deltas = np.diff(np.asarray(fit["loglik_trace"], dtype=float))
    if deltas.size and deltas.min() < TRACE_DECREASE_FLOOR:
        return Verdict(False, f"loglik_trace decreases by {-deltas.min():.3g}", worst, fit["final_loglik"])
    if worst > FIT_BOUND_EPS:
        return Verdict(False, f"fitted vertex {worst:.3g} eps from the truth", worst, fit["final_loglik"])
    return Verdict(True, "", worst, fit["final_loglik"])


def _check_pipeline(case: Case) -> Verdict:
    """The report carries no clusters, so isomorphism is checked as: the
    reference and selected rows have the true vertex and edge counts, and the
    selected vertices match distinct true vertices within the fit bound."""
    report = _read_json(case.outputs[0])
    truth = case.truth
    rows = {row["ratio"]: row for row in report["rows"]}
    ref = rows.get(report["reference_ratio"])
    selected = rows.get(report["selected_ratio"])
    if selected is None or report["selected_vertices"] is None:
        return Verdict(False, "no ratio was selected", float("inf"))
    for name, row in (("reference", ref), ("selected", selected)):
        if row is None or (row["n_vertices"], row["n_edges"]) != (truth.n_vertices, truth.n_edges):
            return Verdict(False, f"{name} row does not have the true vertex/edge counts", float("inf"))
    v = np.asarray(report["selected_vertices"], dtype=float)
    dist = np.linalg.norm(v[:, None, :] - truth.vertices[None, :, :], axis=2)
    nearest = dist.argmin(axis=1)
    worst = float(dist.min(axis=1).max()) / EPS
    loglik = report["selected_loglik"]
    if not selected["structure_match"] or len(set(nearest.tolist())) != len(nearest):
        return Verdict(False, "selected vertices do not match distinct true vertices", worst, loglik)
    if worst > FIT_BOUND_EPS:
        return Verdict(False, f"selected vertex {worst:.3g} eps from the truth", worst, loglik)
    return Verdict(True, "", worst, loglik)
