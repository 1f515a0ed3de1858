"""Generalized EM for vertex-location fitting over a categorical mixture of
point Gaussians (vertex strata) and segment-convolved Gaussians (edge strata).

The E-step computes responsibilities in log space with max-shift
normalization. The M-step hill-climbs along per-vertex-scaled gradients with a
backtracking line search that never accepts a decrease, so the marginal
log-likelihood trace is non-decreasing across full iterations.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .abstract_graph import AbstractGraph, RefinedPartition
from .densities import edge_log_density_batch, edge_log_density_grad_batch, vertex_log_density
from .errors import NumericalError
from .geometry import PointCloud

__all__ = [
    "StrataModel",
    "EmState",
    "EmConfig",
    "FitReport",
    "responsibilities",
    "update_mixing",
    "log_likelihood",
    "marginal_log_likelihood",
    "grad_vertices",
    "m_step",
    "initialize",
    "em_fit",
]


@dataclass(frozen=True)
class StrataModel:
    """Stratum bookkeeping: counts, edge endpoints, noise scales, dimension.

    Strata are indexed 0..n0-1 (vertices) then n0..n0+n1-1 (edges);
    edge_endpoints[k] holds the vertex indices bounding edge stratum n0+k.
    """

    n0: int
    n1: int
    edge_endpoints: tuple[tuple[int, int], ...]
    sigma: np.ndarray  # (N,) per-stratum standard deviations
    dim: int

    def __post_init__(self):
        if self.n0 < 1:
            raise ValueError("model needs at least one vertex stratum")
        if self.n1 != len(self.edge_endpoints):
            raise ValueError("edge_endpoints must have one entry per edge stratum")
        for k, (i, j) in enumerate(self.edge_endpoints):
            if i == j:
                raise ValueError(f"edge stratum {k} has identical endpoints {i}")
            if not (0 <= i < self.n0 and 0 <= j < self.n0):
                raise ValueError(f"edge stratum {k} references invalid vertex index")
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.ndim == 0:
            sigma = np.full(self.n_strata, float(sigma))
        if sigma.shape != (self.n_strata,):
            raise ValueError(f"sigma must be scalar or length {self.n_strata}")
        if not np.all(sigma > 0):
            raise ValueError("all sigma must be positive")
        object.__setattr__(self, "sigma", sigma)

    @property
    def n_strata(self) -> int:
        return self.n0 + self.n1


@dataclass(frozen=True)
class EmState:
    """A value-semantic snapshot of the EM variables."""

    v: np.ndarray  # (n0, dim) vertex coordinates
    pi: np.ndarray  # (N,) mixing weights
    a: np.ndarray  # (|P|, N) responsibilities
    loglik: float  # cost-function value at (v, pi, a)


@dataclass(frozen=True)
class EmConfig:
    max_iters: int = 200
    tol_ll: float = 1e-8
    consecutive: int = 3  # how many small deltas in a row declare convergence
    m_step_iters: int = 5
    grad_tol: float = 1e-8
    m_step_improve_tol: float = 1e-12  # stop ascending once gains drop below this
    step_init: float | None = None  # None: sigma_min^2 (the single-Gaussian Newton scale)
    step_floor: float = 1e-12
    clip_norm: float | None = None  # None: 10 * data bounding-box diagonal


@dataclass(frozen=True)
class FitReport:
    state: EmState
    n_iterations: int
    loglik_trace: np.ndarray  # marginal log-likelihood, one entry per iteration
    converged: bool
    vertex_displacement: np.ndarray  # (n0,) distance moved from initialization


def _check_vertices(model: StrataModel, v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (model.n0, model.dim):
        raise ValueError(f"vertex matrix must be {(model.n0, model.dim)}, got {v.shape}")
    for k, (i, j) in enumerate(model.edge_endpoints):
        if np.array_equal(v[i], v[j]):
            raise ValueError(f"edge stratum {k} degenerate: vertices {i} and {j} coincide")
    return v


def _edge_index_arrays(model: StrataModel) -> tuple[np.ndarray, np.ndarray]:
    i1 = np.array([i for (i, _) in model.edge_endpoints], dtype=int)
    i2 = np.array([j for (_, j) in model.edge_endpoints], dtype=int)
    return i1, i2


def _log_density_matrix(model: StrataModel, v: np.ndarray, data: PointCloud) -> np.ndarray:
    """(|P|, N) log densities of every point under every stratum."""
    x = data.coords
    out = np.empty((len(data), model.n_strata))
    for i in range(model.n0):
        out[:, i] = vertex_log_density(x, v[i], model.sigma[i])
    if model.n1:
        i1, i2 = _edge_index_arrays(model)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # tail underflow handled downstream
            out[:, model.n0 :] = edge_log_density_batch(x, v[i1], v[i2], model.sigma[model.n0 :])
    return out


def _posterior_logits(model: StrataModel, v: np.ndarray, pi, data: PointCloud) -> np.ndarray:
    logdens = _log_density_matrix(model, _check_vertices(model, v), data)
    with np.errstate(divide="ignore"):
        return logdens + np.log(np.asarray(pi, dtype=float))[None, :]


def _normalize_rows(logits: np.ndarray) -> np.ndarray:
    shift = np.max(logits, axis=1, keepdims=True)
    dead = ~np.isfinite(shift[:, 0])
    if np.any(dead):
        warnings.warn(
            f"{int(dead.sum())} point(s) have zero density under every stratum; "
            "falling back to uniform responsibilities for those rows",
            RuntimeWarning,
            stacklevel=2,
        )
        shift = shift.copy()
        shift[dead, 0] = 0.0
    with np.errstate(under="ignore"):
        w = np.exp(logits - shift)
    w[dead] = 1.0
    return w / w.sum(axis=1, keepdims=True)


def responsibilities(model: StrataModel, state: EmState, data: PointCloud) -> np.ndarray:
    """Posterior stratum probabilities, rows summing to 1.

    Computed in log space with max-shift normalization. Rows where every
    stratum underflows to -inf fall back to uniform and a warning is recorded.
    """
    return _normalize_rows(_posterior_logits(model, state.v, state.pi, data))


def update_mixing(a: np.ndarray) -> np.ndarray:
    """Maximizing mixing weights: column mass over total mass."""
    a = np.asarray(a, dtype=float)
    total = a.sum()
    if total <= 0:
        raise ValueError("responsibility matrix has no mass")
    return a.sum(axis=0) / total


def log_likelihood(model: StrataModel, v, pi, a, data: PointCloud) -> float:
    """Cost-function value (1/|P|) sum_j sum_i A_ij (log rho_i(x_j) + log pi_i).

    Terms with A_ij = 0 contribute exactly 0 even when log pi_i or the log
    density is -inf.
    """
    v = _check_vertices(model, v)
    pi = np.asarray(pi, dtype=float)
    a = np.asarray(a, dtype=float)
    logdens = _log_density_matrix(model, v, data)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = logdens + np.log(pi)[None, :]
        contrib = np.where(a > 0, a * terms, 0.0)
    return float(contrib.sum() / len(data))


def marginal_log_likelihood(model: StrataModel, v, pi, data: PointCloud) -> float:
    """Incomplete-data log-likelihood (1/|P|) sum_j log sum_i pi_i rho_i(x_j).

    This is the quantity generalized EM drives monotonically upward; it is the
    per-iteration trace recorded by em_fit.
    """
    return float(np.mean(logsumexp(_posterior_logits(model, v, pi, data), axis=1)))


def _default_clip_norm(data: PointCloud) -> float:
    span = data.coords.max(axis=0) - data.coords.min(axis=0)
    diag = float(np.sqrt(np.sum(span**2)))
    return 10.0 * diag if diag > 0 else 10.0


def grad_vertices(
    model: StrataModel, v, pi, a, data: PointCloud, clip_norm: float | None = None
) -> np.ndarray:
    """Exact gradient of the cost function with respect to every vertex
    coordinate, holding A and Pi fixed.

    Each vertex accumulates its own Gaussian stratum plus every incident edge
    stratum. Rows are clipped to `clip_norm` (default: 10 x the data
    bounding-box diagonal); pass numpy.inf to disable.
    """
    v = _check_vertices(model, v)
    a = np.asarray(a, dtype=float)
    x = data.coords
    m = len(data)
    grad = np.zeros_like(v)

    for i in range(model.n0):
        s2 = model.sigma[i] ** 2
        grad[i] = (a[:, i][:, None] * (x - v[i])).sum(axis=0) / (s2 * m)

    if model.n1:
        i1, i2 = _edge_index_arrays(model)
        _, g1, g2 = edge_log_density_grad_batch(
            x, v[i1], v[i2], model.sigma[model.n0 :], a[:, model.n0 :]
        )
        np.add.at(grad, i1, g1 / m)
        np.add.at(grad, i2, g2 / m)

    limit = _default_clip_norm(data) if clip_norm is None else float(clip_norm)
    if np.isfinite(limit):
        norms = np.sqrt(np.sum(grad**2, axis=1))
        over = norms > limit
        if np.any(over):
            grad[over] *= (limit / norms[over])[:, None]
    return grad


def _vertex_mass(model: StrataModel, a: np.ndarray) -> np.ndarray:
    """Responsibility mass pulling on each vertex: own stratum plus incident edges."""
    mass = a[:, : model.n0].sum(axis=0)
    for k, (i, j) in enumerate(model.edge_endpoints):
        mk = a[:, model.n0 + k].sum()
        mass[i] += mk
        mass[j] += mk
    return mass


def m_step(model: StrataModel, state: EmState, data: PointCloud, config: EmConfig = EmConfig()) -> np.ndarray:
    """Hill-climb the vertex matrix with A and Pi fixed.

    Ascends along the gradient scaled per vertex by sigma^2 |P| / mass (the
    Newton step of the Gaussian part), with a backtracking line search that
    halves the step until the objective does not decrease (floor 1e-12).
    Returns after `m_step_iters` or once the gradient norm drops below
    `grad_tol`.
    """
    v = _check_vertices(model, state.v).copy()
    obj = lambda vv: log_likelihood(model, vv, state.pi, state.a, data)
    f = obj(v)
    if not np.isfinite(f):
        raise NumericalError("M-step objective is non-finite at the current vertices")

    mass = _vertex_mass(model, np.asarray(state.a, dtype=float))
    scale = (model.sigma[: model.n0] ** 2) * len(data) / np.maximum(mass, 1e-12)
    step = config.step_init if config.step_init is not None else 1.0

    for _ in range(config.m_step_iters):
        g = grad_vertices(model, v, state.pi, state.a, data, config.clip_norm)
        if np.sqrt(np.sum(g**2)) < config.grad_tol:
            break
        direction = g * scale[:, None]  # positive diagonal scaling keeps ascent
        alpha = step
        accepted = False
        saw_finite = False
        gain = 0.0
        while alpha >= config.step_floor:
            trial = v + alpha * direction
            try:
                ft = obj(trial)
            except ValueError:  # a trial step collapsed an edge
                ft = -np.inf
            if np.isfinite(ft):
                saw_finite = True
                if ft >= f:
                    gain = ft - f
                    v, f = trial, ft
                    # grow only on clean accepts so the step does not oscillate
                    step = 2.0 * alpha if alpha == step else alpha
                    accepted = True
                    break
            alpha *= 0.5
        if not accepted:
            if not saw_finite:
                raise NumericalError(
                    "M-step line search: objective non-finite at every trial step"
                )
            break  # precision floor reached; keep the current (non-decreased) V
        if gain < config.m_step_improve_tol:
            break
    return v


def initialize(
    graph: AbstractGraph,
    refined: RefinedPartition,
    data: PointCloud,
    sigma: float,
) -> tuple[StrataModel, EmState]:
    """Strata and state from the recovered structure: centroids for V, hard
    one-hot cluster assignments for A, counting weights for Pi."""
    n0, n1 = graph.n_vertices, graph.n_edges
    if n0 == 0:
        raise ValueError("cannot initialize: the graph has no vertex clusters")
    clusters = list(graph.vertex_clusters) + list(graph.edge_clusters)
    for cid, members in enumerate(clusters):
        if np.asarray(members).size == 0:
            raise ValueError(f"cannot initialize: cluster {cid} is empty")

    covered = np.sort(np.concatenate([np.asarray(c, dtype=int) for c in clusters]))
    if not np.array_equal(covered, np.arange(len(data))):
        raise ValueError("clusters do not partition the cloud indices")
    if not np.array_equal(
        np.sort(np.concatenate([np.asarray(c, dtype=int) for c in graph.vertex_clusters])),
        refined.p0_tilde,
    ):
        raise ValueError("refined partition does not match the graph's vertex clusters")

    model = StrataModel(
        n0=n0,
        n1=n1,
        edge_endpoints=tuple(graph.boundary),
        sigma=np.full(n0 + n1, float(sigma)),
        dim=data.dim,
    )
    a = np.zeros((len(data), n0 + n1))
    for i, members in enumerate(clusters):
        a[np.asarray(members, dtype=int), i] = 1.0
    pi = update_mixing(a)
    v0 = np.array(graph.vertex_centroids, dtype=float)
    state = EmState(v=v0, pi=pi, a=a, loglik=log_likelihood(model, v0, pi, a, data))
    return model, state


def em_fit(model: StrataModel, state: EmState, data: PointCloud, config: EmConfig = EmConfig()) -> FitReport:
    """Run E-step / Pi update / M-step until the trace stalls.

    Stops when |delta loglik| < tol_ll for `consecutive` iterations in a row,
    or at max_iters. Raises NumericalError (with the offending point ids) if
    the marginal log-likelihood ever goes non-finite.
    """
    v_init = np.array(state.v, dtype=float)
    # logits at the current (V, Pi) feed the trace entry, the next E-step, and
    # the cost bookkeeping, so each iteration prices exactly one density pass
    # beyond the M-step's own evaluations.
    logits = _posterior_logits(model, state.v, state.pi, data)
    per_point = logsumexp(logits, axis=1)
    trace = [float(np.mean(per_point))]
    streak = 0
    converged = False
    n_done = 0

    for n_done in range(1, config.max_iters + 1):
        a = _normalize_rows(logits)
        pi = update_mixing(a)
        interim = EmState(v=state.v, pi=pi, a=a, loglik=state.loglik)
        v = m_step(model, interim, data, config)
        logits = _posterior_logits(model, v, pi, data)
        per_point = logsumexp(logits, axis=1)
        ll = float(np.mean(per_point))
        if not np.isfinite(ll):
            bad = np.flatnonzero(~np.isfinite(per_point)).tolist()
            raise NumericalError(f"non-finite log-likelihood at points {bad[:20]}")
        with np.errstate(invalid="ignore"):
            cost = float(np.where(a > 0, a * logits, 0.0).sum() / len(data))
        state = EmState(v=v, pi=pi, a=a, loglik=cost)
        trace.append(ll)
        if abs(trace[-1] - trace[-2]) < config.tol_ll:
            streak += 1
            if streak >= config.consecutive:
                converged = True
                break
        else:
            streak = 0

    displacement = np.sqrt(np.sum((state.v - v_init) ** 2, axis=1))
    return FitReport(
        state=state,
        n_iterations=n_done,
        loglik_trace=np.asarray(trace),
        converged=converged,
        vertex_displacement=displacement,
    )
