"""Generalized EM for vertex-location fitting over a categorical mixture of
point Gaussians (vertex strata) and segment-convolved Gaussians (edge strata).

The E-step computes responsibilities in log space with max-shift
normalization. The M-step hill-climbs along per-vertex-scaled gradients with a
backtracking line search that never accepts a decrease, so the marginal
log-likelihood trace is non-decreasing across full iterations. The densities
are priced once per distinct vertex matrix: the objective, the gradient and
the posterior logits are reductions of that one evaluation.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import logsumexp

from .abstract_graph import AbstractGraph, RefinedPartition
from .densities import (
    EdgeCoefficients,
    edge_log_density_grad_batch,
    endpoint_gradients,
    vertex_log_density,
)
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

CONSECUTIVE = 3  # how many small deltas in a row declare convergence
M_STEP_ITERS = 5
GRAD_TOL = 1e-8
M_STEP_IMPROVE_TOL = 1e-12  # stop ascending once gains drop below this
STEP_FLOOR = 1e-12


@dataclass(frozen=True)
class StrataModel:
    """Stratum bookkeeping: counts, edge endpoints, noise scales, dimension.

    Strata are indexed 0..n0-1 (vertices) then n0..n0+n1-1 (edges);
    edge_endpoints[k] holds the vertex indices bounding edge stratum n0+k, and
    `ends` holds the same pairs as an (n1, 2) index array.
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
        object.__setattr__(self, "ends", np.array(self.edge_endpoints, dtype=int).reshape(-1, 2))

    @property
    def n_strata(self) -> int:
        return self.n0 + self.n1


@dataclass(frozen=True)
class EmState:
    """A value-semantic snapshot of the EM variables."""

    v: np.ndarray  # (n0, dim) vertex coordinates
    pi: np.ndarray  # (N,) mixing weights
    a: np.ndarray  # (|P|, N) responsibilities


@dataclass(frozen=True)
class EmConfig:
    max_iters: int = 200
    tol_ll: float = 1e-8
    step_init: float = 1.0  # the direction already carries the sigma^2 |P| / mass scale


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
    i1, i2 = model.ends.T
    coincide = np.all(v[i1] == v[i2], axis=1)
    if np.any(coincide):
        k = int(np.argmax(coincide))
        raise ValueError(f"edge stratum {k} degenerate: vertices {i1[k]} and {i2[k]} coincide")
    return v


class _Evaluation(NamedTuple):
    """The densities at one vertex matrix, priced once.

    The objective for any (Pi, A), the posterior logits for any Pi and the
    gradient for any A are reductions of these arrays; none of them depends
    on A or Pi.
    """

    v: np.ndarray  # (n0, dim) vertex coordinates
    logdens: np.ndarray  # (|P|, N) log densities of every point under every stratum
    edge: EdgeCoefficients | None  # endpoint-gradient coefficients; None without edges


def _evaluate(model: StrataModel, v, data: PointCloud) -> _Evaluation:
    v = _check_vertices(model, v).copy()
    x = data.coords
    n0 = model.n0
    logrho, edge = None, None
    if model.n1:  # before allocating logdens, so the kernel's peak does not overlap it
        i1, i2 = model.ends.T
        logrho, edge = edge_log_density_grad_batch(x, v[i1], v[i2], model.sigma[n0:])
    logdens = np.empty((len(data), model.n_strata))
    logdens[:, :n0] = vertex_log_density(x[:, None, :], v, model.sigma[:n0])
    if model.n1:
        logdens[:, n0:] = logrho.T
    return _Evaluation(v=v, logdens=logdens, edge=edge)


def _logits(ev: _Evaluation, pi) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return ev.logdens + np.log(np.asarray(pi, dtype=float))[None, :]


def _objective(ev: _Evaluation, pi, a) -> float:
    pi = np.asarray(pi, dtype=float)
    a = np.asarray(a, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = ev.logdens + np.log(pi)[None, :]
        terms *= a  # in place, which keeps the line search's peak memory low
        terms[~(a > 0)] = 0.0
    return float(terms.sum() / len(terms))


def _gradient(model: StrataModel, ev: _Evaluation, a, data: PointCloud, limit: float) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    n0, m = model.n0, len(data)
    # sum_j a_ji (x_j - v_i) for every vertex at once, with x taken about its
    # mean as in the edge kernel, which keeps far-from-origin clouds accurate
    origin = data.coords.mean(axis=0)
    av = a[:, :n0]
    pull = av.T @ (data.coords - origin) - av.sum(axis=0)[:, None] * (ev.v - origin)
    grad = pull / ((model.sigma[:n0, None] ** 2) * m)

    if model.n1:
        g1, g2 = endpoint_gradients(ev.edge, a[:, n0:])
        np.add.at(grad, model.ends.T.ravel(), np.vstack([g1, g2]) / m)

    if np.isfinite(limit):
        norms = np.sqrt(np.sum(grad**2, axis=1))
        over = norms > limit
        if np.any(over):
            grad[over] *= (limit / norms[over])[:, None]
    return grad


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
    return _normalize_rows(_logits(_evaluate(model, state.v, data), state.pi))


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
    return _objective(_evaluate(model, v, data), pi, a)


def marginal_log_likelihood(model: StrataModel, v, pi, data: PointCloud) -> float:
    """Incomplete-data log-likelihood (1/|P|) sum_j log sum_i pi_i rho_i(x_j).

    This is the quantity generalized EM drives monotonically upward; it is the
    per-iteration trace recorded by em_fit.
    """
    return float(np.mean(logsumexp(_logits(_evaluate(model, v, data), pi), axis=1)))


def _clip_limit(data: PointCloud, clip_norm: float | None) -> float:
    """`clip_norm`, or 10 x the data bounding-box diagonal when it is None."""
    if clip_norm is not None:
        return float(clip_norm)
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
    return _gradient(model, _evaluate(model, v, data), a, data, _clip_limit(data, clip_norm))


def m_step(
    model: StrataModel,
    state: EmState,
    data: PointCloud,
    config: EmConfig = EmConfig(),
    evaluation: _Evaluation | None = None,
) -> _Evaluation:
    """Hill-climb the vertex matrix with A and Pi fixed.

    Ascends along the gradient scaled per vertex by sigma^2 |P| / mass (the
    Newton step of the Gaussian part), with a backtracking line search that
    halves the step until the objective does not decrease (floor STEP_FLOOR).
    Stops after M_STEP_ITERS or once the gradient norm drops below GRAD_TOL.

    `evaluation` is the density evaluation at `state.v` (as returned by the
    previous call); without it one is made here. Returns the evaluation at the
    accepted vertices, whose `v` is the new vertex matrix: each distinct
    vertex matrix is priced once, and the objective and gradient are
    reductions of its evaluation.
    """
    if evaluation is None:
        evaluation = _evaluate(model, state.v, data)
    f = _objective(evaluation, state.pi, state.a)
    if not np.isfinite(f):
        raise NumericalError("M-step objective is non-finite at the current vertices")

    # responsibility mass pulling on each vertex: own stratum plus incident edges
    a = np.asarray(state.a, dtype=float)
    mass = a[:, : model.n0].sum(axis=0)
    np.add.at(mass, model.ends.ravel(), np.repeat(a[:, model.n0 :].sum(axis=0), 2))
    scale = (model.sigma[: model.n0] ** 2) * len(data) / np.maximum(mass, 1e-12)
    step = config.step_init
    limit = _clip_limit(data, None)

    for _ in range(M_STEP_ITERS):
        g = _gradient(model, evaluation, state.a, data, limit)
        if np.sqrt(np.sum(g**2)) < GRAD_TOL:
            break
        direction = g * scale[:, None]  # positive diagonal scaling keeps ascent
        alpha = step
        accepted = False
        saw_finite = False
        gain = 0.0
        while alpha >= STEP_FLOOR:
            trial = None  # release a rejected trial before pricing the next
            try:
                trial = _evaluate(model, evaluation.v + alpha * direction, data)
            except ValueError:  # a trial step collapsed an edge
                ft = -np.inf
            else:
                ft = _objective(trial, state.pi, state.a)
            if np.isfinite(ft):
                saw_finite = True
                if ft >= f:
                    gain = ft - f
                    evaluation, f = trial, ft
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
        if gain < M_STEP_IMPROVE_TOL:
            break
    return evaluation


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
    return model, EmState(v=v0, pi=pi, a=a)


def em_fit(model: StrataModel, state: EmState, data: PointCloud, config: EmConfig = EmConfig()) -> FitReport:
    """Run E-step / Pi update / M-step until the trace stalls.

    Stops when |delta loglik| < tol_ll for CONSECUTIVE iterations in a row,
    or at max_iters. Raises NumericalError (with the offending point ids) if
    the marginal log-likelihood ever goes non-finite.
    """
    v_init = np.array(state.v, dtype=float)
    # One evaluation per accepted vertex matrix feeds the trace entry, the next
    # E-step and the next M-step's start point. `held` hands it to m_step
    # without keeping a reference here, so m_step frees it once it accepts a
    # trial: at most the current and the trial evaluation are alive.
    held = [_evaluate(model, state.v, data)]
    logits = _logits(held[0], state.pi)
    per_point = logsumexp(logits, axis=1)
    trace = [float(np.mean(per_point))]
    streak = 0
    converged = False
    n_done = 0

    for n_done in range(1, config.max_iters + 1):
        a = _normalize_rows(logits)
        pi = update_mixing(a)
        held.append(m_step(model, EmState(v=state.v, pi=pi, a=a), data, config, held.pop()))
        logits = _logits(held[0], pi)
        per_point = logsumexp(logits, axis=1)
        ll = float(np.mean(per_point))
        if not np.isfinite(ll):
            bad = np.flatnonzero(~np.isfinite(per_point)).tolist()
            raise NumericalError(f"non-finite log-likelihood at points {bad[:20]}")
        state = EmState(v=held[0].v, pi=pi, a=a)
        trace.append(ll)
        if abs(trace[-1] - trace[-2]) < config.tol_ll:
            streak += 1
            if streak >= CONSECUTIVE:
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
