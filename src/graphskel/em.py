"""Generalized EM for vertex-location fitting over a categorical mixture of
point Gaussians (vertex strata) and segment-convolved Gaussians (edge strata).

The E-step computes responsibilities in log space with max-shift
normalization. The M-step hill-climbs along per-vertex-scaled gradients with a
backtracking line search that never accepts a decrease, so the marginal
log-likelihood trace is non-decreasing across full iterations. The densities
are priced once per distinct vertex matrix: the objective, the gradient and
the posterior logits are reductions of that one evaluation. Inside `em_fit`
and `m_step` an evaluation prices only the (point, stratum) pairs that can
carry responsibility; every pair it skips is one whose responsibility the
all-pairs path computes as exactly 0.0, so the fit is the same.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import erf, logsumexp

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
# exp(z) is exactly 0.0 in double precision once z < -745.1332 (the log of half
# the smallest subnormal). A logit this far below its row's maximum gets
# responsibility 0.0 and adds 0.0 to logsumexp; the extra 0.87 nat covers the
# rounding in the computed logits and bounds.
UNDERFLOW_GAP = 746.0


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
    on A or Pi. Skipped pairs have log density -inf and zero edge
    coefficients.
    """

    v: np.ndarray  # (n0, dim) vertex coordinates
    logdens: np.ndarray  # (|P|, N) log densities of every point under every stratum
    edge: EdgeCoefficients | None  # endpoint-gradient coefficients; None without edges
    skip: np.ndarray | None = None  # (N, |P|) pairs left unpriced; None: all priced
    reach: np.ndarray | None = None  # (|P|,) bound on each point's largest skipped logit
    logpi: np.ndarray | None = None  # (N,) the log mixing weights the skip was chosen for


def _bounds(model: StrataModel, v: np.ndarray, data: PointCloud, logpi) -> tuple[np.ndarray, np.ndarray]:
    """A lower bound (|P|,) on each point's largest logit and upper bounds
    (N, |P|) on every log density, from distances alone.

    At distance d from its centre a Gaussian stratum has log density h - d^2
    / (2 sigma^2), h = -n/2 log(2 pi sigma^2): exactly a vertex density. An
    edge density averages it over the segment, so it lies below its value at
    the distance to the segment and, where x projects into the segment,
    above that value times sqrt(pi/2) sigma / l erf(l / (sqrt(2) sigma)) for
    length l. Squared distances come from one product about the cloud's
    mean, with rounding below `tol`. Strata run along the first axis and the
    arithmetic runs in place: fresh (N, |P|) temporaries cost more than it.
    """
    origin, xc = data.centred
    n, n0 = model.dim, model.n0
    vc = v - origin
    vv = np.einsum("kn,kn->k", vc, vc)[:, None]
    xx = np.einsum("mn,mn->m", xc, xc)
    inv = (0.5 / model.sigma**2)[:, None]
    tol = 16.0 * (n + 16) * np.finfo(float).eps * (xx.max() + vv.max()) * inv
    out = np.empty((model.n_strata, len(data)))
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.matmul(-2.0 * vc, xc.T, out=out[:n0])  # squared distances to the vertices
        sq += vv
        sq += xx
        if model.n1:
            i1, i2 = model.ends.T
            ll = np.sum((v[i1] - v[i2]) ** 2, axis=1)[:, None]
            seg = np.take(sq, i2, axis=0, out=out[n0:])  # to v2 for now
            t = np.take(sq, i1, axis=0)
            along = seg + ll
            along -= t  # 2 (x - v2) . (v1 - v2)
            np.divide(along, 2.0 * ll, out=t)  # x projects to v2 + t (v1 - v2)
            inside = (t >= 0.0) & (t <= 1.0)
            tc = np.clip(t, 0.0, 1.0, out=t)
            along /= ll  # seg -= tc (along - tc ll), without temporaries
            along -= tc
            along *= ll
            along *= tc
            seg -= along  # squared distances to the segments
            del along
        out *= inv
        np.subtract(-0.5 * n * np.log(math.pi / inv) + tol, out, out=out)
        top = np.max(out[:n0] + logpi[:n0, None], axis=0)
        if model.n1:
            l_over_s = np.sqrt(ll) / model.sigma[n0:, None]
            keep = np.log(math.sqrt(math.pi / 2) / l_over_s * erf(l_over_s / math.sqrt(2)))
            np.add(out[n0:], keep + logpi[n0:, None], out=t)
            t[~inside] = -np.inf
            np.maximum(top, np.max(t, axis=0), out=top)
        top -= 2.0 * tol.max()
    return top, out


def _evaluate(model: StrataModel, v, data: PointCloud, pi=None, support=None) -> _Evaluation:
    """The densities at v: every pair, or with `pi` only those that matter.

    Those are the pairs in `support` (a boolean (N, |P|) array: supp(A)
    transposed, all that the objective and the gradient read) and every pair
    whose upper bound comes within UNDERFLOW_GAP of a lower bound on its
    row's largest logit, which holds every pair the E-step can weigh.
    """
    v = _check_vertices(model, v).copy()
    if pi is None:
        return _price(model, v, data)
    with np.errstate(divide="ignore", invalid="ignore"):
        logpi = np.log(np.asarray(pi, dtype=float))
        top, upper = _bounds(model, v, data, logpi)
        upper += logpi[:, None]
        skip = upper < top - UNDERFLOW_GAP
    skip &= ~support
    upper[~skip] = -np.inf
    return _price(model, v, data, skip)._replace(reach=np.max(upper, axis=0), logpi=logpi)


def _price(model: StrataModel, v, data: PointCloud, skip=None) -> _Evaluation:
    x = data.coords
    n0 = model.n0
    logrho, edge = None, None
    if model.n1:  # before allocating logdens, so the kernel's peak does not overlap it
        i1, i2 = model.ends.T
        mask = None if skip is None else ~skip[n0:]
        logrho, edge = edge_log_density_grad_batch(x, v[i1], v[i2], model.sigma[n0:], mask)
    logdens = np.full((len(data), model.n_strata), -np.inf)
    if skip is None:
        logdens[:, :n0] = vertex_log_density(x[:, None, :], v, model.sigma[:n0])
    else:  # gathered (point, vertex) differences, never an (|P|, n0, n) block
        cols, rows = np.nonzero(~skip[:n0])
        logdens[rows, cols] = vertex_log_density(x[rows], v[cols], model.sigma[cols])
    if model.n1:
        logdens[:, n0:] = logrho.T
    return _Evaluation(v, logdens, edge, skip)


def _exact_logits(model: StrataModel, ev: _Evaluation, data: PointCloud, pi) -> tuple[_Evaluation, np.ndarray]:
    """`ev` and the E-step logits under `pi`, equal to the all-pairs logits
    wherever exp(logit - row maximum) is not exactly 0.0.

    An evaluation kept from an earlier iteration was selected for older
    weights; it is priced again, keeping its priced pairs, when a skipped
    pair might come within UNDERFLOW_GAP of its row's maximum under `pi`.
    """
    logits = _logits(ev, pi)
    if ev.skip is None:
        return ev, logits
    with np.errstate(divide="ignore", invalid="ignore"):
        logpi = np.log(np.asarray(pi, dtype=float))
        rise = np.fmax.reduce(logpi - ev.logpi)  # strata at pi = 0 both times are NaN here
        top = np.max(logits, axis=1)
        doubt = (ev.reach > -np.inf) & ~(ev.reach + rise < top - UNDERFLOW_GAP)
    if doubt.any():
        ev = _evaluate(model, ev.v, data, pi, ~ev.skip)
        logits = _logits(ev, pi)
    return ev, logits


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
    origin, xc = data.centred
    av = a[:, :n0]
    pull = av.T @ xc - av.sum(axis=0)[:, None] * (ev.v - origin)
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
    previous call); without it one is made here. It must price every pair in
    supp(state.a), as one does whose logits gave state.a. Returns the
    evaluation at the accepted vertices, whose `v` is the new vertex matrix:
    each distinct vertex matrix is priced once, on the pairs that supp(A)
    and the E-step under state.pi can weigh, and the objective and gradient
    are reductions of its evaluation.
    """
    support = np.asarray(state.a).T > 0
    if evaluation is None:
        evaluation = _evaluate(model, state.v, data, state.pi, support)
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
                trial = _evaluate(model, evaluation.v + alpha * direction, data, state.pi, support)
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
    held = [_evaluate(model, state.v, data, state.pi, np.asarray(state.a).T > 0)]
    held[0], logits = _exact_logits(model, held[0], data, state.pi)
    per_point = logsumexp(logits, axis=1)
    trace = [float(np.mean(per_point))]
    streak = 0
    converged = False
    n_done = 0

    for n_done in range(1, config.max_iters + 1):
        a = _normalize_rows(logits)
        pi = update_mixing(a)
        held.append(m_step(model, EmState(v=state.v, pi=pi, a=a), data, config, held.pop()))
        held[0], logits = _exact_logits(model, held[0], data, pi)
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
