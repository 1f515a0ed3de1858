"""Generalized EM for vertex-location fitting over a categorical mixture of
point Gaussians (vertex strata) and segment-convolved Gaussians (edge strata).

The E-step computes responsibilities in log space with max-shift
normalization; the same shift gives the marginal log-likelihood. The M-step
hill-climbs along per-vertex-scaled gradients with a backtracking line search
that never accepts a decrease, so the marginal log-likelihood trace is
non-decreasing across full iterations. The densities are priced once per
distinct vertex matrix: the objective, the gradient and the posterior logits
are reductions of that one evaluation.

An evaluation prices only a selection of (point, stratum) pairs: supp(A) and
every pair whose distance bound comes within UNDERFLOW_GAP + SELECT_MARGIN of
its row's largest logit. The M-step prices every trial on the selection of its
start evaluation. Each E-step runs one bounds pass and checks the skipped pairs
against their rows' priced maxima; only if one comes within UNDERFLOW_GAP is
the union of the priced pairs and a fresh selection priced. A selection is a
point-major pair list, the CSR layout of A. Every pair left unpriced gets
responsibility exactly 0.0 from an all-pairs evaluation too, and sums over
pairs add in pair order (np.bincount), so the fit is the one it would give.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.special import erf

from .abstract_graph import AbstractGraph
from .densities import (
    EdgeCoefficients,
    _check_sigma,
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
    "update_mixing",
    "m_step",
    "initialize",
    "em_fit",
]

CONSECUTIVE = 3  # how many small deltas in a row declare convergence
M_STEP_ITERS = 5
GRAD_TOL = 1e-8
M_STEP_IMPROVE_TOL = 1e-12  # stop ascending once gains drop below this
STEP_FLOOR = 1e-12
STEP_INIT = 1.0  # the direction already carries the sigma^2 |P| / mass scale
# exp(z) is exactly 0.0 in double precision once z < -745.1332 (the log of half
# the smallest subnormal). A logit this far below its row's maximum gets
# responsibility 0.0 and adds 0.0 to its row's sum; the extra 0.87 nat covers the
# rounding in the computed logits and bounds.
UNDERFLOW_GAP = 746.0
# A selection also prices the pairs up to this many nats beyond UNDERFLOW_GAP,
# which covers the logits' rise as the M-step moves the vertices: without it
# the accepted vertex matrix would now and then have to be priced twice.
SELECT_MARGIN = 100.0


@dataclass(frozen=True)
class StrataModel:
    """The strata: n0 vertices, the edges between them and one noise scale.

    Strata are indexed 0..n0-1 (vertices) then n0..n0+n1-1 (edges);
    edge_endpoints[k] holds the vertex indices bounding edge stratum n0+k.
    Every stratum has standard deviation sigma.
    """

    n0: int
    edge_endpoints: np.ndarray  # (n1, 2) vertex indices, stored read-only
    sigma: float

    def __post_init__(self):
        if self.n0 < 1:
            raise ValueError("model needs at least one vertex stratum")
        ends = np.array(self.edge_endpoints, dtype=np.intp).reshape(len(self.edge_endpoints), 2)
        for k, (i, j) in enumerate(ends.tolist()):
            if i == j:
                raise ValueError(f"edge stratum {k} has identical endpoints {i}")
            if not (0 <= i < self.n0 and 0 <= j < self.n0):
                raise ValueError(f"edge stratum {k} references invalid vertex index")
        ends.flags.writeable = False
        object.__setattr__(self, "edge_endpoints", ends)
        object.__setattr__(self, "sigma", _check_sigma(self.sigma))

    @property
    def n1(self) -> int:
        return len(self.edge_endpoints)

    @property
    def n_strata(self) -> int:
        return self.n0 + self.n1


@dataclass(frozen=True)
class EmState:
    """A value-semantic snapshot of the EM variables."""

    v: np.ndarray  # (n0, dim) vertex coordinates
    pi: np.ndarray  # (N,) mixing weights
    a: np.ndarray | sparse.csr_array  # (|P|, N) responsibilities; em_fit keeps a csr_array


@dataclass(frozen=True)
class EmConfig:
    max_iters: int = 200
    tol_ll: float = 1e-8


@dataclass(frozen=True)
class FitReport:
    state: EmState
    n_iterations: int
    loglik_trace: np.ndarray  # marginal log-likelihood, one entry per iteration
    converged: bool
    vertex_displacement: np.ndarray  # (n0,) distance moved from initialization


def _check_vertices(model: StrataModel, v: np.ndarray, dim: int) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (model.n0, dim):
        raise ValueError(f"vertex matrix must be {(model.n0, dim)}, got {v.shape}")
    i1, i2 = model.edge_endpoints.T
    coincide = np.all(v[i1] == v[i2], axis=1)
    if np.any(coincide):
        k = int(np.argmax(coincide))
        raise ValueError(f"edge stratum {k} degenerate: vertices {i1[k]} and {i2[k]} coincide")
    return v


class _Pairs(NamedTuple):
    """A point-major pair list, the CSR layout of A: point j holds pairs start[j]:start[j + 1]."""

    point: np.ndarray  # (P,)
    stratum: np.ndarray  # (P,)
    start: np.ndarray  # (|P| + 1,) row offsets


class _Evaluation(NamedTuple):
    """The densities of one selection's pairs at one vertex matrix, priced once.

    The objective for any (Pi, A), the posterior logits for any Pi and the
    gradient for any A are reductions of these arrays; none of them depends
    on A or Pi.
    """

    v: np.ndarray  # (n0, dim) vertex coordinates
    pairs: _Pairs  # the selection it was priced on
    logdens: np.ndarray  # (P,) log density of each pair's point under its stratum
    edge: EdgeCoefficients  # over the edge pairs, in pair order


def _bounds(model: StrataModel, v: np.ndarray, data: PointCloud, pi) -> tuple[np.ndarray, np.ndarray]:
    """A lower bound (|P|,) on each point's largest logit under `pi` and
    upper bounds (N, |P|) on every logit, from distances alone.

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
    n, n0 = data.dim, model.n0
    vc = v - origin
    vv = np.einsum("kn,kn->k", vc, vc)[:, None]
    xx = np.einsum("mn,mn->m", xc, xc)
    inv = 0.5 / (model.sigma * model.sigma)
    tol = 16.0 * (n + 16) * np.finfo(float).eps * (xx.max() + vv.max()) * inv
    out = np.empty((model.n_strata, len(data)))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        logpi = np.log(np.asarray(pi, dtype=float))[:, None]
        sq = np.matmul(-2.0 * vc, xc.T, out=out[:n0])  # squared distances to the vertices
        sq += vv
        sq += xx
        i1, i2 = model.edge_endpoints.T
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
        out += logpi
        top = np.max(out[:n0], axis=0)
        l_over_s = np.sqrt(ll) / model.sigma
        keep = np.log(math.sqrt(math.pi / 2) / l_over_s * erf(l_over_s / math.sqrt(2)))
        np.add(out[n0:], keep, out=t)
        t[~inside] = -np.inf
        np.maximum(top, np.max(t, axis=0, initial=-np.inf), out=top)
        top -= 2.0 * tol
    return top, out


def _select(top: np.ndarray, upper: np.ndarray, point: np.ndarray, stratum: np.ndarray) -> _Pairs:
    """The pairs (point, stratum) and every pair whose bound comes within
    UNDERFLOW_GAP + SELECT_MARGIN of its row's top (its largest bound does)."""
    priced = ~(upper < top - (UNDERFLOW_GAP + SELECT_MARGIN))
    priced[stratum, point] = True
    point, stratum = np.nonzero(priced.T)
    return _Pairs(point, stratum, np.searchsorted(point, np.arange(len(top) + 1)))


def _pricer(model: StrataModel, data: PointCloud, pairs: _Pairs):
    """A function giving the evaluation of `pairs` at any vertex matrix.

    The gathers of the vertex pairs and the edge kernel's pair indices are
    worked out here, once for every vertex matrix priced on `pairs`.
    """
    x, n0 = data.coords, model.n0
    i1, i2 = model.edge_endpoints.T
    vert = pairs.stratum < n0
    cols, seg, point = pairs.stratum[vert], pairs.stratum[~vert] - n0, pairs.point[~vert]
    x_rows = x[pairs.point[vert]]

    def price(v) -> _Evaluation:
        v = _check_vertices(model, v, data.dim).copy()
        logdens = np.empty(len(vert))
        logdens[vert] = vertex_log_density(x_rows, v[cols], model.sigma)
        logdens[~vert], edge = edge_log_density_grad_batch(x, v[i1], v[i2], model.sigma, seg, point)
        return _Evaluation(v, pairs, logdens, edge)

    return price


def _evaluate(model: StrataModel, v, data: PointCloud, pi, a) -> _Evaluation:
    """The densities at v of a selection made there under `pi`.

    It holds supp(a), all that the objective and the gradient read, and every
    pair whose upper bound comes within UNDERFLOW_GAP + SELECT_MARGIN of a
    lower bound on its row's largest logit, which holds every pair the E-step
    can weigh.
    """
    v = _check_vertices(model, v, data.dim)
    return _pricer(model, data, _select(*_bounds(model, v, data, pi), *(a > 0).nonzero()))(v)


def _exact_logits(model: StrataModel, ev: _Evaluation, data: PointCloud, pi) -> tuple[_Evaluation, np.ndarray]:
    """`ev` and the E-step logits under `pi`, equal to the all-pairs logits
    wherever exp(logit - row maximum) is not exactly 0.0.

    `ev` may be priced on a selection made at other vertices or weights. One
    bounds pass at ev.v under `pi` compares every skipped pair's upper bound
    with its row's priced maximum. Only when one comes within UNDERFLOW_GAP
    is ev.v priced again, on the union of ev's pairs and a fresh selection.
    """
    logits = _logits(ev, pi)
    top, upper = _bounds(model, ev.v, data, pi)
    # a pair bounded at -inf has logit -inf wherever it is priced
    doubt = ~(upper < np.maximum.reduceat(logits, ev.pairs.start[:-1]) - UNDERFLOW_GAP) & (upper != -np.inf)
    doubt[ev.pairs.stratum, ev.pairs.point] = False
    if doubt.any():
        ev = _pricer(model, data, _select(top, upper, *ev.pairs[:2]))(ev.v)
        logits = _logits(ev, pi)
    return ev, logits


def _logits(ev: _Evaluation, pi) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return ev.logdens + np.log(np.asarray(pi, dtype=float))[ev.pairs.stratum]


def _objective(ev: _Evaluation, pi, w: np.ndarray) -> float:
    """(1/|P|) sum over supp(A) of A (log density + log pi); `w` holds A at ev's pairs."""
    point, stratum, start = ev.pairs
    on = w > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = w[on] * (ev.logdens[on] + np.log(np.asarray(pi, dtype=float))[stratum[on]])
    return float(np.bincount(point[on], terms, minlength=len(start) - 1).mean())


def _gradient(model: StrataModel, ev: _Evaluation, w: np.ndarray, data: PointCloud, limit: float) -> np.ndarray:
    """The objective's gradient in every vertex; `w` holds A at ev's pairs."""
    n0, m = model.n0, len(data)
    point, stratum, _ = ev.pairs
    vert = stratum < n0
    cols, wv = stratum[vert], w[vert]
    # sum_j a_ji (x_j - v_i) for every vertex at once, with x taken about its
    # mean as in the edge kernel, which keeps far-from-origin clouds accurate
    origin, xc = data.centred
    bins = (cols + n0 * np.arange(data.dim)[:, None]).ravel()  # (coordinate, vertex)
    pull = np.bincount(bins, (wv * xc.T[:, point[vert]]).ravel(), minlength=data.dim * n0).reshape(-1, n0).T
    pull -= np.bincount(cols, wv, minlength=n0)[:, None] * (ev.v - origin)
    grad = pull / (model.sigma * model.sigma * m)
    g1, g2 = endpoint_gradients(ev.edge, w[~vert])
    np.add.at(grad, model.edge_endpoints.T.ravel(), np.vstack([g1, g2]) / m)

    norms = np.sqrt(np.sum(grad**2, axis=1))
    over = norms > limit
    if np.any(over):
        grad[over] *= (limit / norms[over])[:, None]
    return grad


def _normalize_rows(pairs: _Pairs, logits: np.ndarray, n_strata: int) -> tuple[sparse.csr_array, np.ndarray]:
    """Posterior rows on the pairs (summing to 1) and each row's log
    normalizer, log sum exp(logits), from one max shift, one exp and one sum.

    Rows where every stratum underflows to -inf fall back to uniform, with a
    warning; their log normalizer stays -inf.
    """
    point, stratum, start = pairs
    shift = np.maximum.reduceat(logits, start[:-1])
    dead = ~np.isfinite(shift)
    if np.any(dead):
        warnings.warn(
            f"{int(dead.sum())} point(s) have zero density under every stratum; "
            "falling back to uniform responsibilities for those rows",
            RuntimeWarning,
            stacklevel=2,
        )
        shift[dead] = 0.0
    with np.errstate(under="ignore"):
        w = np.exp(logits - shift[point])
    total = np.bincount(point, w, minlength=len(shift))
    with np.errstate(divide="ignore"):
        lognorm = np.log(total) + shift
    if np.any(dead):
        w[dead[point]] = 1.0
        total[dead] = np.diff(start)[dead]
    return sparse.csr_array((w / total[point], stratum, start), shape=(len(shift), n_strata)), lognorm


def update_mixing(a) -> np.ndarray:
    """Maximizing mixing weights: column mass over total mass, of a dense or scipy sparse A."""
    a = sparse.csr_array(a)
    mass = np.bincount(a.indices, a.data, minlength=a.shape[1])  # in pair order
    total = mass.sum()
    if total <= 0:
        raise ValueError("responsibility matrix has no mass")
    return mass / total


def _clip_limit(data: PointCloud) -> float:
    """10 x the data bounding-box diagonal, or 10 when all points coincide."""
    span = data.coords.max(axis=0) - data.coords.min(axis=0)
    diag = float(np.sqrt(np.sum(span**2)))
    return 10.0 * diag if diag > 0 else 10.0


def m_step(model: StrataModel, state: EmState, data: PointCloud, evaluation: _Evaluation | None = None) -> _Evaluation:
    """Hill-climb the vertex matrix with A and Pi fixed.

    Ascends along the gradient scaled per vertex by sigma^2 |P| / mass (the
    Newton step of the Gaussian part), with a backtracking line search that
    halves the step until the objective does not decrease (floor STEP_FLOOR).
    Stops after M_STEP_ITERS or once the gradient norm drops below GRAD_TOL.

    `evaluation` is the density evaluation at `state.v` (as returned by the
    previous call); without it one is made here, selected under state.pi. It
    must price every pair in supp(state.a), as one does whose logits gave
    state.a. Every line-search trial is priced on its pair list: A is fixed
    here and the objective and gradient read only supp(A), so no trial runs
    a bounds pass, and the gather indices are worked out once.
    Returns the evaluation at the accepted vertices, whose `v` is the new
    vertex matrix: each distinct vertex matrix is priced once, and the
    objective and gradient are reductions of its evaluation.
    """
    if evaluation is None:
        evaluation = _evaluate(model, state.v, data, state.pi, state.a)
    price = _pricer(model, data, evaluation.pairs)
    w = np.asarray(state.a[evaluation.pairs.point, evaluation.pairs.stratum], dtype=float)  # A at its pairs
    f = _objective(evaluation, state.pi, w)
    if not np.isfinite(f):
        raise NumericalError("M-step objective is non-finite at the current vertices")

    # responsibility mass pulling on each vertex: own stratum plus incident edges
    mass = np.bincount(evaluation.pairs.stratum, w, minlength=model.n_strata)
    np.add.at(mass, model.edge_endpoints.ravel(), np.repeat(mass[model.n0 :], 2))
    scale = model.sigma * model.sigma * len(data) / np.maximum(mass[: model.n0], 1e-12)
    step = STEP_INIT
    limit = _clip_limit(data)

    for _ in range(M_STEP_ITERS):
        g = _gradient(model, evaluation, w, data, limit)
        if np.sqrt(np.sum(g**2)) < GRAD_TOL:
            break
        direction = g * scale[:, None]  # positive diagonal scaling keeps ascent
        alpha = step
        accepted = False
        saw_finite = False
        gain = 0.0
        while alpha >= STEP_FLOOR:
            try:
                trial = price(evaluation.v + alpha * direction)
            except ValueError:  # a trial step collapsed an edge
                ft = -np.inf
            else:
                ft = _objective(trial, state.pi, w)
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


def initialize(graph: AbstractGraph, data: PointCloud, sigma: float) -> tuple[StrataModel, EmState]:
    """Strata and state from the recovered structure: centroids for V, each
    point's stratum one-hot for A, counting weights for Pi."""
    n0, n1 = graph.n_vertices, graph.n_edges
    stratum = np.asarray(graph.stratum)
    if stratum.shape != (len(data),) or np.any((stratum < 0) | (stratum >= n0 + n1)):
        raise ValueError(f"cannot initialize: each of the {len(data)} points needs a stratum id in 0..{n0 + n1 - 1}")
    empty = np.flatnonzero(np.bincount(stratum, minlength=n0 + n1) == 0)
    if empty.size:
        raise ValueError(f"cannot initialize: cluster {empty[0]} is empty")

    model = StrataModel(n0=n0, edge_endpoints=graph.boundary, sigma=sigma)
    a = sparse.csr_array((np.ones(len(data)), stratum, np.arange(len(data) + 1)), shape=(len(data), n0 + n1))
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
    # E-step and the next M-step's start point.
    ev = _evaluate(model, state.v, data, state.pi, state.a)
    logits = _logits(ev, state.pi)  # selected here under state.pi, so exact as priced
    a, per_point = _normalize_rows(ev.pairs, logits, model.n_strata)
    trace = [float(np.mean(per_point))]
    streak = 0
    converged = False
    n_done = 0

    for n_done in range(1, config.max_iters + 1):
        pi = update_mixing(a)
        ev = m_step(model, EmState(v=state.v, pi=pi, a=a), data, ev)
        ev, logits = _exact_logits(model, ev, data, pi)
        state = EmState(v=ev.v, pi=pi, a=a)
        a, per_point = _normalize_rows(ev.pairs, logits, model.n_strata)
        ll = float(np.mean(per_point))
        if not np.isfinite(ll):
            bad = np.flatnonzero(~np.isfinite(per_point)).tolist()
            raise NumericalError(f"non-finite log-likelihood at points {bad[:20]}")
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
