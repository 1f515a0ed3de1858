"""Generalized EM for vertex-location fitting over a categorical mixture of
point Gaussians (vertex strata) and segment-convolved Gaussians (edge strata).

The E-step computes responsibilities in log space with max-shift
normalization; the same shift gives the marginal log-likelihood. The M-step
hill-climbs along the gradient scaled in each vertex by an n x n curvature
block read off the model: the vertex stratum's mass, plus each incident edge's
mass times 1/3 across the edge (a segment point at parameter t follows its end
by t) and sigma/L along it (only the points within about sigma of the moved
end follow it). Its backtracking line search accepts a trial only if it gains
a quarter of its predicted first-order gain, so it never accepts a decrease
and the marginal log-likelihood trace is non-decreasing across full
iterations. The densities are priced once per
distinct vertex matrix: the objective, the gradient and the posterior logits
are reductions of that one evaluation.

An evaluation prices only a selection of (point, stratum) pairs, a
point-major pair list: every pair whose distance bound comes within
UNDERFLOW_GAP + SELECT_MARGIN of its row's largest logit. A is one weight per
pair of that list. The M-step prices every trial on the selection of its
start evaluation. Each E-step runs one bounds pass and checks the skipped
pairs against their rows' priced maxima; only if one comes within
UNDERFLOW_GAP is the union of the priced pairs and a fresh selection priced.
Every pair left unpriced gets responsibility exactly 0.0 from an all-pairs
evaluation too, and sums over pairs add in pair order (np.bincount), so the
fit is the one it would give.

Mixture EM converges linearly, so its late steps of x = (V / sigma, log Pi)
point one way and shrink by a steady ratio. When the last two steps d1, d2
have cosine above JUMP_COSINE and length ratio r = |d2| / |d1| below
JUMP_RATIO, em_fit prices the geometric tail's end x + r / (1 - r) d2, with
Pi renormalised, on a fresh selection. It takes that point only if its
marginal log-likelihood beats the iterate's by more than SLOPE_TOL, a gain
above rounding, so the trace stays non-decreasing. V in units of sigma keeps
the jump commuting with a uniform scaling.
"""
from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
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
    "m_step",
    "initialize",
    "em_fit",
]

CONSECUTIVE = 3  # how many small deltas in a row declare convergence
JUMP_COSINE = 0.95  # EM jumps only after two steps this aligned (cosine above) ...
JUMP_RATIO = 0.95  # ... whose length shrank by a ratio below this
M_STEP_ITERS = 5
STEP_FLOOR = 1e-12
STEP_INIT = 1.0  # the direction already carries the sigma^2 |P| B^-1 scale
ARMIJO = 0.25  # a trial must gain this share of its step's predicted first-order gain
SLOPE_TOL = 1e-10  # nats: the M-step stops once a unit step's predicted gain drops below this
# exp(z) is exactly 0.0 in double precision once z < -745.1332 (the log of half
# the smallest subnormal). A logit this far below its row's maximum gets
# responsibility 0.0 and adds 0.0 to its row's sum; the extra 0.87 nat covers the
# rounding in the computed logits and bounds.
UNDERFLOW_GAP = 746.0
# A selection also prices the pairs up to this many nats beyond UNDERFLOW_GAP,
# which covers the logits' rise as the M-step moves the vertices: without it
# the accepted vertex matrix would now and then have to be priced twice.
SELECT_MARGIN = 100.0
# EM's range, on the cloud's extent E (its largest distance from its mean).
# With every point and vertex within E of the mean, the edge kernel's g * g
# and ll * ss are at most 64 E^4, and t^2, |q| and d^2 / (2 sigma^2) at most
# 4.5 (E / sigma)^2. Both limits leave a factor of 2 for the M-step's trials.
MAX_EXTENT = (np.finfo(float).max / 128) ** 0.25
MAX_EXTENT_SIGMAS = math.sqrt(np.finfo(float).max / 16)


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
    """A value-semantic snapshot of the EM variables; A lives inside em_fit."""

    v: np.ndarray  # (n0, dim) vertex coordinates
    pi: np.ndarray  # (N,) mixing weights


@dataclass(frozen=True)
class EmConfig:
    """The iteration cap (0 fits nothing and echoes the start) and the
    |delta loglik| below which an iteration counts towards convergence."""

    max_iters: int = 200
    tol_ll: float = 1e-8

    def __post_init__(self):
        if not isinstance(self.max_iters, numbers.Integral) or self.max_iters < 0:
            raise ValueError(f"max_iters must be an integer >= 0, got {self.max_iters!r}")
        if not 0 <= self.tol_ll < math.inf:
            raise ValueError(f"tol_ll must be finite and >= 0, got {self.tol_ll!r}")


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
    """A point-major pair list: point j holds pairs start[j]:start[j + 1]."""

    point: np.ndarray  # (P,)
    stratum: np.ndarray  # (P,)
    start: np.ndarray  # (|P| + 1,) row offsets


class _Evaluation(NamedTuple):
    """The densities of one selection's pairs at one vertex matrix, priced once.

    The objective for any (Pi, A), the posterior logits for any Pi and the
    gradient for any A are reductions of these arrays, with A given as one
    weight per pair; none of them depends on A or Pi.
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


def _select(top: np.ndarray, upper: np.ndarray, keep: _Pairs | None = None) -> _Pairs:
    """Every pair whose bound comes within UNDERFLOW_GAP + SELECT_MARGIN of
    its row's top (its largest bound does), and the pairs of `keep`."""
    priced = ~(upper < top - (UNDERFLOW_GAP + SELECT_MARGIN))
    if keep is not None:
        priced[keep.stratum, keep.point] = True
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
        ev = _pricer(model, data, _select(top, upper, ev.pairs))(ev.v)
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


def _gradient(model: StrataModel, ev: _Evaluation, w: np.ndarray, data: PointCloud) -> np.ndarray:
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
    return grad


def _normalize_rows(pairs: _Pairs, logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior weights on the pairs (each row's summing to 1) and each
    row's log normalizer, log sum exp(logits), from one max shift, one exp
    and one sum.

    Rows where every stratum underflows to -inf fall back to uniform, with a
    warning; their log normalizer stays -inf.
    """
    point, _, start = pairs
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
    return w / total[point], lognorm


def _mixing(pairs: _Pairs, w: np.ndarray, n_strata: int) -> np.ndarray:
    """The maximizing Pi for A = `w` on `pairs`: each stratum's mass, added
    in pair order, over the sum of those masses."""
    mass = np.bincount(pairs.stratum, w, minlength=n_strata)
    return mass / mass.sum()


def _curvature_blocks(model: StrataModel, v: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """The (n0, n, n) curvature block B_i of each vertex, in units of
    1 / (sigma^2 |P|), at vertices `v` and stratum masses `mass`.

    A vertex stratum moves rigidly with its vertex: a_i I. A point at
    parameter t on an edge moves by t delta when the edge's end moves by
    delta across it, which adds a_e int_0^1 t^2 dt = a_e / 3. Along the edge
    the points slide within the segment, and only the share sigma / L_e
    within about sigma of the moved end follows it:
    B_i = a_i I + sum_{e at i} a_e [(I - u_e u_e^T) / 3 + (sigma / L_e) u_e u_e^T],
    with u_e the edge's unit direction and L_e its length. a_i is floored at
    1e-12, which keeps a vertex with no mass solvable; with no edges the
    direction is the scalar-scaled sigma^2 |P| / a_i g.
    """
    eye = np.eye(v.shape[1])
    blocks = np.maximum(mass[: model.n0], 1e-12)[:, None, None] * eye
    i1, i2 = model.edge_endpoints.T
    d = v[i1] - v[i2]
    length = np.sqrt(np.sum(d * d, axis=1))
    u = d / length[:, None]
    uu = u[:, :, None] * u[:, None, :]
    edge = mass[model.n0 :, None, None] * ((eye - uu) / 3.0 + (model.sigma / length)[:, None, None] * uu)
    np.add.at(blocks, model.edge_endpoints.ravel(), np.repeat(edge, 2, axis=0))
    return blocks


def m_step(model: StrataModel, evaluation: _Evaluation, pi, w: np.ndarray, data: PointCloud) -> _Evaluation:
    """Hill-climb the vertex matrix from `evaluation.v` with Pi and A fixed;
    `w` holds A at the evaluation's pairs, which must cover supp(A).

    Ascends along sigma^2 |P| B_i^-1 g_i in each vertex i, with the curvature
    blocks B_i of `_curvature_blocks` taken at the start vertices (the Newton
    step of the Gaussian part). Each step is an Armijo backtracking search:
    from alpha = STEP_INIT it halves alpha (floor STEP_FLOOR) until a trial
    gains at least ARMIJO * alpha * slope, where slope = g . direction is a
    unit step's predicted first-order gain. It stops after M_STEP_ITERS steps
    or once slope < SLOPE_TOL. Both rules decide steps well above f's
    rounding, so the point order cannot flip them. The gradient is exact and
    the direction scales as a length, so the steps commute with a uniform
    scaling of (cloud, vertices, sigma).

    Every line-search trial is priced on the evaluation's pair list: the
    objective and gradient read only supp(A), so no trial runs a bounds
    pass, and the gather indices are worked out once.
    Returns the evaluation at the accepted vertices, whose `v` is the new
    vertex matrix: each distinct vertex matrix is priced once, and the
    objective and gradient are reductions of its evaluation.
    """
    price = _pricer(model, data, evaluation.pairs)
    f = _objective(evaluation, pi, w)
    if not np.isfinite(f):
        raise NumericalError("M-step objective is non-finite at the current vertices")

    blocks = _curvature_blocks(model, evaluation.v, np.bincount(evaluation.pairs.stratum, w, minlength=model.n_strata))
    scale = model.sigma * model.sigma * len(data)

    for _ in range(M_STEP_ITERS):
        g = _gradient(model, evaluation, w, data)
        direction = scale * np.linalg.solve(blocks, g[:, :, None])[:, :, 0]  # B positive definite keeps ascent
        slope = float(np.sum(g * direction))
        if slope < SLOPE_TOL:
            break
        alpha = STEP_INIT
        saw_finite = False
        while alpha >= STEP_FLOOR:
            try:
                trial = price(evaluation.v + alpha * direction)
            except ValueError:  # a trial step collapsed an edge
                ft = -np.inf
            else:
                ft = _objective(trial, pi, w)
            if np.isfinite(ft):
                saw_finite = True
                if ft - f >= ARMIJO * alpha * slope:
                    evaluation, f = trial, ft
                    break
            alpha *= 0.5
        else:  # no trial accepted down to the floor
            if not saw_finite:
                raise NumericalError("M-step line search: objective non-finite at every trial step")
            break  # keep the current (non-decreased) V
    return evaluation


def initialize(graph: AbstractGraph, data: PointCloud, sigma: float) -> tuple[StrataModel, EmState]:
    """Strata and state from the recovered structure: centroids for V,
    counting weights for Pi."""
    n0, n1 = graph.n_vertices, graph.n_edges
    stratum = np.asarray(graph.stratum)
    if stratum.shape != (len(data),) or np.any((stratum < 0) | (stratum >= n0 + n1)):
        raise ValueError(f"cannot initialize: each of the {len(data)} points needs a stratum id in 0..{n0 + n1 - 1}")
    count = np.bincount(stratum, minlength=n0 + n1)
    empty = np.flatnonzero(count == 0)
    if empty.size:
        raise ValueError(f"cannot initialize: cluster {empty[0]} is empty")

    model = StrataModel(n0=n0, edge_endpoints=graph.boundary, sigma=sigma)
    return model, EmState(v=np.array(graph.vertex_centroids, dtype=float), pi=count / len(data))


def _check_range(data: PointCloud, sigma: float) -> None:
    """Refuse a cloud whose extent is above MAX_EXTENT or MAX_EXTENT_SIGMAS
    sigma, where pricing would overflow."""
    _, xc = data.centred
    with np.errstate(over="ignore"):
        extent = math.sqrt(np.max(np.einsum("mn,mn->m", xc, xc), initial=0.0))
    if not (extent <= MAX_EXTENT and extent <= MAX_EXTENT_SIGMAS * sigma):
        raise ValueError(
            f"cloud extent {extent:.4g} about its mean is outside EM's range: at most {MAX_EXTENT:.4g} "
            f"and at most {MAX_EXTENT_SIGMAS:.4g} sigma (sigma = {sigma:.4g})"
        )


def _fresh(model: StrataModel, data: PointCloud, v, pi) -> tuple[_Evaluation, np.ndarray, float]:
    """The evaluation at (v, pi) on a selection made there, its posterior
    weights and its marginal log-likelihood: selected under pi, so exact as
    priced."""
    ev = _pricer(model, data, _select(*_bounds(model, v, data, pi)))(v)
    w, per_point = _normalize_rows(ev.pairs, _logits(ev, pi))
    return ev, w, float(np.mean(per_point))


def _iterate(v: np.ndarray, pi, sigma: float) -> np.ndarray:
    """EM's iterate as one flat vector x = (V / sigma, log Pi)."""
    with np.errstate(divide="ignore"):
        return np.concatenate([(v / sigma).ravel(), np.log(pi)])


def _jump(xs: list[np.ndarray], v: np.ndarray, sigma: float):
    """(V, Pi) at x + r / (1 - r) d2, the end of the geometric tail of the
    last two steps d1, d2 of the iterates `xs`, or None unless they are
    aligned (cosine above JUMP_COSINE) and shrinking (r = |d2| / |d1| below
    JUMP_RATIO)."""
    d1, d2 = xs[1] - xs[0], xs[2] - xs[1]
    n1, n2 = math.sqrt(d1 @ d1), math.sqrt(d2 @ d2)
    if not (n2 < JUMP_RATIO * n1 and d1 @ d2 > JUMP_COSINE * n1 * n2):
        return None
    r = n2 / n1
    x = xs[2] + r / (1.0 - r) * d2
    logpi = x[v.size :]
    pi = np.exp(logpi - logpi.max())
    return x[: v.size].reshape(v.shape) * sigma, pi / pi.sum()


def em_fit(model: StrataModel, state: EmState, data: PointCloud, config: EmConfig = EmConfig()) -> FitReport:
    """Run E-step / Pi update / M-step until the trace stalls.

    After each iteration whose last two steps of x = (V / sigma, log Pi) are
    aligned and shrinking (`_jump`), the end of their geometric tail is
    priced on a fresh selection. EM continues from it, with a fresh step
    history, if its marginal log-likelihood beats the iterate's by more than
    SLOPE_TOL; otherwise, or if it collapses an edge or prices non-finite,
    the iterate stands. No jump is tried while some weight in Pi is 0.

    Stops when |delta loglik| < tol_ll for CONSECUTIVE iterations in a row,
    or at max_iters. Raises ValueError, before any pricing, if the cloud is
    outside EM's range (`_check_range`), and NumericalError (with the
    offending point ids) if the marginal log-likelihood ever goes non-finite.
    """
    _check_range(data, model.sigma)
    v_init = _check_vertices(model, state.v, data.dim)
    # One evaluation per accepted vertex matrix feeds the trace entry, the next
    # E-step and the next M-step's start point; A is its weight vector w.
    ev, w, ll = _fresh(model, data, v_init, state.pi)
    trace = [ll]
    xs = [_iterate(v_init, state.pi, model.sigma)]
    streak = 0
    converged = False
    n_done = 0

    for n_done in range(1, config.max_iters + 1):
        pi = _mixing(ev.pairs, w, model.n_strata)
        ev = m_step(model, ev, pi, w, data)
        ev, logits = _exact_logits(model, ev, data, pi)
        w, per_point = _normalize_rows(ev.pairs, logits)
        ll = float(np.mean(per_point))
        if not np.isfinite(ll):
            bad = np.flatnonzero(~np.isfinite(per_point)).tolist()
            raise NumericalError(f"non-finite log-likelihood at points {bad[:20]}")
        x = _iterate(ev.v, pi, model.sigma)
        xs = [*xs[-2:], x] if np.isfinite(x).all() else []
        jump = _jump(xs, ev.v, model.sigma) if len(xs) == 3 else None
        if jump is not None:
            try:
                with warnings.catch_warnings():  # a failed jump is dropped, not reported
                    warnings.simplefilter("ignore", RuntimeWarning)
                    tried = _fresh(model, data, *jump)
            except ValueError:  # the jump collapsed an edge
                tried = None
            if tried is not None and tried[2] > ll + SLOPE_TOL:  # NaN or -inf fails
                (ev, w, ll), pi = tried, jump[1]
                xs = [_iterate(ev.v, pi, model.sigma)]
        state = EmState(v=ev.v, pi=pi)
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
