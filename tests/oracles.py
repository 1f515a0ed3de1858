"""Reference oracles: the slow, exact forms that the package's fast paths
must agree with.

* `ball_query` and `shell_query` are linear scans over the whole cloud.
* `component_sets` lists a `ComponentLabeling`'s members one component at a
  time.
* `classify_point` transcribes the local-structure definition for one sample:
  one ball scan, one shell scan, one `threshold_components` call each.
  `label_rows` turns `classify_all`'s columns into the same per-sample rows.
* `edge_density_quadrature` integrates the segment-convolved Gaussian
  numerically, independently of the closed form.
* `edge_log_density_grad` reads one segment's per-point gradients off the
  batch kernel, priced on every point.
* The EM helpers price every (point, stratum) pair, straight from
  `graphskel.densities`, so they share no selection code with the sparse
  evaluation that `em_fit` runs. Each row sums left to right, as the package's
  pair-order sums do; the objective and the gradient are the package's own
  reductions over the all-pairs list. A fit rebuilt from them is therefore
  bit-identical to `em_fit`.
"""
from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad

from graphskel.densities import edge_log_density_grad_batch, vertex_log_density
from graphskel.em import (
    EmState,
    StrataModel,
    _check_vertices,
    _clip_limit,
    _Evaluation,
    _gradient,
    _objective,
    _Pairs,
)
from graphskel.geometry import ComponentLabeling, PointCloud, component_centroids, threshold_components
from graphskel.local_structure import LocalLabels, ReconstructionConfig


# -- geometry ---------------------------------------------------------------
def _query_distances(cloud: PointCloud, center) -> np.ndarray:
    center = np.asarray(center, dtype=float)
    if center.shape != (cloud.dim,):
        raise ValueError(f"dimension mismatch: center {center.shape} vs cloud dim {cloud.dim}")
    return np.sqrt(np.sum((cloud.coords - center) ** 2, axis=1))


def ball_query(cloud: PointCloud, center, r: float) -> np.ndarray:
    """Indices i with ||p_i - center|| <= r (closed ball)."""
    if r < 0:
        raise ValueError("ball radius must be nonnegative")
    d = _query_distances(cloud, center)
    return np.flatnonzero(d <= r)


def shell_query(cloud: PointCloud, center, r_in: float, r_out: float) -> np.ndarray:
    """Indices i with r_in < ||p_i - center|| <= r_out (half-open shell)."""
    if r_in < 0 or r_in > r_out:
        raise ValueError(f"invalid shell radii: ({r_in}, {r_out}]")
    d = _query_distances(cloud, center)
    return np.flatnonzero((d > r_in) & (d <= r_out))


def component_sets(cc: ComponentLabeling) -> list[np.ndarray]:
    """The sorted cloud indices of each component, in id order."""
    return [cc.indices[cc.labels == c] for c in range(cc.num_components)]


# -- local structure --------------------------------------------------------
class Label(NamedTuple):
    """One sample's classification; `inner_product` is None where none is taken."""

    vertex_like: bool
    ball_connected: bool
    shell_components: int
    inner_product: float | None = None


def label_rows(labels: LocalLabels) -> list[Label]:
    """`classify_all`'s columns as one `Label` per sample, NaN read as no inner product."""
    return [
        Label(vertex_like, connected, n_shell, None if math.isnan(ip) else ip)
        for vertex_like, connected, n_shell, ip in zip(*(column.tolist() for column in labels))
    ]


def classify_point(cloud: PointCloud, p_index: int, config: ReconstructionConfig) -> Label:
    """Classify one sample by its (R, eps)-local structure.

    A direct transcription of the definition, one ball and one shell query
    per call; `classify_all` must agree with it. The sample itself takes
    part in the ball graph but is removed from the shell (its self-distance
    0 is <= R - eps). An empty shell counts as 0 components, which
    classifies vertex-like and covers degree-0 vertices.
    """
    p = cloud[p_index]
    ball = ball_query(cloud, p, config.ball_radius)
    ball_cc = threshold_components(cloud, ball, config.contact_scale)
    ball_connected = ball_cc.num_components <= 1

    shell = shell_query(cloud, p, config.shell_inner, config.shell_outer)
    shell_cc = threshold_components(cloud, shell, config.contact_scale)
    n_shell = shell_cc.num_components

    if not ball_connected:
        return Label(False, False, n_shell)
    if n_shell != 2:
        return Label(True, True, n_shell)

    q1, q2 = component_centroids(cloud.coords[shell_cc.indices], shell_cc.labels, 2)
    ip = float(np.dot(q1 - p, q2 - p))
    return Label(ip > config.ip_threshold, True, 2, ip)


# -- densities --------------------------------------------------------------
def edge_density_quadrature(x, v1, v2, sigma: float) -> float:
    """Segment-convolved Gaussian density by adaptive quadrature.

    Evaluates (2 pi sigma^2)^(-n/2) * int_0^1 exp(-|x - (t v1 + (1-t) v2)|^2
    / (2 sigma^2)) dt to ~1e-10 relative. The quadrature is hinted at the
    along-segment projection so narrow bumps (small sigma) are not missed.
    """
    sigma = float(sigma)
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    w = v1 - v2
    ll = float(np.dot(w, w))
    if ll == 0.0:
        raise ValueError("degenerate segment: edge endpoints coincide")
    x = np.asarray(x, dtype=float)
    inv2s2 = 1.0 / (2 * sigma * sigma)

    def integrand(t: float) -> float:
        diff = x - (t * v1 + (1.0 - t) * v2)
        return math.exp(-float(np.dot(diff, diff)) * inv2s2)

    # peak of the integrand along the segment parameter; when the projection
    # falls outside [0, 1] the mass sits in a boundary layer at the near end
    t0 = float(np.dot(x - v2, w)) / ll
    anchor = min(1.0, max(0.0, t0))
    width = sigma / math.sqrt(ll)
    hints = sorted({anchor + k * width for k in (-8.0, -2.0, 0.0, 2.0, 8.0)})
    hints = [t for t in hints if 0.0 < t < 1.0]
    val, _ = quad(integrand, 0.0, 1.0, points=hints or None, epsabs=0.0, epsrel=1e-11, limit=200)
    n = x.shape[-1]
    return float((2 * math.pi * sigma * sigma) ** (-0.5 * n) * val)


def edge_log_density_grad(x, v1, v2, sigma: float):
    """Log density and per-point gradients w.r.t. both endpoints, shapes (m,), (m, n)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    m = x.shape[0]
    logrho, (alpha1, beta1, alpha2, beta2, _, s, w) = edge_log_density_grad_batch(
        x, [v1], [v2], sigma, np.zeros(m, dtype=int), np.arange(m)
    )
    g1 = alpha1[:, None] * s.T + beta1[:, None] * w
    g2 = alpha2[:, None] * s.T + beta2[:, None] * w
    return logrho, g1, g2


# -- EM ---------------------------------------------------------------------
def all_pairs(m: int, n_strata: int) -> _Pairs:
    """Every (point, stratum) pair, point-major: row j of a dense (m, N) array."""
    return _Pairs(
        np.repeat(np.arange(m), n_strata), np.tile(np.arange(n_strata), m), np.arange(0, m * n_strata + 1, n_strata)
    )


def dense_evaluation(model: StrataModel, v, data: PointCloud) -> _Evaluation:
    """Every (point, stratum) pair priced, in the layout of the package's
    objective and gradient; logdens.reshape(m, N) is the dense matrix."""
    v = _check_vertices(model, v, data.dim)
    x, n0, m = data.coords, model.n0, len(data)
    logdens = np.empty((m, model.n_strata))
    logdens[:, :n0] = vertex_log_density(x[:, None, :], v, model.sigma)
    i1, i2 = model.edge_endpoints.T
    seg, point = np.tile(np.arange(model.n1), m), np.repeat(np.arange(m), model.n1)
    logrho, edge = edge_log_density_grad_batch(x, v[i1], v[i2], model.sigma, seg, point)
    logdens[:, n0:] = logrho.reshape(m, model.n1)
    return _Evaluation(v, all_pairs(m, model.n_strata), logdens.ravel(), edge)


def dense_logits(model: StrataModel, v, pi, data: PointCloud) -> np.ndarray:
    """(|P|, N) logits of every pair."""
    with np.errstate(divide="ignore"):
        return dense_evaluation(model, v, data).logdens.reshape(len(data), -1) + np.log(np.asarray(pi, dtype=float))


def _row_sums(w: np.ndarray) -> np.ndarray:
    """Each row's sum, added left to right."""
    return np.cumsum(w, axis=1)[:, -1]


def responsibilities(model: StrataModel, state: EmState, data: PointCloud) -> np.ndarray:
    """Posterior stratum probabilities (|P|, N), rows summing to 1.

    Max-shift normalization in log space. Rows where every stratum
    underflows to -inf fall back to uniform and a warning is recorded.
    """
    logits = dense_logits(model, state.v, state.pi, data)
    shift = np.max(logits, axis=1, keepdims=True)
    dead = ~np.isfinite(shift[:, 0])
    if np.any(dead):
        warnings.warn(
            f"{int(dead.sum())} point(s) have zero density under every stratum", RuntimeWarning, stacklevel=2
        )
        shift[dead, 0] = 0.0
    with np.errstate(under="ignore"):
        w = np.exp(logits - shift)
    w[dead] = 1.0
    return w / _row_sums(w)[:, None]


def log_likelihood(model: StrataModel, v, pi, a, data: PointCloud) -> float:
    """Cost-function value (1/|P|) sum_j sum_i A_ij (log rho_i(x_j) + log pi_i).

    Terms with A_ij = 0 contribute exactly 0 even when log pi_i or the log
    density is -inf.
    """
    return _objective(dense_evaluation(model, v, data), pi, np.asarray(a, dtype=float).ravel())


def marginal_log_likelihood(model: StrataModel, v, pi, data: PointCloud) -> float:
    """Incomplete-data log-likelihood (1/|P|) sum_j log sum_i pi_i rho_i(x_j),
    each row's log-sum-exp taken as max + log sum exp(logit - max)."""
    logits = dense_logits(model, v, pi, data)
    shift = np.max(logits, axis=1, keepdims=True)
    with np.errstate(under="ignore", divide="ignore", invalid="ignore"):
        per_point = np.log(_row_sums(np.exp(logits - shift))) + shift[:, 0]
    return float(np.mean(per_point))


def grad_vertices(model: StrataModel, v, pi, a, data: PointCloud, clip_norm: float | None = None) -> np.ndarray:
    """Exact gradient of the cost function with respect to every vertex
    coordinate, holding A and Pi fixed.

    Rows are clipped to `clip_norm` (default: the M-step's limit, 10 x the
    data bounding-box diagonal); pass numpy.inf to disable.
    """
    limit = _clip_limit(data) if clip_norm is None else float(clip_norm)
    return _gradient(model, dense_evaluation(model, v, data), np.asarray(a, dtype=float).ravel(), data, limit)
