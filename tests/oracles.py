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
* `embedding_fault` and `assumption_rows` measure an embedded graph with
  nested loops over vertex pairs, vertex-edge pairs, edge pairs and corners,
  one scalar call each, so the first witness is the one the loops meet first.
* `sample_loop` samples an embedded graph one edge, then one isolated
  vertex, at a time, and `graph_discretization` is the Hausdorff grid with
  its own point counts; `sample_graph` and `hausdorff_check` share one
  discretization that must give both the same bits.
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
    _Evaluation,
    _gradient,
    _objective,
    _Pairs,
)
from graphskel.geometry import (
    ComponentLabeling,
    PointCloud,
    angle_cosine,
    component_centroids,
    distance,
    point_segment_distance,
    segment_segment_distance,
    threshold_components,
)
from graphskel.local_structure import LocalLabels, ReconstructionConfig, phi, psi
from graphskel.synthetic import _ball_noise


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


def grad_vertices(model: StrataModel, v, pi, a, data: PointCloud) -> np.ndarray:
    """Exact gradient of the cost function with respect to every vertex
    coordinate, holding A and Pi fixed."""
    return _gradient(model, dense_evaluation(model, v, data), np.asarray(a, dtype=float).ravel(), data)



# -- embedded graphs --------------------------------------------------------


def _neighbours(edges, v: int) -> list[int]:
    return [b if a == v else a for (a, b) in edges if v in (a, b)]


def _corners(vertices: np.ndarray, edges) -> list[tuple[int, int, int, float]]:
    """(vertex, neighbour, later neighbour, cosine) for every pair of edges at a vertex, by vertex."""
    out = []
    for v in range(len(vertices)):
        nbrs = _neighbours(edges, v)
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                out.append((v, nbrs[i], nbrs[j], angle_cosine(vertices[v], vertices[nbrs[i]], vertices[nbrs[j]])))
    return out


def embedding_fault(vertices: np.ndarray, edges) -> str | None:
    """The first pairwise fault `EmbeddedGraphSpec` reports, found by nested
    loops over vertex pairs, edge pairs and each vertex's neighbour pairs;
    None for a valid embedding. The edges must already be distinct, in range
    and free of self-loops."""
    for i in range(len(vertices)):
        for j in range(i + 1, len(vertices)):
            if np.array_equal(vertices[i], vertices[j]):
                return f"vertices {i} and {j} coincide"
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            e1, e2 = edges[i], edges[j]
            if not set(e1) & set(e2):
                if segment_segment_distance(vertices[e1[0]], vertices[e1[1]], vertices[e2[0]], vertices[e2[1]]) <= 0.0:
                    return f"non-adjacent edges {e1} and {e2} intersect"
    for (v, _, _, c) in _corners(vertices, edges):
        if c >= 1.0:
            return f"edges at vertex {v} overlap (zero angle)"
        if len(_neighbours(edges, v)) == 2 and c <= -1.0:
            return f"degree-2 vertex {v} has a straight (pi) angle"
    return None


def assumption_rows(graph, config: ReconstructionConfig) -> list[tuple[str, bool, float, str]]:
    """(name, passed, margin, witness) of the five embedding conditions, each
    a running minimum or maximum over nested loops, as `check_assumptions`
    must report them."""
    R, eps, V, edges = config.R, config.eps, graph.vertices, graph.edges
    rows = []

    def least(name, worst, witness, bound, strict=True):
        ok = worst > bound if strict else worst >= bound
        rows.append((name, ok, worst - bound, "" if ok else witness))

    worst, witness = math.inf, ""
    for i in range(len(V)):
        for j in range(i + 1, len(V)):
            d = distance(V[i], V[j])
            if d < worst:
                worst, witness = d, f"vertices {i},{j} at distance {d:.6g}"
    least("vertex_separation", worst, witness, 4.5 * R + 6 * eps)

    worst, witness = math.inf, ""
    for v in range(len(V)):
        for (a, b) in edges:
            if v not in (a, b):
                d = point_segment_distance(V[v], V[a], V[b])
                if d < worst:
                    worst, witness = d, f"vertex {v} to edge ({a},{b}) at distance {d:.6g}"
    least("vertex_edge_clearance", worst, witness, 1.5 * R + 4 * eps)

    worst, witness = math.inf, ""
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            e1, e2 = edges[i], edges[j]
            if not set(e1) & set(e2):
                d = segment_segment_distance(V[e1[0]], V[e1[1]], V[e2[0]], V[e2[1]])
                if d < worst:
                    worst, witness = d, f"edges {e1} and {e2} at distance {d:.6g}"
    least("edge_edge_clearance", worst, witness, 5 * eps)

    angles = [(v, a, b, math.acos(min(1.0, max(-1.0, c)))) for (v, a, b, c) in _corners(V, edges)]
    try:
        lower = phi(R, eps)
    except ValueError as exc:
        rows.append(("angle_lower_bound", False, -math.inf, f"Phi undefined: {exc}"))
    else:
        worst, witness = math.inf, ""
        for (v, a, b, ang) in angles:
            if ang < worst:
                worst, witness = ang, f"angle {ang:.6g} rad at vertex {v} between edges to {a},{b}"
        least("angle_lower_bound", worst, witness, lower, strict=False)

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            upper = psi(R, eps)
    except ValueError as exc:
        rows.append(("deg2_angle_upper_bound", False, -math.inf, f"Psi undefined: {exc}"))
    else:
        worst, witness = -math.inf, ""
        for (v, _, _, ang) in angles:
            if len(_neighbours(edges, v)) == 2 and ang > worst:
                worst, witness = ang, f"angle {ang:.6g} rad at degree-2 vertex {v}"
        ok = worst <= upper  # vacuously true with no degree-2 vertices
        rows.append(("deg2_angle_upper_bound", ok, upper - worst, "" if ok else witness))
    return rows


def _isolated(graph) -> list[int]:
    used = {v for e in graph.edges for v in e}
    return [v for v in range(graph.n_vertices) if v not in used]


def sample_loop(spec, sample) -> np.ndarray:
    """`sample_graph`'s coordinates, one edge's noisy samples at a time from
    its substream, then each isolated vertex's."""
    chunks = []
    for eidx, (a, b) in enumerate(spec.edges):
        va, vb = spec.vertices[a], spec.vertices[b]
        n_seg = max(1, math.ceil(distance(va, vb) / sample.spacing))
        ts = np.linspace(0.0, 1.0, n_seg + 1)
        base = va[None, :] + ts[:, None] * (vb - va)[None, :]
        rng = np.random.default_rng([sample.seed, 0, eidx])
        chunks.append(base + _ball_noise(rng, len(base), spec.dim, sample.noise, sample.noise_kind))
    for vidx in _isolated(spec):
        rng = np.random.default_rng([sample.seed, 1, vidx])
        base = spec.vertices[vidx][None, :]
        chunks.append(base + _ball_noise(rng, 1, spec.dim, sample.noise, sample.noise_kind))
    return np.vstack(chunks)


def graph_discretization(spec, resolution: float) -> np.ndarray:
    """Points at spacing <= resolution along every edge, both ends included,
    then the isolated vertices: the grid `hausdorff_check` measures at eps/100."""
    ends = spec.ends
    va, vb = spec.vertices[ends[:, 0]], spec.vertices[ends[:, 1]]
    segments = np.maximum(1.0, np.ceil(distance(va, vb) / resolution))
    chunks = [
        a[None, :] + np.linspace(0.0, 1.0, int(n) + 1)[:, None] * (b - a)[None, :] for a, b, n in zip(va, vb, segments)
    ]
    return np.vstack(chunks + [spec.vertices[_isolated(spec)]])
