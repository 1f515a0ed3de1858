"""Per-point classification into vertex-like or edge-like local structure.

A sample's local structure is the pair of threshold graphs on the ball
B_{R+eps}(p) and the spherical shell S_{R-eps}^{R+eps}(p), both at contact
scale 3*eps. A connected ball with exactly two shell clusters whose centroids
subtend a wide angle at p is the signature of an edge interior; everything
else is vertex-like.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .geometry import (
    PointCloud,
    angle_cosine,
    ball_members,
    component_centroids,
    component_labels,
    distance,
    point_segment_distance,
    segment_segment_distance,
)

if TYPE_CHECKING:
    from .synthetic import EmbeddedGraphSpec

__all__ = [
    "ReconstructionConfig",
    "LocalLabels",
    "Partition",
    "psi",
    "phi",
    "inner_product_threshold",
    "classify_all",
    "classify_sweep",
    "partition",
    "AssumptionReport",
    "ConditionCheck",
    "check_assumptions",
]

_ASIN_CLAMP = 1e-12  # tolerate only rounding-level excursions outside [-1, 1]

# Centres are classified in chunks whose (centre, ball member) nodes stay
# under this count, which bounds the candidate-edge temporaries of one pass.
_NODE_BUDGET = 1 << 14


@dataclass(frozen=True)
class ReconstructionConfig:
    """The scale pair (R, eps) and the thresholds derived from it.

    `guarantee_warning` is set when R < 12*eps: the classifier still runs, but
    the correctness guarantees no longer apply.
    """

    R: float
    eps: float
    guarantee_warning: bool = field(init=False)

    def __post_init__(self):
        for name, value in (("eps", self.eps), ("R", self.R)):
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not self.R > self.eps:
            raise ValueError("R must exceed eps (the shell would be empty)")
        # rounding-tolerant: R = ratio * eps computed in floats must not flip
        # an exact ratio-12 configuration out of the guarantee regime
        object.__setattr__(
            self, "guarantee_warning", self.R < 12 * self.eps * (1 - 1e-9)
        )

    @property
    def ratio(self) -> float:
        return self.R / self.eps

    @property
    def ball_radius(self) -> float:
        return self.R + self.eps

    @property
    def shell_inner(self) -> float:
        return self.R - self.eps

    @property
    def shell_outer(self) -> float:
        return self.R + self.eps

    @property
    def contact_scale(self) -> float:
        """Threshold-graph scale 3*eps used for both local graphs."""
        return 3 * self.eps

    @property
    def vertex_cluster_scale(self) -> float:
        """Clustering scale 3R/2 + 2*eps for the vertex-like set."""
        return 1.5 * self.R + 2 * self.eps

    @property
    def ip_threshold(self) -> float:
        return inner_product_threshold(self)


class LocalLabels(NamedTuple):
    """Classification of every sample plus the evidence that produced it, one (m,) column each."""

    vertex_like: np.ndarray  # bool
    ball_connected: np.ndarray  # bool
    shell_components: np.ndarray  # int
    inner_product: np.ndarray  # float; NaN where no inner product is taken


@dataclass(frozen=True)
class Partition:
    """Disjoint split of all cloud indices into vertex-like and edge-like."""

    p0: np.ndarray
    p1: np.ndarray

    @property
    def size(self) -> int:
        return self.p0.size + self.p1.size


def _checked_asin(arg: float, context: str) -> float:
    if abs(arg) > 1 + _ASIN_CLAMP:
        raise ValueError(f"{context}: arcsin argument {arg} outside [-1, 1]")
    return math.asin(min(1.0, max(-1.0, arg)))


def _checked_acos(arg: float, context: str) -> float:
    if abs(arg) > 1 + _ASIN_CLAMP:
        raise ValueError(f"{context}: arccos argument {arg} outside [-1, 1]")
    return math.acos(min(1.0, max(-1.0, arg)))


def psi(R: float, eps: float) -> float:
    """Upper angle bound for degree-2 vertices, in radians.

    Scale invariant: psi(k*R, k*eps) == psi(R, eps). Defined for R > 12*eps;
    below that a warning is emitted and the formula is still evaluated.
    """
    if not (R > 0 and eps > 0):
        raise ValueError("R and eps must be positive")
    if R <= 12 * eps:
        warnings.warn(
            f"psi evaluated outside the guarantee regime (R/eps = {R / eps:.3g} <= 12)",
            RuntimeWarning,
            stacklevel=2,
        )
    num = R * R - 4 * R * eps - 9 * eps * eps
    den = (R + eps) * math.sqrt(R * R + 6 * R * eps + 34 * eps * eps)
    return math.pi - math.atan((R + 3 * eps) / (6 * eps)) + _checked_asin(num / den, "psi")


def phi(R: float, eps: float) -> float:
    """Lower angle bound between edges at a shared vertex, in radians."""
    if not (R > 0 and eps > 0):
        raise ValueError("R and eps must be positive")
    if not R > eps:
        raise ValueError("phi requires R > eps")
    re = R - eps
    first = _checked_acos((re * re - 18 * eps * eps) / (re * re), "phi")
    second = 2 * _checked_asin(2 * eps / re, "phi")
    return first + second


def inner_product_threshold(config: ReconstructionConfig) -> float:
    """Shell-centroid inner-product cutoff -R^2 + 2*R*eps + 7*eps^2."""
    R, eps = config.R, config.eps
    return -R * R + 2 * R * eps + 7 * eps * eps


def classify_all(cloud: PointCloud, config: ReconstructionConfig) -> LocalLabels:
    """Classify every sample by its (R, eps)-local structure.

    Each label is what the definition gives from one exact ball and one exact
    shell scan about the sample, each split by `threshold_components`. The
    sample itself takes part in the ball graph but not in the shell (its
    self-distance 0 is <= R - eps). An empty shell counts as 0 components,
    which classifies vertex-like and covers degree-0 vertices. The inner
    product of the two shell centroids (about the sample) is taken only for
    a connected ball with exactly two shell components.
    """
    return classify_sweep(cloud, (config,))[0]


def classify_sweep(cloud: PointCloud, configs) -> list[LocalLabels]:
    """`classify_all(cloud, config)` for each of `configs`, from one pass over the cloud.

    All configs share one eps, hence one 3*eps contact graph. The cloud's own
    k-d tree serves all centres. The balls of a chunk of centres at the
    largest radius R + eps form one graph whose nodes are (centre, ball
    member) pairs and whose edges are the cloud's contact pairs inside the
    same ball. Every smaller ball is a subset of the largest, so each config
    keeps the nodes whose exact distance is <= its R + eps and the edges
    between kept nodes; its shell graph is that graph restricted to members
    farther than R - eps. Each config takes two connected-components passes
    per chunk, one over each graph.
    """
    configs = tuple(configs)
    if not configs:
        raise ValueError("classify_sweep needs at least one config; all configs share one eps")
    eps = configs[0].eps
    if any(config.eps != eps for config in configs):
        raise ValueError(f"all configs must share one eps (one 3*eps contact graph), got {[c.eps for c in configs]}")
    m = len(cloud)
    sweep = [
        LocalLabels(np.zeros(m, bool), np.zeros(m, bool), np.zeros(m, np.intp), np.full(m, np.nan)) for _ in configs
    ]
    if m == 0:
        return sweep
    coords = cloud.coords
    tree = cloud.tree
    ci, cj, _ = cloud.contact_pairs(configs[0].contact_scale)
    # contact pairs i < j as a CSR adjacency: row i lists its larger neighbours
    contact_ptr = np.zeros(m + 1, dtype=np.intp)
    np.cumsum(np.bincount(ci, minlength=m), out=contact_ptr[1:])
    # from the largest ball to the smallest, so each config filters the last one's nodes
    order = sorted(range(len(configs)), key=lambda k: configs[k].ball_radius, reverse=True)
    ordered = [configs[k] for k in order]

    counts = tree.query_ball_point(coords, ordered[0].ball_radius, return_length=True)
    ends = np.cumsum(counts)
    start = 0
    while start < m:
        base = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, base + _NODE_BUDGET, side="right")))
        chunk = _classify_chunk(coords, tree, np.arange(start, stop), contact_ptr, cj, ordered)
        for k, labels in zip(order, chunk):
            for column, values in zip(sweep[k], labels):
                column[start:stop] = values
        start = stop
    return sweep


def _classify_chunk(coords, tree, centres, contact_ptr, contact_nbr, configs) -> list[LocalLabels]:
    """The labels of `centres` at each of `configs`, sorted by decreasing ball
    radius: one ball query at the first radius, then each config keeps the
    nodes within its own radius and the edges between kept nodes."""
    radius = configs[0].ball_radius
    owner, member, d = ball_members(tree, coords, centres, radius)
    src, dst = _ball_edges(owner, member, len(coords), contact_ptr, contact_nbr)
    chunk = []
    for config in configs:
        if config.ball_radius < radius:
            radius = config.ball_radius
            keep = d <= radius
            if not keep.all():
                owner, member, d = owner[keep], member[keep], d[keep]
                both = keep[src] & keep[dst]
                pos = np.cumsum(keep) - 1
                src, dst = pos[src[both]], pos[dst[both]]
        chunk.append(_chunk_labels(coords, centres, owner, member, d, src, dst, config))
    return chunk


def _ball_edges(owner, member, m, contact_ptr, contact_nbr) -> tuple[np.ndarray, np.ndarray]:
    """Node pairs (src, dst) of the ball graph: each node's larger contact
    neighbours, kept when the neighbour is a node of the same ball."""
    n_nodes = member.size
    # node keys are strictly increasing: ball members come sorted per centre
    key = owner * m + member
    deg = contact_ptr[member + 1] - contact_ptr[member]
    src = np.repeat(np.arange(n_nodes), deg)
    offsets = np.cumsum(deg) - deg
    nbr = contact_nbr[np.arange(src.size) + np.repeat(contact_ptr[member] - offsets, deg)]
    want = (key - member)[src] + nbr
    dst = np.minimum(np.searchsorted(key, want), n_nodes - 1)
    hit = key[dst] == want
    return src[hit], dst[hit]


def _chunk_labels(coords, centres, owner, member, d, src, dst, config) -> LocalLabels:
    """One config's labels of `centres` from its ball graph: nodes (owner,
    member) at distance d, edges (src, dst)."""
    k = centres.size
    ball_lab, n_ball = component_labels(member.size, src, dst)
    connected = _per_owner_count(ball_lab, n_ball, owner, k) <= 1

    in_shell = d > config.shell_inner
    shell_id = np.cumsum(in_shell) - 1
    both = in_shell[src] & in_shell[dst]
    shell_lab, n_shell = component_labels(int(in_shell.sum()), shell_id[src[both]], shell_id[dst[both]])
    shell_owner, shell_member = owner[in_shell], member[in_shell]
    shell_count = _per_owner_count(shell_lab, n_shell, shell_owner, k)

    # Shell nodes are sorted by (centre, member) and components are ranked by
    # smallest node, so each candidate centre owns two consecutive labels, the
    # first one holding its first shell node, and labels grow with the centre.
    cand = connected & (shell_count == 2)
    sel = cand[shell_owner]
    _, comp = np.unique(shell_lab[sel], return_inverse=True)
    n_cand = int(cand.sum())
    centroids = component_centroids(coords[shell_member[sel]], comp, 2 * n_cand).reshape(n_cand, 2, coords.shape[1])
    p = coords[centres[cand]]
    a, b = centroids[:, 0] - p, centroids[:, 1] - p
    ip = np.full(k, np.nan)
    ip[cand] = np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]
    vertex_like = connected & ((shell_count != 2) | (ip > config.ip_threshold))
    return LocalLabels(vertex_like, connected, shell_count, ip)


def _per_owner_count(labels: np.ndarray, n_labels: int, owner: np.ndarray, k: int) -> np.ndarray:
    """Number of distinct components per centre; no component spans two centres."""
    comp_owner = np.empty(n_labels, dtype=np.intp)
    comp_owner[labels] = owner
    return np.bincount(comp_owner, minlength=k)


def partition(cloud: PointCloud, config: ReconstructionConfig, labels: LocalLabels | None = None) -> Partition:
    """Split the cloud into P0 (vertex-like) and P1 (edge-like), from `labels`
    when given (this config's `classify_sweep` entry) or else `classify_all`."""
    vertex_like = (classify_all(cloud, config) if labels is None else labels).vertex_like
    return Partition(p0=np.flatnonzero(vertex_like), p1=np.flatnonzero(~vertex_like))


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    passed: bool
    margin: float  # positive when satisfied; distance to the bound
    witness: str = ""


@dataclass(frozen=True)
class AssumptionReport:
    conditions: tuple[ConditionCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.conditions)


def _vertex_angles(graph: "EmbeddedGraphSpec") -> list[tuple[int, int, int, float]]:
    """All (vertex, neighbor_a, neighbor_b, angle) triples at shared vertices."""
    out = []
    for v in range(graph.n_vertices):
        nbrs = graph.neighbors(v)
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                c = angle_cosine(graph.vertices[v], graph.vertices[nbrs[i]], graph.vertices[nbrs[j]])
                out.append((v, nbrs[i], nbrs[j], math.acos(min(1.0, max(-1.0, c)))))
    return out


def check_assumptions(graph: "EmbeddedGraphSpec", config: ReconstructionConfig) -> AssumptionReport:
    """Evaluate the five embedding conditions the guarantees rest on.

    The report is total: every condition is evaluated even after a failure,
    and each failing condition carries the violating witness.
    """
    R, eps = config.R, config.eps
    V = graph.vertices
    checks = []

    # 1. vertex separation > 9R/2 + 6 eps (strict)
    bound = 4.5 * R + 6 * eps
    worst, witness = math.inf, ""
    for i in range(graph.n_vertices):
        for j in range(i + 1, graph.n_vertices):
            d = distance(V[i], V[j])
            if d < worst:
                worst, witness = d, f"vertices {i},{j} at distance {d:.6g}"
    ok = worst > bound
    checks.append(ConditionCheck("vertex_separation", ok, worst - bound, "" if ok else witness))

    # 2. vertex to non-incident edge > 3R/2 + 4 eps
    bound = 1.5 * R + 4 * eps
    worst, witness = math.inf, ""
    for v in range(graph.n_vertices):
        for (a, b) in graph.edges:
            if v in (a, b):
                continue
            d = point_segment_distance(V[v], V[a], V[b])
            if d < worst:
                worst, witness = d, f"vertex {v} to edge ({a},{b}) at distance {d:.6g}"
    ok = worst > bound
    checks.append(ConditionCheck("vertex_edge_clearance", ok, worst - bound, "" if ok else witness))

    # 3. edges sharing no vertex > 5 eps apart
    bound = 5 * eps
    worst, witness = math.inf, ""
    for i in range(graph.n_edges):
        for j in range(i + 1, graph.n_edges):
            e1, e2 = graph.edges[i], graph.edges[j]
            if set(e1) & set(e2):
                continue
            d = segment_segment_distance(V[e1[0]], V[e1[1]], V[e2[0]], V[e2[1]])
            if d < worst:
                worst, witness = d, f"edges {e1} and {e2} at distance {d:.6g}"
    ok = worst > bound
    checks.append(ConditionCheck("edge_edge_clearance", ok, worst - bound, "" if ok else witness))

    angles = _vertex_angles(graph)

    # 4. every shared-vertex angle >= Phi(R, eps)
    try:
        lower = phi(R, eps)
    except ValueError as exc:
        checks.append(ConditionCheck("angle_lower_bound", False, -math.inf, f"Phi undefined: {exc}"))
    else:
        worst, witness = math.inf, ""
        for (v, a, b, ang) in angles:
            if ang < worst:
                worst, witness = ang, f"angle {ang:.6g} rad at vertex {v} between edges to {a},{b}"
        ok = worst >= lower
        checks.append(ConditionCheck("angle_lower_bound", ok, worst - lower, "" if ok else witness))

    # 5. degree-2 vertex angles <= Psi(R, eps)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            upper = psi(R, eps)
    except ValueError as exc:
        checks.append(ConditionCheck("deg2_angle_upper_bound", False, -math.inf, f"Psi undefined: {exc}"))
    else:
        worst, witness = -math.inf, ""
        for (v, a, b, ang) in angles:
            if graph.degree(v) == 2 and ang > worst:
                worst, witness = ang, f"angle {ang:.6g} rad at degree-2 vertex {v}"
        ok = worst <= upper  # vacuously true with no degree-2 vertices
        checks.append(ConditionCheck("deg2_angle_upper_bound", ok, upper - worst, "" if ok else witness))

    return AssumptionReport(tuple(checks))
