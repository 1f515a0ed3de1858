"""Assumption-compliant embedded graphs and epsilon-samples of them.

The sampler walks every edge at arc-length spacing <= s, keeps both endpoints,
and perturbs each base point inside a ball of radius b. With s/2 + b <= eps
the Hausdorff bound d_H(|G|, P) <= eps holds by construction, and a verifier
on the sampler's own discretization, at spacing eps/100, can certify it.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import GenerationError
from .geometry import PointCloud, distance, point_segment_distance
from .local_structure import ReconstructionConfig, _edge_pairs, check_assumptions, phi

__all__ = [
    "EmbeddedGraphSpec",
    "SampleSpec",
    "HausdorffReport",
    "builtin_fixture",
    "sample_graph",
    "hausdorff_check",
    "random_compliant_graph",
]

MARGIN = 0.05  # relative slack random_compliant_graph keeps beyond every bound


@dataclass(frozen=True)
class EmbeddedGraphSpec:
    """A straight-line embedded graph: vertex coordinates plus edge pairs.

    Edges may only meet at shared endpoint vertices, and no degree-2 vertex
    may have a straight (pi) angle; both are checked at construction.
    """

    vertices: np.ndarray  # (n_v, dim)
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        verts = np.asarray(self.vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[0] < 1:
            raise ValueError("vertices must be a non-empty (n_v, dim) array")
        if not np.all(np.isfinite(verts)):
            raise ValueError("vertex coordinates must be finite")
        edges = tuple((int(a), int(b)) for (a, b) in self.edges)
        n_v = verts.shape[0]
        seen = set()
        for (a, b) in edges:
            if not (0 <= a < n_v and 0 <= b < n_v):
                raise ValueError(f"edge ({a},{b}) references a missing vertex")
            if a == b:
                raise ValueError(f"edge ({a},{b}) is a self-loop")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise ValueError(f"duplicate edge ({a},{b})")
            seen.add(key)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "edges", edges)
        i, j = np.triu_indices(n_v, 1)
        same = np.all(verts[i] == verts[j], axis=1)
        if same.any():
            w = np.argmax(same)
            raise ValueError(f"vertices {i[w]} and {j[w]} coincide")
        # non-adjacent embedded edges must not touch
        ends = self.ends
        (k, l, dist), (apex, _, _, cos) = _edge_pairs(verts, ends)
        crossing = dist <= 0.0
        if crossing.any():
            w = np.argmax(crossing)
            raise ValueError(f"non-adjacent edges {edges[k[w]]} and {edges[l[w]]} intersect")
        # adjacent edges must not overlap, and degree-2 angles must differ from pi
        straight = (self.degrees[apex] == 2) & (cos <= -1.0)
        bad = (cos >= 1.0) | straight
        if bad.any():
            w = np.argmax(bad)
            if straight[w]:
                raise ValueError(f"degree-2 vertex {apex[w]} has a straight (pi) angle")
            raise ValueError(f"edges at vertex {apex[w]} overlap (zero angle)")

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def ends(self) -> np.ndarray:
        """(n_edges, 2) array of the edges' vertex indices."""
        return np.array(self.edges, dtype=np.intp).reshape(-1, 2)

    @property
    def degrees(self) -> np.ndarray:
        """(n_vertices,) array of each vertex's edge count."""
        return np.bincount(self.ends.ravel(), minlength=self.n_vertices)


@dataclass(frozen=True)
class SampleSpec:
    """Sampling parameters; s/2 + b <= eps certifies the Hausdorff bound."""

    eps: float
    spacing: float | None = None  # defaults to eps
    noise: float | None = None  # defaults to eps/2
    seed: int = 0
    noise_kind: str = "uniform"  # "uniform" or "gaussian" (truncated at `noise`)

    def __post_init__(self):
        if not 0 < self.eps < math.inf:
            raise ValueError(f"eps must be positive and finite, got {self.eps}")
        if self.spacing is None:
            object.__setattr__(self, "spacing", self.eps)
        if self.noise is None:
            object.__setattr__(self, "noise", self.eps / 2)
        if not 0 < self.spacing < math.inf:
            raise ValueError(f"spacing must be positive and finite, got {self.spacing}")
        if not 0 <= self.noise < math.inf:
            raise ValueError(f"noise must be nonnegative and finite, got {self.noise}")
        if self.noise > self.eps:
            raise ValueError("noise bound must not exceed eps")
        if self.spacing / 2 + self.noise > self.eps * (1 + 1e-12):
            raise ValueError(
                f"spacing/2 + noise = {self.spacing / 2 + self.noise:.6g} exceeds eps={self.eps:.6g}; "
                "the Hausdorff guarantee would be lost"
            )
        if self.noise_kind not in ("uniform", "gaussian"):
            raise ValueError("noise_kind must be 'uniform' or 'gaussian'")
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


def builtin_fixture() -> EmbeddedGraphSpec:
    """The 5-vertex, 5-edge benchmark graph in R^3."""
    vertices = np.array(
        [
            (0.0, 0.0, 0.0),
            (4.6, 6.24, 0.0),
            (4.86, 0.51, 3.47),
            (-1.32, 6.29, 4.0),
            (-4.23, -3.48, -3.0),
        ]
    )
    edges = ((0, 4), (0, 2), (0, 3), (1, 3), (1, 2))
    return EmbeddedGraphSpec(vertices, edges)


def _ball_noise(rng: np.random.Generator, n: int, dim: int, radius: float, kind: str) -> np.ndarray:
    if radius == 0.0:
        return np.zeros((n, dim))
    if kind == "uniform":
        direction = rng.normal(size=(n, dim))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        r = radius * rng.random(n) ** (1.0 / dim)
        return direction * r[:, None]
    # truncated gaussian: std radius/3, resample anything outside the ball
    out = rng.normal(scale=radius / 3.0, size=(n, dim))
    bad = np.linalg.norm(out, axis=1) > radius
    while np.any(bad):
        out[bad] = rng.normal(scale=radius / 3.0, size=(int(bad.sum()), dim))
        bad = np.linalg.norm(out, axis=1) > radius
    return out


def _physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _edge_points(spec: EmbeddedGraphSpec, spacing: float, field: str) -> tuple[list[np.ndarray], np.ndarray]:
    """Points at arc-length spacing <= `spacing` along each edge, both ends
    included, as one array per edge, and the isolated vertices.

    Points whose coordinates would not fit in physical memory are a
    ValueError that starts with `field`, the caller's name and value for the
    spacing, raised before any point is allocated.
    """
    ends = spec.ends
    va, vb = spec.vertices[ends[:, 0]], spec.vertices[ends[:, 1]]
    isolated = np.flatnonzero(spec.degrees == 0)
    with np.errstate(over="ignore", divide="ignore"):  # a count past the largest double is inf, refused below
        segments = np.maximum(1.0, np.ceil(distance(va, vb) / spacing))
        total = float(segments.sum()) + len(ends) + len(isolated)
    memory = _physical_memory()
    if not total * spec.dim * 8.0 <= memory:
        raise ValueError(
            f"{field} asks for {total:.3g} points on the graph at spacing {spacing:.3g}, "
            f"whose coordinates exceed the {memory:.3g} bytes of physical memory"
        )
    return [a + np.linspace(0.0, 1.0, int(n) + 1)[:, None] * (b - a) for a, b, n in zip(va, vb, segments)], isolated


def sample_graph(spec: EmbeddedGraphSpec, sample: SampleSpec) -> PointCloud:
    """Deterministic eps-sample of the embedded graph.

    Each edge gets points at arc-length spacing <= s including both endpoints;
    isolated vertices get one point. Every point is perturbed inside a ball of
    radius b using a per-edge substream of the seed. A spacing so fine that
    the coordinates alone would not fit in physical memory is a ValueError
    naming it, raised before anything is allocated.
    """
    edges, isolated = _edge_points(spec, sample.spacing, f"spacing {sample.spacing:g}")
    streams = [(0, e) for e in range(len(edges))] + [(1, v) for v in isolated.tolist()]
    chunks = []
    for stream, base in zip(streams, edges + [spec.vertices[[v]] for v in isolated]):
        rng = np.random.default_rng([sample.seed, *stream])
        chunks.append(base + _ball_noise(rng, len(base), spec.dim, sample.noise, sample.noise_kind))
    return PointCloud(np.vstack(chunks))


@dataclass(frozen=True)
class HausdorffReport:
    passed: bool
    measured: float
    tolerance: float  # eps plus the discretization slack
    resolution: float


def _distance_to_graph(points: np.ndarray, spec: EmbeddedGraphSpec) -> np.ndarray:
    """Distance from each point to the embedded graph: one running minimum over the edges and isolated vertices."""
    best = np.full(len(points), math.inf)
    for (a, b) in spec.edges:
        np.minimum(best, point_segment_distance(points, spec.vertices[a], spec.vertices[b]), out=best)
    for vidx in np.flatnonzero(spec.degrees == 0):
        np.minimum(best, distance(points, spec.vertices[vidx]), out=best)
    return best


def hausdorff_check(cloud: PointCloud, spec: EmbeddedGraphSpec, eps: float) -> HausdorffReport:
    """Certify d_H(|G|, P) <= eps up to an eps/100 discretization slack.

    An eps so small that the discretization would not fit in physical memory
    is a ValueError naming it, raised before the discretization is allocated.
    """
    resolution = eps / 100.0
    edges, isolated = _edge_points(spec, resolution, f"eps {eps:g}")
    grid = np.vstack(edges + [spec.vertices[isolated]])
    graph_to_cloud = float(cloud.tree.query(grid, k=1)[0].max())
    cloud_to_graph = float(_distance_to_graph(cloud.coords, spec).max())
    measured = max(graph_to_cloud, cloud_to_graph)
    tolerance = eps + resolution
    return HausdorffReport(measured <= tolerance, measured, tolerance, resolution)


@dataclass(frozen=True)
class GraphGenConfig:
    """Knobs for the rejection-sampling graph generator."""

    R: float
    eps: float
    n_edges: int | None = None  # None: random in [n_vertices-1, n_vertices+1]
    max_attempts: int = 300

    @property
    def reconstruction(self) -> ReconstructionConfig:
        return ReconstructionConfig(self.R, self.eps)


def _edge_candidate_ok(
    verts: np.ndarray, edges: list[np.ndarray], new_edge: np.ndarray, cfg: GraphGenConfig, phi_bound: float
) -> bool:
    a, b = new_edge
    margin = 1.0 + MARGIN
    others = np.ones(len(verts), dtype=bool)
    others[[a, b]] = False
    clear = point_segment_distance(verts[others], verts[a], verts[b])
    # every pair of accepted edges passed when the later of the two was
    # accepted, so only the new edge's pairs are measured, the new edge first
    (_, _, dist), (_, _, _, cos) = _edge_pairs(verts, np.array([new_edge, *edges]), first=True)
    return not (
        np.any(clear <= (1.5 * cfg.R + 4 * cfg.eps) * margin)
        or np.any(dist <= 5 * cfg.eps * margin)
        or np.any(np.arccos(np.clip(cos, -1.0, 1.0)) < phi_bound * margin)
    )


def random_compliant_graph(
    dim: int, n_vertices: int, config: GraphGenConfig, seed: int
) -> EmbeddedGraphSpec:
    """Rejection-sample an embedded graph until check_assumptions passes.

    Raises GenerationError once the retry budget is exhausted; a larger domain
    or fewer vertices usually fixes that.
    """
    if n_vertices < 2:
        raise ValueError("need at least two vertices")
    rcfg = config.reconstruction
    sep = (4.5 * config.R + 6 * config.eps) * (1.0 + MARGIN)
    side = sep * (1.0 + 1.4 * n_vertices ** (1.0 / dim))
    phi_bound = phi(config.R, config.eps)

    for attempt in range(config.max_attempts):
        rng = np.random.default_rng([seed, attempt])
        verts = _place_separated(rng, n_vertices, dim, side, sep)
        if verts is None:
            continue
        pairs = np.column_stack(np.triu_indices(n_vertices, 1))
        rng.shuffle(pairs)
        target = (
            config.n_edges
            if config.n_edges is not None
            else int(rng.integers(n_vertices - 1, n_vertices + 2))
        )
        edges: list[np.ndarray] = []
        for pair in pairs:
            if len(edges) >= target:
                break
            if _edge_candidate_ok(verts, edges, pair, config, phi_bound):
                edges.append(pair)
        if not edges:
            continue
        try:
            spec = EmbeddedGraphSpec(verts, tuple(edges))
        except ValueError:
            continue
        if check_assumptions(spec, rcfg).all_passed:
            return spec
    raise GenerationError(
        f"no compliant graph after {config.max_attempts} attempts "
        f"(dim={dim}, n_vertices={n_vertices}); try a larger domain or fewer vertices"
    )


def _place_separated(
    rng: np.random.Generator, n: int, dim: int, side: float, sep: float
) -> np.ndarray | None:
    placed = np.empty((n, dim))
    for count in range(n):
        for _ in range(400):
            cand = rng.random(dim) * side
            if np.all(distance(cand, placed[:count]) > sep):
                placed[count] = cand
                break
        else:
            return None
    return placed
