"""Recover the abstract graph: cluster the partition, refine it, read off the
boundary operator.

Vertex-like samples cluster at scale 3R/2 + 2*eps (one cluster per vertex);
edge-like samples cluster at contact scale 3*eps. Edge-like clusters adjacent
to a single vertex cluster live in a vertex's grey annulus and are reabsorbed
into the vertex side before the final clustering. Everything at the contact
scale (edge clustering and which vertex clusters an edge cluster touches)
reads the cloud's own contact pairs, the same ones classification used.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import StructureError
from .geometry import (
    ComponentLabeling, PointCloud, component_centroids, contact_components, distance, threshold_components
)
from .local_structure import LocalLabels, Partition, ReconstructionConfig, partition as _partition

if TYPE_CHECKING:
    from .synthetic import EmbeddedGraphSpec

__all__ = [
    "RefinedPartition",
    "AbstractGraph",
    "MatchReport",
    "cluster_p0",
    "cluster_p1",
    "refine",
    "build_graph",
    "boundary_matrix",
    "match_to_ground_truth",
    "recover_graph",
]


@dataclass(frozen=True)
class RefinedPartition:
    """Partition after reabsorbing non-spanning edge-like clusters."""

    p0_tilde: np.ndarray
    p1_tilde: np.ndarray
    moved: np.ndarray  # indices relocated from the edge-like side


@dataclass(frozen=True)
class AbstractGraph:
    """The recovered combinatorial structure: one stratum id per point.

    Strata are numbered as the EM numbers them: vertex clusters 0..n0-1, then
    edge clusters n0..n0+n1-1.
    """

    stratum: np.ndarray  # (m,) stratum id of every point of `cloud`
    moved: np.ndarray  # (m,) bool: `refine` moved the point from the edge-like side
    boundary: np.ndarray  # (n1, 2) vertex-cluster ids per edge cluster, sorted by build_graph
    vertex_centroids: np.ndarray  # (n0, dim)
    cloud: PointCloud  # the sample the stratum column labels

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_centroids)

    @property
    def n_edges(self) -> int:
        return len(self.boundary)

    def members(self) -> list[np.ndarray]:
        """The sorted point ids of each stratum, vertex clusters first; points
        of stratum -1 (in no cluster) sort first and are left out."""
        order = np.argsort(self.stratum, kind="stable")
        sizes = np.bincount(self.stratum + 1, minlength=self.n_vertices + self.n_edges + 1)
        return np.split(order, np.cumsum(sizes))[1:-1]


def cluster_p0(cloud: PointCloud, part: Partition, config: ReconstructionConfig) -> ComponentLabeling:
    """Components of the threshold graph on P0 at scale 3R/2 + 2*eps."""
    return threshold_components(cloud, part.p0, config.vertex_cluster_scale)


def cluster_p1(cloud: PointCloud, part: Partition, config: ReconstructionConfig) -> ComponentLabeling:
    """Components of the threshold graph on P1 at scale 3*eps."""
    return contact_components(cloud, part.p1, config.contact_scale)


def _touching(
    cloud: PointCloud, edges: ComponentLabeling, vertices: ComponentLabeling, r: float, strict: bool
) -> tuple[np.ndarray, np.ndarray]:
    """The distinct (edge cluster id, vertex cluster id) pairs within
    single-linkage distance r (distance < r when `strict`, else <= r), sorted.
    The contact pairs are those within r, so `strict` re-decides only the linking pairs."""
    i, j = cloud.contact_pairs(r)
    ids = np.full((2, len(cloud)), -1, dtype=np.intp)  # cluster id per point, -1 outside
    ids[0, edges.indices], ids[1, vertices.indices] = edges.labels, vertices.labels
    # a contact pair links an edge cluster to a vertex cluster in either order
    e = np.concatenate([ids[0, i], ids[0, j]])
    v = np.concatenate([ids[1, j], ids[1, i]])
    hit = (e >= 0) & (v >= 0)
    if strict:  # end k of the concatenation belongs to pair k mod the pair count
        pair = np.flatnonzero(hit) % i.size
        hit[hit] = distance(cloud.coords[i[pair]], cloud.coords[j[pair]]) < r
    nv = max(vertices.num_components, 1)
    return np.divmod(np.unique(e[hit] * nv + v[hit]), nv)


def refine(
    cloud: PointCloud,
    q0: ComponentLabeling,
    q1: ComponentLabeling,
    config: ReconstructionConfig,
) -> RefinedPartition:
    """Move every edge-like cluster adjacent to exactly one vertex cluster.

    Adjacency is strict single-linkage distance < 3*eps. A cluster adjacent to
    no vertex cluster cannot occur at a valid scale and raises StructureError.
    """
    edge, _ = _touching(cloud, q1, q0, config.contact_scale, strict=True)
    adjacent = np.bincount(edge, minlength=q1.num_components)
    orphans = np.flatnonzero(adjacent == 0)
    if orphans.size:
        cid = orphans[0]
        raise StructureError(
            f"orphan edge cluster (id {cid}, {np.count_nonzero(q1.labels == cid)} points): no vertex cluster "
            f"within {config.contact_scale:.6g}; the scale pair (R, eps) is likely invalid"
        )
    moving = (adjacent == 1)[q1.labels]
    moved = q1.indices[moving]
    p0_tilde = np.sort(np.concatenate([q0.indices, moved]))
    return RefinedPartition(p0_tilde=p0_tilde, p1_tilde=q1.indices[~moving], moved=moved)


def build_graph(cloud: PointCloud, refined: RefinedPartition, config: ReconstructionConfig) -> AbstractGraph:
    """Cluster the refined partition from scratch and assign boundary pairs.

    Every edge cluster must sit within 3*eps (single linkage) of exactly two
    vertex clusters; anything else is a structural error naming the cluster.
    A point in neither side of `refined` gets stratum -1. The graph's `moved`
    column marks `refined.moved`, the one thing of `refined` it keeps.
    """
    v_cc = threshold_components(cloud, refined.p0_tilde, config.vertex_cluster_scale)
    e_cc = contact_components(cloud, refined.p1_tilde, config.contact_scale)
    edge, vertex = _touching(cloud, e_cc, v_cc, config.contact_scale, strict=False)
    touching = np.bincount(edge, minlength=e_cc.num_components)
    bad = np.flatnonzero(touching != 2)
    if bad.size:
        eid = bad[0]
        raise StructureError(
            f"edge cluster {eid} ({np.count_nonzero(e_cc.labels == eid)} points) touches {touching[eid]} vertex "
            f"clusters (expected 2); the scale pair (R, eps) is likely invalid"
        )

    stratum = np.full(len(cloud), -1, dtype=np.intp)
    stratum[v_cc.indices] = v_cc.labels
    stratum[e_cc.indices] = v_cc.num_components + e_cc.labels
    moved = np.zeros(len(cloud), dtype=bool)
    moved[refined.moved] = True
    centroids = component_centroids(cloud.coords[v_cc.indices], v_cc.labels, v_cc.num_components)
    return AbstractGraph(stratum, moved, vertex.reshape(-1, 2), centroids, cloud)


def boundary_matrix(graph: AbstractGraph) -> np.ndarray:
    """0/1 incidence matrix B with B[i, j] = 1 iff vertex i bounds edge j."""
    b = np.zeros((graph.n_vertices, graph.n_edges), dtype=int)
    b[graph.boundary, np.arange(graph.n_edges)[:, None]] = 1
    return b


@dataclass(frozen=True)
class MatchReport:
    """Nearest-neighbor matching of a recovered graph against ground truth."""

    is_isomorphic: bool
    vertex_map: list[int]  # vertex cluster id -> true vertex index
    edge_map: list[int]  # edge cluster id -> true edge index
    vertex_errors: list[float]  # centroid distance to the matched true vertex
    reason: str = ""


def match_to_ground_truth(graph: AbstractGraph, truth: "EmbeddedGraphSpec") -> MatchReport:
    """Match clusters to the nearest true vertices/edges and test isomorphism.

    A non-injective matching is reported as a structure mismatch, not raised.
    """
    return _match_structure(graph, truth.vertices, np.asarray(truth.edges, dtype=np.intp).reshape(-1, 2))


def _match_structure(graph: AbstractGraph, tv: np.ndarray, te: np.ndarray) -> MatchReport:
    """`match_to_ground_truth` against vertices `tv` (n, dim) joined by edges `te` (k, 2)."""
    d = distance(graph.vertex_centroids[:, None, :], tv)
    vertex_map, vertex_errors = d.argmin(axis=1).tolist(), d.min(axis=1).tolist()

    midpoints = 0.5 * (tv[te[:, 0]] + tv[te[:, 1]])
    edge_map = []
    for emembers in graph.members()[graph.n_vertices :]:
        if midpoints.size == 0:
            edge_map.append(-1)
            continue
        # distance from the cluster (as a point set) to each true edge midpoint
        d = distance(midpoints[:, None, :], graph.cloud.coords[emembers]).min(axis=1)
        edge_map.append(int(np.argmin(d)))

    def report(ok: bool, reason: str = "") -> MatchReport:
        return MatchReport(ok, vertex_map, edge_map, vertex_errors, reason)

    if graph.n_vertices != len(tv):
        return report(False, f"vertex count {graph.n_vertices} != {len(tv)}")
    if graph.n_edges != len(te):
        return report(False, f"edge count {graph.n_edges} != {len(te)}")
    if len(set(vertex_map)) != len(vertex_map):
        return report(False, "vertex matching is not injective")
    if len(set(edge_map)) != len(edge_map):
        return report(False, "edge matching is not injective")
    for eid, (a, b) in enumerate(graph.boundary):
        mapped = {vertex_map[a], vertex_map[b]}
        true_edge = set(te[edge_map[eid]].tolist())
        if mapped != true_edge:
            return report(
                False,
                f"edge cluster {eid} has boundary {sorted(mapped)} but matches true edge "
                f"{sorted(true_edge)}",
            )
    return report(True)


def recover_graph(cloud: PointCloud, config: ReconstructionConfig, labels: LocalLabels | None = None) -> AbstractGraph:
    """Full structure pipeline: partition, cluster, refine, build; the graph
    is all that stage 2 hands on. `labels`, this config's stage-1 labels, are
    computed here when not given."""
    part = _partition(cloud, config, labels)
    refined = refine(cloud, cluster_p0(cloud, part, config), cluster_p1(cloud, part, config), config)
    return build_graph(cloud, refined, config)
