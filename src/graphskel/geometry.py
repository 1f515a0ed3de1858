"""Euclidean primitives, range/shell queries, and threshold-graph components.

Everything in this module is a pure function over immutable inputs.
`ball_query` and `shell_query` are exact linear scans and serve as reference
oracles. The shipped neighbour searches (`ball_members`, `pairs_within`,
`threshold_components`) query a k-d tree at a slightly padded radius and then
decide every candidate with the same `sqrt(sum(d**2))` distance and the same
comparison as the linear scans, so ties at the threshold resolve identically.
A `PointCloud` keeps its own k-d tree and its contact pairs, so every stage
that needs the 3*eps contact graph of a cloud reads the same one.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

__all__ = [
    "PointCloud",
    "ComponentLabeling",
    "distance",
    "angle_cosine",
    "point_segment_distance",
    "segment_segment_distance",
    "ball_query",
    "shell_query",
    "threshold_components",
    "contact_components",
    "component_centroid",
    "ball_members",
    "pairs_within",
    "component_labels",
]

# Relative radius padding for k-d tree queries. The tree rounds distances
# differently from `_row_distances`; candidates found at the padded radius are
# re-decided exactly, so the padding only has to exceed a few ulps.
_QUERY_PAD = 1e-9


class PointCloud:
    """An immutable ordered set of points in R^n.

    Point order is stable: indices act as identities for all labeling steps.
    Duplicate points are allowed. The k-d tree, the contact pairs and the
    centred coordinates are derived from the coordinates on first use and kept.
    """

    __slots__ = ("_coords", "_tree", "_contact", "_centred")

    def __init__(self, coords) -> None:
        arr = np.asarray(coords, dtype=float)
        if arr.ndim != 2:
            raise ValueError(f"point cloud must be a 2-d array, got shape {arr.shape}")
        if arr.shape[1] < 1:
            raise ValueError("point cloud dimension must be >= 1")
        if not np.all(np.isfinite(arr)):
            raise ValueError("point cloud contains non-finite coordinates")
        arr = arr.copy()
        arr.setflags(write=False)
        self._coords = arr
        self._tree = None
        self._contact = None  # (r, pairs_within(coords, r)) for the last r asked for
        self._centred = None

    @property
    def coords(self) -> np.ndarray:
        """(m, n) read-only coordinate array."""
        return self._coords

    @property
    def dim(self) -> int:
        return self._coords.shape[1]

    def __len__(self) -> int:
        return self._coords.shape[0]

    @property
    def tree(self) -> cKDTree:
        """k-d tree over the points, built on first use."""
        if self._tree is None:
            self._tree = cKDTree(self._coords)
        return self._tree

    @property
    def centred(self) -> tuple[np.ndarray, np.ndarray]:
        """(origin, coords - origin) about the mean of the points, computed on first use."""
        if self._centred is None:
            origin = self._coords.mean(axis=0)
            self._centred = (origin, self._coords - origin)
            for arr in self._centred:
                arr.setflags(write=False)
        return self._centred

    def contact_pairs(self, r: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`pairs_within(coords, r)` from the cloud's tree, kept until another r is asked for."""
        if self._contact is None or self._contact[0] != r:
            pairs = pairs_within(self._coords, r, self.tree)
            for arr in pairs:
                arr.setflags(write=False)  # shared by every caller, like coords
            self._contact = (r, pairs)
        return self._contact[1]

    def __getitem__(self, index: int) -> np.ndarray:
        return self._coords[index]

    def __eq__(self, other) -> bool:
        return isinstance(other, PointCloud) and np.array_equal(self._coords, other._coords)

    def __repr__(self) -> str:
        return f"PointCloud(n_points={len(self)}, dim={self.dim})"


@dataclass(frozen=True)
class ComponentLabeling:
    """Connected components of a threshold graph on a subset of cloud indices.

    Component ids are contiguous 0..num_components-1, ordered by smallest
    member index.
    """

    indices: np.ndarray  # sorted cloud indices of the subset
    labels: np.ndarray  # component id per entry of `indices`
    num_components: int

    def members(self, component_id: int) -> np.ndarray:
        return self.indices[self.labels == component_id]

    def sets(self) -> list[np.ndarray]:
        return [self.members(c) for c in range(self.num_components)]


def _check_same_dim(p: np.ndarray, q: np.ndarray) -> None:
    if p.shape != q.shape:
        raise ValueError(f"dimension mismatch: {p.shape} vs {q.shape}")


def distance(p, q) -> float:
    """Euclidean distance between two points."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    _check_same_dim(p, q)
    return float(np.sqrt(np.sum((p - q) ** 2)))


def angle_cosine(apex, p, q) -> float:
    """Cosine of the angle at `apex` between the rays to p and to q."""
    u1 = p - apex
    u2 = q - apex
    return float(np.dot(u1, u2) / (np.linalg.norm(u1) * np.linalg.norm(u2)))


def point_segment_distance(x, a, b) -> float:
    """Distance from x to the segment [a, b] via the clamped projection."""
    x = np.asarray(x, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    _check_same_dim(x, a)
    _check_same_dim(a, b)
    d = b - a
    dd = float(np.dot(d, d))
    if dd == 0.0:
        raise ValueError("degenerate segment: endpoints coincide")
    t = float(np.dot(x - a, d)) / dd
    t = min(1.0, max(0.0, t))
    return float(np.sqrt(np.sum((x - (a + t * d)) ** 2)))


def segment_segment_distance(p0, p1, q0, q1) -> float:
    """Minimum distance between segments [p0,p1] and [q0,q1] in R^n.

    Standard clamped quadratic minimization over the (s, t) parameter square.
    """
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    q0 = np.asarray(q0, dtype=float)
    q1 = np.asarray(q1, dtype=float)
    u = p1 - p0
    v = q1 - q0
    w0 = p0 - q0
    a = float(np.dot(u, u))
    b = float(np.dot(u, v))
    c = float(np.dot(v, v))
    d = float(np.dot(u, w0))
    e = float(np.dot(v, w0))
    if a == 0.0 or c == 0.0:
        raise ValueError("degenerate segment: endpoints coincide")

    denom = a * c - b * b
    if denom > 1e-14 * a * c:
        s = (b * e - c * d) / denom
    else:
        s = 0.0  # near-parallel: fix one endpoint, clamp below
    s = min(1.0, max(0.0, s))
    # optimal t for this s, then re-optimize s for the clamped t
    t = (b * s + e) / c
    t = min(1.0, max(0.0, t))
    s = (b * t - d) / a
    s = min(1.0, max(0.0, s))
    diff = (p0 + s * u) - (q0 + t * v)
    return float(np.sqrt(np.sum(diff**2)))


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


def _row_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean distances ||a_i - b_i||, computed as the linear scans do."""
    return np.sqrt(np.sum((a - b) ** 2, axis=1))


def _padded(r: float) -> float:
    return r * (1.0 + _QUERY_PAD)


def _flatten(hits) -> tuple[np.ndarray, np.ndarray]:
    """Lengths and concatenation of a k-d tree's per-query index lists."""
    sizes = np.fromiter(map(len, hits), dtype=np.intp, count=len(hits))
    flat = np.fromiter(itertools.chain.from_iterable(hits), dtype=np.intp, count=int(sizes.sum()))
    return sizes, flat


def ball_members(
    tree: cKDTree, coords: np.ndarray, centres: np.ndarray, r: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-ball members of several centres at once, as `ball_query` decides them.

    Returns (owner, member, d): the position of the centre in `centres`, the
    member index and its distance, sorted by (owner, member).
    """
    sizes, member = _flatten(tree.query_ball_point(coords[centres], _padded(r), return_sorted=True))
    owner = np.repeat(np.arange(len(centres)), sizes)
    d = _row_distances(coords[member], coords[centres[owner]])
    keep = d <= r
    return owner[keep], member[keep], d[keep]


def pairs_within(
    coords: np.ndarray, r: float, tree: cKDTree | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All pairs (i, j, d) with i < j and d = ||p_i - p_j|| <= r, sorted by (i, j)."""
    if len(coords) < 2:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty, np.empty(0)
    tree = cKDTree(coords) if tree is None else tree
    pairs = tree.query_pairs(_padded(r), output_type="ndarray")
    i, j = pairs[:, 0], pairs[:, 1]
    d = _row_distances(coords[i], coords[j])
    keep = d <= r
    i, j, d = i[keep], j[keep], d[keep]
    order = np.lexsort((j, i))
    return i[order], j[order], d[order]


def component_labels(n: int, i: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, int]:
    """Connected components of the undirected graph on n nodes with edges (i, j).

    Labels are contiguous and ordered by each component's smallest node.
    """
    if n == 0:
        return np.empty(0, dtype=np.intp), 0
    graph = csr_matrix((np.ones(i.size, dtype=bool), (i, j)), shape=(n, n))
    count, labels = connected_components(graph, directed=False)
    _, first = np.unique(labels, return_index=True)
    rank = np.empty(count, dtype=np.intp)
    rank[labels[np.sort(first)]] = np.arange(count)
    return rank[labels], int(count)


def threshold_components(cloud: PointCloud, subset, r: float) -> ComponentLabeling:
    """Connected components of the graph on `subset` with edges at ||p-q|| <= r.

    The edge test is inclusive; component ids are ordered by smallest member
    index, so the labeling is deterministic.
    """
    if r < 0:
        raise ValueError("threshold must be nonnegative")
    subset = _checked_subset(cloud, subset)
    i, j, _ = pairs_within(cloud.coords[subset], r)
    labels, count = component_labels(subset.size, i, j)
    return ComponentLabeling(subset, labels, count)


def contact_components(cloud: PointCloud, subset, r: float) -> ComponentLabeling:
    """`threshold_components(cloud, subset, r)` read off `cloud.contact_pairs(r)`.

    Builds no tree of its own: the subset's graph is the cloud's contact graph
    restricted to the subset.
    """
    subset = _checked_subset(cloud, subset)
    i, j, _ = cloud.contact_pairs(r)
    pos = np.full(len(cloud), -1, dtype=np.intp)
    pos[subset] = np.arange(subset.size)
    pi, pj = pos[i], pos[j]
    keep = (pi >= 0) & (pj >= 0)
    labels, count = component_labels(subset.size, pi[keep], pj[keep])
    return ComponentLabeling(subset, labels, count)


def _checked_subset(cloud: PointCloud, subset) -> np.ndarray:
    """Sorted distinct cloud indices; out-of-range indices are an error."""
    subset = np.unique(np.asarray(subset, dtype=int))
    if subset.size and (subset[0] < 0 or subset[-1] >= len(cloud)):
        raise ValueError("subset contains out-of-range indices")
    return subset


def component_centroid(cloud: PointCloud, members) -> np.ndarray:
    """Coordinate-wise mean of the member points."""
    members = np.asarray(members, dtype=int)
    if members.size == 0:
        raise ValueError("cannot take the centroid of an empty member set")
    return cloud.coords[members].mean(axis=0)
