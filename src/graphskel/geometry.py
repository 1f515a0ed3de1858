"""Euclidean primitives, range queries, and threshold-graph components.

Everything in this module is a pure function over immutable inputs. The
Euclidean measures take points with coordinates on the last axis and broadcast
over the leading axes, computing each row as a call on that row alone would.
The neighbour searches (`pairs_within`, `threshold_components`) query a k-d
tree at a slightly padded radius and then decide every candidate with the
`sqrt(sum(d**2))` distance and the comparison an exact linear scan uses, so
ties at the threshold resolve as it would. Stage 1's cell queries use the same
padding and distance (`_padded`, `_pair_distances`).
A `PointCloud` keeps its own k-d tree and its contact pairs, so every stage
that needs the 3*eps contact graph of a cloud reads the same one, and the last
labeling each of `threshold_components` and `contact_components` computed.
"""
from __future__ import annotations

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
    "threshold_components",
    "contact_components",
    "component_centroids",
    "pairs_within",
    "component_labels",
]

# Relative radius padding for k-d tree queries. The tree rounds distances
# differently from `distance`; candidates found at the padded radius are
# re-decided exactly, so the padding only has to exceed a few ulps.
_QUERY_PAD = 1e-9


class PointCloud:
    """An immutable ordered set of points in R^n.

    Point order is stable: indices act as identities for all labeling steps.
    Duplicate points are allowed. The k-d tree, the contact pairs and the
    centred coordinates are derived from the coordinates on first use and kept,
    as is the last labeling of each components function (`_kept_components`).
    """

    __slots__ = ("_coords", "_tree", "_contact", "_centred", "_labelings")

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
        self._labelings = {}  # components function -> (r, the labeling it computed last)

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

    def contact_pairs(self, r: float) -> tuple[np.ndarray, np.ndarray]:
        """`pairs_within(coords, r)` from the cloud's tree, read-only, kept until another r is asked for."""
        if self._contact is None or self._contact[0] != r:
            pairs = pairs_within(self._coords, r, self.tree)
            for arr in pairs:
                arr.setflags(write=False)  # shared by every caller, like coords
            self._contact = (r, pairs)
        return self._contact[1]

    def __getitem__(self, index: int) -> np.ndarray:
        return self._coords[index]

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


def _points(*arrays) -> list[np.ndarray]:
    """The arguments as float arrays with coordinates on the last axis, which must agree in length."""
    arrays = [np.asarray(a, dtype=float) for a in arrays]
    if len({a.shape[-1:] for a in arrays}) > 1:
        raise ValueError(f"dimension mismatch: {' vs '.join(str(a.shape) for a in arrays)}")
    return arrays


def _result(x: np.ndarray) -> float | np.ndarray:
    """A float for one point, else the array over the leading axes."""
    return float(x) if x.ndim == 0 else x


def distance(p, q) -> float | np.ndarray:
    """Euclidean distance between points p and q."""
    p, q = _points(p, q)
    return _result(np.sqrt(np.sum((p - q) ** 2, axis=-1)))


def angle_cosine(apex, p, q) -> float | np.ndarray:
    """Cosine of the angle at `apex` between the rays to p and to q."""
    apex, p, q = _points(apex, p, q)
    u1 = p - apex
    u2 = q - apex
    return _result(np.vecdot(u1, u2) / (np.sqrt(np.vecdot(u1, u1)) * np.sqrt(np.vecdot(u2, u2))))


def point_segment_distance(x, a, b) -> float | np.ndarray:
    """Distance from x to the segment [a, b] via the clamped projection."""
    x, a, b = _points(x, a, b)
    d = b - a
    dd = np.vecdot(d, d)
    if np.any(dd == 0.0):
        raise ValueError("degenerate segment: endpoints coincide")
    t = np.clip(np.vecdot(x - a, d) / dd, 0.0, 1.0)
    return distance(x, a + t[..., None] * d)


def segment_segment_distance(p0, p1, q0, q1) -> float | np.ndarray:
    """Minimum distance between segments [p0,p1] and [q0,q1] in R^n.

    Standard clamped quadratic minimization over the (s, t) parameter square.
    """
    p0, p1, q0, q1 = _points(p0, p1, q0, q1)
    u = p1 - p0
    v = q1 - q0
    w0 = p0 - q0
    a = np.vecdot(u, u)
    b = np.vecdot(u, v)
    c = np.vecdot(v, v)
    d = np.vecdot(u, w0)
    e = np.vecdot(v, w0)
    if np.any((a == 0.0) | (c == 0.0)):
        raise ValueError("degenerate segment: endpoints coincide")

    denom = a * c - b * b
    skew = denom > 1e-14 * a * c  # else near-parallel: fix one endpoint, clamp below
    s = np.clip(np.where(skew, b * e - c * d, 0.0) / np.where(skew, denom, 1.0), 0.0, 1.0)
    # optimal t for this s, then re-optimize s for the clamped t
    t = np.clip((b * s + e) / c, 0.0, 1.0)
    s = np.clip((b * t - d) / a, 0.0, 1.0)
    return distance(p0 + s[..., None] * u, q0 + t[..., None] * v)


def _padded(r: float) -> float:
    return r * (1.0 + _QUERY_PAD)


def _pair_distances(points: np.ndarray, i, j) -> np.ndarray:
    """`distance(points[i], points[j])` for index arrays i and j, bit for bit.

    Below 8 coordinates `np.sum` adds the squares in coordinate order, so each
    coordinate is gathered on its own and the squares are added in that order;
    from 8 on it adds them pairwise, so the rows are gathered for `distance`.
    """
    if points.shape[1] >= 8:
        return distance(points[i], points[j])
    return np.sqrt(sum((column.take(i) - column.take(j)) ** 2 for column in points.T))


def pairs_within(coords: np.ndarray, r: float, tree: cKDTree | None = None) -> tuple[np.ndarray, np.ndarray]:
    """All pairs (i, j) with i < j and ||p_i - p_j|| <= r, each once, in the
    order the tree returns them. Indices are int32 below 2**31 points, else intp."""
    tree = cKDTree(coords) if tree is None else tree
    pairs = tree.query_pairs(_padded(r), output_type="ndarray")
    keep = _pair_distances(coords, pairs[:, 0], pairs[:, 1]) <= r
    index = np.int32 if len(coords) < 2**31 else np.intp
    return pairs[keep, 0].astype(index), pairs[keep, 1].astype(index)


def component_labels(n: int, i: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, int]:
    """Connected components of the undirected graph on n nodes with edges (i, j).

    Labels are contiguous and ordered by each component's smallest node.
    """
    if n == 0:
        return np.empty(0, dtype=np.intp), 0
    # built in the layout csgraph works in (float64 weights, int32 indices), so it converts nothing
    ptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(i, minlength=n), out=ptr[1:])
    graph = csr_matrix((np.ones(i.size), j[np.argsort(i, kind="stable")].astype(np.int32), ptr), shape=(n, n))
    count, labels = connected_components(graph, directed=False)
    first = np.full(count, n)
    np.minimum.at(first, labels, np.arange(n))
    rank = np.empty(count, dtype=np.intp)
    rank[np.argsort(first)] = np.arange(count)
    return rank[labels], int(count)


def threshold_components(cloud: PointCloud, subset, r: float) -> ComponentLabeling:
    """Connected components of the graph on `subset` with edges at ||p-q|| <= r.

    The edge test is inclusive; component ids are ordered by smallest member
    index, so the labeling is deterministic.
    """
    if r < 0:
        raise ValueError("threshold must be nonnegative")
    return _kept_components(cloud, "threshold", subset, r, lambda subset: pairs_within(cloud.coords[subset], r))


def contact_components(cloud: PointCloud, subset, r: float) -> ComponentLabeling:
    """`threshold_components(cloud, subset, r)` read off `cloud.contact_pairs(r)`.

    Builds no tree of its own: the subset's graph is the cloud's contact graph
    restricted to the subset.
    """

    def edges(subset):
        i, j = cloud.contact_pairs(r)
        pos = np.full(len(cloud), -1, dtype=np.intp)
        pos[subset] = np.arange(subset.size)
        pi, pj = pos[i], pos[j]
        keep = (pi >= 0) & (pj >= 0)
        return pi[keep], pj[keep]

    return _kept_components(cloud, "contact", subset, r, edges)


def _kept_components(cloud: PointCloud, kind: str, subset, r: float, edges) -> ComponentLabeling:
    """The components of the graph on the checked subset whose edges
    `edges(subset)` gives as positions in it. The labeling is read-only and
    kept on the cloud under `kind` until another subset or r is asked for:
    stage 2 asks again for the sides that `refine` leaves as they were."""
    subset = _checked_subset(cloud, subset)
    last = cloud._labelings.get(kind)
    if last is not None and last[0] == r and np.array_equal(last[1].indices, subset):
        return last[1]
    labels, count = component_labels(subset.size, *edges(subset))
    for arr in (subset, labels):
        arr.setflags(write=False)  # shared by every caller, like coords
    cloud._labelings[kind] = (r, ComponentLabeling(subset, labels, count))
    return cloud._labelings[kind][1]


def _checked_subset(cloud: PointCloud, subset) -> np.ndarray:
    """Sorted distinct cloud indices; out-of-range indices are an error."""
    subset = np.unique(np.asarray(subset, dtype=int))
    if subset.size and (subset[0] < 0 or subset[-1] >= len(cloud)):
        raise ValueError("subset contains out-of-range indices")
    return subset


def component_centroids(points, labels, count: int, rows=None) -> np.ndarray:
    """(count, n) means of the rows of `points` (of `points[rows]` when given)
    per label in 0..count-1.

    Each label's members are summed in array order, one `np.bincount` per
    coordinate, which gathers that coordinate alone. A label with no members
    is an error.
    """
    points = np.asarray(points, dtype=float)
    labels = np.asarray(labels, dtype=np.intp)
    sizes = np.bincount(labels, minlength=count)
    if sizes.size != count or not np.all(sizes):
        raise ValueError(f"cannot take centroids: each of the {count} labels needs a member, and no other may occur")
    sums = [np.bincount(labels, weights=x if rows is None else x.take(rows), minlength=count) for x in points.T]
    return np.stack(sums, axis=1) / sizes[:, None]
