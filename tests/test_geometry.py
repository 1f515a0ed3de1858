from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphskel.geometry import (
    PointCloud,
    _pair_distances,
    angle_cosine,
    component_centroids,
    component_labels,
    distance,
    point_segment_distance,
    segment_segment_distance,
    threshold_components,
)
from oracles import ball_query, component_sets, shell_query


def brute_ball(cloud, center, r):
    return np.flatnonzero(np.linalg.norm(cloud.coords - np.asarray(center), axis=1) <= r)


def brute_shell(cloud, center, r_in, r_out):
    d = np.linalg.norm(cloud.coords - np.asarray(center), axis=1)
    return np.flatnonzero((d > r_in) & (d <= r_out))


def bfs_components(points: np.ndarray, r: float) -> list[set[int]]:
    """Independent oracle: BFS over the full distance matrix."""
    k = len(points)
    dmat = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)
    adj = dmat <= r
    seen = [False] * k
    comps = []
    for start in range(k):
        if seen[start]:
            continue
        queue, comp = [start], set()
        seen[start] = True
        while queue:
            i = queue.pop()
            comp.add(i)
            for j in np.flatnonzero(adj[i]):
                if not seen[j]:
                    seen[j] = True
                    queue.append(int(j))
        comps.append(comp)
    return comps


class TestPointCloud:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            PointCloud([[0.0, float("nan")]])

    def test_rejects_ragged_dim(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((3,)))

    def test_readonly(self):
        cloud = PointCloud([[0.0, 1.0]])
        with pytest.raises(ValueError):
            cloud.coords[0, 0] = 5.0

    def test_duplicates_allowed(self):
        cloud = PointCloud([[1.0, 2.0], [1.0, 2.0]])
        assert len(cloud) == 2


class TestDistance:
    def test_identity(self):
        assert distance((0, 0), (0, 0)) == 0.0

    def test_345(self):
        assert distance((0, 0), (3, 4)) == 5.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            distance((0, 0), (0, 0, 0))

    def test_matches_extended_precision(self):
        import mpmath as mp

        mp.mp.dps = 40
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = rng.normal(size=7)
            q = rng.normal(size=7)
            want = float(mp.sqrt(mp.fsum((mp.mpf(a) - mp.mpf(b)) ** 2 for a, b in zip(p, q))))
            assert distance(p, q) == pytest.approx(want, rel=1e-12)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            a, b, c = rng.normal(size=(3, 5))
            assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-12


class TestPairDistances:
    """`_pair_distances` gathers one coordinate at a time below 8 coordinates
    and rows from 8 on; either way it keeps `distance`'s bits."""

    @settings(max_examples=150)
    @given(
        n=st.integers(1, 12),
        scale=st.sampled_from([1.0, 1e-150, 1e150]),
        data=st.data(),
    )
    def test_bits_match_distance_of_gathered_rows(self, n, scale, data):
        m = data.draw(st.integers(1, 6))
        entry = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)
        points = np.array(data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m)))
        points *= scale
        # short lists over few points: empty pairs, repeated indices and i == j all occur
        index = st.lists(st.integers(0, m - 1), max_size=12)
        i, j = data.draw(index), data.draw(index)
        i, j = np.array(i[: len(j)], dtype=np.int32), np.array(j[: len(i)], dtype=np.intp)
        got = _pair_distances(points, i, j)
        want = distance(points[i], points[j])
        assert got.dtype == want.dtype and got.shape == want.shape == (i.size,)
        assert got.tobytes() == want.tobytes()


class TestPointSegmentDistance:
    def test_point_on_segment(self):
        assert point_segment_distance((0.5, 0.0), (0, 0), (1, 0)) == 0.0

    def test_perpendicular_foot(self):
        assert point_segment_distance((0.3, 1.0), (0, 0), (1, 0)) == pytest.approx(1.0)

    def test_degenerate_segment(self):
        with pytest.raises(ValueError):
            point_segment_distance((0, 0), (1, 1), (1, 1))

    def test_matches_dense_scan(self):
        rng = np.random.default_rng(5)
        ts = np.linspace(0.0, 1.0, 1_000_001)
        for _ in range(5):
            x = rng.normal(size=3)
            a, b = rng.normal(size=(2, 3))
            pts = a[None, :] + ts[:, None] * (b - a)[None, :]
            want = float(np.min(np.linalg.norm(pts - x, axis=1)))
            assert point_segment_distance(x, a, b) == pytest.approx(want, abs=1e-6)


class TestSegmentSegmentDistance:
    def test_crossing_segments(self):
        assert segment_segment_distance((0, -1), (0, 1), (-1, 0), (1, 0)) == 0.0

    def test_parallel(self):
        assert segment_segment_distance((0, 0), (1, 0), (0, 1), (1, 1)) == pytest.approx(1.0)

    def test_matches_grid_scan(self):
        rng = np.random.default_rng(6)
        ts = np.linspace(0.0, 1.0, 600)
        for _ in range(25):
            p0, p1, q0, q1 = rng.normal(size=(4, 3))
            pa = p0[None, :] + ts[:, None] * (p1 - p0)[None, :]
            qa = q0[None, :] + ts[:, None] * (q1 - q0)[None, :]
            dmat = np.linalg.norm(pa[:, None, :] - qa[None, :, :], axis=2)
            want = float(dmat.min())
            got = segment_segment_distance(p0, p1, q0, q1)
            assert got <= want + 1e-9
            assert got == pytest.approx(want, abs=5e-3)


class TestBroadcast:
    @settings(max_examples=100)
    @given(dim=st.integers(1, 5), k=st.integers(0, 9), seed=st.integers(0, 2**32 - 1))
    def test_batch_rows_equal_single_calls(self, dim, k, seed):
        rng = np.random.default_rng(seed)
        p0, p1, q0, q1 = rng.normal(size=(4, k, dim))
        q1[::2] = q0[::2] + 2.0 * (p1[::2] - p0[::2])  # parallel segments take the other branch
        a, b = rng.normal(size=(2, dim))  # one segment measured against every row, as hausdorff_check does
        for measure, args in (
            (distance, (p0, q0)),
            (angle_cosine, (p0, p1, q0)),
            (point_segment_distance, (p0, q0, q1)),
            (point_segment_distance, (p0, a, b)),
            (segment_segment_distance, (p0, p1, q0, q1)),
            (segment_segment_distance, (a, b, q0, q1)),
        ):
            batch = measure(*args)
            rows = [measure(*(x[r] if x.ndim == 2 else x for x in args)) for r in range(k)]
            assert batch.shape == (k,) and all(type(row) is float for row in rows)
            assert batch.tobytes() == np.array(rows, dtype=float).tobytes()

    def test_batch_faults_raise(self):
        segments = np.array([[[0.0, 0.0], [1.0, 0.0]], [[2.0, 2.0], [2.0, 2.0]]])
        with pytest.raises(ValueError, match="degenerate"):
            point_segment_distance(np.zeros((2, 2)), segments[:, 0], segments[:, 1])
        with pytest.raises(ValueError, match="degenerate"):
            segment_segment_distance(segments[::-1, 0], segments[::-1, 1], segments[:, 0], segments[:, 1])
        with pytest.raises(ValueError, match="dimension mismatch"):
            segment_segment_distance((0, 0), (1, 0), (0, 0, 1), (1, 0, 1))


class TestQueries:
    def test_zero_radius_hits_duplicates(self):
        cloud = PointCloud([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        assert ball_query(cloud, (0, 0), 0.0).tolist() == [0, 1]

    def test_collinear_ball(self):
        cloud = PointCloud([[0.0], [1.0], [2.0]])
        assert ball_query(cloud, (0.0,), 1.5).tolist() == [0, 1]

    def test_shell_boundary_semantics(self):
        cloud = PointCloud([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        # half-open (r_in, r_out]: the distance-1 point is excluded, 2 included
        assert shell_query(cloud, (0, 0), 1.0, 2.0).tolist() == [1]

    def test_empty_shell(self):
        cloud = PointCloud([[1.0, 0.0]])
        assert shell_query(cloud, (0, 0), 1.0, 1.0).size == 0

    def test_invalid_shell(self):
        cloud = PointCloud([[1.0, 0.0]])
        with pytest.raises(ValueError):
            shell_query(cloud, (0, 0), 2.0, 1.0)

    def test_negative_radius(self):
        cloud = PointCloud([[1.0, 0.0]])
        with pytest.raises(ValueError):
            ball_query(cloud, (0, 0), -1.0)

    def test_queries_match_linear_scan(self):
        rng = np.random.default_rng(7)
        for trial in range(100):
            dim = int(rng.integers(1, 6))
            cloud = PointCloud(rng.normal(size=(int(rng.integers(5, 1000)), dim)))
            center = rng.normal(size=dim)
            r = float(rng.uniform(0, 2.5))
            assert np.array_equal(ball_query(cloud, center, r), brute_ball(cloud, center, r))
            r_in = float(rng.uniform(0, r)) if r > 0 else 0.0
            assert np.array_equal(
                shell_query(cloud, center, r_in, r), brute_shell(cloud, center, r_in, r)
            )


class TestThresholdComponents:
    def test_singleton(self):
        cloud = PointCloud([[0.0, 0.0], [5.0, 5.0]])
        cc = threshold_components(cloud, [1], 1.0)
        assert cc.num_components == 1
        assert component_sets(cc)[0].tolist() == [1]

    def test_inclusive_threshold(self):
        cloud = PointCloud([[0.0, 0.0], [1.0, 0.0]])
        assert threshold_components(cloud, [0, 1], 1.0).num_components == 1

    def test_empty_subset(self):
        cloud = PointCloud([[0.0, 0.0]])
        assert threshold_components(cloud, [], 1.0).num_components == 0

    def test_duplicates_share_component(self):
        cloud = PointCloud([[2.0, 2.0], [2.0, 2.0]])
        assert threshold_components(cloud, [0, 1], 0.0).num_components == 1

    def test_ids_ordered_by_smallest_member(self):
        cloud = PointCloud([[0.0], [10.0], [0.1], [10.1]])
        cc = threshold_components(cloud, [0, 1, 2, 3], 0.5)
        assert (cc.indices.tolist(), cc.labels.tolist()) == ([0, 1, 2, 3], [0, 1, 0, 1])

    def test_matches_bfs_oracle(self):
        rng = np.random.default_rng(8)
        for trial in range(100):
            dim = int(rng.integers(1, 4))
            n = int(rng.integers(2, 300))
            cloud = PointCloud(rng.normal(size=(n, dim)))
            subset = np.flatnonzero(rng.random(n) < 0.7)
            if subset.size == 0:
                subset = np.array([0])
            r = float(rng.uniform(0.05, 1.0))
            cc = threshold_components(cloud, subset, r)
            want = bfs_components(cloud.coords[subset], r)
            got = [set(np.searchsorted(subset, members)) for members in component_sets(cc)]
            assert sorted(map(sorted, got)) == sorted(map(sorted, want))

    def test_monotone_in_radius(self):
        rng = np.random.default_rng(9)
        cloud = PointCloud(rng.normal(size=(80, 2)))
        subset = np.arange(80)
        counts = [
            threshold_components(cloud, subset, r).num_components
            for r in np.linspace(0.0, 2.0, 15)
        ]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_zero_radius_distinct_points(self):
        rng = np.random.default_rng(10)
        cloud = PointCloud(rng.normal(size=(40, 3)))
        assert threshold_components(cloud, np.arange(40), 0.0).num_components == 40


def first_node_components(n: int, edges) -> tuple[list[int], int]:
    """Independent oracle: components found by a search from each unlabeled
    node in turn, so ids are ordered by each component's smallest node."""
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    labels, count = [-1] * n, 0
    for start in range(n):
        if labels[start] < 0:
            labels[start], stack = count, [start]
            while stack:
                for b in adj[stack.pop()]:
                    if labels[b] < 0:
                        labels[b] = count
                        stack.append(b)
            count += 1
    return labels, count


class TestComponentLabels:
    @settings(max_examples=200)
    @given(data=st.data(), n=st.integers(0, 40), dtype=st.sampled_from([np.intp, np.int32]))
    def test_matches_first_node_oracle(self, data, n, dtype):
        # isolated nodes, and edges repeated in either direction
        edges = []
        if n > 1:
            node = st.integers(0, n - 1)
            edges = data.draw(st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]), max_size=3 * n))
        if edges:
            edges += data.draw(st.lists(st.sampled_from(edges), max_size=5))
        edges = [e if data.draw(st.booleans()) else e[::-1] for e in edges]
        i, j = (np.array([e[k] for e in edges], dtype=dtype) for k in (0, 1))
        labels, count = component_labels(n, i, j)
        assert labels.dtype == np.intp
        assert (labels.tolist(), count) == first_node_components(n, edges)


class TestCentroid:
    def test_singleton(self):
        assert component_centroids([[3.0, 4.0]], [0], 1).tolist() == [[3.0, 4.0]]

    def test_midpoint(self):
        assert component_centroids([[0.0, 0.0], [2.0, 0.0]], [0, 0], 1).tolist() == [[1.0, 0.0]]

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            component_centroids(np.empty((0, 2)), [], 1)

    def test_one_mean_per_label(self):
        pts = [[0.0, 0.0], [10.0, 0.0], [2.0, 0.0], [10.0, 2.0]]
        assert component_centroids(pts, [0, 1, 0, 1], 2).tolist() == [[1.0, 0.0], [10.0, 1.0]]
        assert component_centroids(np.empty((0, 3)), [], 0).shape == (0, 3)
        with pytest.raises(ValueError):
            component_centroids(pts, [0, 0, 2, 2], 3)  # label 1 has no member
        with pytest.raises(ValueError):
            component_centroids(pts, [0, 0, 1, 2], 2)  # label 2 is out of range

    def test_matches_extended_precision(self):
        import mpmath as mp

        mp.mp.dps = 40
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(50, 4))
        (got,) = component_centroids(pts, np.zeros(50, dtype=int), 1)
        for d in range(4):
            want = float(mp.fsum(mp.mpf(x) for x in pts[:, d]) / 50)
            assert got[d] == pytest.approx(want, rel=1e-12, abs=1e-14)

    def test_centroid_in_convex_hull_2d(self):
        from scipy.spatial import ConvexHull, Delaunay

        rng = np.random.default_rng(12)
        for _ in range(10):
            pts = rng.normal(size=(25, 2))
            (c,) = component_centroids(pts, np.zeros(25, dtype=int), 1)
            hull = Delaunay(pts[ConvexHull(pts).vertices])
            assert hull.find_simplex(c) >= 0

