"""The k-d tree paths of stages 1-2 against linear-scan oracles.

The shipped code finds neighbours with a k-d tree and re-decides every
candidate with the linear scans' own distance formula. These tests pin that
ties at each threshold resolve exactly as the linear scans resolve them, and
that the batched classifier keeps memory bounded on a cloud whose dense
pairwise temporaries would not fit.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

import graphskel as gs
from graphskel.abstract_graph import RefinedPartition, build_graph, refine
from graphskel.geometry import (
    PointCloud,
    ball_query,
    pairs_between,
    shell_query,
    threshold_components,
)
from graphskel.local_structure import (
    EDGE_LIKE,
    VERTEX_LIKE,
    LocalLabel,
    ReconstructionConfig,
    classify_all,
    classify_point,
)

EPS = 0.1
CFG = ReconstructionConfig(R=12 * EPS, eps=EPS)


def dist(p, q) -> float:
    return float(np.sqrt(np.sum((np.asarray(p) - np.asarray(q)) ** 2)))


def scan_components(cloud: PointCloud, subset, r: float) -> list[np.ndarray]:
    """Threshold-graph components by a dense all-pairs scan, ordered by smallest member."""
    subset = np.unique(np.asarray(subset, dtype=int))
    if subset.size == 0:
        return []
    pts = cloud.coords[subset]
    dmat = np.sqrt(np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2))
    _, labels = connected_components(dmat <= r, directed=False)
    groups = [subset[labels == lab] for lab in np.unique(labels)]
    return sorted(groups, key=lambda g: g[0])


def scan_label(cloud: PointCloud, p_index: int, config: ReconstructionConfig) -> LocalLabel:
    """`classify_point` with the component step done by `scan_components`."""
    p = cloud[p_index]
    ball = scan_components(cloud, ball_query(cloud, p, config.ball_radius), config.contact_scale)
    shell = scan_components(
        cloud, shell_query(cloud, p, config.shell_inner, config.shell_outer), config.contact_scale
    )
    if len(ball) > 1:
        return LocalLabel(EDGE_LIKE, False, len(shell))
    if len(shell) != 2:
        return LocalLabel(VERTEX_LIKE, True, len(shell))
    q1, q2 = (cloud.coords[g].mean(axis=0) for g in shell)
    ip = float(np.dot(q1 - p, q2 - p))
    return LocalLabel(VERTEX_LIKE if ip > config.ip_threshold else EDGE_LIKE, True, 2, ip)


def scan_linkage(cloud: PointCloud, a, b) -> float:
    """Single-linkage distance between two member sets by an all-pairs scan."""
    pa, pb = cloud.coords[np.asarray(a)], cloud.coords[np.asarray(b)]
    return float(np.sqrt(np.sum((pa[:, None, :] - pb[None, :, :]) ** 2, axis=2).min()))


def axis_tie_cloud() -> PointCloud:
    """Points on the coordinate axes at exactly R+eps, R-eps, 3eps and 6eps from
    a duplicated origin, plus duplicated off-origin points. On an axis
    sqrt(x*x) == |x|, so every listed distance equals its threshold exactly."""
    rows = [np.zeros(3), np.zeros(3)]
    for axis in range(3):
        for sign in (1.0, -1.0):
            for r in (CFG.contact_scale, 2 * CFG.contact_scale, CFG.shell_inner, CFG.shell_outer):
                p = np.zeros(3)
                p[axis] = sign * r
                rows.append(p)
    rows += [rows[2].copy(), rows[5].copy(), rows[5].copy()]
    return PointCloud(np.array(rows))


# Off-axis points at exactly R+eps, R-eps and 3eps from the origin whose
# squared distance rounds above r*r: a k-d tree queried at r itself misses them.
ROUNDING_TIES = [
    (CFG.shell_outer, [0.9020116337428566, 0.9361490333235106, 0.0]),
    (CFG.shell_inner, [0.9706573981777009, 0.5175173575474513, 0.0]),
    (CFG.contact_scale, [0.2997189434775544, 0.012982870279663977, 0.0]),
]


def rounding_tie_cloud() -> PointCloud:
    return PointCloud(np.array([[0.0, 0.0, 0.0]] + [p for _, p in ROUNDING_TIES]))


class TestRoundingTies:
    def test_rounding_ties_defeat_an_unpadded_tree(self):
        from scipy.spatial import cKDTree

        for r, p in ROUNDING_TIES:
            p = np.array(p)
            assert dist(p, np.zeros(3)) == r and np.sum(p**2) > r * r
            assert cKDTree(p[None, :]).query_ball_point(np.zeros(3), r) == []

    def test_rounding_ties_match_scans(self):
        cloud = rounding_tie_cloud()
        got = classify_all(cloud, CFG)
        assert got == [scan_label(cloud, i, CFG) for i in range(len(cloud))]
        assert got[0].shell_component_count == 1  # the R+eps point, not the R-eps one
        assert threshold_components(cloud, [0, 3], CFG.contact_scale).num_components == 1
        i, j, _ = pairs_between(cloud.coords[:1], cloud.coords[3:], CFG.contact_scale)
        assert (i.tolist(), j.tolist()) == ([0], [0])

class TestAxisTies:
    def test_ties_are_exact_in_the_oracle(self):
        cloud = axis_tie_cloud()
        origin = cloud[0]
        for r in (CFG.ball_radius, CFG.shell_inner, CFG.contact_scale):
            assert any(dist(p, origin) == r for p in cloud.coords)
        ball = set(ball_query(cloud, origin, CFG.ball_radius).tolist())
        shell = set(shell_query(cloud, origin, CFG.shell_inner, CFG.shell_outer).tolist())
        on_outer = {i for i, p in enumerate(cloud.coords) if dist(p, origin) == CFG.shell_outer}
        on_inner = {i for i, p in enumerate(cloud.coords) if dist(p, origin) == CFG.shell_inner}
        assert on_outer and on_outer <= ball and on_outer <= shell
        assert on_inner and on_inner <= ball and not on_inner & shell

    def test_classify_all_matches_scans(self):
        cloud = axis_tie_cloud()
        got = classify_all(cloud, CFG)
        assert got == [classify_point(cloud, i, CFG) for i in range(len(cloud))]
        assert got == [scan_label(cloud, i, CFG) for i in range(len(cloud))]

    @pytest.mark.parametrize("r", [0.0, CFG.contact_scale, CFG.shell_inner, CFG.shell_outer])
    def test_threshold_components_match_scan(self, r):
        cloud = axis_tie_cloud()
        for subset in (np.arange(len(cloud)), np.arange(0, len(cloud), 2)):
            cc = threshold_components(cloud, subset, r)
            want = scan_components(cloud, subset, r)
            assert [m.tolist() for m in cc.sets()] == [m.tolist() for m in want]

    def chain(self, tail_gap: float) -> tuple[PointCloud, np.ndarray, np.ndarray, np.ndarray]:
        """Vertex A at the origin (doubled), an edge chain on the x-axis starting
        exactly 3eps from A, and vertex B `tail_gap` past the chain's end."""
        c = CFG.contact_scale
        xs = c + np.arange(12) * (c / 2)
        b = xs[-1] + tail_gap
        coords = np.zeros((len(xs) + 3, 3))
        coords[2:-1, 0] = xs
        coords[-1, 0] = b
        cloud = PointCloud(coords)
        a_idx, e_idx, b_idx = np.array([0, 1]), np.arange(2, len(xs) + 2), np.array([len(xs) + 2])
        assert scan_linkage(cloud, a_idx, e_idx) == c
        assert scan_linkage(cloud, a_idx, b_idx) > CFG.vertex_cluster_scale
        return cloud, a_idx, e_idx, b_idx

    def test_refine_is_strict(self):
        # A touches the chain at exactly 3eps (not adjacent under <), B is closer
        cloud, a_idx, e_idx, b_idx = self.chain(CFG.contact_scale / 2)
        q0 = threshold_components(cloud, np.concatenate([a_idx, b_idx]), 0.0)
        q1 = threshold_components(cloud, e_idx, CFG.contact_scale)
        adjacent = [
            sum(scan_linkage(cloud, vp, ep) < CFG.contact_scale for vp in q0.sets()) for ep in q1.sets()
        ]
        assert adjacent == [1]
        refined = refine(cloud, q0, q1, CFG)
        assert refined.moved.tolist() == e_idx.tolist()
        assert refined.p1_tilde.size == 0

    def test_build_graph_is_inclusive(self):
        # the chain sits exactly 3eps from both vertices: adjacent under <=
        cloud, a_idx, e_idx, b_idx = self.chain(CFG.contact_scale)
        assert scan_linkage(cloud, b_idx, e_idx) == CFG.contact_scale
        refined = RefinedPartition(
            p0_tilde=np.concatenate([a_idx, b_idx]), p1_tilde=e_idx, moved=np.empty(0, dtype=int)
        )
        graph = build_graph(cloud, refined, CFG)
        assert [m.tolist() for m in graph.vertex_clusters] == [a_idx.tolist(), b_idx.tolist()]
        assert graph.boundary == [(0, 1)]
        # under refine's strict test the same chain touches neither vertex
        q0 = threshold_components(cloud, refined.p0_tilde, CFG.vertex_cluster_scale)
        q1 = threshold_components(cloud, e_idx, CFG.contact_scale)
        with pytest.raises(gs.StructureError, match="orphan"):
            refine(cloud, q0, q1, CFG)


MEMORY_BUDGET_MIB = 400

_MEMORY_SCRIPT = textwrap.dedent(
    """
    import json, resource
    import numpy as np
    import graphskel as gs

    eps = 0.1
    m = 7300
    coords = np.zeros((m, 3))
    coords[:, 0] = np.arange(m) * (eps / 2)
    cloud = gs.PointCloud(coords)
    graph, refined, part = gs.recover_graph(cloud, gs.ReconstructionConfig(R=12 * eps, eps=eps))
    print(json.dumps({
        "p1": int(part.p1.size),
        "vertices": graph.n_vertices,
        "edges": graph.n_edges,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }))
    """
)


def test_recover_graph_memory_is_bounded():
    """A straight polyline of 7300 points at spacing eps/2 in R^3 has one
    edge-like cluster of 7255 points. Computed from the code before the
    neighbour index, clustering that set built a (k, k, n) float64
    difference array: 7255**2 * 3 * 8 bytes = 1.26e9 bytes (1.18 GiB), plus
    the (k, k) distance matrix. The recovery must now finish in a fresh
    process whose peak resident set stays under MEMORY_BUDGET_MIB.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(gs.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _MEMORY_SCRIPT], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["p1"] == 7255
    assert (out["vertices"], out["edges"]) == (2, 1)
    assert out["maxrss_kib"] / 1024 < MEMORY_BUDGET_MIB
