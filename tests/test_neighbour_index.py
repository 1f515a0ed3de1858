"""The k-d tree paths of stages 1-2 against linear-scan oracles.

The shipped code finds neighbours with a k-d tree and re-decides every
candidate with the linear scans' own distance formula. These tests pin that
ties at each threshold resolve exactly as the linear scans resolve them, and
that the batched classifier keeps memory bounded on a cloud whose dense
pairwise temporaries would not fit, and on the densest fixture cloud.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

import graphskel as gs
from graphskel import geometry
from graphskel.abstract_graph import RefinedPartition, build_graph, cluster_p0, cluster_p1, refine
from graphskel.cli import main
from graphskel.fileio import write_cloud
from graphskel.geometry import PointCloud, contact_components, threshold_components
from graphskel.local_structure import Partition, ReconstructionConfig, classify_all
from oracles import Label, ball_query, classify_point, component_sets, label_rows, shell_query

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


def scan_label(cloud: PointCloud, p_index: int, config: ReconstructionConfig) -> Label:
    """`classify_point` with the component step done by `scan_components`."""
    p = cloud[p_index]
    ball = scan_components(cloud, ball_query(cloud, p, config.ball_radius), config.contact_scale)
    shell = scan_components(
        cloud, shell_query(cloud, p, config.shell_inner, config.shell_outer), config.contact_scale
    )
    if len(ball) > 1:
        return Label(False, False, len(shell))
    if len(shell) != 2:
        return Label(True, True, len(shell))
    q1, q2 = (cloud.coords[g].mean(axis=0) for g in shell)
    ip = float(np.dot(q1 - p, q2 - p))
    return Label(ip > config.ip_threshold, True, 2, ip)


def scan_pairs(coords: np.ndarray, r: float) -> list[tuple[int, int]]:
    """Every pair (i, j) with i < j within r, by a dense all-pairs scan."""
    dmat = np.sqrt(np.sum((coords[:, None, :] - coords[None, :, :]) ** 2, axis=2))
    return [tuple(pair) for pair in np.argwhere(np.triu(dmat <= r, 1)).tolist()]


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
        assert label_rows(got) == [scan_label(cloud, i, CFG) for i in range(len(cloud))]
        assert got.shell_components[0] == 1  # the R+eps point, not the R-eps one
        assert threshold_components(cloud, [0, 3], CFG.contact_scale).num_components == 1
        i, j = cloud.contact_pairs(CFG.contact_scale)
        assert (i.tolist(), j.tolist()) == ([0], [3])
        assert all(a.dtype == np.int32 and not a.flags.writeable for a in (i, j))

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
        got = label_rows(classify_all(cloud, CFG))
        assert got == [classify_point(cloud, i, CFG) for i in range(len(cloud))]
        assert got == [scan_label(cloud, i, CFG) for i in range(len(cloud))]

    @pytest.mark.parametrize("r", [0.0, CFG.contact_scale, CFG.shell_inner, CFG.shell_outer])
    def test_threshold_components_match_scan(self, r):
        cloud = axis_tie_cloud()
        for subset in (np.arange(len(cloud)), np.arange(0, len(cloud), 2)):
            cc = threshold_components(cloud, subset, r)
            want = scan_components(cloud, subset, r)
            assert [m.tolist() for m in component_sets(cc)] == [m.tolist() for m in want]
            i, j = geometry.pairs_within(cloud.coords[subset], r)
            assert i.dtype == j.dtype == np.int32
            assert sorted(zip(i.tolist(), j.tolist())) == scan_pairs(cloud.coords[subset], r)

    def chain(self, tail_gap: float, reverse: bool) -> tuple[PointCloud, np.ndarray, np.ndarray, np.ndarray]:
        """Vertex A at the origin (doubled), an edge chain on the x-axis starting
        exactly 3eps from A, and vertex B `tail_gap` past the chain's end. In
        `reverse` point order, the contact pair at the tie reads (edge, vertex)."""
        c = CFG.contact_scale
        xs = c + np.arange(12) * (c / 2)
        b = xs[-1] + tail_gap
        coords = np.zeros((len(xs) + 3, 3))
        coords[2:-1, 0] = xs
        coords[-1, 0] = b
        cloud = PointCloud(coords[::-1] if reverse else coords)
        a_idx, e_idx, b_idx = np.array([0, 1]), np.arange(2, len(xs) + 2), np.array([len(xs) + 2])
        if reverse:
            a_idx, e_idx, b_idx = (np.sort(len(coords) - 1 - idx) for idx in (a_idx, e_idx, b_idx))
        i, j = cloud.contact_pairs(c)
        a, e = set(a_idx.tolist()), set(e_idx.tolist())
        tie = [p for p, q in zip(i.tolist(), j.tolist()) if {p, q} & a and {p, q} & e]
        assert tie and all((p in e) == reverse for p in tie)
        assert scan_linkage(cloud, a_idx, e_idx) == c
        assert scan_linkage(cloud, a_idx, b_idx) > CFG.vertex_cluster_scale
        return cloud, a_idx, e_idx, b_idx

    @pytest.mark.parametrize("reverse", [False, True], ids=["vertex-first", "edge-first"])
    def test_refine_is_strict(self, reverse):
        # A touches the chain at exactly 3eps (not adjacent under <), B is closer
        cloud, a_idx, e_idx, b_idx = self.chain(CFG.contact_scale / 2, reverse)
        q0 = threshold_components(cloud, np.concatenate([a_idx, b_idx]), 0.0)
        q1 = threshold_components(cloud, e_idx, CFG.contact_scale)
        adjacent = [
            sum(scan_linkage(cloud, vp, ep) < CFG.contact_scale for vp in component_sets(q0))
            for ep in component_sets(q1)
        ]
        assert adjacent == [1]
        refined = refine(cloud, q0, q1, CFG)
        assert refined.moved.tolist() == e_idx.tolist()
        assert refined.edges.indices.size == 0

    @pytest.mark.parametrize("reverse", [False, True], ids=["vertex-first", "edge-first"])
    def test_build_graph_is_inclusive(self, reverse):
        # the chain sits exactly 3eps from both vertices: adjacent under <=
        cloud, a_idx, e_idx, b_idx = self.chain(CFG.contact_scale, reverse)
        assert scan_linkage(cloud, b_idx, e_idx) == CFG.contact_scale
        refined = RefinedPartition(
            vertices=threshold_components(cloud, np.concatenate([a_idx, b_idx]), CFG.vertex_cluster_scale),
            edges=contact_components(cloud, e_idx, CFG.contact_scale),
            moved=np.empty(0, dtype=int),
        )
        graph = build_graph(cloud, refined, CFG)
        assert [m.tolist() for m in graph.members()] == sorted([a_idx.tolist(), b_idx.tolist()]) + [e_idx.tolist()]
        assert graph.boundary.tolist() == [[0, 1]]
        # under refine's strict test the same chain touches neither vertex
        q0 = refined.vertices
        q1 = threshold_components(cloud, e_idx, CFG.contact_scale)
        with pytest.raises(gs.StructureError, match="orphan"):
            refine(cloud, q0, q1, CFG)


def scan_refine(cloud: PointCloud, config: ReconstructionConfig, q0_sets, q1_sets):
    """`refine` by all-pairs scans: (p0_tilde, p1_tilde, moved), or None for an orphan."""
    moved, kept = [], []
    for members in q1_sets:
        adjacent = sum(scan_linkage(cloud, v, members) < config.contact_scale for v in q0_sets)
        if adjacent == 0:
            return None
        (moved if adjacent == 1 else kept).append(members)
    moved = sorted(int(i) for m in moved for i in m)
    p0 = sorted(moved + [int(i) for v in q0_sets for i in v])
    return p0, sorted(int(i) for e in kept for i in e), moved


def scan_build(cloud: PointCloud, config: ReconstructionConfig, p0_tilde, p1_tilde):
    """`build_graph` by all-pairs scans: (vertex sets, edge sets, boundary), or None."""
    vertices = scan_components(cloud, p0_tilde, config.vertex_cluster_scale)
    edges = scan_components(cloud, p1_tilde, config.contact_scale)
    boundary = []
    for e in edges:
        touching = [k for k, v in enumerate(vertices) if scan_linkage(cloud, v, e) <= config.contact_scale]
        if len(touching) != 2:
            return None
        boundary.append(tuple(touching))
    return [v.tolist() for v in vertices], [e.tolist() for e in edges], boundary


@st.composite
def split_clouds(draw):
    """Small clouds in dims 1-5 with duplicated points and a vertex-like mask.

    Either an eps/4 grid (exact-distance repeats) or arbitrary floats with a
    random mask, or a sampled graph: chains at spacing 1.5 eps between points
    of a unit grid, vertex-like within a drawn radius of a grid point, so that
    edge clusters meeting two vertex clusters occur.
    """
    dim = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["grid", "float", "graph"]))
    if kind == "graph":
        anchors = np.unique(draw(hnp.arrays(float, (3, dim), elements=st.integers(-2, 2))), axis=0)
        pairs = [(a, b) for a in range(len(anchors)) for b in range(a + 1, len(anchors))]
        chains = [anchors]
        for a, b in draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3)) if pairs else []:
            n = int(np.ceil(np.linalg.norm(anchors[b] - anchors[a]) / (1.5 * EPS))) + 1
            t = np.linspace(0.0, 1.0, n)[:, None]
            chains.append(anchors[a] + t * (anchors[b] - anchors[a]))
        coords = np.vstack(chains)
        coords = coords + draw(hnp.arrays(float, coords.shape, elements=st.floats(-0.03, 0.03, width=64)))
        near = np.sqrt(np.sum((coords[:, None, :] - anchors[None, :, :]) ** 2, axis=2)).min(axis=1)
        vertex_like = near <= draw(st.sampled_from([2 * EPS, 4 * EPS, 6 * EPS]))
    else:
        m = draw(st.integers(0, 30))
        if kind == "grid":
            elements = st.integers(-16, 16).map(lambda k: k * 0.025)
        else:
            elements = st.floats(-1.5, 1.5, allow_nan=False, width=64)
        coords = draw(hnp.arrays(float, (m, dim), elements=elements))
        vertex_like = draw(hnp.arrays(bool, m))
    if len(coords):
        dups = draw(st.lists(st.integers(0, len(coords) - 1), max_size=6))
        coords = np.vstack([coords, coords[dups]])
        vertex_like = np.concatenate([vertex_like, vertex_like[dups]])
    return PointCloud(coords.reshape(-1, dim)), vertex_like


class TestStageTwoMatchesScans:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(case=split_clouds(), ratio=st.sampled_from([1.5, 3.0, 12.0]))
    def test_cluster_refine_build(self, case, ratio):
        cloud, vertex_like = case
        cfg = ReconstructionConfig(R=ratio * EPS, eps=EPS)
        part = Partition(p0=np.flatnonzero(vertex_like), p1=np.flatnonzero(~vertex_like))

        q0, q1 = cluster_p0(cloud, part, cfg), cluster_p1(cloud, part, cfg)
        want_q1 = scan_components(cloud, part.p1, cfg.contact_scale)
        assert [m.tolist() for m in component_sets(q1)] == [m.tolist() for m in want_q1]

        want = scan_refine(cloud, cfg, component_sets(q0), component_sets(q1))
        if want is None:
            with pytest.raises(gs.StructureError, match="orphan"):
                refine(cloud, q0, q1, cfg)
        else:
            refined = refine(cloud, q0, q1, cfg)
            got = (refined.vertices.indices.tolist(), refined.edges.indices.tolist(), refined.moved.tolist())
            assert got == want

        # build_graph on the unrefined split too, so it is exercised when refine raises
        unrefined = RefinedPartition(vertices=q0, edges=q1, moved=np.empty(0, dtype=int))
        for refined in [unrefined] + ([] if want is None else [refine(cloud, q0, q1, cfg)]):
            want_graph = scan_build(cloud, cfg, refined.vertices.indices, refined.edges.indices)
            if want_graph is None:
                with pytest.raises(gs.StructureError, match="touches"):
                    build_graph(cloud, refined, cfg)
                continue
            graph = build_graph(cloud, refined, cfg)
            members = [m.tolist() for m in graph.members()]
            assert (members[: graph.n_vertices], members[graph.n_vertices :]) == want_graph[:2]
            assert [tuple(pair) for pair in graph.boundary.tolist()] == want_graph[2]


def count_contact_work(monkeypatch):
    """Count the k-d trees built (by size) and the radii `pairs_within` is asked
    for, through every graphskel module's binding of either name."""
    trees: list[int] = []
    radii: list[float] = []
    components: list[float] = []

    class CountingTree(cKDTree):
        def __init__(self, data, *args, **kwargs):
            trees.append(len(data))
            super().__init__(data, *args, **kwargs)

    real_pairs, real_components = geometry.pairs_within, geometry.threshold_components

    def pairs_within(coords, r, *args, **kwargs):
        radii.append(r)
        return real_pairs(coords, r, *args, **kwargs)

    def threshold_components(cloud, subset, r):
        components.append(r)
        return real_components(cloud, subset, r)

    for name, module in list(sys.modules.items()):
        if name != "graphskel" and not name.startswith("graphskel."):
            continue
        if hasattr(module, "cKDTree"):
            monkeypatch.setattr(module, "cKDTree", CountingTree)
        if getattr(module, "pairs_within", None) is real_pairs:
            monkeypatch.setattr(module, "pairs_within", pairs_within)
        if getattr(module, "threshold_components", None) is real_components:
            monkeypatch.setattr(module, "threshold_components", threshold_components)
    return trees, radii, components


class TestOneContactGraph:
    def test_pairs_between_is_gone(self):
        assert not hasattr(geometry, "pairs_between")

    def test_recover_graph_builds_one_cloud_tree(self, fixture_cloud, monkeypatch):
        cloud = PointCloud(fixture_cloud.coords)  # no tree or pairs cached yet
        trees, radii, components = count_contact_work(monkeypatch)
        graph = gs.recover_graph(cloud, CFG)
        assert (graph.n_vertices, graph.n_edges) == (5, 5)
        assert trees.count(len(cloud)) == 1
        assert len(trees) == 3  # the cloud's tree, stage 1's tree of cell leads and one vertex-scale subset tree
        assert radii.count(CFG.contact_scale) == 1
        assert CFG.contact_scale not in components

    def test_pipeline_shares_the_contact_graph_across_ratios(self, fixture_cloud, tmp_path, monkeypatch):
        path = tmp_path / "cloud.txt"
        write_cloud(str(path), fixture_cloud)
        trees, radii, components = count_contact_work(monkeypatch)
        rc = main([
            "pipeline", "--input", str(path), "--output", str(tmp_path / "report.json"),
            "--eps", str(EPS), "--ratios", "12,10,8,6",
        ])
        assert rc == 0
        assert trees.count(len(fixture_cloud)) == 1
        assert radii.count(CFG.contact_scale) == 1
        assert CFG.contact_scale not in components


@pytest.mark.parametrize(
    "recovery, ratio", [("ratio8_recovery", 8), ("twelve_vertex_5d_recovery", 12)], ids=["fixture-ratio-8", "5d-12"]
)
def test_no_reader_depends_on_pair_order(request, monkeypatch, recovery, ratio):
    """`pairs_within` promises no order: with every pair list reversed, the
    labels and the recovered graph are bit-identical."""
    coords = request.getfixturevalue(recovery).cloud.coords
    config = ReconstructionConfig(R=ratio * EPS, eps=EPS)

    def run():
        cloud = PointCloud(coords)  # no pairs cached yet
        labels = classify_all(cloud, config)
        return labels, gs.recover_graph(cloud, config, labels)

    want = run()
    real = geometry.pairs_within
    monkeypatch.setattr(geometry, "pairs_within", lambda *args: tuple(a[::-1] for a in real(*args)))
    got = run()
    for column, expected in zip(got[0], want[0]):
        np.testing.assert_array_equal(column, expected)
    for field in ("stratum", "boundary", "vertex_centroids", "moved"):
        np.testing.assert_array_equal(getattr(got[1], field), getattr(want[1], field))


MEMORY_BUDGET_MIB = 400

# Prepended to each script run by `run_fresh`.
_PEAK_KIB = textwrap.dedent(
    """
    def peak_kib():
        with open("/proc/self/status") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    """
)


def run_fresh(script: str) -> dict:
    """Run `script` in a fresh interpreter and return the JSON of its last line.

    The script reports its peak resident set through `peak_kib()`, the
    process's own VmHWM. `ru_maxrss` would not do: Linux carries it over
    from the parent across fork and exec, so it would measure this process.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(gs.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_KIB + script], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


_MEMORY_SCRIPT = textwrap.dedent(
    """
    import json
    import numpy as np
    import graphskel as gs

    eps = 0.1
    m = 7300
    coords = np.zeros((m, 3))
    coords[:, 0] = np.arange(m) * (eps / 2)
    cloud = gs.PointCloud(coords)
    graph = gs.recover_graph(cloud, gs.ReconstructionConfig(R=12 * eps, eps=eps))
    print(json.dumps({
        "edge_points": int(np.count_nonzero(graph.stratum >= graph.n_vertices)),
        "vertices": graph.n_vertices,
        "edges": graph.n_edges,
        "peak_kib": peak_kib(),
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
    out = run_fresh(_MEMORY_SCRIPT)
    assert out["edge_points"] == 7255
    assert (out["vertices"], out["edges"]) == (2, 1)
    assert out["peak_kib"] / 1024 < MEMORY_BUDGET_MIB


_DENSE_FIXTURE_SCRIPT = textwrap.dedent(
    """
    import json
    import graphskel as gs

    cloud = gs.sample_graph(gs.builtin_fixture(), gs.SampleSpec(eps=0.1, spacing=0.005, seed=0))
    graph = gs.recover_graph(cloud, gs.ReconstructionConfig(R=1.2, eps=0.1))
    print(json.dumps({
        "points": len(cloud),
        "vertices": graph.n_vertices,
        "edges": graph.n_edges,
        "peak_kib": peak_kib(),
    }))
    """
)


def test_dense_fixture_recovery_is_bounded():
    """The fixture at spacing 0.005 (m = 6739) at ratio 12: a ball holds
    about 570 points on average and a contact neighbourhood about 120. Its
    recovery must finish in a fresh process whose peak resident set stays
    under MEMORY_BUDGET_MIB.
    """
    out = run_fresh(_DENSE_FIXTURE_SCRIPT)
    assert out["points"] == 6739
    assert (out["vertices"], out["edges"]) == (5, 5)
    assert out["peak_kib"] / 1024 < MEMORY_BUDGET_MIB
