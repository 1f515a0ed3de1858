"""Stage 1 on clique cells.

`classify_sweep` builds its ball and shell graphs on one set of grid cells
per sweep, each checked exactly to be a clique of the contact graph, with one
node per (centre, cell). On dense clouds, where balls and shells cut cells,
and at extreme scales, its labels must still be the oracle's.
"""
from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphskel as gs
from graphskel import local_structure
from graphskel.cli import main
from graphskel.fileio import write_cloud
from graphskel.local_structure import ReconstructionConfig, classify_all, classify_sweep
from oracles import classify_point, label_rows
from test_classify_sweep import run_pipeline

EPS = 0.1


@st.composite
def dense_clouds(draw):
    """A random compliant graph in dims 1-6 sampled at eps/3 to eps/10, so
    cells hold several points and balls cut cells, then moved by a random
    rigid motion and an offset of up to 1e9, with duplicates, in random order."""
    dim = draw(st.integers(1, 6))
    n_vertices = 2 if dim == 1 else draw(st.integers(2, 3))
    seed = draw(st.integers(0, 50))
    spec = gs.random_compliant_graph(dim, n_vertices, gs.GraphGenConfig(R=12 * EPS, eps=EPS), seed=seed)
    spacing = EPS / draw(st.integers(3, 10))
    coords = gs.sample_graph(spec, gs.SampleSpec(eps=EPS, spacing=spacing, seed=seed)).coords
    rng = np.random.default_rng(seed)
    rotation = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
    offset = np.array(draw(st.lists(st.floats(-1e9, 1e9), min_size=dim, max_size=dim)))
    coords = coords @ rotation.T + offset
    coords = np.vstack([coords, coords[draw(st.lists(st.integers(0, len(coords) - 1), max_size=8))]])
    return gs.PointCloud(coords[rng.permutation(len(coords))])


class TestCliqueCells:
    @settings(max_examples=25)
    @given(cloud=dense_clouds(), ratios=st.lists(st.floats(1.5, 14.0), min_size=1, max_size=3), data=st.data())
    def test_dense_clouds_match_oracle(self, cloud, ratios, data):
        """Each config's labels are the oracle's at a draw of centres (the
        oracle scans the whole cloud per centre, so it checks a sample)."""
        configs = [ReconstructionConfig(R=ratio * EPS, eps=EPS) for ratio in ratios]
        centres = data.draw(st.lists(st.integers(0, len(cloud) - 1), min_size=1, max_size=20, unique=True))
        for labels, config in zip(classify_sweep(cloud, configs), configs):
            rows = label_rows(labels)
            assert [rows[i] for i in centres] == [classify_point(cloud, i, config) for i in centres]

    @pytest.mark.parametrize("reverse", [False, True])
    def test_only_contact_between_two_cells_leaves_the_ball(self, reverse):
        """Cells X = {x} and Y = {v, y} are joined by one contact pair, (x, v),
        and v lies outside the ball of the centre p. Inside that ball x and y
        are not in contact, so p's shell has two components, not one."""
        config = ReconstructionConfig(R=12 * EPS, eps=EPS)
        w = config.contact_scale / math.sqrt(2)  # grid cell width in the plane
        corner = np.array([-10.0, -10.0])  # the lowest point: the grid starts here
        x = corner + 50 * w + [0.01, 0.01]
        v = x + [w + 0.01, 0.0]
        y = x + [2 * w - 0.02, w - 0.02]
        # p on the bisector of x and y, 1.29 from both, on the side away from v
        chord = y - x
        normal = np.array([-chord[1], chord[0]]) / np.linalg.norm(chord)
        p = (x + y) / 2 + math.sqrt(1.29**2 - np.sum(chord**2) / 4) * normal
        points = {"p": p, "x": x, "v": v, "y": y, "corner": corner}
        names = sorted(points, reverse=reverse)  # both index orders of each pair
        cloud = gs.PointCloud(np.array([points[name] for name in names]))
        at = {name: names.index(name) for name in names}
        cell = local_structure._clique_cells(cloud, config.contact_scale).of
        assert cell[at["x"]] != cell[at["v"]] == cell[at["y"]]
        i, j = cloud.contact_pairs(config.contact_scale)
        pairs = {frozenset(pair) for pair in zip(i.tolist(), j.tolist())}
        assert pairs == {frozenset((at["x"], at["v"])), frozenset((at["v"], at["y"]))}
        d = np.sqrt(np.sum((cloud.coords - p) ** 2, axis=1))
        assert max(d[at["x"]], d[at["y"]]) <= config.ball_radius < d[at["v"]]
        labels = classify_all(cloud, config)
        assert labels.shell_components[at["p"]] == 2
        assert label_rows(labels) == [classify_point(cloud, k, config) for k in range(len(cloud))]

    def test_grid_cell_that_is_not_a_clique_splits(self):
        """The grid proposes a and b as one cell: dimension 0 spans 2**52 + 1
        cells, so the radix key of grid cell (4096, 0) wraps onto (0, 4096).
        They lie 1229 apart, so the exact clique check must split them; the
        ball of a holds two components."""
        config = ReconstructionConfig(R=1300.0, eps=EPS)
        w = config.contact_scale / math.sqrt(2)
        a, b, far = [4096.5 * w, 0.0], [0.0, 4096.5 * w], [1e15, 2048.5 * w]
        cloud = gs.PointCloud(np.array([a, b, far]))
        labels = classify_all(cloud, config)
        assert not labels.ball_connected[0]
        assert label_rows(labels) == [classify_point(cloud, k, config) for k in range(len(cloud))]


class TestExtremeScales:
    @pytest.mark.parametrize("eps, R", [(1e-320, 12e-320), (1e-300, 12e-300), (1e300, 12e300), (1e308, 1.5e308)])
    def test_labels_without_warnings(self, fixture_cloud, eps, R):
        """The grid neither overflows nor divides by zero: at eps = 1e-320 the
        cell side is subnormal, at 1e-300 the unit cloud spans about 1e300
        cells, and at eps = 1e308 the contact scale 3 eps is inf."""
        coords = fixture_cloud.coords[::4]
        cloud = gs.PointCloud(np.vstack([coords, coords[:3]]))
        config = ReconstructionConfig(R=R, eps=eps)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            labels = classify_all(cloud, config)
        assert label_rows(labels) == [classify_point(cloud, k, config) for k in range(len(cloud))]

    def test_partition_at_subnormal_eps(self, fixture_cloud, tmp_path):
        write_cloud(str(tmp_path / "cloud.txt"), fixture_cloud)
        argv = ["partition", "--input", str(tmp_path / "cloud.txt"), "--output", str(tmp_path / "labels.txt")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--eps", "1e-320", "--ratio", "12"]) == 0


def test_pipeline_builds_the_cells_once(fixture_spec, tmp_path, monkeypatch):
    cloud = gs.sample_graph(fixture_spec, gs.SampleSpec(eps=EPS, spacing=0.05, seed=0))
    calls = []
    real = local_structure._clique_cells

    def counted(cloud, r):
        calls.append(r)
        return real(cloud, r)

    monkeypatch.setattr(local_structure, "_clique_cells", counted)
    run_pipeline(cloud, tmp_path, "12,10,8,6", monkeypatch)
    assert calls == [ReconstructionConfig(R=12 * EPS, eps=EPS).contact_scale]
