"""One stage-1 pass for several ratios.

`classify_sweep` labels the cloud at every config of a sweep from one ball
query at the largest radius; each config's labels must be exactly those of a
separate `classify_all`, and `pipeline`, which hands each ratio its labels,
must recover the same graph as `recover_graph` run alone.
"""
from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphskel as gs
from graphskel import cli, local_structure
from graphskel.cli import main
from graphskel.fileio import write_cloud
from graphskel.local_structure import ReconstructionConfig, classify_all, classify_sweep
from oracles import classify_point, label_rows

EPS = 0.1


def compliant_cloud(dim: int, n_vertices: int, seed: int) -> gs.PointCloud:
    spec = gs.random_compliant_graph(dim, n_vertices, gs.GraphGenConfig(R=12 * EPS, eps=EPS), seed=seed)
    return gs.sample_graph(spec, gs.SampleSpec(eps=EPS, spacing=EPS, seed=seed))


@st.composite
def clouds(draw):
    """The fixture, or a random compliant graph in dims 1-5 (one edge in 1-D)."""
    if draw(st.booleans()):
        return gs.sample_graph(gs.builtin_fixture(), gs.SampleSpec(eps=EPS, seed=draw(st.integers(0, 3))))
    dim = draw(st.integers(1, 5))
    n_vertices = 2 if dim == 1 else draw(st.integers(2, 4))
    return compliant_cloud(dim, n_vertices, draw(st.integers(0, 20)))


# any order, repeats allowed
ratio_sets = st.lists(
    st.one_of(st.sampled_from([3.0, 6.0, 8.0, 10.0, 12.0]), st.floats(1.5, 14.0)), min_size=1, max_size=5
)


class TestClassifySweep:
    @settings(max_examples=100)
    @given(cloud=clouds(), ratios=ratio_sets)
    def test_matches_classify_all_per_config(self, cloud, ratios):
        configs = [ReconstructionConfig(R=ratio * EPS, eps=EPS) for ratio in ratios]
        sweep = classify_sweep(cloud, configs)
        assert len(sweep) == len(configs)
        for labels, config in zip(sweep, configs):
            alone = classify_all(gs.PointCloud(cloud.coords), config)
            for got, want in zip(labels, alone):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want, equal_nan=True)

    def test_axis_ties_at_every_ratio(self):
        """Points on the axes at exactly R + eps and R - eps of every ratio and
        at 3 eps from a duplicated origin: each smaller ball keeps its boundary."""
        configs = [ReconstructionConfig(R=ratio * EPS, eps=EPS) for ratio in (12.0, 10.0, 8.0, 6.0, 8.0)]
        radii = {EPS * 3, *(c.ball_radius for c in configs), *(c.shell_inner for c in configs)}
        rows = [np.zeros(3), np.zeros(3)]
        for axis in range(3):
            for r in sorted(radii):
                rows += [r * np.eye(3)[axis], -r * np.eye(3)[axis]]
        cloud = gs.PointCloud(np.array(rows))
        for labels, config in zip(classify_sweep(cloud, configs), configs):
            assert label_rows(labels) == [classify_point(cloud, i, config) for i in range(len(cloud))]

    def test_rejects_no_configs(self, fixture_cloud):
        with pytest.raises(ValueError, match="eps"):
            classify_sweep(fixture_cloud, [])

    def test_rejects_mixed_eps(self, fixture_cloud):
        configs = [ReconstructionConfig(R=1.2, eps=EPS), ReconstructionConfig(R=1.2, eps=EPS / 2)]
        with pytest.raises(ValueError, match="eps"):
            classify_sweep(fixture_cloud, configs)


def run_pipeline(cloud: gs.PointCloud, path, ratios: str, monkeypatch):
    """The pipeline report on `cloud`, and each (config, graph) it recovered."""
    recovered = []

    def spy(cloud, config, labels=None):
        graph = gs.recover_graph(cloud, config, labels)
        recovered.append((config, graph))
        return graph

    monkeypatch.setattr(cli, "recover_graph", spy)
    write_cloud(str(path / "cloud.txt"), cloud)
    out = path / "report.json"
    argv = ["pipeline", "--input", str(path / "cloud.txt"), "--output", str(out), "--eps", str(EPS)]
    assert main([*argv, "--ratios", ratios, "--max-iters", "3"]) == 0
    return json.loads(out.read_text()), recovered


@pytest.mark.parametrize("case", ["fixture", "3d-4-vertex", "5d-3-vertex"])
def test_pipeline_graphs_match_recover_graph_alone(case, tmp_path, monkeypatch):
    cloud = {
        "fixture": lambda: gs.sample_graph(gs.builtin_fixture(), gs.SampleSpec(eps=EPS, seed=1)),
        "3d-4-vertex": lambda: compliant_cloud(3, 4, 0),
        "5d-3-vertex": lambda: compliant_cloud(5, 3, 1),
    }[case]()
    doc, recovered = run_pipeline(cloud, tmp_path, "12,10,8,6", monkeypatch)
    assert [round(config.ratio, 9) for config, _ in recovered] == [12, 10, 8, 6]
    for row, (config, graph) in zip(doc["rows"], recovered):
        alone = gs.recover_graph(gs.PointCloud(graph.cloud.coords), config)
        assert np.array_equal(graph.stratum, alone.stratum)
        assert np.array_equal(graph.boundary, alone.boundary)
        assert np.array_equal(graph.vertex_centroids, alone.vertex_centroids)
        assert (row["n_vertices"], row["n_edges"]) == (alone.n_vertices, alone.n_edges)
    assert any(row["structure_match"] for row in doc["rows"][1:])


def test_pipeline_queries_balls_once_at_the_largest_radius(fixture_spec, tmp_path, monkeypatch):
    """pipeline-sweep's cloud needs four chunks at ratio 12: each centre's
    cells are queried once, at R + eps of the largest ratio, whatever the
    ratio count."""
    cloud = gs.sample_graph(fixture_spec, gs.SampleSpec(eps=EPS, spacing=0.05, seed=0))
    calls = []
    real = local_structure._query_cells

    def counted(cells, coords, centres, r):
        calls.append((r, centres))
        return real(cells, coords, centres, r)

    monkeypatch.setattr(local_structure, "_query_cells", counted)
    doc, _ = run_pipeline(cloud, tmp_path, "12,10,8,6", monkeypatch)
    assert all(row["structure_match"] for row in doc["rows"])
    assert len(calls) > 1
    assert {r for r, _ in calls} == {ReconstructionConfig(R=12 * EPS, eps=EPS).ball_radius}
    assert np.array_equal(np.concatenate([centres for _, centres in calls]), np.arange(len(cloud)))
