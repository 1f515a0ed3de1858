from __future__ import annotations

import hashlib
import math
import re

import numpy as np
import pytest

import graphskel as gs
from graphskel.geometry import point_segment_distance
from graphskel.local_structure import _edge_pairs
from graphskel.synthetic import (
    EmbeddedGraphSpec,
    GraphGenConfig,
    HausdorffReport,
    SampleSpec,
    _edge_points,
    builtin_fixture,
    hausdorff_check,
    random_compliant_graph,
    sample_graph,
)
from oracles import assumption_rows, embedding_fault, graph_discretization, sample_loop


class TestEmbeddedGraphSpec:
    def test_builtin_fixture_values(self):
        spec = builtin_fixture()
        assert spec.vertices[1].tolist() == [4.6, 6.24, 0.0]
        assert spec.n_edges == 5
        degs = sorted(spec.degrees.tolist(), reverse=True)
        assert degs == [3, 2, 2, 2, 1]

    def test_rejects_duplicate_vertices(self):
        with pytest.raises(ValueError):
            EmbeddedGraphSpec(np.array([[0.0, 0.0], [0.0, 0.0]]), ((0, 1),))

    def test_rejects_self_loop_and_duplicates(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            EmbeddedGraphSpec(verts, ((0, 0),))
        with pytest.raises(ValueError):
            EmbeddedGraphSpec(verts, ((0, 1), (1, 0)))

    def test_rejects_crossing_edges(self):
        verts = np.array([[0.0, -1.0], [0.0, 1.0], [-1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="intersect"):
            EmbeddedGraphSpec(verts, ((0, 1), (2, 3)))

    def test_rejects_overlapping_adjacent_edges(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="overlap"):
            EmbeddedGraphSpec(verts, ((0, 1), (0, 2)))

    def test_isolated_vertices_listed(self):
        verts = np.array([[0.0, 0.0], [10.0, 0.0], [5.0, 8.0]])
        spec = EmbeddedGraphSpec(verts, ((0, 1),))
        assert np.flatnonzero(spec.degrees == 0).tolist() == [2]


def random_embeddings(count: int, seed: int):
    """(vertices, edges) of `count` random graphs in dims 1-4, every third on a
    small integer lattice, where coincident vertices, collinear and crossing
    edges and ties between pairs are common."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        n, dim = int(rng.integers(2, 9)), int(rng.integers(1, 5))
        vertices = rng.integers(-2, 3, size=(n, dim)).astype(float) if trial % 3 == 0 else rng.normal(size=(n, dim))
        pairs = np.column_stack(np.triu_indices(n, 1))
        edges = pairs[rng.permutation(len(pairs))[: rng.integers(0, len(pairs) + 1)]]
        flip = rng.random(len(edges)) < 0.5
        edges[flip] = edges[flip, ::-1]
        yield vertices, tuple(map(tuple, edges.tolist()))


class TestEmbeddingMeasures:
    """The array measures against nested loops (`oracles`), which meet the witnesses in a fixed order."""

    def test_spec_faults_match_loops(self):
        faults = 0
        for vertices, edges in random_embeddings(600, seed=11):
            fault = embedding_fault(vertices, edges)
            if fault is None:
                EmbeddedGraphSpec(vertices, edges)
            else:
                faults += 1
                with pytest.raises(ValueError, match=f"^{re.escape(fault)}$"):
                    EmbeddedGraphSpec(vertices, edges)
        assert 100 < faults < 500

    def test_check_assumptions_matches_loops(self):
        failed = set()
        for vertices, edges in random_embeddings(300, seed=12):
            if embedding_fault(vertices, edges) is not None:
                continue
            spec = EmbeddedGraphSpec(vertices, edges)
            for R, eps in ((1.2, 0.1), (0.3, 0.02), (0.05, 0.01), (0.25, 0.1)):
                config = gs.ReconstructionConfig(R, eps)
                report = gs.check_assumptions(spec, config)
                for check, (name, passed, margin, witness) in zip(report.conditions, assumption_rows(spec, config)):
                    assert (check.name, check.passed, check.witness) == (name, passed, witness)
                    assert type(check.passed) is bool and check.margin == pytest.approx(margin, rel=1e-12)
                    if not passed:
                        failed.add(name)
        assert len(failed) == 5  # every condition's witness was compared

    def test_first_row_matches_all_pairs(self):
        """The generator measures only its candidate, edge 0: the pairs (0, l)
        of the measure over every pair, bit for bit and in the same order."""
        measured = 0
        for vertices, edges in random_embeddings(300, seed=13):
            if not edges or embedding_fault(vertices, edges) is not None:
                continue
            ends = np.array(edges)
            (k, l, dist), (apex, a, b, cos) = _edge_pairs(vertices, ends)
            (k0, l0, dist0), corners = _edge_pairs(vertices, ends, first=True)
            row = k == 0
            assert np.all(k0 == 0) and np.array_equal(l0, l[row]) and np.array_equal(dist0, dist[row])
            row = np.all(np.sort(np.column_stack([apex, a]), axis=1) == np.sort(ends[0]), axis=1)  # k is edge 0
            for got, want in zip(corners, (apex, a, b, cos)):
                assert np.array_equal(got, want[row])
            measured += len(l0) + len(corners[0])
        assert measured > 100


class TestSampleSpec:
    def test_defaults(self):
        s = SampleSpec(eps=0.2)
        assert s.spacing == 0.2
        assert s.noise == 0.1

    def test_rejects_hausdorff_violation(self):
        with pytest.raises(ValueError, match="Hausdorff"):
            SampleSpec(eps=0.1, spacing=0.15, noise=0.06)

    def test_rejects_noise_above_eps(self):
        with pytest.raises(ValueError):
            SampleSpec(eps=0.1, spacing=0.01, noise=0.2)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None])
    def test_rejects_seed_that_is_not_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match="^seed must be a non-negative integer"):
            SampleSpec(eps=0.1, seed=seed)

    def test_accepts_numpy_integer_seed(self):
        assert SampleSpec(eps=0.1, seed=np.int64(3)).seed == 3

    @pytest.mark.parametrize("field", ["eps", "spacing", "noise"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            SampleSpec(**{"eps": 0.1, field: value})


class TestSampleGraph:
    def test_noiseless_points_on_graph(self):
        spec = builtin_fixture()
        s = SampleSpec(eps=0.1, spacing=0.1, noise=0.0, seed=0)
        cloud = sample_graph(spec, s)
        for x in cloud.coords:
            d = min(
                point_segment_distance(x, spec.vertices[a], spec.vertices[b])
                for (a, b) in spec.edges
            )
            assert d <= 1e-12
        rep = hausdorff_check(cloud, spec, 0.1)
        assert rep.passed
        assert rep.tolerance - rep.measured >= 0.05  # margin >= eps/2

    def test_unit_segment_counting(self):
        spec = EmbeddedGraphSpec(np.array([[0.0, 0.0], [1.0, 0.0]]), ((0, 1),))
        cloud = sample_graph(spec, SampleSpec(eps=0.5, spacing=0.5, noise=0.0))
        assert len(cloud) == 3
        assert sorted(cloud.coords[:, 0].tolist()) == [0.0, 0.5, 1.0]

    def test_spacing_past_intp_is_named(self):
        with pytest.raises(ValueError, match="^spacing 1e-300 asks for .* points on the graph"):
            sample_graph(builtin_fixture(), SampleSpec(eps=0.1, spacing=1e-300))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_spacing_past_largest_double_is_named(self):
        # every edge's count overflows to inf: the refusal, not a RuntimeWarning
        with pytest.raises(ValueError, match="^spacing 1e-310 asks for inf points"):
            sample_graph(builtin_fixture(), SampleSpec(eps=0.1, spacing=1e-310))

    def test_isolated_vertex_sampled(self):
        verts = np.array([[0.0, 0.0], [10.0, 0.0], [5.0, 8.0]])
        spec = EmbeddedGraphSpec(verts, ((0, 1),))
        cloud = sample_graph(spec, SampleSpec(eps=0.1, seed=3))
        d = np.linalg.norm(cloud.coords - verts[2], axis=1).min()
        assert d <= 0.05 + 1e-12

    def test_seed_determinism(self):
        spec = builtin_fixture()
        c1 = sample_graph(spec, SampleSpec(eps=0.1, seed=42))
        c2 = sample_graph(spec, SampleSpec(eps=0.1, seed=42))
        assert np.array_equal(c1.coords, c2.coords)
        c3 = sample_graph(spec, SampleSpec(eps=0.1, seed=43))
        assert not np.array_equal(c1.coords, c3.coords)

    def test_gaussian_noise_respects_bound(self):
        spec = builtin_fixture()
        s = SampleSpec(eps=0.1, noise_kind="gaussian", seed=5)
        cloud = sample_graph(spec, s)
        rep = hausdorff_check(cloud, spec, 0.1)
        assert rep.passed

    def test_default_spec_passes_hausdorff(self):
        spec = builtin_fixture()
        for seed in range(20):
            cloud = sample_graph(spec, SampleSpec(eps=0.1, seed=seed))
            assert hausdorff_check(cloud, spec, 0.1).passed


class TestHausdorffCheck:
    def test_exact_discretization(self):
        spec = builtin_fixture()
        grid = graph_discretization(spec, 0.1 / 100)
        cloud = gs.PointCloud(grid[:: 7])  # subsample still within resolution*7
        rep = hausdorff_check(cloud, spec, 0.1)
        assert rep.measured <= 0.01

    def test_discretization_past_memory_is_named(self):
        spec = EmbeddedGraphSpec(np.array([[0.0, 0.0], [1e15, 0.0]]), ((0, 1),))
        with pytest.raises(ValueError, match="^eps 0.1 asks for 1e\\+18 points"):
            hausdorff_check(gs.PointCloud([[0.0, 0.0]]), spec, 0.1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("eps", [1e-308, 1e-322])  # eps/100 subnormal, and eps/100 rounded to 0
    def test_grid_past_largest_double_is_named(self, eps):
        with pytest.raises(ValueError, match=f"^eps {eps:g} asks for inf points"):
            hausdorff_check(gs.PointCloud([[0.0, 0.0, 0.0]]), builtin_fixture(), eps)

    def test_planted_violation_detected(self):
        spec = builtin_fixture()
        eps = 0.1
        grid = graph_discretization(spec, eps / 2)
        # displace perpendicular to one edge at its midpoint; every other edge
        # is several units away there, so the offset is the true graph distance
        a, b = spec.edges[0]
        mid = 0.5 * (spec.vertices[a] + spec.vertices[b])
        d = spec.vertices[b] - spec.vertices[a]
        perp = np.cross(d, np.array([1.0, 0.0, 0.0]))
        perp /= np.linalg.norm(perp)
        outlier = mid + 2 * eps * perp
        cloud = gs.PointCloud(np.vstack([grid, outlier[None, :]]))
        rep = hausdorff_check(cloud, spec, eps)
        assert not rep.passed
        assert rep.measured >= 2 * eps - rep.resolution


def random_samples(count: int, seed: int):
    """(spec, SampleSpec) pairs over `random_embeddings`' valid graphs, with
    isolated vertices, uniform and gaussian noise and noise 0."""
    rng = np.random.default_rng(seed)
    for vertices, edges in random_embeddings(count, seed):
        if embedding_fault(vertices, edges) is not None:
            continue
        eps = float(rng.uniform(0.1, 0.5))
        spacing = eps * float(rng.uniform(0.2, 1.0))
        noise = 0.0 if rng.random() < 0.3 else (eps - spacing / 2) * float(rng.random())
        kind = "gaussian" if rng.random() < 0.5 else "uniform"
        yield EmbeddedGraphSpec(vertices, edges), SampleSpec(eps, spacing, noise, int(rng.integers(1 << 20)), kind)


class TestOneDiscretization:
    """`sample_graph` and `hausdorff_check` walk the graph with one helper;
    the per-edge sampler loop and the grid of their own (`oracles`) pin its bits."""

    def test_samples_match_per_edge_loop(self):
        seen = {"isolated": 0, "gaussian": 0, "noiseless": 0}
        for spec, sample in random_samples(120, seed=21):
            assert np.array_equal(sample_graph(spec, sample).coords, sample_loop(spec, sample))
            seen["isolated"] += bool(np.any(spec.degrees == 0))
            seen["gaussian"] += sample.noise_kind == "gaussian" and sample.noise > 0
            seen["noiseless"] += sample.noise == 0
        assert min(seen.values()) >= 5

    def test_hausdorff_grid_matches_discretization(self):
        checked = 0
        for spec, sample in random_samples(60, seed=22):
            eps, resolution = sample.eps, sample.eps / 100
            edges, isolated = _edge_points(spec, resolution, "eps")
            grid = graph_discretization(spec, resolution)
            assert np.array_equal(np.vstack(edges + [spec.vertices[isolated]]), grid)
            # the report from the oracle grid and a minimum over every edge and isolated vertex
            cloud = sample_graph(spec, sample)
            to_graph = [point_segment_distance(cloud.coords, spec.vertices[a], spec.vertices[b]) for a, b in spec.edges]
            to_graph += [np.linalg.norm(cloud.coords - spec.vertices[v], axis=1) for v in isolated]
            measured = max(float(cloud.tree.query(grid, k=1)[0].max()), float(np.min(to_graph, axis=0).max()))
            want = HausdorffReport(measured <= eps + resolution, measured, eps + resolution, resolution)
            assert hausdorff_check(cloud, spec, eps) == want
            checked += 1
        assert checked >= 20

    def test_degrees_count_each_edge_end(self):
        for vertices, edges in random_embeddings(100, seed=23):
            if embedding_fault(vertices, edges) is not None:
                continue
            want = [sum(v in edge for edge in edges) for v in range(len(vertices))]
            assert EmbeddedGraphSpec(vertices, edges).degrees.tolist() == want


class TestRandomCompliantGraph:
    def test_always_compliant(self):
        cfg = GraphGenConfig(R=0.6, eps=0.05)
        for seed in range(25):
            dim = 2 if seed % 2 == 0 else 3
            spec = random_compliant_graph(dim, 3, cfg, seed=seed)
            assert gs.check_assumptions(spec, cfg.reconstruction).all_passed

    def test_benchmark_graph_is_pinned(self):
        # the input of the benchmark's graph-fit-5d workload, which a change to the generator would change
        spec = random_compliant_graph(5, 12, GraphGenConfig(R=1.2, eps=0.1), seed=0)
        assert spec.edges == (
            (2, 8), (3, 10), (0, 5), (3, 8), (4, 7), (6, 10), (6, 8), (7, 11), (6, 11), (6, 9), (4, 5), (1, 3), (2, 9)
        )
        assert hashlib.sha256(spec.vertices.tobytes()).hexdigest() == (
            "7ab9748c2325ca6777b6d3ec4eec8ce3ceb05d0a906f9d28957178c21a719169"
        )

    def test_two_vertices_one_edge(self):
        cfg = GraphGenConfig(R=0.6, eps=0.05, n_edges=1)
        spec = random_compliant_graph(2, 2, cfg, seed=1)
        assert spec.n_vertices == 2 and spec.n_edges == 1

    def test_minimum_vertices(self):
        cfg = GraphGenConfig(R=0.6, eps=0.05)
        with pytest.raises(ValueError):
            random_compliant_graph(2, 1, cfg, seed=0)

    def test_retry_budget_error(self):
        cfg = GraphGenConfig(R=0.6, eps=0.05, max_attempts=1, n_edges=6)
        with pytest.raises(gs.GenerationError):
            # 12 vertices with 6 mutual edges in a cramped budget cannot appear
            # in one attempt; the error names the budget
            random_compliant_graph(2, 12, cfg, seed=0)
