from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphskel as gs
from graphskel.abstract_graph import (
    RefinedPartition,
    boundary_matrix,
    build_graph,
    cluster_p0,
    cluster_p1,
    match_to_ground_truth,
    recover_graph,
    refine,
)
from graphskel.fileio import graph_from_dict, graph_to_dict
from graphskel.geometry import PointCloud, contact_components, threshold_components
from graphskel.local_structure import partition


def segment_cloud(eps: float, length: float, dim: int = 2, seed: int = 0) -> tuple[gs.EmbeddedGraphSpec, gs.PointCloud]:
    verts = np.zeros((2, dim))
    verts[1, 0] = length
    spec = gs.EmbeddedGraphSpec(verts, ((0, 1),))
    cloud = gs.sample_graph(spec, gs.SampleSpec(eps=eps, seed=seed))
    return spec, cloud


class TestClusterStages:
    def test_fixture_ratio8_counts(self, fixture_cloud, ratio8_config):
        part = partition(fixture_cloud, ratio8_config)
        q0 = cluster_p0(fixture_cloud, part, ratio8_config)
        assert q0.num_components == 5
        q1 = cluster_p1(fixture_cloud, part, ratio8_config)
        refined = refine(fixture_cloud, q0, q1, ratio8_config)
        spanning = gs.geometry.threshold_components(
            fixture_cloud, refined.p1_tilde, ratio8_config.contact_scale
        )
        assert spanning.num_components == 5

    def test_fixture_ratio4_degrades(self, fixture_spec):
        # at ratio 4 the vertex-like set shrinks to a remnant and the edge
        # clusters merge through the junctions, so fewer than 5 survive; the
        # degraded geometry depends on the sample (the reference run saw the
        # vertex clusters merge instead)
        cloud = gs.sample_graph(fixture_spec, gs.SampleSpec(eps=0.1, seed=1))
        cfg = gs.ReconstructionConfig(R=0.4, eps=0.1)
        part = partition(cloud, cfg)
        assert part.p0.size < 40
        q1 = cluster_p1(cloud, part, cfg)
        assert q1.num_components < 5

    def test_single_segment(self):
        eps = 0.1
        cfg = gs.ReconstructionConfig(R=12 * eps, eps=eps)
        spec, cloud = segment_cloud(eps, length=8.0)
        part = partition(cloud, cfg)
        q0 = cluster_p0(cloud, part, cfg)
        assert q0.num_components == 2  # one cluster per endpoint
        q1 = cluster_p1(cloud, part, cfg)
        assert q1.num_components >= 1
        refined = refine(cloud, q0, q1, cfg)
        graph = build_graph(cloud, refined, cfg)
        assert (graph.n_vertices, graph.n_edges) == (2, 1)
        assert boundary_matrix(graph).tolist() == [[1], [1]]

    def test_empty_p1(self):
        # a cloud around a single isolated vertex has no edge-like points
        cfg = gs.ReconstructionConfig(R=1.2, eps=0.1)
        rng = np.random.default_rng(0)
        cloud = PointCloud(rng.uniform(-0.05, 0.05, size=(12, 2)))
        part = partition(cloud, cfg)
        assert part.p1.size == 0
        q1 = cluster_p1(cloud, part, cfg)
        assert q1.num_components == 0
        refined = refine(cloud, cluster_p0(cloud, part, cfg), q1, cfg)
        assert refined.moved.size == 0
        graph = build_graph(cloud, refined, cfg)
        assert (graph.n_vertices, graph.n_edges) == (1, 0)


class TestRefine:
    def test_stub_near_vertex_reabsorbed(self):
        # hand-built labelings: one vertex cluster and one tiny edge-like
        # cluster adjacent only to it must move to the vertex side
        eps = 0.1
        cfg = gs.ReconstructionConfig(R=12 * eps, eps=eps)
        pts = np.array([[0.0, 0.0], [0.1, 0.0], [0.3, 0.0], [5.0, 5.0], [5.2, 5.0]])
        cloud = PointCloud(pts)
        q0 = gs.geometry.threshold_components(cloud, [0, 1], cfg.vertex_cluster_scale)
        q1_stub = gs.geometry.threshold_components(cloud, [2], cfg.contact_scale)
        refined = refine(cloud, q0, q1_stub, cfg)
        assert refined.moved.tolist() == [2]
        assert refined.p1_tilde.size == 0
        assert sorted(refined.p0_tilde.tolist()) == [0, 1, 2]
        graph = build_graph(cloud, refined, cfg)
        assert np.flatnonzero(graph.moved).tolist() == [2]
        assert graph_to_dict(graph, {})["labels"] == {"p0_tilde": [0, 1, 2], "p1_tilde": [], "moved": [2]}

    def test_orphan_edge_cluster_raises(self):
        eps = 0.1
        cfg = gs.ReconstructionConfig(R=12 * eps, eps=eps)
        cloud = PointCloud(np.array([[0.0, 0.0], [50.0, 50.0]]))
        q0 = gs.geometry.threshold_components(cloud, [0], cfg.vertex_cluster_scale)
        q1 = gs.geometry.threshold_components(cloud, [1], cfg.contact_scale)
        with pytest.raises(gs.StructureError, match="orphan"):
            refine(cloud, q0, q1, cfg)

    def test_spanning_component_stays(self):
        eps = 0.1
        cfg = gs.ReconstructionConfig(R=12 * eps, eps=eps)
        _, cloud = segment_cloud(eps, length=8.0)
        part = partition(cloud, cfg)
        q0 = cluster_p0(cloud, part, cfg)
        q1 = cluster_p1(cloud, part, cfg)
        refined = refine(cloud, q0, q1, cfg)
        assert refined.p1_tilde.size > 0
        # moved components never touch two vertex clusters
        assert refined.p0_tilde.size + refined.p1_tilde.size == len(cloud)

    def test_no_p1_components_identity(self):
        cfg = gs.ReconstructionConfig(R=1.2, eps=0.1)
        cloud = PointCloud(np.array([[0.0, 0.0], [0.1, 0.0]]))
        q0 = gs.geometry.threshold_components(cloud, [0, 1], cfg.vertex_cluster_scale)
        q1 = gs.geometry.threshold_components(cloud, [], cfg.contact_scale)
        refined = refine(cloud, q0, q1, cfg)
        assert refined.p0_tilde.tolist() == [0, 1]
        assert refined.moved.size == 0


class TestKeptSides:
    """`build_graph` asks again for the labelings that `cluster_p0` and
    `cluster_p1` computed; the cloud hands them back only for the same side."""

    CFG = gs.ReconstructionConfig(R=1.2, eps=0.1)

    @pytest.fixture
    def cloud(self, fixture_spec):
        return gs.sample_graph(fixture_spec, gs.SampleSpec(eps=0.1, seed=1))  # a fresh cloud keeps nothing yet

    def test_recover_graph_leaves_both_refined_sides_kept(self, cloud, computed_labelings):
        graph = recover_graph(cloud, self.CFG)
        p0_tilde = np.flatnonzero((graph.stratum >= 0) & (graph.stratum < graph.n_vertices))
        p1_tilde = np.flatnonzero(graph.stratum >= graph.n_vertices)
        sides = (
            (threshold_components, p0_tilde, self.CFG.vertex_cluster_scale),
            (contact_components, p1_tilde, self.CFG.contact_scale),
        )
        count = len(computed_labelings)
        kept = [components(cloud, side, r) for components, side, r in sides]
        assert len(computed_labelings) == count
        fresh = PointCloud(cloud.coords)
        for labeling, (components, side, r) in zip(kept, sides):
            want = components(fresh, side, r)
            assert np.array_equal(labeling.indices, want.indices) and np.array_equal(labeling.labels, want.labels)
            assert labeling.num_components == want.num_components
            assert not (labeling.indices.flags.writeable or labeling.labels.flags.writeable)

    def test_refine_moving_a_point_reclusters_the_vertex_side(self, computed_labelings):
        cloud = PointCloud(np.array([[0.0, 0.0], [0.1, 0.0], [0.3, 0.0], [5.0, 5.0], [5.2, 5.0]]))
        q0 = threshold_components(cloud, [0, 1], self.CFG.vertex_cluster_scale)
        q1 = threshold_components(cloud, [2], self.CFG.contact_scale)
        graph = build_graph(cloud, refine(cloud, q0, q1, self.CFG), self.CFG)
        assert computed_labelings == [2, 1, 3, 0]  # P0, the stub, P0 with the stub, and the empty edge side
        assert graph.stratum.tolist() == [0, 0, 0, -1, -1]
        assert graph.vertex_centroids.tolist() == [[0.4 / 3, 0.0]]

    @pytest.mark.parametrize("hand", ["as-partitioned", "one-moved", "one-left-out"])
    def test_hand_built_partition_reads_no_stale_labeling(self, cloud, hand):
        recover_graph(cloud, self.CFG)  # keeps a labeling of each refined side
        part = partition(cloud, self.CFG)
        p0, p1 = part.p0, part.p1
        refined = {
            "as-partitioned": RefinedPartition(p0, p1, p1[:0]),
            "one-moved": RefinedPartition(np.sort(np.r_[p0, p1[:1]]), p1[1:], p1[:1]),
            "one-left-out": RefinedPartition(p0[1:], p1, p1[:0]),
        }[hand]

        def outcome(c):
            try:
                g = build_graph(c, refined, self.CFG)
            except gs.StructureError as exc:
                return str(exc)
            return g.stratum.tolist(), g.moved.tolist(), g.boundary.tolist(), g.vertex_centroids.tobytes()

        assert outcome(cloud) == outcome(PointCloud(cloud.coords))


class TestBuildGraph:
    def test_fixture_boundary_matches_truth(self, fixture_spec):
        for ratio in (6, 8, 10, 12):
            cloud = gs.sample_graph(fixture_spec, gs.SampleSpec(eps=0.1, seed=2))
            cfg = gs.ReconstructionConfig(R=ratio * 0.1, eps=0.1)
            graph = recover_graph(cloud, cfg)
            assert (graph.n_vertices, graph.n_edges) == (5, 5)
            match = match_to_ground_truth(graph, fixture_spec)
            assert match.is_isomorphic, f"ratio {ratio}: {match.reason}"

    def test_triangle_graph(self):
        eps = 0.05
        R = 12 * eps
        # equilateral-ish triangle scaled to satisfy the separation bound
        side = (4.5 * R + 6 * eps) * 1.6
        verts = np.array([[0.0, 0.0], [side, 0.0], [side / 2, side * 0.9]])
        spec = gs.EmbeddedGraphSpec(verts, ((0, 1), (1, 2), (0, 2)))
        cfg = gs.ReconstructionConfig(R=R, eps=eps)
        assert gs.check_assumptions(spec, cfg).all_passed
        cloud = gs.sample_graph(spec, gs.SampleSpec(eps=eps, seed=3))
        graph = recover_graph(cloud, cfg)
        match = match_to_ground_truth(graph, spec)
        assert match.is_isomorphic
        b = boundary_matrix(graph)
        assert b.shape == (3, 3)
        assert np.all(b.sum(axis=0) == 2)
        assert sorted(b.sum(axis=1).tolist()) == [2, 2, 2]

    def test_path_graph_boundary_matrix(self):
        eps = 0.05
        R = 12 * eps
        gap = (4.5 * R + 6 * eps) * 1.3
        verts = np.array([[0.0, 0.0], [gap, 0.0], [gap, gap]])
        spec = gs.EmbeddedGraphSpec(verts, ((0, 1), (1, 2)))
        cfg = gs.ReconstructionConfig(R=R, eps=eps)
        cloud = gs.sample_graph(spec, gs.SampleSpec(eps=eps, seed=4))
        graph = recover_graph(cloud, cfg)
        match = match_to_ground_truth(graph, spec)
        assert match.is_isomorphic
        b = boundary_matrix(graph)
        assert b.shape == (3, 2)
        assert np.all(b.sum(axis=0) == 2)
        assert sorted(b.sum(axis=1).tolist()) == [1, 1, 2]


    def test_point_in_no_cluster(self, fixture_cloud, ratio8_config, ratio8_recovery):
        graph = ratio8_recovery
        p0, p1 = np.flatnonzero(graph.stratum < graph.n_vertices), np.flatnonzero(graph.stratum >= graph.n_vertices)
        left_out = p1[-1]
        partial = RefinedPartition(p0, p1[:-1], np.flatnonzero(graph.moved))
        g = build_graph(fixture_cloud, partial, ratio8_config)
        assert g.stratum[left_out] == -1
        want = [m[m != left_out].tolist() for m in graph.members()]
        assert [m.tolist() for m in g.members()] == want
        with pytest.raises(ValueError, match="stratum id"):
            gs.initialize(g, fixture_cloud, sigma=0.05)


class TestMatchToGroundTruth:
    def test_self_match(self, ratio8_recovery):
        graph = ratio8_recovery

        class _Self:
            vertices = np.array(graph.vertex_centroids)
            edges = tuple(graph.boundary)
            n_vertices = graph.n_vertices
            n_edges = graph.n_edges

        match = match_to_ground_truth(graph, _Self())
        assert match.is_isomorphic
        assert match.vertex_map == list(range(graph.n_vertices))
        assert max(match.vertex_errors) == 0.0

    def test_ratio4_reports_mismatch(self, fixture_spec):
        cloud = gs.sample_graph(fixture_spec, gs.SampleSpec(eps=0.1, seed=1))
        cfg = gs.ReconstructionConfig(R=0.4, eps=0.1)
        try:
            graph = recover_graph(cloud, cfg)
        except gs.StructureError:
            return  # degraded run ends in a structural error: acceptable "No"
        match = match_to_ground_truth(graph, fixture_spec)
        assert not match.is_isomorphic

    def test_wrong_counts_not_an_exception(self, ratio8_recovery, fixture_spec):
        graph = ratio8_recovery

        class _Extra:
            vertices = np.vstack([fixture_spec.vertices, [[100.0, 100.0, 100.0]]])
            edges = fixture_spec.edges
            n_vertices = fixture_spec.n_vertices + 1
            n_edges = fixture_spec.n_edges

        match = match_to_ground_truth(graph, _Extra())
        assert not match.is_isomorphic
        assert "count" in match.reason


class TestPipelineDeterminism:
    def test_identical_inputs_identical_graphs(self, fixture_cloud, ratio8_config):
        g1 = recover_graph(fixture_cloud, ratio8_config)
        g2 = recover_graph(fixture_cloud, ratio8_config)
        assert np.array_equal(g1.stratum, g2.stratum)
        assert np.array_equal(g1.boundary, g2.boundary)
        assert np.array_equal(g1.vertex_centroids, g2.vertex_centroids)


class TestTheoremRoundTrip:
    def test_random_graphs_recover_isomorphic_structure(self):
        """20 random compliant graphs x 5 seeds: counts and boundary match."""
        eps, R = 0.05, 0.6
        gen = gs.GraphGenConfig(R=R, eps=eps)
        rcfg = gs.ReconstructionConfig(R=R, eps=eps)
        far_zone = (3 * R + eps) / 2
        checked = 0
        for g_idx in range(20):
            dim = 2 if g_idx % 2 == 0 else 3
            n_vertices = 3 + (g_idx % 2)
            spec = gs.random_compliant_graph(dim, n_vertices, gen, seed=100 + g_idx)
            for seed in range(5):
                cloud = gs.sample_graph(spec, gs.SampleSpec(eps=eps, seed=seed))
                graph = recover_graph(cloud, rcfg)
                match = match_to_ground_truth(graph, spec)
                assert match.is_isomorphic, (
                    f"graph {g_idx} seed {seed}: {match.reason}"
                )
                b = boundary_matrix(graph)
                assert np.all(b.sum(axis=0) == 2)
                strata = graph.members()
                # every vertex cluster lies within (3R + eps)/2 of its vertex
                for cid, members in enumerate(strata[: graph.n_vertices]):
                    tv = spec.vertices[match.vertex_map[cid]]
                    d = np.linalg.norm(cloud.coords[members] - tv, axis=1)
                    assert d.max() <= far_zone + 1e-9
                # every edge cluster holds a point within eps of its midpoint
                for eid, members in enumerate(strata[graph.n_vertices :]):
                    a, b_ = spec.edges[match.edge_map[eid]]
                    mid = 0.5 * (spec.vertices[a] + spec.vertices[b_])
                    d = np.linalg.norm(cloud.coords[members] - mid, axis=1)
                    assert d.min() <= eps + 1e-9
                checked += 1
        assert checked == 100


class TestRecoverGraphInvariance:
    """The recovered structure does not depend on point order or placement."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_point_order(self, fixture_cloud, ratio8_config, ratio8_recovery, seed):
        base = ratio8_recovery
        perm = np.random.default_rng(seed).permutation(len(fixture_cloud))
        graph = recover_graph(PointCloud(fixture_cloud.coords[perm]), ratio8_config)

        def structure(g, index):
            """Vertex clusters as point sets, and each edge cluster's point set
            mapped to the point sets of its two boundary vertex clusters."""
            strata = g.members()
            vertices = [frozenset(index[c].tolist()) for c in strata[: g.n_vertices]]
            edges = {
                frozenset(index[c].tolist()): frozenset((vertices[i], vertices[j]))
                for c, (i, j) in zip(strata[g.n_vertices :], g.boundary.tolist())
            }
            return sorted(vertices, key=min), edges

        # perm maps each index of the permuted cloud back to the original one
        assert structure(graph, perm) == structure(base, np.arange(len(fixture_cloud)))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_rigid_motion(self, fixture_spec, fixture_cloud, ratio8_config, seed):
        rng = np.random.default_rng(seed)
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        q *= np.sign(np.diag(r))  # a uniformly random orthogonal matrix
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]  # a rotation, not a reflection
        shift = rng.uniform(-10.0, 10.0, size=3)
        graph = recover_graph(PointCloud(fixture_cloud.coords @ q.T + shift), ratio8_config)
        moved = gs.EmbeddedGraphSpec(fixture_spec.vertices @ q.T + shift, fixture_spec.edges)
        match = match_to_ground_truth(graph, moved)
        assert match.is_isomorphic, match.reason

    @settings(max_examples=25)
    @given(k=st.integers(-3, 3))
    def test_uniform_scaling(self, fixture_cloud, ratio8_config, ratio8_recovery, k):
        """Scaling (cloud, R, eps) by 2^k is exact in floats, so every label
        and the recovered structure stay the same; inner products scale by 4^k."""
        base = ratio8_recovery
        scale = 2.0**k
        cloud = PointCloud(fixture_cloud.coords * scale)
        config = gs.ReconstructionConfig(R=ratio8_config.R * scale, eps=ratio8_config.eps * scale)
        want = gs.classify_all(fixture_cloud, ratio8_config)
        got = gs.classify_all(cloud, config)
        for name in ("vertex_like", "ball_connected", "shell_components"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert np.array_equal(got.inner_product, want.inner_product * scale**2, equal_nan=True)
        graph = recover_graph(cloud, config)
        assert np.array_equal(graph.stratum, base.stratum)
        assert np.array_equal(graph.boundary, base.boundary)


class TestGraphDocument:
    @pytest.mark.parametrize("recovery", ["ratio8_recovery", "twelve_vertex_5d_recovery"])
    def test_round_trip(self, request, recovery):
        graph = request.getfixturevalue(recovery)
        back, config = graph_from_dict(graph_to_dict(graph, {"eps": 0.1}), graph.cloud)
        assert config == {"eps": 0.1}
        assert np.array_equal(back.stratum, graph.stratum)
        assert np.array_equal(back.moved, graph.moved)
        assert np.array_equal(back.boundary, graph.boundary)
        assert np.array_equal(back.vertex_centroids, graph.vertex_centroids)

    def test_labels_are_the_refined_partition(self, fixture_cloud, ratio8_config, ratio8_recovery):
        part = partition(fixture_cloud, ratio8_config)
        q0, q1 = cluster_p0(fixture_cloud, part, ratio8_config), cluster_p1(fixture_cloud, part, ratio8_config)
        refined = refine(fixture_cloud, q0, q1, ratio8_config)
        labels = graph_to_dict(ratio8_recovery, {})["labels"]
        for name in ("p0_tilde", "p1_tilde", "moved"):
            assert labels[name] == getattr(refined, name).tolist(), name
