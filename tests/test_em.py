from __future__ import annotations

import math
import warnings
from dataclasses import fields, replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

import graphskel as gs
from graphskel.densities import edge_log_density, vertex_log_density
from graphskel.em import (
    ARMIJO,
    CONSECUTIVE,
    M_STEP_ITERS,
    SLOPE_TOL,
    STEP_FLOOR,
    UNDERFLOW_GAP,
    EmConfig,
    EmState,
    StrataModel,
    em_fit,
    initialize,
    m_step,
)
from graphskel.em import (
    _curvature_blocks,
    _e_step,
    _logits,
    _mixing,
    _normalize_rows,
    _Pairs,
    _pricer,
)
from graphskel.fileio import graph_from_dict, graph_to_dict
from graphskel.geometry import PointCloud
from oracles import (
    all_pairs,
    dense_evaluation,
    grad_vertices,
    log_likelihood,
    marginal_log_likelihood,
    responsibilities,
)

mp.mp.dps = 50


def small_model(rng, dim=2, n0=2, edges=((0, 1),), sigma=0.3):
    model = StrataModel(n0=n0, edge_endpoints=edges, sigma=sigma)
    v = rng.normal(size=(n0, dim))
    while any(np.linalg.norm(v[i] - v[j]) < 0.5 for (i, j) in edges):
        v = rng.normal(size=(n0, dim)) * 2
    return model, v


def mixing(a):
    """The package's Pi update on a dense (|P|, N) A, given on every pair."""
    return _mixing(all_pairs(*a.shape), a.ravel(), a.shape[1])


def dense_a(pairs, w, n_strata):
    """A as a dense (|P|, N) array, from its weights `w` on `pairs`."""
    a = np.zeros((len(pairs.start) - 1, n_strata))
    a[pairs.point, pairs.stratum] = w
    return a


def mp_vertex_density(x, v, sigma):
    n = len(v)
    sq = mp.fsum((mp.mpf(a) - mp.mpf(b)) ** 2 for a, b in zip(x, v))
    return (2 * mp.pi * mp.mpf(sigma) ** 2) ** (-mp.mpf(n) / 2) * mp.e ** (-sq / (2 * mp.mpf(sigma) ** 2))


def mp_edge_density(x, v1, v2, sigma):
    n = len(v1)
    s2 = 2 * mp.mpf(sigma) ** 2

    def integrand(t):
        sq = mp.fsum(
            (mp.mpf(xi) - (t * mp.mpf(a) + (1 - t) * mp.mpf(b))) ** 2
            for xi, a, b in zip(x, v1, v2)
        )
        return mp.e ** (-sq / s2)

    val = mp.quad(integrand, [0, mp.mpf("0.5"), 1])
    return (2 * mp.pi * mp.mpf(sigma) ** 2) ** (-mp.mpf(n) / 2) * val


class TestStrataModel:
    def test_fields(self):
        model = StrataModel(n0=3, edge_endpoints=[[0, 1], [2, 1]], sigma=np.float64(0.2))
        assert [f.name for f in fields(model)] == ["n0", "edge_endpoints", "sigma"]
        assert model.edge_endpoints.dtype == np.intp and model.edge_endpoints.tolist() == [[0, 1], [2, 1]]
        assert not model.edge_endpoints.flags.writeable
        assert type(model.sigma) is float and model.sigma == 0.2
        assert (model.n1, model.n_strata) == (2, 5)
        bare = StrataModel(n0=1, edge_endpoints=(), sigma=1.0)
        assert bare.edge_endpoints.shape == (0, 2) and (bare.n1, bare.n_strata) == (0, 1)

    def test_validates_endpoints(self):
        with pytest.raises(ValueError):
            StrataModel(n0=2, edge_endpoints=((0, 0),), sigma=1.0)
        with pytest.raises(ValueError):
            StrataModel(n0=2, edge_endpoints=((0, 5),), sigma=1.0)
        for shape in ((0, 1, 2), (1, 2, 0)), (0, 1, 1, 2):  # not (n1, 2)
            with pytest.raises(ValueError):
                StrataModel(n0=3, edge_endpoints=shape, sigma=1.0)

    def test_validates_sigma(self):
        # one positive sigma whose square is a finite normal double
        for bad in (0.0, -1.0, math.nan, math.inf, 1e-300, 1e300, np.array([0.5, 0.5])):
            with pytest.raises(ValueError, match="sigma"):
                StrataModel(n0=1, edge_endpoints=(), sigma=bad)
        for good in (1.5e-154, 1.3e154):
            assert StrataModel(n0=1, edge_endpoints=(), sigma=good).sigma == good


class TestEmConfig:
    @pytest.mark.parametrize(
        "kwargs, field",
        [({"max_iters": -3}, "max_iters"), ({"max_iters": 2.5}, "max_iters"), ({"tol_ll": math.nan}, "tol_ll"),
         ({"tol_ll": math.inf}, "tol_ll"), ({"tol_ll": -1e-8}, "tol_ll")],
    )
    def test_rejects_bad_values(self, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            EmConfig(**kwargs)

    def test_accepts_bounds(self):
        assert EmConfig(max_iters=0, tol_ll=0.0) == EmConfig(max_iters=np.int64(0), tol_ll=0)


class TestResponsibilities:
    def test_single_stratum(self):
        rng = np.random.default_rng(0)
        model = StrataModel(n0=1, edge_endpoints=(), sigma=0.5)
        data = PointCloud(rng.normal(size=(6, 2)))
        state = EmState(v=np.zeros((1, 2)), pi=np.ones(1))
        a = responsibilities(model, state, data)
        assert np.allclose(a, 1.0)

    def test_symmetric_point_between_two_vertices(self):
        model = StrataModel(n0=2, edge_endpoints=(), sigma=0.5)
        data = PointCloud([[0.0, 0.0]])
        v = np.array([[-1.0, 0.0], [1.0, 0.0]])
        state = EmState(v=v, pi=np.array([0.5, 0.5]))
        a = responsibilities(model, state, data)
        assert a[0].tolist() == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_matches_extended_precision(self):
        rng = np.random.default_rng(1)
        model, v = small_model(rng, dim=2, n0=2, edges=((0, 1),), sigma=0.35)
        data = PointCloud(rng.normal(size=(10, 2)))
        pi = np.array([0.2, 0.5, 0.3])
        state = EmState(v=v, pi=pi)
        got = responsibilities(model, state, data)
        for j in range(10):
            x = data.coords[j]
            dens = [
                mp_vertex_density(x, v[0], 0.35),
                mp_vertex_density(x, v[1], 0.35),
                mp_edge_density(x, v[0], v[1], 0.35),
            ]
            tot = mp.fsum(p * d for p, d in zip(pi, dens))
            want = [float(p * d / tot) for p, d in zip(pi, dens)]
            assert got[j].tolist() == pytest.approx(want, abs=1e-10)

    def test_uniform_fallback_on_total_underflow(self):
        # a point so remote that its squared distance overflows drives every
        # stratum's log density to -inf
        model = StrataModel(n0=2, edge_endpoints=(), sigma=1e-3)
        data = PointCloud([[1e200, 1e200]])
        state = EmState(v=np.array([[0.0, 0.0], [1.0, 0.0]]), pi=np.array([0.5, 0.5]))
        with pytest.warns(RuntimeWarning, match="zero density"):
            a = responsibilities(model, state, data)
        assert a[0].tolist() == [0.5, 0.5]

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        model, v = small_model(rng, n0=3, edges=((0, 1), (1, 2)))
        data = PointCloud(rng.normal(size=(40, 2)) * 2)
        pi = np.array([0.1, 0.2, 0.3, 0.25, 0.15])
        state = EmState(v=v, pi=pi)
        a = responsibilities(model, state, data)
        assert np.allclose(a.sum(axis=1), 1.0, atol=1e-12)
        assert np.all((a >= 0) & (a <= 1))


class TestUpdateMixing:
    def test_hard_counting(self):
        a = np.zeros((10, 2))
        a[:5, 0] = 1.0
        a[5:, 1] = 1.0
        assert mixing(a).tolist() == [0.5, 0.5]

    def test_uniform(self):
        a = np.ones((7, 4)) / 4
        assert mixing(a).tolist() == pytest.approx([0.25] * 4)

    def test_maximizes_against_simplex_grid(self):
        rng = np.random.default_rng(3)
        model, v = small_model(rng, n0=2, edges=((0, 1),))
        data = PointCloud(rng.normal(size=(8, 2)))
        a = rng.random((8, 3))
        a /= a.sum(axis=1, keepdims=True)
        pi_star = mixing(a)
        best_val, best_pi = -math.inf, None
        grid = np.linspace(0.0, 1.0, 101)
        for p0 in grid:
            for p1 in grid:
                p2 = 1.0 - p0 - p1
                if p2 < -1e-12:
                    continue
                pi = np.array([p0, p1, max(p2, 0.0)])
                val = log_likelihood(model, v, pi, a, data)
                if val > best_val:
                    best_val, best_pi = val, pi
        assert log_likelihood(model, v, pi_star, a, data) >= best_val - 1e-12
        assert np.max(np.abs(pi_star - best_pi)) <= 0.02

    def test_stays_on_simplex(self):
        rng = np.random.default_rng(4)
        a = rng.random((30, 6))
        a /= a.sum(axis=1, keepdims=True)
        pi = mixing(a)
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(pi >= 0)


class TestLogLikelihood:
    def test_point_at_vertex(self):
        model = StrataModel(n0=1, edge_endpoints=(), sigma=1.0)
        data = PointCloud([[0.3, -0.2]])
        v = np.array([[0.3, -0.2]])
        got = log_likelihood(model, v, np.array([1.0]), np.array([[1.0]]), data)
        assert got == pytest.approx(-math.log(2 * math.pi))

    def test_permutation_of_data_invariant(self):
        rng = np.random.default_rng(5)
        model, v = small_model(rng)
        data = rng.normal(size=(12, 2))
        a = rng.random((12, 3))
        a /= a.sum(axis=1, keepdims=True)
        pi = np.array([0.3, 0.3, 0.4])
        perm = rng.permutation(12)
        l1 = log_likelihood(model, v, pi, a, PointCloud(data))
        l2 = log_likelihood(model, v, pi, a[perm], PointCloud(data[perm]))
        assert l1 == pytest.approx(l2, rel=1e-12)

    def test_zero_responsibility_blocks_neg_inf(self):
        model = StrataModel(n0=2, edge_endpoints=(), sigma=1.0)
        data = PointCloud([[0.0]])
        v = np.array([[0.0], [5.0]])
        a = np.array([[1.0, 0.0]])
        pi = np.array([1.0, 0.0])  # log pi_2 = -inf but A_2 = 0
        got = log_likelihood(model, v, pi, a, data)
        assert np.isfinite(got)

    def test_toy_instance_extended_precision(self):
        rng = np.random.default_rng(6)
        model, v = small_model(rng, n0=2, edges=((0, 1),), sigma=0.4)
        data = PointCloud(rng.normal(size=(5, 2)))
        a = rng.random((5, 3))
        a /= a.sum(axis=1, keepdims=True)
        pi = np.array([0.25, 0.35, 0.4])
        want = mp.mpf(0)
        for j in range(5):
            x = data.coords[j]
            dens = [
                mp_vertex_density(x, v[0], 0.4),
                mp_vertex_density(x, v[1], 0.4),
                mp_edge_density(x, v[0], v[1], 0.4),
            ]
            for i in range(3):
                want += mp.mpf(a[j, i]) * (mp.log(dens[i]) + mp.log(mp.mpf(pi[i])))
        want = float(want / 5)
        got = log_likelihood(model, v, pi, a, data)
        assert got == pytest.approx(want, abs=1e-10)


class TestGradVertices:
    def test_stationary_at_centroid(self):
        model = StrataModel(n0=1, edge_endpoints=(), sigma=0.5)
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(20, 2))
        data = PointCloud(pts)
        v = pts.mean(axis=0, keepdims=True)
        g = grad_vertices(model, v, np.ones(1), np.ones((20, 1)), data)
        assert np.allclose(g, 0.0, atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        sigma_rng = np.random.default_rng(80)  # its own stream, so rng's draws stay as they were
        h = 1e-5
        for _ in range(25):
            dim = int(rng.choice([2, 3]))
            n0 = int(rng.integers(2, 5))
            pairs = [(i, j) for i in range(n0) for j in range(i + 1, n0)]
            rng.shuffle(pairs)
            n1 = int(rng.integers(1, min(3, len(pairs)) + 1))
            edges = tuple(pairs[:n1])
            sigma = float(rng.uniform(0.05, 0.5))
            model = StrataModel(n0=n0, edge_endpoints=edges, sigma=sigma)
            data = PointCloud(rng.normal(size=(10, dim)) * 1.5)
            v = rng.normal(size=(n0, dim)) * 1.5
            a = rng.random((10, n0 + n1))
            a /= a.sum(axis=1, keepdims=True)
            pi = rng.random(n0 + n1)
            pi /= pi.sum()
            # the drawn sigma, then a second one
            for model in (model, replace(model, sigma=sigma_rng.uniform(0.05, 0.5))):
                g = grad_vertices(model, v, pi, a, data)
                for i in range(n0):
                    for d in range(dim):
                        vp = v.copy()
                        vp[i, d] += h
                        vm = v.copy()
                        vm[i, d] -= h
                        fd = (log_likelihood(model, vp, pi, a, data) - log_likelihood(model, vm, pi, a, data)) / (2 * h)
                        denom = max(abs(g[i, d]), abs(fd), 1e-8)
                        assert abs(g[i, d] - fd) / denom <= 1e-5

    def test_far_from_origin_matches_untranslated(self):
        # coordinates on a 2^-30 grid stay exact when shifted by 1e6, so the
        # shifted problem is the same problem and any difference is rounding
        shift = 1e6
        for seed in range(10):
            rng = np.random.default_rng(seed)
            model = StrataModel(n0=4, edge_endpoints=((0, 1), (1, 2), (2, 3)), sigma=rng.uniform(0.2, 0.5))
            x = np.round(rng.normal(size=(60, 3)) * 1.5 * 2**30) / 2**30
            v = np.round(rng.normal(size=(4, 3)) * 1.5 * 2**30) / 2**30
            a = rng.random((60, 7))
            a /= a.sum(axis=1, keepdims=True)
            pi = np.full(7, 1 / 7)
            near = grad_vertices(model, v, pi, a, PointCloud(x))
            far = grad_vertices(model, v + shift, pi, a, PointCloud(x + shift))
            assert np.abs(far - near).max() <= 1e-10 * np.abs(near).max()

    def test_degenerate_edge_named(self):
        model = StrataModel(n0=2, edge_endpoints=((0, 1),), sigma=0.1)
        v = np.zeros((2, 2))
        data = PointCloud([[0.0, 0.0]])
        with pytest.raises(ValueError, match="edge stratum 0"):
            grad_vertices(model, v, np.ones(3) / 3, np.ones((1, 3)) / 3, data)


class TestMStep:
    def test_stationary_state_unchanged(self):
        model = StrataModel(n0=1, edge_endpoints=(), sigma=0.5)
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(20, 2))
        data = PointCloud(pts)
        v = pts.mean(axis=0, keepdims=True)
        out = m_step(model, dense_evaluation(model, v, data), np.ones(1), np.ones(20), data).v
        assert np.allclose(out, v, atol=1e-10)

    def test_converges_to_centroid(self):
        model = StrataModel(n0=1, edge_endpoints=(), sigma=0.3)
        rng = np.random.default_rng(10)
        pts = rng.normal(size=(50, 3))
        data = PointCloud(pts)
        v0 = pts.mean(axis=0, keepdims=True) + 2.0
        v = v0
        for _ in range(200):
            v = m_step(model, dense_evaluation(model, v, data), np.ones(1), np.ones(50), data).v
            if np.linalg.norm(v - pts.mean(axis=0)) < 1e-6:
                break
        assert np.linalg.norm(v - pts.mean(axis=0)) < 1e-6

    def test_never_decreases_objective(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            model, v = small_model(rng, n0=3, edges=((0, 1), (1, 2)))
            data = PointCloud(rng.normal(size=(25, 2)) * 2)
            a = rng.random((25, 5))
            a /= a.sum(axis=1, keepdims=True)
            pi = mixing(a)
            before = log_likelihood(model, v, pi, a, data)
            moved = m_step(model, dense_evaluation(model, v, data), pi, a.ravel(), data).v
            after = log_likelihood(model, moved, pi, a, data)
            assert after >= before - 1e-12


class TestCurvatureBlocks:
    def test_no_edges_gives_scalar_direction(self, monkeypatch):
        rng = np.random.default_rng(12)
        model = StrataModel(n0=3, edge_endpoints=(), sigma=0.4)
        data = PointCloud(rng.normal(size=(40, 4)))
        a = rng.random((40, 3))
        a /= a.sum(axis=1, keepdims=True)
        start = dense_evaluation(model, np.zeros((3, 4)), data)
        trials, grads = [], []
        pricer, gradient = gs.em._pricer, gs.em._gradient

        def recorded_pricer(*args):
            price = pricer(*args)
            return lambda v: trials.append(np.array(v)) or price(v)

        monkeypatch.setattr(gs.em, "_pricer", recorded_pricer)
        monkeypatch.setattr(gs.em, "_gradient", lambda *args: grads.append(gradient(*args)) or grads[-1])
        m_step(model, start, mixing(a), a.ravel(), data)
        # the first trial is 0 + STEP_INIT * direction
        direction = trials[0] / gs.em.STEP_INIT
        want = grads[0] * (model.sigma * model.sigma * len(data) / a.sum(axis=0))[:, None]
        assert np.all(np.abs(direction - want) <= 1e-15 * np.abs(want))

    @pytest.mark.parametrize("dim", [1, 2, 3, 6])
    def test_single_edge_eigenvalues(self, dim):
        rng = np.random.default_rng(dim)
        model = StrataModel(n0=3, edge_endpoints=((0, 1),), sigma=0.05)
        v = rng.normal(size=(3, dim))
        mass = np.array([3.0, 5.0, 7.0, 11.0])  # a_0, a_1, a_2, a_e
        blocks = _curvature_blocks(model, v, mass)
        d = v[0] - v[1]
        length = np.linalg.norm(d)
        u = d / length
        for i in range(3):
            assert np.array_equal(blocks[i], blocks[i].T)
            assert np.all(np.linalg.eigvalsh(blocks[i]) > 0)
        assert np.array_equal(blocks[2], 7.0 * np.eye(dim))  # no incident edge
        for i in range(2):
            along = mass[i] + mass[3] * model.sigma / length
            across = mass[i] + mass[3] / 3.0
            assert blocks[i] @ u == pytest.approx(along * u, rel=1e-14, abs=1e-14)
            want = np.sort(np.r_[along, np.full(dim - 1, across)])
            assert np.linalg.eigvalsh(blocks[i]) == pytest.approx(want, rel=1e-14)


class TestInitialize:
    def test_fixture_ratio8(self, fixture_cloud, ratio8_recovery):
        graph = ratio8_recovery
        model, state = initialize(graph, fixture_cloud, sigma=0.05)
        assert model.n0 == 5 and model.n1 == 5
        assert [f.name for f in fields(state)] == ["v", "pi"]
        assert np.array_equal(state.pi, np.bincount(graph.stratum) / len(fixture_cloud))  # counting weights
        assert state.pi.sum() == pytest.approx(1.0, abs=1e-12)
        # initial vertices inside the bounding box of their clusters
        for i, members in enumerate(graph.members()[: graph.n_vertices]):
            pts = fixture_cloud.coords[members]
            assert np.all(state.v[i] >= pts.min(axis=0) - 1e-12)
            assert np.all(state.v[i] <= pts.max(axis=0) + 1e-12)

    def test_rejects_empty_cluster(self, fixture_cloud, ratio8_recovery):
        graph = ratio8_recovery
        # a sixth vertex cluster with no members: edge ids shift up by one
        broken = gs.AbstractGraph(
            stratum=np.where(graph.stratum < graph.n_vertices, graph.stratum, graph.stratum + 1),
            boundary=graph.boundary,
            moved=graph.moved,
            vertex_centroids=np.vstack([graph.vertex_centroids, np.zeros(3)]),
            cloud=graph.cloud,
        )
        with pytest.raises(ValueError, match="cluster 5 is empty"):
            initialize(broken, fixture_cloud, sigma=0.05)

    @pytest.mark.parametrize(
        "damage",
        [lambda s: s[:-1], lambda s: np.where(s == 0, -1, s), lambda s: np.where(s == 9, 10, s)],
        ids=["short", "negative", "past-last"],
    )
    def test_rejects_bad_stratum(self, fixture_cloud, ratio8_recovery, damage):
        graph = ratio8_recovery
        with pytest.raises(ValueError, match="stratum id in 0..9"):
            initialize(replace(graph, stratum=damage(graph.stratum)), fixture_cloud, sigma=0.05)

    def test_rejects_inconsistent_refined(self, fixture_cloud, ratio8_recovery):
        # the check sits where a graph enters from outside: the document reader
        doc = graph_to_dict(ratio8_recovery, {})
        doc["labels"]["p0_tilde"] = doc["labels"]["p0_tilde"][:-1]
        with pytest.raises(ValueError, match="labels.p0_tilde"):
            graph_from_dict(doc, fixture_cloud)


class TestEmFit:
    def test_fixture_fit_accuracy(self, fixture_spec, fixture_cloud, ratio8_recovery):
        graph = ratio8_recovery
        model, state = initialize(graph, fixture_cloud, sigma=0.05)
        report = em_fit(model, state, fixture_cloud)
        match = gs.match_to_ground_truth(graph, fixture_spec)
        assert match.is_isomorphic
        for i in range(graph.n_vertices):
            err = np.linalg.norm(report.state.v[i] - fixture_spec.vertices[match.vertex_map[i]])
            assert err <= 0.2
        deltas = np.diff(report.loglik_trace)
        assert np.all(deltas >= -1e-9)

    def test_gmm_degeneration_on_blobs(self):
        rng = np.random.default_rng(12)
        blob1 = rng.normal(size=(60, 2)) * 0.2 + np.array([0.0, 0.0])
        blob2 = rng.normal(size=(60, 2)) * 0.2 + np.array([6.0, 0.0])
        data = PointCloud(np.vstack([blob1, blob2]))
        model = StrataModel(n0=2, edge_endpoints=(), sigma=0.2)
        v0 = np.array([[0.5, 0.5], [5.5, -0.5]])
        state = EmState(v=v0, pi=np.array([0.5, 0.5]))
        report = em_fit(model, state, data, EmConfig(max_iters=300))
        means = np.array([blob1.mean(axis=0), blob2.mean(axis=0)])
        for i in range(2):
            assert np.linalg.norm(report.state.v[i] - means[i]) < 1e-3

    def test_zero_iterations_echo_initialization(self, fixture_cloud, ratio8_recovery):
        graph = ratio8_recovery
        model, state = initialize(graph, fixture_cloud, sigma=0.05)
        report = em_fit(model, state, fixture_cloud, EmConfig(max_iters=0))
        assert report.n_iterations == 0
        assert report.state is state
        assert not report.converged
        assert report.loglik_trace.size == 1
        assert np.all(report.vertex_displacement == 0.0)

    def test_simplex_preserved_every_iteration(self, fixture_cloud, ratio8_recovery):
        graph = ratio8_recovery
        model, state = initialize(graph, fixture_cloud, sigma=0.05)
        for _ in range(5):
            a = responsibilities(model, state, fixture_cloud)
            pi = mixing(a)
            assert pi.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.allclose(a.sum(axis=1), 1.0, atol=1e-12)
            v = m_step(model, dense_evaluation(model, state.v, fixture_cloud), pi, a.ravel(), fixture_cloud).v
            state = EmState(v=v, pi=pi)

    def test_label_permutation_equivariance(self):
        rng = np.random.default_rng(13)
        pts = np.vstack([
            rng.normal(size=(30, 2)) * 0.1,
            rng.normal(size=(30, 2)) * 0.1 + np.array([4.0, 0.0]),
            np.linspace([0.2, 0.0], [3.8, 0.0], 40) + rng.normal(size=(40, 2)) * 0.05,
        ])
        data = PointCloud(pts)
        model = StrataModel(n0=2, edge_endpoints=((0, 1),), sigma=0.1)
        a = np.zeros((100, 3))
        a[:30, 0] = 1.0
        a[30:60, 1] = 1.0
        a[60:, 2] = 1.0
        v0 = np.array([[0.1, 0.0], [3.9, 0.1]])
        state = EmState(v=v0, pi=mixing(a))
        base = em_fit(model, state, data, EmConfig(max_iters=2))

        # permute: swap the two vertex strata (edge endpoints follow)
        perm = [1, 0, 2]
        model_p = StrataModel(n0=2, edge_endpoints=((1, 0),), sigma=0.1)
        a_p = a[:, perm]
        state_p = EmState(v=v0[[1, 0]], pi=mixing(a_p))
        permuted = em_fit(model_p, state_p, data, EmConfig(max_iters=2))

        assert permuted.state.v[[1, 0]] == pytest.approx(base.state.v, abs=1e-9)
        assert permuted.state.pi[perm] == pytest.approx(base.state.pi, abs=1e-12)
        assert permuted.loglik_trace == pytest.approx(base.loglik_trace, abs=1e-9)

    def test_mixture_mass_normalized(self):
        # full mixture (2 vertices + 1 edge) integrates to 1 over a padded box
        model = StrataModel(n0=2, edge_endpoints=((0, 1),), sigma=0.4)
        v = np.array([[-1.0, 0.0], [1.2, 0.5]])
        pi = np.array([0.3, 0.3, 0.4])
        sigma = 0.4
        lo = v.min(axis=0) - 8 * sigma
        hi = v.max(axis=0) + 8 * sigma
        gx = np.linspace(lo[0], hi[0], 301)
        gy = np.linspace(lo[1], hi[1], 301)
        xx, yy = np.meshgrid(gx, gy, indexing="ij")
        pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
        dens = (
            pi[0] * np.exp(vertex_log_density(pts, v[0], sigma))
            + pi[1] * np.exp(vertex_log_density(pts, v[1], sigma))
            + pi[2] * np.exp(edge_log_density(pts, v[0], v[1], sigma))
        ).reshape(xx.shape)
        mass = simpson(simpson(dens, x=gy, axis=1), x=gx)
        assert mass == pytest.approx(1.0, abs=1e-3)

    def test_remote_point_rejected_before_pricing(self, monkeypatch):
        # so remote that every stratum's density would underflow at it: the
        # range rule refuses the cloud before any pricing, so nothing warns
        model = StrataModel(n0=2, edge_endpoints=(), sigma=1e-3)
        data = PointCloud([[0.0, 0.0], [1.0, 0.0], [1e200, 1e200]])
        state = EmState(v=np.array([[0.0, 0.0], [1.0, 0.0]]), pi=np.array([0.5, 0.5]))
        monkeypatch.setattr(gs.em, "_bounds", None)
        monkeypatch.setattr(gs.em, "_pricer", None)
        with pytest.raises(ValueError, match="^cloud extent .* outside EM's range"):
            em_fit(model, state, data)

    @pytest.mark.parametrize("extent, sigma", [(1e80, 1.0), (10.0, 1e-153)])
    def test_range_rule_names_each_limit(self, extent, sigma):
        model = StrataModel(n0=2, edge_endpoints=(), sigma=sigma)
        data = PointCloud([[-extent, 0.0], [extent, 0.0]])
        state = EmState(v=data.coords.copy(), pi=np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="outside EM's range"):
            em_fit(model, state, data)

    def test_twelve_vertex_5d_converges_in_few_iterations(self, twelve_vertex_5d):
        report = em_fit(*twelve_vertex_5d)
        assert report.converged and report.n_iterations <= 16
        assert report.loglik_trace[-1] >= 2.6062944881
        assert np.all(np.diff(report.loglik_trace) >= 0)
        converged = em_fit(*twelve_vertex_5d, EmConfig(max_iters=400, tol_ll=0))
        assert np.linalg.norm(report.state.v - converged.state.v, axis=1).max() <= 1e-3 * 0.1

    @pytest.mark.parametrize("ratio", [12, 8])
    def test_fixture_fit_ends_near_converged(self, fixture_cloud, ratio):
        graph = gs.recover_graph(fixture_cloud, gs.ReconstructionConfig(R=ratio * 0.1, eps=0.1))
        model, state = initialize(graph, fixture_cloud, sigma=0.05)
        report = em_fit(model, state, fixture_cloud)
        converged = em_fit(model, state, fixture_cloud, EmConfig(max_iters=400, tol_ll=0))
        assert report.converged
        assert np.linalg.norm(report.state.v - converged.state.v, axis=1).max() <= 1e-2 * 0.1

    def test_jump_collapsing_an_edge_is_rejected(self, fixture_cloud, ratio8_recovery, monkeypatch):
        """A jump tried after every iteration, each onto a collapsed edge, is
        dropped: the fit is the one that tries no jump."""
        model, state = initialize(ratio8_recovery, fixture_cloud, sigma=0.05)
        config = EmConfig(max_iters=10)
        monkeypatch.setattr(gs.em, "JUMP_COSINE", 2.0)  # never jumps
        plain = em_fit(model, state, fixture_cloud, config)
        jump, tried = gs.em._jump, []

        def collapsing(*args):
            v, pi = jump(*args)
            i, j = model.edge_endpoints[0]
            v[j] = v[i]
            tried.append(v)
            return v, pi

        monkeypatch.setattr(gs.em, "JUMP_COSINE", -1.0)
        monkeypatch.setattr(gs.em, "JUMP_RATIO", 1.0)
        monkeypatch.setattr(gs.em, "_jump", collapsing)
        report = em_fit(model, state, fixture_cloud, config)
        assert len(tried) == config.max_iters - 1  # from the third iterate on
        assert np.array_equal(report.state.v, plain.state.v)
        assert np.array_equal(report.loglik_trace, plain.loglik_trace)
        assert np.all(np.diff(report.loglik_trace) >= 0)

    def test_marginal_loglik_consistency(self, fixture_cloud, ratio8_recovery):
        graph = ratio8_recovery
        model, state = initialize(graph, fixture_cloud, sigma=0.05)
        report = em_fit(model, state, fixture_cloud, EmConfig(max_iters=3))
        recomputed = marginal_log_likelihood(
            model, report.state.v, report.state.pi, fixture_cloud
        )
        assert recomputed == pytest.approx(report.loglik_trace[-1], abs=1e-12)


def reference_m_step(model, v, pi, a, data):
    """The M-step priced afresh at every use, on every pair: the oracle
    objective and gradient, with the curvature blocks built edge by edge.

    Returns the accepted vertices and the number of halved (rejected) trials.
    """
    f = log_likelihood(model, v, pi, a, data)
    mass = a.sum(axis=0)
    eye = np.eye(data.dim)
    blocks = np.maximum(mass[: model.n0], 1e-12)[:, None, None] * eye
    for k, (i, j) in enumerate(model.edge_endpoints):
        d = v[i] - v[j]
        length = np.sqrt(np.sum(d * d))
        uu = np.outer(d / length, d / length)
        edge = mass[model.n0 + k] * ((eye - uu) / 3.0 + model.sigma / length * uu)
        blocks[i] += edge
        blocks[j] += edge
    scale = model.sigma * model.sigma * len(data)
    backtracks = 0
    for _ in range(M_STEP_ITERS):
        g = grad_vertices(model, v, pi, a, data)
        direction = scale * np.linalg.solve(blocks, g[:, :, None])[:, :, 0]
        slope = float(np.sum(g * direction))
        if slope < SLOPE_TOL:
            break
        alpha = gs.em.STEP_INIT
        accepted = False
        while alpha >= STEP_FLOOR:
            trial = v + alpha * direction
            try:
                ft = log_likelihood(model, trial, pi, a, data)
            except ValueError:
                ft = -np.inf
            if np.isfinite(ft) and ft - f >= ARMIJO * alpha * slope:
                v, f = trial, ft
                accepted = True
                break
            alpha *= 0.5
            backtracks += 1
        if not accepted:
            break
    return v, backtracks


def iterate(v, pi, sigma):
    """EM's iterate x = (V / sigma, log Pi) as one flat vector."""
    with np.errstate(divide="ignore"):
        return np.concatenate([(v / sigma).ravel(), np.log(pi)])


def reference_em_fit(model, state, data, config):
    """Generalized EM rebuilt from the all-pairs oracles, one pass per quantity.

    After each iteration whose last two steps d1, d2 of x are aligned and
    shrinking, it prices x + r / (1 - r) d2 (r = |d2| / |d1|, Pi
    renormalised) and moves there if that beats the iterate by more than
    SLOPE_TOL. Returns the vertices, the trace, the iterations, the halved
    trials and the accepted jumps.
    """
    sigma = model.sigma
    v, pi = np.array(state.v, dtype=float), state.pi
    trace = [marginal_log_likelihood(model, v, pi, data)]
    xs = [iterate(v, pi, sigma)]
    streak = n_done = backtracks = jumps = 0
    for n_done in range(1, config.max_iters + 1):
        a = responsibilities(model, EmState(v=v, pi=pi), data)
        pi = mixing(a)
        v, halved = reference_m_step(model, v, pi, a, data)
        backtracks += halved
        ll = marginal_log_likelihood(model, v, pi, data)
        x = iterate(v, pi, sigma)
        xs = [*xs[-2:], x] if np.isfinite(x).all() else []
        if len(xs) == 3:
            d1, d2 = xs[1] - xs[0], xs[2] - xs[1]
            n1, n2 = math.sqrt(d1 @ d1), math.sqrt(d2 @ d2)
            if n2 < gs.em.JUMP_RATIO * n1 and d1 @ d2 > gs.em.JUMP_COSINE * n1 * n2:
                r = n2 / n1
                x = xs[2] + r / (1.0 - r) * d2
                v_jump = x[: v.size].reshape(v.shape) * sigma
                pi_jump = np.exp(x[v.size :] - x[v.size :].max())
                pi_jump = pi_jump / pi_jump.sum()
                try:
                    ll_jump = marginal_log_likelihood(model, v_jump, pi_jump, data)
                except ValueError:
                    ll_jump = -np.inf
                if ll_jump > ll + SLOPE_TOL:
                    v, pi, ll = v_jump, pi_jump, ll_jump
                    xs = [iterate(v, pi, sigma)]
                    jumps += 1
        trace.append(ll)
        if abs(trace[-1] - trace[-2]) < config.tol_ll:
            streak += 1
            if streak >= CONSECUTIVE:
                break
        else:
            streak = 0
    return v, np.asarray(trace), n_done, backtracks, jumps


@pytest.fixture(scope="module")
def twelve_vertex_5d(twelve_vertex_5d_recovery):
    """(model, state, cloud) on the 12-vertex 5-D graph, where most (point,
    stratum) pairs underflow."""
    model, state = initialize(twelve_vertex_5d_recovery, twelve_vertex_5d_recovery.cloud, sigma=0.05)
    return model, state, twelve_vertex_5d_recovery.cloud


@pytest.fixture(
    scope="module", params=["fixture-ratio8", "fixture-ratio12", "random-5d-large-step", "random-5d-12-vertex"]
)
def em_inputs(request, fixture_cloud, ratio8_recovery):
    """(model, state, data, config, initial M-step step): the fixture at
    ratios 8 and 12 (where an E-step finds its selection stale and prices a
    fresh one), a small 5-D compliant graph whose large initial step forces
    line-search backtracks, and a 12-vertex 5-D graph where most pairs are
    never priced."""
    if request.param.startswith("fixture-"):
        if request.param == "fixture-ratio8":
            graph = ratio8_recovery
        else:
            graph = gs.recover_graph(fixture_cloud, gs.ReconstructionConfig(R=1.2, eps=0.1))
        model, state = initialize(graph, fixture_cloud, sigma=0.05)
        return model, state, fixture_cloud, EmConfig(max_iters=10), gs.em.STEP_INIT
    if request.param == "random-5d-12-vertex":
        return *request.getfixturevalue("twelve_vertex_5d"), EmConfig(max_iters=4), gs.em.STEP_INIT
    spec = gs.random_compliant_graph(5, 3, gs.GraphGenConfig(R=1.2, eps=0.1), seed=0)
    cloud = gs.sample_graph(spec, gs.SampleSpec(eps=0.1, seed=0))
    graph = gs.recover_graph(cloud, gs.ReconstructionConfig(R=1.2, eps=0.1))
    model, state = initialize(graph, cloud, sigma=0.05)
    return model, state, cloud, EmConfig(max_iters=10), 64.0


@pytest.fixture
def reprices(monkeypatch):
    """One entry per E-step that em_fit hands an M-step's evaluation, from
    here on: True where it priced a fresh selection instead."""
    seen = []
    e_step = gs.em._e_step

    def spy(model, data, v, pi, ev=None):
        out = e_step(model, data, v, pi, ev)
        if ev is not None:
            seen.append(out[0] is not ev)
        return out

    monkeypatch.setattr(gs.em, "_e_step", spy)
    return seen


@pytest.fixture
def em_case(em_inputs, monkeypatch):
    """(model, state, data, config), with the case's initial M-step step in force."""
    *case, step_init = em_inputs
    monkeypatch.setattr(gs.em, "STEP_INIT", step_init)
    return case


class TestOneEvaluationPerVertexMatrix:
    def test_matches_reference_em(self, em_case):
        model, state, data, config = em_case
        report = em_fit(model, state, data, config)
        v, trace, n_done, backtracks, jumps = reference_em_fit(model, state, data, config)
        assert np.array_equal(report.state.v, v)
        assert np.array_equal(report.loglik_trace, trace)
        assert report.n_iterations == n_done
        assert jumps > 0  # accepted jumps are exercised
        if gs.em.STEP_INIT > 1.0:
            assert backtracks > 0  # rejected trials are exercised

    @pytest.mark.parametrize("em_inputs", ["fixture-ratio12"], indirect=True)
    def test_reference_case_reprices(self, em_case, reprices):
        # so test_matches_reference_em checks the fresh reprice, which no benchmark fit takes
        em_fit(*em_case)
        assert any(reprices)

    def test_each_vertex_matrix_priced_once(self, em_case, reprices, monkeypatch):
        model, state, data, config = em_case
        seen = []  # (kernel name, endpoint bytes) of every edge-kernel call made by em_fit

        def counted(kernel):
            def wrapper(x, v1s, v2s, *rest):
                seen.append((kernel.__name__, np.asarray(v1s).tobytes() + np.asarray(v2s).tobytes()))
                return kernel(x, v1s, v2s, *rest)

            return wrapper

        kernels = (gs.densities.edge_log_density_grad_batch,)
        for module in (gs.em, gs.densities):
            for kernel in kernels:
                if getattr(module, kernel.__name__, None) is kernel:
                    monkeypatch.setattr(module, kernel.__name__, counted(kernel))
        report = em_fit(model, state, data, config)
        assert len(seen) > report.n_iterations
        assert {name for name, _ in seen} == {"edge_log_density_grad_batch"}
        # a reprice prices the M-step's accepted vertex matrix a second time
        assert len(seen) - len({key for _, key in seen}) == sum(reprices)


def pair_keys(ev, n_strata):
    """The position of each of ev's pairs in the flattened (|P|, N) matrix."""
    return ev.pairs.point * n_strata + ev.pairs.stratum


class TestSparsePricing:
    def test_most_edge_pairs_are_never_priced(self, twelve_vertex_5d, monkeypatch):
        model, state, cloud = twelve_vertex_5d
        kernel = gs.em.edge_log_density_grad_batch
        fractions = []  # share of the (edge, point) pairs each kernel call prices

        def counted(x, v1s, v2s, sigma, seg, point):
            fractions.append(len(seg) / (len(v1s) * len(x)))
            return kernel(x, v1s, v2s, sigma, seg, point)

        monkeypatch.setattr(gs.em, "edge_log_density_grad_batch", counted)
        em_fit(model, state, cloud, EmConfig(max_iters=4))
        assert fractions and max(fractions) <= 0.2

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 5),
        shift=st.sampled_from([0.0, 1e6]),
        remote=st.booleans(),
    )
    def test_matches_all_pairs(self, seed, dim, shift, remote):
        rng = np.random.default_rng(seed)
        n0 = int(rng.integers(2, 6))
        pairs = [(i, j) for i in range(n0) for j in range(i + 1, n0)]
        edges = tuple(pairs[k] for k in rng.permutation(len(pairs))[: rng.integers(0, len(pairs) + 1)])
        n_strata = n0 + len(edges)
        sigma = 10 ** rng.uniform(-1.5, 0.0)
        model = StrataModel(n0=n0, edge_endpoints=edges, sigma=sigma)
        v = rng.normal(size=(n0, dim)) * 3.0
        # points around random strata, from on top of them to far outside
        points = []
        for _ in range(int(rng.integers(20, 80))):
            k = int(rng.integers(n_strata))
            if k < n0:
                centre = v[k]
            else:
                i, j = edges[k - n0]
                centre = v[j] + rng.uniform(-0.2, 1.2) * (v[i] - v[j])
            points.append(centre + rng.normal(size=dim) * sigma * 10 ** rng.uniform(-1, 1.5))
        if remote:  # so far away that its squared distances overflow: a dead row
            points.append(np.full(dim, 1e155))
        data = PointCloud(np.array(points) + shift)
        v = v + shift
        pi = rng.dirichlet(np.ones(n_strata))
        pi[rng.random(n_strata) < 0.3] = 10.0 ** -rng.uniform(50, 300)
        support = rng.random((len(data), n_strata)) < 0.05

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            dense = dense_evaluation(model, v, data)
            dense_logits = _logits(dense, pi)
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            ev, w, norm = _e_step(model, data, v, pi)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            again = _e_step(model, data, v, pi, ev)
        assert again[0] is ev  # selected for this pi: nothing is priced twice
        point, stratum, start = ev.pairs
        keys = pair_keys(ev, n_strata)
        assert np.all(np.diff(keys) > 0)  # point-major, each pair once
        assert np.array_equal(start, np.searchsorted(point, np.arange(len(data) + 1)))
        priced = np.zeros(len(dense_logits), dtype=bool)
        priced[keys] = True
        assert np.array_equal(ev.logdens, dense.logdens[keys], equal_nan=True)
        if edges:
            on = stratum >= n0
            seg = stratum[on] - n0
            at = point[on] * len(edges) + seg  # the same pairs in the all-pairs kernel call
            assert np.array_equal(ev.edge.seg, seg)
            for got, want in zip(ev.edge[:4], dense.edge[:4]):
                assert np.array_equal(got, want[at])
            assert np.array_equal(ev.edge.s, dense.edge.s[:, at])
        top = np.repeat(np.maximum.reduceat(dense_logits, dense.pairs.start[:-1]), n_strata)
        assert np.all(dense_logits[~priced] <= top[~priced] - UNDERFLOW_GAP)

        # an evaluation that also prices the pairs of `support` is kept, as
        # no skipped pair comes near its row's maximum
        wide_point, wide_stratum = np.nonzero(priced.reshape(len(data), n_strata) | support)
        wide_pairs = _Pairs(wide_point, wide_stratum, np.searchsorted(wide_point, np.arange(len(data) + 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            wide = _pricer(model, data, wide_pairs)(v)
        with warnings.catch_warnings(record=True) as seen_wide:
            warnings.simplefilter("always")
            wide_ev, wide_w, wide_norm = _e_step(model, data, v, pi, wide)
        assert wide_ev is wide

        moved = rng.dirichlet(np.ones(n_strata))  # weights that moved since the selection
        with warnings.catch_warnings(record=True) as seen_moved:
            warnings.simplefilter("always")
            moved_ev, moved_w, moved_norm = _e_step(model, data, v, moved, ev)
        cases = (
            (ev, w, norm, seen, pi),
            (wide_ev, wide_w, wide_norm, seen_wide, pi),
            (moved_ev, moved_w, moved_norm, seen_moved, moved),
        )
        for got_ev, got_w, got_norm, got_seen, weights in cases:
            with warnings.catch_warnings(record=True) as seen_dense:
                warnings.simplefilter("always")
                want_w, want_norm = _normalize_rows(dense.pairs, _logits(dense, weights))
            got, want = dense_a(got_ev.pairs, got_w, n_strata), dense_a(dense.pairs, want_w, n_strata)
            assert np.array_equal(got, want)
            assert np.array_equal(got_norm, want_norm, equal_nan=True)
            # the E-step's own warnings, not the kernels' overflow at the remote point
            e_step_seen = [str(w.message) for w in got_seen if w.filename == gs.em.__file__]
            assert e_step_seen == [str(w.message) for w in seen_dense]
            if remote:  # every stratum underflows at the remote point
                assert any("zero density" in str(w.message) for w in got_seen)
                assert np.all(got[-1] == 1.0 / n_strata)


class TestSelectionOncePerIteration:
    def test_bounds_run_once_per_e_step(self, twelve_vertex_5d, monkeypatch):
        model, state, cloud = twelve_vertex_5d
        bounds, kernel, step, jump = gs.em._bounds, gs.em.edge_log_density_grad_batch, gs.em.m_step, gs.em._jump
        calls = {"bounds": 0, "bounds in m_step": 0, "kernel in m_step": 0, "jumps": 0}
        in_m_step = [False]

        def counted_bounds(*args):
            calls["bounds"] += 1
            calls["bounds in m_step"] += in_m_step[0]
            return bounds(*args)

        def counted_kernel(*args):
            calls["kernel in m_step"] += in_m_step[0]
            return kernel(*args)

        def flagged_m_step(*args):
            in_m_step[0] = True
            try:
                return step(*args)
            finally:
                in_m_step[0] = False

        def counted_jump(*args):
            out = jump(*args)
            calls["jumps"] += out is not None
            return out

        monkeypatch.setattr(gs.em, "_bounds", counted_bounds)
        monkeypatch.setattr(gs.em, "edge_log_density_grad_batch", counted_kernel)
        monkeypatch.setattr(gs.em, "m_step", flagged_m_step)
        monkeypatch.setattr(gs.em, "_jump", counted_jump)
        report = em_fit(model, state, cloud, EmConfig(max_iters=6))
        assert report.n_iterations == 6
        # the start evaluation, then one pass per E-step and one per jump
        # attempt; no line-search trial runs one
        assert calls["jumps"] > 0
        assert calls["bounds"] == report.n_iterations + 1 + calls["jumps"]
        assert calls["bounds in m_step"] == 0
        assert calls["kernel in m_step"] >= report.n_iterations

    def test_stale_selection_is_priced_again(self, twelve_vertex_5d):
        model, state, cloud = twelve_vertex_5d
        n_strata = model.n_strata
        start = _e_step(model, cloud, state.v, state.pi)[0]
        v = state.v.copy()
        v[0] += 8 * model.sigma * np.ones(cloud.dim) / math.sqrt(cloud.dim)  # several sigma
        stale = _pricer(model, cloud, start.pairs)(v)  # priced on the start vertices' selection
        ev, got_w, got_norm = _e_step(model, cloud, v, state.pi, stale)
        dense = dense_evaluation(model, v, cloud)
        want_w, want_norm = _normalize_rows(dense.pairs, _logits(dense, state.pi))
        want = dense_a(dense.pairs, want_w, n_strata)
        assert ev is not stale and np.array_equal(ev.v, v)
        fresh = _e_step(model, cloud, v, state.pi)[0]
        assert np.array_equal(pair_keys(ev, n_strata), pair_keys(fresh, n_strata))  # a fresh selection at v
        assert np.array_equal(dense_a(ev.pairs, got_w, n_strata), want)
        assert np.array_equal(got_norm, want_norm)
        stale_w = _normalize_rows(stale.pairs, _logits(stale, state.pi))[0]
        assert not np.array_equal(dense_a(stale.pairs, stale_w, n_strata), want)


def fit_cloud(cloud, config):
    """(initial vertex centroids, em_fit report) for the graph recovered from `cloud`."""
    graph = gs.recover_graph(cloud, config)
    model, state = initialize(graph, cloud, sigma=0.05)
    return state.v, em_fit(model, state, cloud)


@pytest.fixture(scope="module")
def permutation_cases(fixture_cloud):
    """name -> (cloud, recovery config, fit_cloud of it): the fixture at ratio
    8 and a 3-vertex compliant graph in R^5 at ratio 12."""
    spec = gs.random_compliant_graph(5, 3, gs.GraphGenConfig(R=1.2, eps=0.1), seed=0)
    clouds = {
        "fixture-ratio8": (fixture_cloud, 8),
        "random-5d-3-vertex": (gs.sample_graph(spec, gs.SampleSpec(eps=0.1, seed=0)), 12),
    }
    out = {}
    for name, (cloud, ratio) in clouds.items():
        config = gs.ReconstructionConfig(R=ratio * 0.1, eps=0.1)
        out[name] = (cloud, config, fit_cloud(cloud, config))
    return out


class TestPointPermutation:
    @settings(max_examples=6)
    @given(case=st.sampled_from(["fixture-ratio8", "random-5d-3-vertex"]), seed=st.integers(0, 2**32 - 1))
    def test_em_fit_invariant(self, permutation_cases, case, seed):
        cloud, config, (v0, base) = permutation_cases[case]
        perm = np.random.default_rng(seed).permutation(len(cloud))
        v0_perm, fit = fit_cloud(gs.PointCloud(cloud.coords[perm]), config)
        assert (fit.n_iterations, fit.converged) == (base.n_iterations, base.converged)
        # vertex ids follow cluster order, which the point order may change
        match = np.argmin(np.linalg.norm(v0_perm[:, None, :] - v0[None, :, :], axis=2), axis=1)
        assert sorted(match.tolist()) == list(range(len(v0)))
        assert np.abs(fit.state.v - base.state.v[match]).max() <= 1e-9 * 0.1
        assert np.abs(fit.loglik_trace - base.loglik_trace).max() <= 1e-10


class TestUniformScaling:
    def test_em_fit_commutes_with_scaling(self, fixture_cloud):
        """Scaling (cloud, R, eps, sigma) by 2^k, which is exact in floating
        point, scales the fit by 2^k and shifts each log density by -n k log 2."""
        eps = 0.1

        def fit(k):
            c = 2.0**k
            cloud = gs.PointCloud(fixture_cloud.coords * c)
            graph = gs.recover_graph(cloud, gs.ReconstructionConfig(R=1.2 * c, eps=eps * c))
            return graph, em_fit(*initialize(graph, cloud, sigma=eps / 2 * c), cloud)

        graph0, base = fit(0)
        for k in (-10, -7, 5):
            graph, report = fit(k)
            assert np.array_equal(graph.boundary, graph0.boundary)
            assert np.array_equal(graph.stratum, graph0.stratum)
            assert (report.n_iterations, report.converged) == (base.n_iterations, base.converged)
            assert np.abs(report.state.v / 2.0**k - base.state.v).max() <= 1e-9 * eps
            shift = fixture_cloud.dim * k * math.log(2.0)
            assert np.abs(report.loglik_trace + shift - base.loglik_trace).max() <= 1e-9


class TestDuplicatedPoints:
    @pytest.mark.parametrize("case", ["fixture-ratio8", "random-5d-3-vertex"])
    def test_recover_and_fit_invariant(self, permutation_cases, case):
        """Every point repeated: the same graph with the stratum column tiled,
        and the same fit, as each point's weight in every mean is unchanged."""
        cloud, config, (v0, base) = permutation_cases[case]
        twice = gs.PointCloud(np.vstack([cloud.coords, cloud.coords]))
        graph0 = gs.recover_graph(cloud, config)
        graph = gs.recover_graph(twice, config)
        assert np.array_equal(graph.boundary, graph0.boundary)
        assert np.array_equal(graph.stratum, np.tile(graph0.stratum, 2))
        assert np.abs(graph.vertex_centroids - v0).max() <= 1e-12 * np.abs(v0).max()
        _, fit = fit_cloud(twice, config)
        assert fit.n_iterations == base.n_iterations
        assert np.abs(fit.state.v - base.state.v).max() <= 1e-9 * config.eps


class TestRecoverAndFit:
    @settings(max_examples=30)
    @given(dim=st.integers(1, 6), n_vertices=st.integers(2, 4), seed=st.integers(0, 2**16))
    def test_random_compliant_graphs(self, dim, n_vertices, seed):
        """Stage 2 then EM at ratio 12: the true counts, a non-decreasing
        trace and every vertex within 2 eps. In R^1, where I - u u^T
        vanishes, the generator places no more than one edge."""
        eps = 0.1
        spec = gs.random_compliant_graph(dim, 2 if dim == 1 else n_vertices, gs.GraphGenConfig(R=1.2, eps=eps), seed=seed)
        cloud = gs.sample_graph(spec, gs.SampleSpec(eps=eps, seed=seed))
        graph = gs.recover_graph(cloud, gs.ReconstructionConfig(R=1.2, eps=eps))
        assert (graph.n_vertices, graph.n_edges) == (spec.n_vertices, len(spec.edges))
        match = gs.match_to_ground_truth(graph, spec)
        assert match.is_isomorphic, match.reason
        report = em_fit(*initialize(graph, cloud, sigma=eps / 2), cloud)
        assert np.diff(report.loglik_trace).min() >= -1e-12  # rounding in the trace's mean
        truth = spec.vertices[list(match.vertex_map)]
        assert np.linalg.norm(report.state.v - truth, axis=1).max() <= 2 * eps
