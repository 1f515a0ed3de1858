from __future__ import annotations

import math
import warnings

import hypothesis.extra.numpy as hnp
import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphskel as gs
from graphskel.abstract_graph import cluster_p0
from graphskel.geometry import PointCloud
from graphskel.local_structure import (
    ReconstructionConfig,
    check_assumptions,
    classify_all,
    inner_product_threshold,
    partition,
    phi,
    psi,
)
from oracles import classify_point, label_rows

mp.mp.dps = 40


def mp_psi(R, e):
    R, e = mp.mpf(R), mp.mpf(e)
    return mp.pi - mp.atan((R + 3 * e) / (6 * e)) + mp.asin(
        (R**2 - 4 * R * e - 9 * e**2) / ((R + e) * mp.sqrt(R**2 + 6 * R * e + 34 * e**2))
    )


def mp_phi(R, e):
    R, e = mp.mpf(R), mp.mpf(e)
    return mp.acos(((R - e) ** 2 - 18 * e**2) / (R - e) ** 2) + 2 * mp.asin(2 * e / (R - e))


# extended-precision references for the angle-bound functions at (12, 1)
PSI_12_1 = 2.3883417812978193
PHI_12_1 = 0.9181235355130005


class TestPsiPhi:
    def test_psi_reference_value(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert psi(12, 1) == pytest.approx(float(mp_psi(12, 1)), abs=1e-12)
            assert psi(12, 1) == pytest.approx(PSI_12_1, abs=1e-9)

    def test_phi_reference_value(self):
        assert phi(12, 1) == pytest.approx(float(mp_phi(12, 1)), abs=1e-12)
        assert phi(12, 1) == pytest.approx(PHI_12_1, abs=1e-9)

    def test_scale_invariance(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for k in (7.3, 120 / 12, 0.03):
                assert psi(12 * k, 1 * k) == pytest.approx(psi(12, 1), abs=1e-12)
                assert phi(12 * k, 1 * k) == pytest.approx(phi(12, 1), abs=1e-12)

    def test_psi_warns_below_guarantee(self):
        with pytest.warns(RuntimeWarning):
            psi(8, 1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "R, eps, below",
        [(11.99, 1, True), (12 * (1 - 1e-8), 1, True), (12, 1, False), (1.2, 0.1, False), (12.5, 1, False)],
    )
    def test_psi_warns_with_the_config(self, R, eps, below):
        """psi warns exactly where ReconstructionConfig leaves the guarantee regime."""
        assert ReconstructionConfig(R=R, eps=eps).guarantee_warning is below
        if below:
            with pytest.warns(RuntimeWarning, match="guarantee regime"):
                psi(R, eps)
        else:
            psi(R, eps)  # any warning is an error here

    def test_phi_requires_r_above_eps(self):
        with pytest.raises(ValueError):
            phi(1.0, 1.0)

    def test_phi_domain_error_small_ratio(self):
        # 18 eps^2 > 2 (R - eps)^2 pushes the arccos argument below -1
        with pytest.raises(ValueError):
            phi(3.0, 1.0)

    def test_phi_equals_separation_bound_substitution(self):
        # Phi(R, eps) is the edge-separation angle bound evaluated at
        # D = (R - eps)/2 with the same noise eps
        def lemma_bound(D, e):
            return math.acos((2 * D * D - 9 * e * e) / (2 * D * D)) + 2 * math.asin(e / D)

        for R in np.linspace(5, 40, 12):
            for e in (0.1, 1.0, 2.5):
                if R <= 12 * e:
                    continue
                assert phi(R, e) == pytest.approx(lemma_bound((R - e) / 2, e), abs=1e-12)


class TestInnerProductThreshold:
    def test_values(self):
        assert inner_product_threshold(ReconstructionConfig(12, 1)) == -113
        assert inner_product_threshold(ReconstructionConfig(8, 1)) == -41

    def test_noiseless_limit(self):
        # eps -> 0 approaches -R^2; exactly zero eps is rejected by the config
        got = inner_product_threshold(ReconstructionConfig(1, 1e-12))
        assert got == pytest.approx(-1.0, abs=1e-11)


class TestReconstructionConfig:
    def test_guarantee_flag(self):
        assert ReconstructionConfig(0.8, 0.1).guarantee_warning
        assert not ReconstructionConfig(1.2, 0.1).guarantee_warning

    def test_rejects_bad_scales(self):
        with pytest.raises(ValueError):
            ReconstructionConfig(-1.0, 0.1)
        with pytest.raises(ValueError):
            ReconstructionConfig(0.5, 0.0)
        with pytest.raises(ValueError):
            ReconstructionConfig(0.05, 0.1)

    def test_derived_thresholds(self):
        cfg = ReconstructionConfig(0.8, 0.1)
        assert cfg.ball_radius == pytest.approx(0.9)
        assert cfg.shell_inner == pytest.approx(0.7)
        assert cfg.contact_scale == pytest.approx(0.3)
        assert cfg.vertex_cluster_scale == pytest.approx(1.4)


def line_cloud(eps: float, half_extent: float, dim: int = 2) -> PointCloud:
    """Points spaced eps/2 along the x-axis through the origin."""
    xs = np.arange(-half_extent, half_extent + eps / 4, eps / 2)
    pts = np.zeros((len(xs), dim))
    pts[:, 0] = xs
    return PointCloud(pts)


class TestClassifyPoint:
    def test_edge_interior_on_line(self):
        eps = 0.1
        cfg = ReconstructionConfig(R=12 * eps, eps=eps)
        cloud = line_cloud(eps, half_extent=4.0)
        center = int(np.argmin(np.linalg.norm(cloud.coords, axis=1)))
        label = classify_point(cloud, center, cfg)
        assert not label.vertex_like
        assert label.ball_connected
        assert label.shell_components == 2
        # two shell centroids sit on opposite sides: inner product near -R^2
        assert label.inner_product == pytest.approx(-cfg.R**2, rel=0.1)
        assert label.inner_product <= inner_product_threshold(cfg)

    def test_three_star_center(self):
        eps = 0.1
        cfg = ReconstructionConfig(R=12 * eps, eps=eps)
        rows = [np.zeros((1, 2))]
        for angle in (0.0, 2 * math.pi / 3, 4 * math.pi / 3):
            d = np.array([math.cos(angle), math.sin(angle)])
            steps = np.arange(eps / 2, 3.0, eps / 2)
            rows.append(steps[:, None] * d[None, :])
        cloud = PointCloud(np.vstack(rows))
        label = classify_point(cloud, 0, cfg)
        assert label.vertex_like
        assert label.shell_components == 3

    def test_isolated_point(self):
        cfg = ReconstructionConfig(R=1.2, eps=0.1)
        cloud = PointCloud([[0.0, 0.0], [100.0, 100.0]])
        label = classify_point(cloud, 0, cfg)
        assert label.vertex_like
        assert label.ball_connected
        assert label.shell_components == 0

    def test_locality(self):
        # adding a point beyond R + eps of p never changes p's label
        eps = 0.1
        cfg = ReconstructionConfig(R=1.2, eps=eps)
        cloud = line_cloud(eps, half_extent=4.0)
        center = int(np.argmin(np.linalg.norm(cloud.coords, axis=1)))
        before = classify_point(cloud, center, cfg)
        far = cloud.coords[center] + np.array([0.0, cfg.ball_radius + 1e-6])
        bigger = PointCloud(np.vstack([cloud.coords, far[None, :]]))
        after = classify_point(bigger, center, cfg)
        assert before == after


class TestPartition:
    def test_empty_cloud_both_sets_empty(self):
        cfg = ReconstructionConfig(R=1.2, eps=0.1)
        part = partition(PointCloud(np.empty((0, 2))), cfg)
        assert part.p0.size == 0 and part.p1.size == 0

    def test_singleton_cloud_vertex_like(self):
        cfg = ReconstructionConfig(R=1.2, eps=0.1)
        part = partition(PointCloud([[0.0, 0.0]]), cfg)
        assert part.p0.tolist() == [0] and part.p1.size == 0

    def test_single_segment_far_zone_is_edge_like(self):
        eps = 0.1
        cfg = ReconstructionConfig(R=12 * eps, eps=eps)
        half = 4.0
        cloud = line_cloud(eps, half_extent=half)
        part = partition(cloud, cfg)
        endpoints = np.array([[-half, 0.0], [half, 0.0]])
        far_zone = (3 * cfg.R + cfg.eps) / 2
        for idx in range(len(cloud)):
            d = min(np.linalg.norm(cloud.coords[idx] - e) for e in endpoints)
            if d > far_zone:
                assert idx in part.p1, f"interior point {idx} misclassified"

    def test_fixture_p0_forms_five_clusters(self, fixture_cloud, ratio8_config):
        part = partition(fixture_cloud, ratio8_config)
        cc = cluster_p0(fixture_cloud, part, ratio8_config)
        assert cc.num_components == 5


@st.composite
def clouds(draw):
    """Small clouds in dims 1-5: on an eps/4 grid (exact ties), arbitrary
    floats, or a noisy line (two-cluster shells), with duplicated points."""
    dim = draw(st.integers(1, 5))
    m = draw(st.integers(0, 30))
    kind = draw(st.sampled_from(["grid", "float", "line"]))
    if kind == "grid":
        coords = draw(hnp.arrays(float, (m, dim), elements=st.integers(-16, 16).map(lambda k: k * 0.025)))
    else:
        coords = draw(
            hnp.arrays(float, (m, dim), elements=st.floats(-1.5, 1.5, allow_nan=False, width=64))
        )
        if kind == "line":
            coords = coords * 0.03
            coords[:, 0] += np.linspace(-1.5, 1.5, m)
    if m:
        dups = draw(st.lists(st.integers(0, m - 1), max_size=6))
        coords = np.vstack([coords, coords[dups]])
    return PointCloud(coords.reshape(-1, dim))


class TestClassifyAll:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(cloud=clouds(), ratio=st.sampled_from([3.0, 8.0, 12.0]))
    def test_matches_classify_point(self, cloud, ratio):
        cfg = ReconstructionConfig(R=ratio * 0.1, eps=0.1)
        assert label_rows(classify_all(cloud, cfg)) == [classify_point(cloud, i, cfg) for i in range(len(cloud))]


class TestCheckAssumptions:
    def test_boundary_of_strict_separation(self):
        R, eps = 1.2, 0.1
        d = 4.5 * R + 6 * eps  # exactly the bound: strict inequality fails
        spec = gs.EmbeddedGraphSpec(np.array([[0.0, 0.0], [d, 0.0]]), ((0, 1),))
        report = check_assumptions(spec, ReconstructionConfig(R, eps))
        assert not report.conditions[0].passed
        assert "vertices 0,1" in report.conditions[0].witness

    def test_fixture_at_ratio8(self, fixture_spec):
        # conditions 1-3 and 5 hold; condition 4 fails: the minimum
        # shared-vertex angle 1.1084 rad is below Phi(0.8, 0.1) = 1.4653
        report = check_assumptions(fixture_spec, ReconstructionConfig(0.8, 0.1))
        names = {c.name: c.passed for c in report.conditions}
        assert names["vertex_separation"]
        assert names["vertex_edge_clearance"]
        assert names["edge_edge_clearance"]
        assert not names["angle_lower_bound"]
        assert names["deg2_angle_upper_bound"]
        assert not report.all_passed

    def test_degree2_pi_angle_rejected_by_spec_type(self):
        with pytest.raises(ValueError):
            gs.EmbeddedGraphSpec(
                np.array([[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]), ((0, 1), (1, 2))
            )

    def test_degree2_near_pi_fails_condition5(self):
        # angle just under pi passes the type check but exceeds Psi
        spec = gs.EmbeddedGraphSpec(
            np.array([[-10.0, 0.0], [0.0, 0.0], [10.0, 0.01]]), ((0, 1), (1, 2))
        )
        report = check_assumptions(spec, ReconstructionConfig(1.2, 0.1))
        assert not report.conditions[4].passed
        assert "degree-2" in report.conditions[4].witness

    def test_compliant_graph_passes(self):
        cfg = gs.GraphGenConfig(R=0.6, eps=0.05)
        spec = gs.random_compliant_graph(2, 3, cfg, seed=0)
        assert check_assumptions(spec, cfg.reconstruction).all_passed


def sample_hypothesis_lemma21(rng, R, eps, dim, count):
    """Vectorized sampler for Lemma 2.1's hypotheses on the x-axis segment."""
    out = []
    while len(out) < count:
        n = count * 4
        p_base = np.zeros((n, dim))
        p = p_base.copy()
        p[:, :] += _ball(rng, n, dim, eps)
        side = rng.choice([-1.0, 1.0], size=n)
        arc1 = side * rng.uniform(R - 2 * eps, R + 2 * eps, size=n)
        arc2 = -side * rng.uniform(R - 2 * eps, R + 2 * eps, size=n)
        x1 = np.zeros((n, dim))
        x1[:, 0] = arc1
        x1 += _ball(rng, n, dim, eps)
        x2 = np.zeros((n, dim))
        x2[:, 0] = arc2
        x2 += _ball(rng, n, dim, eps)
        d1 = np.linalg.norm(x1 - p, axis=1)
        d2 = np.linalg.norm(x2 - p, axis=1)
        s1 = x1[:, 0] - p[:, 0]
        s2 = x2[:, 0] - p[:, 0]
        keep = (
            (d1 >= R - eps) & (d1 <= R + eps) & (d2 >= R - eps) & (d2 <= R + eps)
            & (np.sign(s1) != np.sign(s2)) & (s1 != 0) & (s2 != 0)
        )
        for i in np.flatnonzero(keep):
            out.append((p[i], x1[i], x2[i]))
            if len(out) == count:
                break
    return out


def _ball(rng, n, dim, radius):
    d = rng.normal(size=(n, dim))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    return d * (radius * rng.random(n) ** (1 / dim))[:, None]


class TestGeometricLemmas:
    def test_opposite_side_inner_product_bound(self):
        # points near one segment, on opposite sides of the hyperplane at p
        rng = np.random.default_rng(21)
        for (R, eps, dim) in ((12.0, 0.9, 2), (6.0, 0.4, 3), (2.0, 0.12, 5)):
            bound = -R * R + 2 * R * eps + 7 * eps * eps
            for (p, x1, x2) in sample_hypothesis_lemma21(rng, R, eps, dim, 400):
                assert np.dot(x1 - p, x2 - p) <= bound + 1e-9

    def test_angle_separation_bound(self):
        # two rays at angle above the bound keep eps-noisy far points 3 eps apart
        rng = np.random.default_rng(22)
        for _ in range(400):
            dim = int(rng.integers(2, 5))
            eps = float(rng.uniform(0.05, 0.5))
            D = float(rng.uniform(2.2 * eps, 10 * eps))
            bound = math.acos((2 * D * D - 9 * eps * eps) / (2 * D * D)) + 2 * math.asin(eps / D)
            if bound >= math.pi:
                continue
            alpha = rng.uniform(bound + 1e-9, math.pi)
            d1 = np.zeros(dim)
            d1[0] = 1.0
            d2 = np.zeros(dim)
            d2[0] = math.cos(alpha)
            d2[1] = math.sin(alpha)
            r1 = rng.uniform(D, 3 * D)
            r2 = rng.uniform(D, 3 * D)
            x1 = d1 * r1 + _ball(rng, 1, dim, eps)[0]
            x2 = d2 * r2 + _ball(rng, 1, dim, eps)[0]
            if np.linalg.norm(x1) <= D or np.linalg.norm(x2) <= D:
                continue
            assert np.linalg.norm(x1 - x2) > 3 * eps
