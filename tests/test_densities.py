from __future__ import annotations

import math
import re
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import simpson

from graphskel.densities import (
    edge_log_density,
    edge_log_density_grad_batch,
    endpoint_gradients,
    log_erf_diff,
    vertex_log_density,
)
from oracles import edge_density_quadrature, edge_log_density_grad

mp.mp.dps = 40


class TestVertexLogDensity:
    def test_peak_value_2d(self):
        assert vertex_log_density((1.0, 2.0), (1.0, 2.0), 1.0) == pytest.approx(
            -math.log(2 * math.pi)
        )

    def test_standard_normal_1d(self):
        got = vertex_log_density((1.0,), (0.0,), 1.0)
        assert got == pytest.approx(-0.5 * math.log(2 * math.pi) - 0.5)

    def test_rejects_bad_sigma(self):
        # both density functions check sigma as StrataModel does
        zero = np.zeros(1, dtype=int)
        for bad in (0.0, -1.0, math.nan, math.inf, 1e-300, 1e300, np.array([0.5, 0.5])):
            with pytest.raises(ValueError, match="sigma"):
                vertex_log_density((0.0,), (0.0,), bad)
            with pytest.raises(ValueError, match="sigma"):
                edge_log_density_grad_batch([[0.0]], [[0.0]], [[1.0]], bad, zero, zero)

    def test_normalizes_on_grid(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=2)
        sigma = 0.7
        span = np.linspace(-8 * sigma, 8 * sigma, 321)
        xx, yy = np.meshgrid(v[0] + span, v[1] + span, indexing="ij")
        pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
        dens = np.exp(vertex_log_density(pts, v, sigma)).reshape(xx.shape)
        mass = simpson(simpson(dens, x=v[1] + span, axis=1), x=v[0] + span)
        assert mass == pytest.approx(1.0, abs=1e-4)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(1)
        xs = rng.normal(size=(6, 3))
        v = rng.normal(size=3)
        batch = vertex_log_density(xs, v, 0.4)
        for i, x in enumerate(xs):
            assert batch[i] == pytest.approx(vertex_log_density(x, v, 0.4), rel=1e-14)
        # every vertex of a block in one call
        vs = rng.normal(size=(4, 3))
        block = vertex_log_density(xs[:, None, :], vs, 0.4)
        assert block.shape == (6, 4)
        for k in range(4):
            assert np.array_equal(block[:, k], vertex_log_density(xs, vs[k], 0.4))


class TestEdgeDensityQuadrature:
    def test_long_segment_one_dim_limit(self):
        # at the midpoint of a long 1-d segment the density approaches 1/length
        v1, v2 = np.array([-5.0]), np.array([5.0])
        got = edge_density_quadrature(np.array([0.0]), v1, v2, sigma=0.01)
        assert got == pytest.approx(0.1, abs=1e-6)

    def test_mirror_symmetry(self):
        rng = np.random.default_rng(2)
        v1, v2 = rng.normal(size=(2, 3))
        mid = 0.5 * (v1 + v2)
        x = rng.normal(size=3)
        mirrored = 2 * mid - x
        a = edge_density_quadrature(x, v1, v2, 0.3)
        b = edge_density_quadrature(mirrored, v1, v2, 0.3)
        assert a == pytest.approx(b, rel=1e-10)

    def test_total_mass_2d(self):
        v1, v2 = np.array([-0.8, 0.0]), np.array([0.9, 0.4])
        sigma = 0.5
        lo = np.minimum(v1, v2) - 8 * sigma
        hi = np.maximum(v1, v2) + 8 * sigma
        gx = np.linspace(lo[0], hi[0], 161)
        gy = np.linspace(lo[1], hi[1], 161)
        dens = np.empty((gx.size, gy.size))
        for i, x0 in enumerate(gx):
            for j, y0 in enumerate(gy):
                dens[i, j] = edge_density_quadrature(np.array([x0, y0]), v1, v2, sigma)
        mass = simpson(simpson(dens, x=gy, axis=1), x=gx)
        assert mass == pytest.approx(1.0, abs=1e-4)

    def test_degenerate_segment(self):
        with pytest.raises(ValueError):
            edge_density_quadrature(np.zeros(2), np.ones(2), np.ones(2), 0.1)


class TestEdgeLogDensity:
    def test_matches_quadrature(self):
        # points up to 10 sigma from the segment: representable in doubles on
        # both routes (the 50-sigma regime is covered by the tail test)
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(250):
            n = int(rng.choice([2, 3]))
            sigma = float(10 ** rng.uniform(-3, 0))
            v1, v2 = rng.normal(size=(2, n))
            while np.linalg.norm(v1 - v2) < 1e-2:
                v2 = rng.normal(size=n)
            t = rng.uniform(0.0, 1.0)
            base = t * v1 + (1 - t) * v2
            off = rng.normal(size=n)
            off /= np.linalg.norm(off)
            x = base + off * rng.uniform(0, 10 * sigma)
            want = edge_density_quadrature(x, v1, v2, sigma)
            got = float(np.exp(edge_log_density(x, v1, v2, sigma)))
            worst = max(worst, abs(got - want) / max(want, 1e-300))
        assert worst <= 1e-8

    def test_endpoint_swap_symmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.choice([2, 3, 4]))
            v1, v2 = rng.normal(size=(2, n))
            x = rng.normal(size=n)
            a = edge_log_density(x, v1, v2, 0.2)
            b = edge_log_density(x, v2, v1, 0.2)
            assert a == pytest.approx(b, abs=1e-12)

    def test_far_tail_is_finite(self):
        v1, v2 = np.array([0.0, 0.0]), np.array([1.0, 0.0])
        for sigma in (1e-3, 0.05, 1.0):
            x = np.array([0.5, 50 * sigma])
            val = edge_log_density(x, v1, v2, sigma)
            assert np.isfinite(val)
            assert val == pytest.approx(-1250.0, rel=0.01)

    def test_degenerate_segment(self):
        with pytest.raises(ValueError):
            edge_log_density(np.zeros(2), np.ones(2), np.ones(2), 0.1)

    def test_underflow_floors_not_nan(self):
        v1, v2 = np.array([0.0, 0.0]), np.array([1e-9, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            val = edge_log_density(np.array([40.0, 0.0]), v1, v2, 1.0)
        assert not np.isnan(val)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(5)
        xs = rng.normal(size=(7, 2))
        v1, v2 = rng.normal(size=(2, 2))
        batch = edge_log_density(xs, v1, v2, 0.3)
        for i, x in enumerate(xs):
            assert batch[i] == pytest.approx(edge_log_density(x, v1, v2, 0.3), rel=1e-14)

    def test_batch_accurate_far_from_origin(self):
        # the batch expands |s|^2 about the points' mean, so a shift of the
        # whole configuration keeps per-point accuracy
        rng = np.random.default_rng(15)
        xs = rng.normal(size=(50, 3))
        v1, v2 = rng.normal(size=(2, 3))
        shift = np.array([1e3, -2e3, 5e2])
        batch = edge_log_density(xs + shift, v1 + shift, v2 + shift, 0.05)
        single = [edge_log_density(x, v1, v2, 0.05) for x in xs]
        assert np.allclose(batch, single, rtol=1e-12, atol=1e-9)


class TestLogErfDiff:
    def mp_ref(self, a, b):
        # erf(a) - erf(b) via the cancellation-free erfc side at 60 digits
        with mp.workdps(60):
            a, b = mp.mpf(a), mp.mpf(b)
            if b >= 0:
                val = mp.erfc(b) - mp.erfc(a)
            elif a <= 0:
                val = mp.erfc(-a) - mp.erfc(-b)
            else:
                val = mp.erf(a) - mp.erf(b)
            return float(mp.log(val)) if val > 0 else -math.inf

    def test_against_mpmath_all_regimes(self):
        cases = []
        rng = np.random.default_rng(6)
        for _ in range(120):
            scale = 10 ** rng.uniform(-2, 1.3)
            a, b = sorted(rng.normal(scale=scale, size=2))
            cases.append((b, a))
        cases += [(5.0, 4.0), (25.0, 24.9), (-4.0, -5.0), (-24.9, -25.0), (1e-8, -1e-8)]
        for hi, lo in cases:
            got = log_erf_diff(hi, lo)
            want = self.mp_ref(hi, lo)
            if math.isinf(want):
                assert math.isinf(got)
            else:
                assert got == pytest.approx(want, rel=1e-11, abs=1e-11)

    def test_equal_arguments(self):
        assert log_erf_diff(1.0, 1.0) == -math.inf

    def test_deep_tail_no_nan(self):
        got = log_erf_diff(100.001, 100.0)
        assert np.isfinite(got)
        want = self.mp_ref(100.001, 100.0)
        assert got == pytest.approx(want, rel=1e-9)


class TestEdgeLogDensityGrad:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        h = 1e-6
        for _ in range(40):
            n = int(rng.choice([2, 3]))
            sigma = float(rng.uniform(0.05, 0.8))
            v1, v2 = rng.normal(size=(2, n))
            while np.linalg.norm(v1 - v2) < 0.1:
                v2 = rng.normal(size=n)
            x = rng.normal(size=(3, n))
            _, g1, g2 = edge_log_density_grad(x, v1, v2, sigma)
            for d in range(n):
                e = np.zeros(n)
                e[d] = h
                fd1 = (edge_log_density(x, v1 + e, v2, sigma) - edge_log_density(x, v1 - e, v2, sigma)) / (2 * h)
                fd2 = (edge_log_density(x, v1, v2 + e, sigma) - edge_log_density(x, v1, v2 - e, sigma)) / (2 * h)
                assert np.allclose(g1[:, d], fd1, rtol=1e-5, atol=1e-7)
                assert np.allclose(g2[:, d], fd2, rtol=1e-5, atol=1e-7)

    def test_underflowed_points_zero_grad(self):
        v1, v2 = np.array([0.0, 0.0]), np.array([1e-9, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            logrho, g1, g2 = edge_log_density_grad(np.array([[40.0, 0.0]]), v1, v2, 1.0)
        if np.isneginf(logrho[0]):
            assert np.all(g1 == 0) and np.all(g2 == 0)


class TestEdgeLogDensityGradBatchMask:
    """A selection held as a (K, m) bool grid is priced through its pair list."""

    def test_all_true_mask_is_no_mask(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            x, v1s, v2s, sigma = TestEdgeLogDensityGradBatchPairs.case(rng)
            seg, point = np.nonzero(np.ones((len(v1s), len(x)), dtype=bool))
            logrho, _ = edge_log_density_grad_batch(x, v1s, v2s, sigma, seg, point)
            # edge_log_density prices every point of one segment
            for k in range(len(v1s)):
                assert np.array_equal(logrho[seg == k], edge_log_density(x, v1s[k], v2s[k], sigma))

    def test_prices_only_the_masked_pairs(self):
        rng = np.random.default_rng(12)
        for density in (0.0, 0.1, 0.5):
            x, v1s, v2s, sigma = TestEdgeLogDensityGradBatchPairs.case(rng)
            k, m = len(v1s), len(x)
            full_seg, full_point = np.nonzero(np.ones((k, m), dtype=bool))
            logrho, coeffs = edge_log_density_grad_batch(x, v1s, v2s, sigma, full_seg, full_point)
            mask = rng.random((k, m)) < density
            seg, point = np.nonzero(mask)
            masked, masked_coeffs = edge_log_density_grad_batch(x, v1s, v2s, sigma, seg, point)
            flat = mask.ravel()  # full pairs are segment-major, as np.nonzero gives them
            assert masked.shape == (mask.sum(),)
            assert np.array_equal(masked, logrho[flat])
            for got, want in zip(masked_coeffs[:5], coeffs[:5]):  # alpha1, beta1, alpha2, beta2, seg
                assert np.array_equal(got, want[flat])
            assert np.array_equal(masked_coeffs.s, coeffs.s[:, flat])
            assert np.array_equal(masked_coeffs.w, coeffs.w)


class TestEdgeLogDensityGradBatchPairs:
    @staticmethod
    def case(rng, k=4, m=60, n=3):
        x = rng.normal(size=(m, n)) * 2.0
        v1s, v2s = rng.normal(size=(2, k, n))
        return x, v1s, v2s, rng.uniform(0.1, 0.6)

    @staticmethod
    def grid(k, m):
        """Every (segment, point) pair, point-major."""
        return np.tile(np.arange(k), m), np.repeat(np.arange(m), k)

    def test_subset_matches_full_grid(self):
        rng = np.random.default_rng(12)
        for density in (0.05, 0.3, 1.0):
            x, v1s, v2s, sigma = self.case(rng)
            seg, point = self.grid(len(v1s), len(x))
            logrho, coeffs = edge_log_density_grad_batch(x, v1s, v2s, sigma, seg, point)
            # a random subset of the grid, in random order
            pick = rng.permutation(seg.size)[: int(density * seg.size)]
            sub, sub_coeffs = edge_log_density_grad_batch(x, v1s, v2s, sigma, seg[pick], point[pick])
            assert np.array_equal(sub, logrho[pick])
            for got, want in zip(sub_coeffs[:5], coeffs[:5]):  # alpha1, beta1, alpha2, beta2, seg
                assert np.array_equal(got, want[pick])
            assert np.array_equal(sub_coeffs.s, coeffs.s[:, pick])
            assert np.array_equal(sub_coeffs.w, coeffs.w)

    def test_weighted_gradients_add_in_pair_order(self):
        rng = np.random.default_rng(13)
        x, v1s, v2s, sigma = self.case(rng)
        seg, point = self.grid(len(v1s), len(x))
        _, coeffs = edge_log_density_grad_batch(x, v1s, v2s, sigma, seg, point)
        weights = np.where(rng.random(seg.size) < 0.2, rng.random(seg.size), 0.0)
        on = weights > 0
        _, sub_coeffs = edge_log_density_grad_batch(x, v1s, v2s, sigma, seg[on], point[on])
        # pairs of weight 0 change no bit of the sums
        for got, want in zip(endpoint_gradients(sub_coeffs, weights[on]), endpoint_gradients(coeffs, weights)):
            assert np.array_equal(got, want)

    def test_empty_pair_list(self):
        rng = np.random.default_rng(14)
        x, v1s, v2s, sigma = self.case(rng)
        none = np.array([], dtype=int)
        logrho, coeffs = edge_log_density_grad_batch(x, v1s, v2s, sigma, none, none)
        assert logrho.shape == (0,)
        assert all(c.shape == (0,) for c in coeffs[:5]) and coeffs.s.shape == (x.shape[1], 0)
        for grad in endpoint_gradients(coeffs, np.array([])):
            assert grad.shape == v1s.shape and np.all(grad == 0.0)

    @pytest.mark.parametrize(
        "seg, point, bad",
        [
            ([0, 1, 4, 2], [0, 1, 2, 3], "pair 2 (segment 4, point 2)"),
            ([0, 1, 2, 3], [0, 60, 2, 61], "pair 1 (segment 1, point 60)"),
            ([0, -1, 2, 3], [0, 1, 2, 3], "pair 1 (segment -1, point 1)"),
            ([0, 1, 2, 3], [0, 1, 2, -3], "pair 3 (segment 3, point -3)"),
        ],
        ids=["segment-past-last", "point-past-last", "negative-segment", "negative-point"],
    )
    def test_rejects_out_of_range_pairs(self, seg, point, bad):
        x, v1s, v2s, sigma = self.case(np.random.default_rng(15))
        with pytest.raises(ValueError, match=re.escape(bad)):
            edge_log_density_grad_batch(x, v1s, v2s, sigma, np.array(seg), np.array(point))

    def test_rejects_mismatched_pairs(self):
        x, v1s, v2s, sigma = self.case(np.random.default_rng(16))
        with pytest.raises(ValueError, match="equal length"):
            edge_log_density_grad_batch(x, v1s, v2s, sigma, np.arange(3), np.arange(4))
        with pytest.raises(ValueError, match="equal length"):
            edge_log_density_grad_batch(x, v1s, v2s, sigma, np.zeros((2, 2), dtype=int), np.zeros((2, 2), dtype=int))
