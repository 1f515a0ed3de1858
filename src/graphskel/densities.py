"""Strata densities: isotropic point Gaussians and segment-convolved Gaussians.

The segment density is the convolution of uniform measure on a segment with an
isotropic Gaussian. It has a closed form built from a difference of error
functions; that difference is evaluated through the scaled complementary error
function whenever both arguments share a sign, because the naive difference
cancels to zero a few sigma away from the segment. One batch kernel prices
every (segment, point) pair it is asked for, together with the coefficients
of the endpoint gradients.
"""
from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np
from scipy.special import erf, erfcx

__all__ = [
    "vertex_log_density",
    "edge_log_density",
    "edge_log_density_grad_batch",
    "EdgeCoefficients",
    "endpoint_gradients",
    "log_erf_diff",
]

_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)


def _check_sigma(sigma) -> float:
    """One positive noise scale as a float, whose square (in every density) is a finite normal double."""
    if np.ndim(sigma) != 0:
        raise ValueError(f"sigma must be one number, got shape {np.shape(sigma)}")
    sigma = float(sigma)
    if not (sigma > 0 and np.finfo(float).tiny <= sigma * sigma < math.inf):
        raise ValueError(f"sigma must be positive with a finite normal square (about 1.5e-154 to 1.3e154), got {sigma}")
    return sigma


def vertex_log_density(x, v, sigma):
    """Log of the isotropic Gaussian N(v, sigma^2 I) at x, for one float sigma.

    x and v broadcast, with coordinates on the last axis: a point (n,) gives a
    scalar, a batch (m, n) gives (m,), and x[:, None, :] against K vertices
    (K, n) gives (m, K).
    """
    sigma = _check_sigma(sigma)
    v = np.asarray(v, dtype=float)
    x = np.asarray(x, dtype=float)
    n = v.shape[-1]
    with np.errstate(over="ignore"):  # astronomically distant points -> -inf
        sq = np.sum((x - v) ** 2, axis=-1)
        out = -0.5 * n * np.log(2 * math.pi * sigma * sigma) - sq / (2 * sigma * sigma)
    return float(out) if out.ndim == 0 else out


def log_erf_diff(a, b):
    """log(erf(a) - erf(b)) for a >= b, stable for large same-sign arguments.

    Mixed-sign arguments have no cancellation and use erf directly; same-sign
    arguments route through erfcx, non-positive ones by way of
    erf(a) - erf(b) = erf(-b) - erf(-a). A difference that underflows to zero
    yields -inf rather than NaN.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a, b = np.broadcast_arrays(a, b)
    out = np.full(a.shape, -np.inf)

    with np.errstate(divide="ignore", invalid="ignore", under="ignore", over="ignore"):
        hi, lo = np.where(a <= 0, -b, a), np.where(a <= 0, -a, b)
        same_sign = lo >= 0
        if np.any(same_sign):
            ah, bl = hi[same_sign], lo[same_sign]
            inner = erfcx(bl) - erfcx(ah) * np.exp(bl * bl - ah * ah)
            out[same_sign] = np.where(inner > 0, np.log(np.maximum(inner, 1e-300)) - bl * bl, -np.inf)

        mixed = ~same_sign
        if np.any(mixed):
            out[mixed] = np.log(erf(a[mixed]) - erf(b[mixed]))

    return out if out.ndim else float(out)


def edge_log_density(x, v1, v2, sigma: float):
    """Closed-form log density of the segment-convolved Gaussian.

    Symmetric under endpoint swap. x may be (n,) or (m, n). Points whose erf
    difference underflows even on the stable path get -inf (with a warning),
    never NaN.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    x = np.atleast_2d(x)
    out, _ = edge_log_density_grad_batch(x, [v1], [v2], sigma, np.zeros(len(x), dtype=np.intp), np.arange(len(x)))
    if np.any(np.isneginf(out)):
        warnings.warn(
            "edge_log_density underflowed to -inf for some points (erf difference below "
            "double precision); results are floored, not NaN",
            RuntimeWarning,
            stacklevel=2,
        )
    return float(out[0]) if single else out


class EdgeCoefficients(NamedTuple):
    """Everything the weighted endpoint gradients need, one entry per pair.

    Pair p is segment k = seg[p] at a point x. d log rho_k(x) / d v1_k =
    alpha1[p] * s[:, p] + beta1[p] * w_k (v2_k likewise with alpha2, beta2),
    where s[:, p] = v1_k + v2_k - 2 x and w_k = v1_k - v2_k. None of it
    depends on the weights. Underflowed pairs get zero coefficients; their
    responsibilities vanish in the same regime.
    """

    alpha1: np.ndarray  # (P,)
    beta1: np.ndarray  # (P,)
    alpha2: np.ndarray  # (P,)
    beta2: np.ndarray  # (P,)
    seg: np.ndarray  # (P,) segment of each pair
    s: np.ndarray  # (n, P), one row per coordinate
    w: np.ndarray  # (K, n)


def _pair_indices(seg, point, k: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """seg and point as index arrays, checked: a negative index would wrap."""
    seg, point = (np.asarray(i).astype(np.intp, casting="same_kind", copy=False) for i in (seg, point))
    if seg.ndim != 1 or seg.shape != point.shape:
        raise ValueError(f"seg and point must be 1-D and of equal length, got shapes {seg.shape} and {point.shape}")
    bad = (seg < 0) | (seg >= k) | (point < 0) | (point >= m)
    if np.any(bad):
        p = int(np.argmax(bad))
        raise ValueError(f"pair {p} (segment {seg[p]}, point {point[p]}) is outside {k} segments at {m} points")
    return seg, point


def edge_log_density_grad_batch(x, v1s, v2s, sigma: float, seg, point):
    """Log densities (P,) of segment seg[p] at point x[point[p]] under noise
    scale sigma, plus their gradient coefficients.

    With s = v1_k + v2_k - 2 x and w_k = v1_k - v2_k, a point enters the
    density only through g = s . w_k and |s|^2; s is formed about the mean of
    x, which keeps far-from-origin clouds accurate. Every formula runs on
    each pair alone, so a pair gets the same value, bit for bit, in any list
    that holds it; the full grid of K segments at m points prices them all.
    One evaluation serves every weighting: `endpoint_gradients` turns the
    returned `EdgeCoefficients` into weighted gradient sums.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    v1s = np.atleast_2d(np.asarray(v1s, dtype=float))
    v2s = np.atleast_2d(np.asarray(v2s, dtype=float))
    sigma = _check_sigma(sigma)
    w = v1s - v2s  # (K, n)
    ll = np.einsum("kn,kn->k", w, w)
    if np.any(ll == 0.0):
        dead = np.flatnonzero(ll == 0.0).tolist()
        raise ValueError(f"degenerate segment: edge endpoints coincide (strata {dead})")
    seg, point = _pair_indices(seg, point, w.shape[0], x.shape[0])

    origin = x.mean(axis=0)
    s = np.empty((x.shape[1], len(seg)))
    g = ss = 0.0
    # one coordinate at a time, so each pair's sums run in the same order in any list
    for sd, ud, xd, wd in zip(s, (v1s + v2s - 2.0 * origin).T, (x - origin).T, w.T):
        np.subtract(ud[seg], 2.0 * xd[point], out=sd)
        g = g + sd * wd[seg]
        ss = ss + sd * sd
    length = np.sqrt(ll)
    denom = (2.0 * math.sqrt(2.0) * length * sigma)[seg]
    sig2 = sigma * sigma
    llp = ll[seg]
    t_plus = (g + llp) / denom
    t_minus = (g - llp) / denom
    q = (g * g - llp * ss) / (8.0 * ll * sig2)[seg]
    del ss
    n = x.shape[1]
    const = (
        -0.5 * (n + 1) * math.log(2.0)
        + 0.5 * (1 - n) * math.log(math.pi)
        + (1 - n) * np.log(sigma)
        - np.log(length)
    )  # (K,)

    logdiff = log_erf_diff(t_plus, t_minus)
    logrho = logdiff + q + const[seg]
    del q

    finite = np.isfinite(logdiff)
    with np.errstate(under="ignore"):
        r_plus = np.where(finite, _TWO_OVER_SQRT_PI * np.exp(-t_plus * t_plus - logdiff), 0.0)
        r_minus = np.where(finite, _TWO_OVER_SQRT_PI * np.exp(-t_minus * t_minus - logdiff), 0.0)
    del logdiff

    g_over = g / (4.0 * ll * sig2)[seg]
    g2_over = g * g / (4.0 * ll * ll * sig2)[seg]
    del g
    quarter = 1.0 / (4.0 * sig2)

    beta1 = (
        r_plus * (3.0 / denom - t_plus / llp)
        + r_minus * (1.0 / denom + t_minus / llp)
        + g_over - g2_over - 1.0 / llp
    )
    beta2 = (
        r_plus * (t_plus / llp - 1.0 / denom)
        - r_minus * (3.0 / denom + t_minus / llp)
        + g_over + g2_over + 1.0 / llp
    )
    del t_plus, t_minus, g2_over
    r_diff = (r_plus - r_minus) / denom
    del r_plus, r_minus
    alpha1 = r_diff + g_over - quarter
    alpha2 = -r_diff - g_over - quarter
    del r_diff, g_over

    coeffs = (np.where(finite, c, 0.0) for c in (alpha1, beta1, alpha2, beta2))
    return logrho, EdgeCoefficients(*coeffs, seg, s, w)


def endpoint_gradients(coeffs: EdgeCoefficients, weights):
    """Weighted endpoint gradients G1, G2, each (K, n).

    G1_k = sum over the pairs p of segment k of weights[p] * d log rho_k /
    d v1_k (G2 likewise for v2_k). Each sum is an np.bincount, which adds in
    pair order, so pairs of weight 0 change no bit of it.
    """
    alpha1, beta1, alpha2, beta2, seg, s, w = coeffs
    wt = np.asarray(weights, dtype=float)
    k, n = w.shape
    bins = (seg + k * np.arange(n)[:, None]).ravel()  # the (coordinate, segment) of each entry of s

    def total(alpha, beta):
        pull = np.bincount(bins, (wt * alpha * s).ravel(), minlength=n * k).reshape(n, k).T
        return pull + w * np.bincount(seg, wt * beta, minlength=k)[:, None]

    return total(alpha1, beta1), total(alpha2, beta2)
