"""Strata densities: isotropic point Gaussians and segment-convolved Gaussians.

The segment density is the convolution of uniform measure on a segment with an
isotropic Gaussian. It has a closed form built from a difference of error
functions; that difference is evaluated through the scaled complementary error
function whenever both arguments share a sign, because the naive difference
cancels to zero a few sigma away from the segment. One batch kernel prices
every segment at every point it is asked for, together with the coefficients
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


def _check_sigma(sigma) -> np.ndarray:
    sigma = np.asarray(sigma, dtype=float)
    if not np.all(sigma > 0):
        raise ValueError(f"sigma must be positive, got {sigma}")
    return sigma


def vertex_log_density(x, v, sigma):
    """Log of the isotropic Gaussian N(v, sigma^2 I) at x.

    x, v and sigma broadcast, with coordinates on the last axis of x and v: a
    point (n,) gives a scalar, a batch (m, n) gives (m,), and x[:, None, :]
    against K vertices (K, n) with per-vertex sigma (K,) gives (m, K).
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
    logrho, _ = edge_log_density_grad_batch(x[None, :] if single else x, [v1], [v2], [sigma])
    out = logrho[0]
    if np.any(np.isneginf(out)):
        warnings.warn(
            "edge_log_density underflowed to -inf for some points (erf difference below "
            "double precision); results are floored, not NaN",
            RuntimeWarning,
            stacklevel=2,
        )
    return float(out[0]) if single else out


class EdgeCoefficients(NamedTuple):
    """Everything the weighted endpoint gradients of K segments need.

    d log rho_k(x_m) / d v1_k = alpha1[k, m] * s_km + beta1[k, m] * w_k (v2_k
    likewise with alpha2, beta2), where s_km = u_k - 2 xc_m, xc is x about
    its mean and w_k = v1_k - v2_k. None of it depends on the weights.
    Underflowed points get zero coefficients; their responsibilities vanish
    in the same regime. So do the pairs a masked call leaves unpriced.
    """

    alpha1: np.ndarray  # (K, m)
    beta1: np.ndarray  # (K, m)
    alpha2: np.ndarray  # (K, m)
    beta2: np.ndarray  # (K, m)
    xc: np.ndarray  # (m, n)
    u: np.ndarray  # (K, n)
    w: np.ndarray  # (K, n)


def edge_log_density_grad_batch(x, v1s, v2s, sigmas, mask=None):
    """Log densities (K, m) of K segments at m points, plus their gradient
    coefficients.

    With s_km = v1_k + v2_k - 2 x_m and w_k = v1_k - v2_k, a point enters the
    density only through g_km = s_km . w_k and |s_km|^2. Both are expanded
    about the mean of x into (K, n) @ (n, m) products, so no (K, m, n) array
    is formed. One evaluation serves every weighting: `endpoint_gradients`
    turns the returned `EdgeCoefficients` into weighted gradient sums.

    `mask` is an optional boolean (K, m) array of the pairs to price (None:
    all of them). Every formula after the products runs on the masked pairs
    alone, which gives each priced pair the same value as an unmasked call;
    the other pairs get log density -inf and zero coefficients.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    v1s = np.atleast_2d(np.asarray(v1s, dtype=float))
    v2s = np.atleast_2d(np.asarray(v2s, dtype=float))
    sigmas = np.atleast_1d(_check_sigma(sigmas))
    if sigmas.shape == (1,) and v1s.shape[0] > 1:
        sigmas = np.full(v1s.shape[0], sigmas[0])
    w = v1s - v2s  # (K, n)
    ll = np.einsum("kn,kn->k", w, w)
    if np.any(ll == 0.0):
        dead = np.flatnonzero(ll == 0.0).tolist()
        raise ValueError(f"degenerate segment: edge endpoints coincide (strata {dead})")

    origin = x.mean(axis=0)
    xc = x - origin
    u = v1s + v2s - 2.0 * origin  # s_km = u_k - 2 xc_m
    k, m = w.shape[0], x.shape[0]
    # the priced pairs by flat index into (K, m): stratum kk[p] at point mm[p]
    if mask is not None and np.shape(mask) != (k, m):
        raise ValueError(f"mask must have shape {(k, m)}, got {np.shape(mask)}")
    flat = np.arange(k * m) if mask is None else np.flatnonzero(mask)
    kk, mm = np.divmod(flat, m)

    wx, ux = np.split(np.vstack([w, u]) @ xc.T, [k])
    g = np.einsum("kn,kn->k", u, w)[kk] - 2.0 * wx.take(flat)
    ss = (
        np.einsum("kn,kn->k", u, u)[kk]
        - 4.0 * ux.take(flat)
        + 4.0 * np.einsum("mn,mn->m", xc, xc)[mm]
    )
    del wx, ux
    length = np.sqrt(ll)
    denom = (2.0 * math.sqrt(2.0) * length * sigmas)[kk]
    sig2 = sigmas * sigmas
    llp = ll[kk]
    t_plus = (g + llp) / denom
    t_minus = (g - llp) / denom
    q = (g * g - llp * ss) / (8.0 * ll * sigmas * sigmas)[kk]
    del ss
    n = x.shape[1]
    const = (
        -0.5 * (n + 1) * math.log(2.0)
        + 0.5 * (1 - n) * math.log(math.pi)
        + (1 - n) * np.log(sigmas)
        - np.log(length)
    )  # (K,)

    logdiff = log_erf_diff(t_plus, t_minus)
    logrho = np.full((k, m), -np.inf)
    logrho.put(flat, logdiff + q + const[kk])
    del q

    finite = np.isfinite(logdiff)
    with np.errstate(under="ignore"):
        r_plus = np.where(finite, _TWO_OVER_SQRT_PI * np.exp(-t_plus * t_plus - logdiff), 0.0)
        r_minus = np.where(finite, _TWO_OVER_SQRT_PI * np.exp(-t_minus * t_minus - logdiff), 0.0)
    del logdiff

    g_over = g / (4.0 * ll * sig2)[kk]
    g2_over = g * g / (4.0 * ll * ll * sig2)[kk]
    del g
    quarter = (1.0 / (4.0 * sig2))[kk]

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

    coeffs = np.zeros((4, k, m))
    for full, c in zip(coeffs, (alpha1, beta1, alpha2, beta2)):
        full.put(flat, np.where(finite, c, 0.0))
    return logrho, EdgeCoefficients(*coeffs, xc, u, w)


def endpoint_gradients(coeffs: EdgeCoefficients, weights):
    """Weighted endpoint gradients G1, G2, each (K, n).

    G1_k = sum_m weights[m, k] * d log rho_k(x_m) / d v1_k (G2 likewise for
    v2_k). Each gradient is alpha * s + beta * w, so the sum over points is
    one (K, m) @ (m, n) product plus row sums.
    """
    alpha1, beta1, alpha2, beta2, xc, u, w = coeffs
    wt = np.asarray(weights, dtype=float).T  # (K, m)
    a1, a2 = wt * alpha1, wt * alpha2
    k = w.shape[0]
    a1x, a2x = np.split(np.vstack([a1, a2]) @ xc, [k])
    grad1 = u * a1.sum(axis=1)[:, None] - 2.0 * a1x + w * (wt * beta1).sum(axis=1)[:, None]
    grad2 = u * a2.sum(axis=1)[:, None] - 2.0 * a2x + w * (wt * beta2).sum(axis=1)[:, None]
    return grad1, grad2
