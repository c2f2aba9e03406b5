"""The tilted exponential in its median parameterization.

With an exponential baseline of rate ``lam`` the tilted CDF collapses to

    F(x) = (1 - exp(-lam*x)) * exp(-exp(-beta*lam*x)),    x > 0.

That law is ``TiltedDistribution(ExponentialBaseline(lam), beta)``; this
module defines no distribution class of its own.  It holds the median
reparameterization and the vectorized kernels the regression evaluates once
per observation.

The median parameterization replaces (beta, lam) by (mu, sigma), where mu is
the distribution's median and sigma > 0 reshapes the tails.  With
c = sigma + log 2 and L = log(2*(1 - e^-c)),

    lam = c / mu,    beta = -log(L) / c,
    F(x) = (1 - exp(-c*x/mu)) * exp(-L^(x/mu)),

so F(mu) = 0.5 identically, which is what makes the pair (mu, sigma) usable
as location/shape coordinates in a median regression.  L is computed as
log1p(1 - e^-sigma), which equals log(2*(1 - e^-c)) and keeps its relative
accuracy as sigma -> 0: L lies in (0, log 2) and beta stays finite for every
finite sigma > 0.
"""

from __future__ import annotations

import math

import numpy as np

from .baseline import ExponentialBaseline, _require_positive_finite
from .family import TiltedDistribution

_LOG2 = math.log(2.0)


def _shape_constants(sigma):
    """(c, L, log L) with c = sigma + log 2 and L = log1p(1 - e^-sigma)."""
    L = np.log1p(-np.expm1(-sigma))
    return sigma + _LOG2, L, np.log(L)


def _log_sum_exp(t1, t2):
    """log(e^t1 + e^t2) as max(t1, t2) + log1p(e^-|t1 - t2|), branch-free.

    np.logaddexp's form in vector passes, not its scalar loop.  fmin(nan, 1)
    adds log 2 where both terms are the same infinity; nan stays nan."""
    m = np.maximum(t1, t2)
    return m + np.log1p(np.fmin(np.exp(np.minimum(t1, t2) - m), 1.0))


def _log_density_terms(x, mu, sigma):
    """Intermediates of log f = log(e^t1 + e^t2) - b at r = x/mu.

    Returns (c, L, logL, r, lx, E, a, b, t1, t2, s) with lx = c r,
    E = 1 - e^-lx, a = r logL, b = e^a = L^r, t1 = log c - log mu - lx,
    t2 = log E + log(-logL) - log mu + a and s = log(e^t1 + e^t2): the
    density's two terms (c/mu) e^-lx and (-logL/mu) E L^r, times e^-b.
    """
    x, mu, sigma = (np.asarray(v, dtype=float) for v in (x, mu, sigma))
    c, L, logL = _shape_constants(sigma)
    r = x / mu
    lx = c * r
    E = -np.expm1(-lx)
    a = r * logL
    log_mu = np.log(mu)
    t1 = np.log(c) - log_mu - lx
    t2 = np.log(E) + np.log(-logL) - log_mu + a
    return c, L, logL, r, lx, E, a, np.exp(a), t1, t2, _log_sum_exp(t1, t2)


def median_tilted_cdf(x, mu, sigma):
    """CDF of the median parameterization, vectorized over all arguments."""
    x, mu, sigma = (np.asarray(v, dtype=float) for v in (x, mu, sigma))
    c, L, logL = _shape_constants(sigma)
    # L held across the n-sized temporaries below made glibc trim and re-fault
    # the heap top on every call (2.7x the page faults, bisection at n = 1e5).
    del L
    return -np.expm1(-c * x / mu) * np.exp(-np.exp((x / mu) * logL))


def median_tilted_logpdf(x, mu, sigma):
    """Log-density of the median parameterization, vectorized and overflow-free.

    log f = log(e^t1 + e^t2) - L^(x/mu), from ``_log_density_terms``; only
    e^(-c x/mu) is formed, so large x/mu cannot overflow.
    """
    *_, b, t1, t2, s = _log_density_terms(x, mu, sigma)
    return s - b


def median_tilted_derivatives(x, mu, sigma):
    """log f and (d_u, d_v, d_uu, d_uv, d_vv), its derivatives in u = log(mu)
    and v = log(sigma).

    log f = s - b comes from the same intermediates and operations as in
    ``median_tilted_logpdf``, so the two are equal bit for bit.  With the
    weights w1 = e^(t1 - s) and w2 = e^(t2 - s), the Hessian of
    s = log(e^t1 + e^t2) is w1 H(t1) + w2 H(t2) + w1 w2 dd' with
    d = grad t1 - grad t2.  Vectorized.
    """
    c, L, logL, r, lx, E, a, b, t1, t2, s = _log_density_terms(x, mu, sigma)
    sigma = np.asarray(sigma, dtype=float)
    sc = sigma / c
    q = 1.0 / (2.0 * np.exp(sigma) - 1.0)  # dL/dc = e^-c / (1 - e^-c)
    l_v = sigma * q / L  # d logL / dv, then d2 logL / dv2
    l_vv = l_v - sigma * sigma * (q * (1.0 + q) / L + (q / L) ** 2)
    lv_logL, r_lv, r_lvv = l_v / logL, r * l_v, r * l_vv
    ab, br_lv, a1 = a * b, b * r_lv, 1.0 + a
    # k1 = lx/(e^lx - 1), k2 = lx^2 e^lx/(e^lx - 1)^2: from 1 at lx = 0 to 0.
    k1 = lx * np.exp(-lx) / E
    k2 = k1 * lx / E
    dk = k1 - k2
    w1 = np.exp(t1 - s)
    w2 = np.exp(t2 - s)
    t1_u, t1_v = lx - 1.0, sc * (1.0 - lx)
    t2_u, t2_v = -1.0 - k1 - a, sc * k1 + lv_logL + r_lv
    du, dv, w12 = t1_u - t2_u, t1_v - t2_v, w1 * w2
    w1_sc, w12_du = w1 * sc, w12 * du
    return (
        s - b,
        w1 * t1_u + w2 * t2_u + ab,
        w1 * t1_v + w2 * t2_v - br_lv,
        w2 * (dk + a) - w1 * lx + w12_du * du - ab * a1,
        w1_sc * lx - w2 * (sc * dk + r_lv) + w12_du * dv + br_lv * a1,
        w1_sc * (_LOG2 / c - lx)
        + w2 * (sc * (k1 - sc * k2) + l_vv / logL - lv_logL * lv_logL + r_lvv)
        + w12 * dv * dv - b * r_lvv - br_lv * r_lv,
    )


def MedianTiltedExponential(mu: float, sigma: float) -> TiltedDistribution:
    """Tilted exponential located by its median ``mu`` with shape ``sigma``.

    Returns the generic family over an exponential baseline, with rate
    ``c/mu`` and shape ``-log(L)/c``; read them back as ``.baseline.rate``
    and ``.beta``.
    """
    _require_positive_finite(mu, "mu")
    _require_positive_finite(sigma, "sigma")
    c, _, logL = _shape_constants(sigma)
    return TiltedDistribution(ExponentialBaseline(c / mu), float(-logL / c))
