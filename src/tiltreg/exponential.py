"""The tilted exponential in its median parameterization.

With an exponential baseline of rate ``lam`` the tilted CDF collapses to

    F(x) = (1 - exp(-lam*x)) * exp(-exp(-beta*lam*x)),    x > 0.

That law is ``TiltedDistribution(ExponentialBaseline(lam), beta)``; this
module defines no distribution class of its own.  It holds the median
reparameterization and the vectorized kernels the regression evaluates once
per observation.

The median parameterization replaces (beta, lam) by (mu, sigma), where mu is
the distribution's median and sigma > 0 reshapes the tails:

    lam  = (sigma + log 2) / mu,
    beta = -log(log(2*(1 - exp(-(sigma + log 2))))) / (sigma + log 2).

Writing c = sigma + log 2 and L = log(2*(1 - e^-c)), the CDF becomes

    F(x) = (1 - exp(-c*x/mu)) * exp(-L^(x/mu)),

and F(mu) = 0.5 identically, which is what makes the pair (mu, sigma) usable
as location/shape coordinates in a median regression.
"""

from __future__ import annotations

import math

import numpy as np

from .baseline import ExponentialBaseline
from .family import TiltedDistribution

_LOG2 = math.log(2.0)

# Below this sigma the implied beta overflows (the inner logarithm of the
# reparameterization tends to zero); reject instead of feeding exp() garbage.
_SIGMA_MIN = 1e-8


def _log_expm1(t):
    """log(exp(t) - 1) for t > 0 without overflow."""
    t = np.asarray(t, dtype=float)
    return np.where(t > 30.0, t, np.log(np.expm1(np.minimum(t, 30.0))))


def _reparam_constants(mu: float, sigma: float) -> tuple[float, float, float]:
    """(c, lam, logL) with c = sigma + log 2, lam = c/mu, L = log(2(1-e^-c)).

    For sigma > 0 we have c > log 2, hence 1 - e^-c > 1/2, hence L in (0, 1)
    and logL < 0.  That sign is what keeps the density bracket >= 1, so it is
    asserted rather than assumed.
    """
    c = sigma + _LOG2
    lam = c / mu
    L = math.log(2.0 * -math.expm1(-c))
    if not 0.0 < L < 1.0:
        raise AssertionError("tilt constant left (0, 1); reparameterization is broken")
    return c, lam, math.log(L)


def median_tilted_cdf(x, mu, sigma):
    """CDF of the median parameterization, vectorized over all arguments."""
    x = np.asarray(x, dtype=float)
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    c = sigma + _LOG2
    logL = np.log(np.log(2.0 * -np.expm1(-c)))
    return -np.expm1(-c * x / mu) * np.exp(-np.exp((x / mu) * logL))


def median_tilted_logpdf(x, mu, sigma):
    """Log-density of the median parameterization, vectorized and overflow-free.

    Evaluates the three printed factors in log space:

        log f = log(c/mu) - c*x/mu + log(bracket) - L^(x/mu),
        bracket = 1 + (-logL/c) * (e^{c*x/mu} - 1) * L^(x/mu),

    where powers L^(x/mu) are taken as exp((x/mu)*log L) in one shot.  The
    bracket's logarithm uses logaddexp so that large x/mu cannot overflow.
    """
    x = np.asarray(x, dtype=float)
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    c = sigma + _LOG2
    lam = c / mu
    logL = np.log(np.log(2.0 * -np.expm1(-c)))
    b = np.exp((x / mu) * logL)  # L^(x/mu) in (0, 1)
    log_bracket = np.logaddexp(
        0.0,
        np.log(-logL / c) + _log_expm1(lam * x) + (x / mu) * logL,
    )
    return np.log(lam) - lam * x + log_bracket - b


def median_tilted_derivatives(x, mu, sigma):
    """(d_u, d_v, d_uu, d_uv, d_vv) of log f in u = log(mu), v = log(sigma).

    Differentiates ``median_tilted_logpdf``'s log f = logaddexp(t1, t2) - b,
    t1 = log c - u - c r, t2 = log(1 - e^{-c r}) + log(-logL) - u + r logL,
    b = e^{r logL}, r = x/mu.  With the logaddexp weights w1, w2, the Hessian
    of logaddexp(t1, t2) is w1 H(t1) + w2 H(t2) + w1 w2 dd' with
    d = grad t1 - grad t2.  L = log1p(1 - e^-sigma) = log(2(1 - e^-c)) keeps
    its relative accuracy as sigma -> 0.  Vectorized.
    """
    x, mu, sigma = (np.asarray(a, dtype=float) for a in (x, mu, sigma))
    c = sigma + _LOG2
    sc = sigma / c
    L = np.log1p(-np.expm1(-sigma))
    logL = np.log(L)
    q = 1.0 / (2.0 * np.exp(sigma) - 1.0)  # dL/dc = e^-c / (1 - e^-c)
    l_v = sigma * q / L  # d logL / dv, then d2 logL / dv2
    l_vv = l_v - sigma * sigma * (q * (1.0 + q) / L + (q / L) ** 2)
    r = x / mu
    a = r * logL
    b = np.exp(a)
    lx = c * r
    E = -np.expm1(-lx)
    # k1 = lx/(e^lx - 1), k2 = lx^2 e^lx/(e^lx - 1)^2: from 1 at lx = 0 to 0.
    k1 = lx * np.exp(-lx) / E
    k2 = k1 * lx / E
    t1 = np.log(c) - np.log(mu) - lx
    t2 = np.log(E) + np.log(-logL) - np.log(mu) + a
    s = np.logaddexp(t1, t2)
    w1 = np.exp(t1 - s)
    w2 = np.exp(t2 - s)
    t1_u, t1_v = lx - 1.0, sc * (1.0 - lx)
    t2_u, t2_v = -k1 - 1.0 - a, sc * k1 + l_v / logL + r * l_v
    du, dv, w12 = t1_u - t2_u, t1_v - t2_v, w1 * w2
    return (
        w1 * t1_u + w2 * t2_u + a * b,
        w1 * t1_v + w2 * t2_v - b * r * l_v,
        -w1 * lx + w2 * (k1 - k2 + a) + w12 * du * du - b * a * (1.0 + a),
        w1 * sc * lx + w2 * (sc * (k2 - k1) - r * l_v) + w12 * du * dv
        + b * r * l_v * (1.0 + a),
        w1 * sc * (_LOG2 / c - lx)
        + w2 * (sc * (k1 - sc * k2) + l_vv / logL - (l_v / logL) ** 2 + r * l_vv)
        + w12 * dv * dv - b * r * (l_vv + r * l_v * l_v),
    )


def MedianTiltedExponential(mu: float, sigma: float) -> TiltedDistribution:
    """Tilted exponential located by its median ``mu`` with shape ``sigma``.

    Returns the generic family over an exponential baseline, with rate
    ``c/mu`` and shape ``-log(L)/c``; read them back as ``.baseline.rate``
    and ``.beta``.
    """
    if not (np.isfinite(mu) and mu > 0):
        raise ValueError("mu must be a positive finite number")
    if not (np.isfinite(sigma) and sigma > 0):
        raise ValueError("sigma must be a positive finite number")
    if sigma < _SIGMA_MIN:
        raise ValueError(
            f"sigma below {_SIGMA_MIN:g} makes the implied shape overflow"
        )
    c, lam, logL = _reparam_constants(mu, sigma)
    return TiltedDistribution(ExponentialBaseline(lam), -logL / c)
