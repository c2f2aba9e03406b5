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


def median_tilted_score(x, mu, sigma):
    """(d logf/d mu, d logf/d sigma) of the median parameterization.

    Differentiates the log-space decomposition used by
    ``median_tilted_logpdf``: with weights w1, w2 from the logaddexp of the
    two density branches,

        d logf = -db + w1*dt1 + w2*dt2

    applied coordinate-wise in mu and sigma.  Vectorized; used as the
    optimizer's internal gradient through the link chain rule.
    """
    x = np.asarray(x, dtype=float)
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    c = sigma + _LOG2
    lam = c / mu
    A = -np.expm1(-c)  # 1 - e^{-c}
    L = np.log(2.0 * A)
    logL = np.log(L)
    r = x / mu
    b = np.exp(r * logL)
    lx = lam * x
    E = -np.expm1(-lx)  # 1 - e^{-lam x}
    t1 = np.log(lam) - lx
    t2 = np.log(E) + np.log(-logL) - np.log(mu) + r * logL
    s = np.logaddexp(t1, t2)
    w1 = np.exp(t1 - s)
    w2 = np.exp(t2 - s)

    dlogL = np.exp(-c) / (A * L)  # d logL / d sigma
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(lx < 1e-8, 1.0 / lam, x * np.exp(-lx) / E)  # x e^-lx / E

    db_dmu = -b * r * logL / mu
    db_dsig = b * r * dlogL
    dt1_dmu = (lx - 1.0) / mu
    dt1_dsig = (1.0 - lx) / c
    dt2_dmu = -(lam * ratio + 1.0 + r * logL) / mu
    dt2_dsig = ratio / mu + dlogL / logL + r * dlogL

    d_mu = -db_dmu + w1 * dt1_dmu + w2 * dt2_dmu
    d_sigma = -db_dsig + w1 * dt1_dsig + w2 * dt2_dsig
    return d_mu, d_sigma


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
