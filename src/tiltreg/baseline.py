"""Baseline distributions on the positive half-line.

The tilted family in :mod:`tiltreg.family` is generic over a baseline
distribution that supplies three log-space functions on the support
``(0, inf)``: the log-density ``log g``, the log-survival ``log(1 - G)`` and
its inverse.  The density, the CDF ``G`` and the quantile function follow
from them.  Baselines with any other support are not admitted.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np


def _require_positive(x, name: str):
    x = np.asarray(x, dtype=float)
    if np.any(~(x > 0)):
        raise ValueError(f"{name} must be strictly positive")
    return x


def _require_positive_finite(value, name: str):
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be a positive finite number")


def _require_probability(p, name: str = "p"):
    p = np.asarray(p, dtype=float)
    if np.any(~((p > 0) & (p < 1))):
        raise ValueError(f"{name} must lie strictly inside (0, 1)")
    return p


def _scalar_like(result, reference):
    """Return a Python float when the input was scalar, else the array."""
    if np.ndim(reference) == 0:
        return float(result)
    return result


class BaselineDistribution(ABC):
    """Continuous distribution on (0, inf) usable as a tilt baseline.

    A baseline defines three methods: ``log_pdf``, ``log_sf`` and
    ``quantile_from_log_sf``.  ``pdf`` is ``exp(log_pdf)``, and ``cdf`` and
    ``quantile`` are derived from the log-survival pair.  The log forms are
    the primitives because every tilted quantity is computed in log space:
    no form derived from a CDF stays accurate once G rounds to 1, and a
    ``log(pdf)`` is -inf once g underflows.

    All operations are pure functions of immutable parameters and accept
    scalars or NumPy arrays.
    """

    @abstractmethod
    def log_pdf(self, x):
        """log g(x), g = G', for x > 0."""

    @abstractmethod
    def log_sf(self, x):
        """log(1 - G(x)) for x > 0, finite wherever 1 - G(x) is representable."""

    @abstractmethod
    def quantile_from_log_sf(self, log_s):
        """x with log(1 - G(x)) = log_s, for log_s < 0."""

    def cdf(self, x):
        """G(x) = -expm1(log(1 - G(x)))."""
        return _scalar_like(-np.expm1(self.log_sf(x)), x)

    def quantile(self, p):
        """Inverse CDF for p in (0, 1): the x whose log-survival is log1p(-p)."""
        p = _require_probability(p)
        return _scalar_like(self.quantile_from_log_sf(np.log1p(-p)), p)

    def pdf(self, x):
        """g(x) = exp(log g(x))."""
        return _scalar_like(np.exp(self.log_pdf(x)), x)


@dataclass(frozen=True)
class ExponentialBaseline(BaselineDistribution):
    """Exponential distribution with rate ``rate`` per unit of x.

    log(1 - G(x)) = -rate*x and log g(x) = log(rate) - rate*x, so the derived
    cdf(x) = -expm1(-rate*x) and quantile(p) = -log1p(-p)/rate.
    """

    rate: float

    def __post_init__(self):
        _require_positive_finite(self.rate, "rate")

    def log_pdf(self, x):
        x = _require_positive(x, "x")
        return _scalar_like(np.log(self.rate) - self.rate * x, x)

    def log_sf(self, x):
        x = _require_positive(x, "x")
        return _scalar_like(-self.rate * x, x)

    def quantile_from_log_sf(self, log_s):
        return _scalar_like(-np.asarray(log_s, dtype=float) / self.rate, log_s)
