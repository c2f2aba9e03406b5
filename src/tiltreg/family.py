"""Survival-tilted distributions built on a positive baseline.

A baseline CDF ``G`` with survival ``Gbar = 1 - G`` is mapped to

    F(x) = G(x) * exp(-Gbar(x)**beta),        x > 0, beta > 0,

with density

    f(x) = g(x) * [1 + beta*G(x)*Gbar(x)**(beta-1)] * exp(-Gbar(x)**beta).

The tilt factor ``exp(-Gbar**beta)`` equals the survival function of a
unit-scale Weibull with shape ``beta`` evaluated at ``Gbar(x)``; it thins the
lower tail of the baseline.  F is the law of max(X1, X2) for independent
X1 ~ G and X2 with CDF exp(-Gbar(x)**beta), that is Gbar(X2)**beta unit
exponential: P(X > x) = 1 - P(Gbar(X1) <= Gbar) P(Gbar(X2) <= Gbar).  This
identity explains the upper tail S = 1 - F ~ Gbar + Gbar**beta, the sum of the
two survivals: the baseline's for beta > 1, a heavier one, ~ Gbar**beta, for
beta < 1.  ``sample`` draws the maximum directly.  Quantiles and moments
route through a unit-interval auxiliary variable with CDF
``y * exp(-(1-y)**beta)``: if ``Y`` follows that law, ``G^{-1}(Y)``
follows ``F``.  They work in ``s = -log(1-Y)``, so no upper-tail ``Y`` rounds
to 1, and a moment E[X^p] is an expectation over ``s`` taken by
double-exponential quadrature; it is finite iff the integral of
x^(p-1) * Gbar(x)**min(1, beta) over (0, inf) is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .baseline import (
    BaselineDistribution,
    _require_positive,
    _require_positive_finite,
    _require_probability,
    _scalar_like,
)
from .errors import NumericalError

# Newton controls for the auxiliary quantile solve.
_ROOT_MAX_ITER = 200
_SOLVE_BLOCK = 16384
_LOG2 = float(np.log(2.0))
_TINY = np.finfo(float).tiny
# Below this log p the solve's residual takes the ratio form log(y/p).
_DEEP_LOG_P = -40.0
# Below this log Gbar and beta log Gbar, S = Gbar + Gbar^beta: the neglected
# terms are under e^-40 = 4e-18 relative.
_FAR_TAIL = -40.0

# Double-exponential rules (Takahasi & Mori 1974) at t = k/32, as nodes and
# d(node)/dt: exp-sinh on (0, inf) for k in [-144, 102] and tanh-sinh on (0, 1)
# for k in [-128, 128].  Both first k are even, so [::2] is the step-1/16 rule.
_T_ES, _T_TS = np.arange(-144, 103) / 32.0, np.arange(-128, 129) / 32.0
_ES_NODE = np.exp(0.5 * np.pi * np.sinh(_T_ES))
_ES_SLOPE = 0.5 * np.pi * np.cosh(_T_ES) * _ES_NODE
_TS_NODE = 1.0 / (1.0 + np.exp(-np.pi * np.sinh(_T_TS)))
_TS_SLOPE = 0.25 * np.pi * np.cosh(_T_TS) / np.cosh(0.5 * np.pi * np.sinh(_T_TS)) ** 2
# Longer windows, in units of the integrand's length scale, go by exp-sinh: at
# step 1/32 tanh-sinh cannot resolve mass packed near one end of them.
_TS_SPAN = 64.0
# Largest step gap: converged moments reach 4e-10 and divergent ones 0.1 or more.
_DE_GAP = 1e-8

# Subintervals of the mode scan.
_MODE_GRID = 256


def _log1mexp(x):
    # log(1 - e^-x) for x > 0; each branch is accurate on its own side of log 2
    with np.errstate(divide="ignore"):
        return np.where(x > _LOG2, np.log1p(-np.exp(-x)), np.log(-np.expm1(-x)))


def _aux_residual(s, beta, log_p, p):
    # g(s) = log(y) - e^(-beta s) - log p at y = 1 - e^-s, and 1/g'(s) with
    # g' = 1/expm1(s) + beta*e^(-beta s), finite for every s > 0.  Where
    # log p < -40, log(y) - log p would lose eps*|log p| to cancellation, so
    # g is taken as log(y/p) - e^(-beta s) there; p is None when no element
    # is that deep.
    e, y, w = np.exp(-s), -np.expm1(-s), np.exp(-beta * s)
    g = _log1mexp(s) - w - log_p
    if p is not None:
        deep = log_p < _DEEP_LOG_P
        g[deep] = np.log(y[deep] / p[deep]) - w[deep]
    return g, y / (e + beta * w * y)


def _aux_log_sf_solve(beta: float, p: np.ndarray) -> np.ndarray:
    """s = -log(1-q) for the auxiliary quantile q, elementwise.

    Newton on the increasing, concave g(s) = log(1-e^-s) - e^(-beta s) - log p
    (in ratio form where log p < -40, see ``_aux_residual``) from
    -log(t)/beta, t = -log p, inside the bracket s_lo = -log1p(-p),
    s_hi = max(s_lo, -log(1-e^(-t/2)), -log(t/2)/beta), narrowed by the sign
    of g; an iterate not strictly inside it is replaced by the midpoint.  An
    element stops once its step or bracket is within 4 ulp of s; only
    unconverged elements iterate on.  Blocks keep temporaries in cache.
    """
    p = np.asarray(p, dtype=float)
    if p.size > _SOLVE_BLOCK:
        s = [_aux_log_sf_solve(beta, p.flat[i:i + _SOLVE_BLOCK])
             for i in range(0, p.size, _SOLVE_BLOCK)]
        return np.concatenate(s).reshape(p.shape)
    shape = p.shape
    p = p.ravel()
    log_p = np.log(p)
    a = -np.log1p(-p)
    b = np.maximum(a, np.maximum(-_log1mexp(-0.5 * log_p),
                                 -np.log(-0.5 * log_p) / beta))
    s = np.clip(-np.log(-log_p) / beta, a, b)
    p = p if (log_p < _DEEP_LOG_P).any() else None
    out = np.empty_like(a)
    todo = np.arange(a.size)
    for _ in range(_ROOT_MAX_ITER):
        if todo.size == 0:
            return out.reshape(shape)
        g, inv_slope = _aux_residual(s, beta, log_p, p)
        step = g * inv_slope
        below = g < 0
        np.copyto(a, s, where=below)
        np.copyto(b, s, where=~below)
        tol = 4.0 * np.finfo(float).eps * s
        done = (np.abs(step) <= tol) | (b - a <= tol)
        s -= step
        if done.any():
            out[todo[done]] = np.clip(s[done], a[done], b[done])
            keep = np.flatnonzero(~done)
            todo, s, a, b, log_p = (v.take(keep) for v in (todo, s, a, b, log_p))
            p = None if p is None else p.take(keep)
        s = np.where((s > a) & (s < b), s, 0.5 * (a + b))
    raise NumericalError(f"auxiliary quantile solve did not converge within "
                         f"{_ROOT_MAX_ITER} iterations ({todo.size} elements left)")


@dataclass(frozen=True)
class TiltedDistribution:
    """Baseline distribution reshaped by the survival tilt with shape beta."""

    baseline: BaselineDistribution
    beta: float

    def __post_init__(self):
        _require_positive_finite(self.beta, "beta")
        if not isinstance(self.baseline, BaselineDistribution):
            raise TypeError("baseline must be a BaselineDistribution")
        # support must be (0, inf): a baseline putting mass at or below zero
        # has a non-positive lower quantile
        if not float(self.baseline.quantile_from_log_sf(np.log1p(-1e-12))) > 0.0:
            raise ValueError(
                "baseline support must be contained in (0, inf)"
            )

    # -- distribution functions ----------------------------------------

    def cdf(self, x):
        """F(x) = G(x) * exp(-Gbar(x)^beta), G = -expm1(log Gbar)."""
        x = _require_positive(x, "x")
        log_gbar = np.asarray(self.baseline.log_sf(x), dtype=float)
        G = -np.expm1(log_gbar)
        return _scalar_like(G * np.exp(-np.exp(self.beta * log_gbar)), x)

    def _log_gbar_and_sf(self, t):
        t = _require_positive(t, "t")
        log_gbar = np.asarray(self.baseline.log_sf(t), dtype=float)
        with np.errstate(divide="ignore"):
            log_G = np.log1p(-np.exp(log_gbar))
        return log_gbar, -np.expm1(log_G - np.exp(self.beta * log_gbar))

    def sf(self, t):
        """Survival 1 - F(t) = -expm1(log G - Gbar^beta), log G = log1p(-Gbar).

        No cancellation where F rounds to 1: S is accurate down to underflow.
        """
        return _scalar_like(self._log_gbar_and_sf(t)[1], t)

    def log_sf(self, t):
        """log S(t): log(sf), or logaddexp(log Gbar, beta log Gbar) in the far tail.

        Below ``_FAR_TAIL`` S = Gbar + Gbar^beta, so log S stays accurate
        where S underflows; it is -inf only where log Gbar is.
        """
        log_gbar, s = self._log_gbar_and_sf(t)
        tilted = self.beta * log_gbar
        with np.errstate(divide="ignore"):
            log_s = np.where(np.maximum(log_gbar, tilted) < _FAR_TAIL,
                             np.logaddexp(log_gbar, tilted), np.log(s))
        return _scalar_like(log_s, t)

    def log_pdf(self, x):
        """log f = log g + log(1 + beta*G*Gbar^(beta-1)) - Gbar^beta.

        The bracket is a logaddexp of log-space terms, so ``Gbar**(beta-1)``,
        which explodes for beta < 1 while f decays, is never formed; log G is
        log(-expm1(log Gbar)), which stays accurate at small x.  Where log Gbar
        is -inf (x = inf) log f is -inf for every beta.
        """
        x = _require_positive(x, "x")
        log_g = np.asarray(self.baseline.log_pdf(x), dtype=float)
        log_gbar = np.asarray(self.baseline.log_sf(x), dtype=float)
        # log Gbar = -inf gives nan (-inf + inf, 0*inf at beta = 1): selected away
        with np.errstate(divide="ignore", invalid="ignore"):
            log_G = np.log(-np.expm1(log_gbar))
            bump = np.log(self.beta) + log_G + (self.beta - 1.0) * log_gbar
            log_f = log_g + np.logaddexp(0.0, bump) - np.exp(self.beta * log_gbar)
        return _scalar_like(np.where(log_gbar == -np.inf, -np.inf, log_f), x)

    def pdf(self, x):
        """Density f = exp(log_pdf)."""
        return _scalar_like(np.exp(self.log_pdf(x)), x)

    def hazard(self, t):
        """f(t) / S(t) = exp(log f - log S).  Raises where log S is -inf."""
        log_s = np.asarray(self.log_sf(t), dtype=float)
        if np.any(np.isneginf(log_s)):
            raise NumericalError(
                "log survival is -inf at the requested point; the hazard "
                "is undefined there"
            )
        return _scalar_like(np.exp(np.asarray(self.log_pdf(t)) - log_s), t)

    # -- quantiles and sampling ----------------------------------------

    def quantile(self, p):
        """Inverse CDF: the baseline point whose log-survival is -s(p)."""
        p = _require_probability(p)
        s = _aux_log_sf_solve(self.beta, p)
        return _scalar_like(np.asarray(self.baseline.quantile_from_log_sf(-s)), p)

    def sample(self, n: int, seed: int) -> np.ndarray:
        """n draws from F by the max identity, deterministic for a given seed.

        log Gbar(X) = min(log U, log(E)/beta) for U uniform and E unit
        exponential (module docstring), and one baseline call maps it to x:
        no root is solved.  Where E >= 1, X2 sits at the bottom of the
        support and the minimum is log U.
        """
        if n < 1:
            raise ValueError("n must be at least 1")
        rng = np.random.default_rng(seed)
        u = rng.uniform(size=n)
        e = rng.standard_exponential(n)
        u[u == 0.0] = 1e-300  # keep both logs finite
        e[e == 0.0] = 1e-300
        # log U and log(E)/beta in place: no n-sized temporary beyond u and e
        np.log(u, out=u)
        np.log(e, out=e)
        e /= self.beta
        return np.asarray(self.baseline.quantile_from_log_sf(np.minimum(u, e, out=u)))

    # -- mode ------------------------------------------------------------

    def mode(self) -> float | None:
        """Interior mode, or None when no interior critical point exists.

        Evaluates d/dx log f (central differences) at the 257 points of an
        even grid on [lo, hi] in two array ``log_pdf`` calls, then polishes
        each subinterval where the slope passes from positive to negative (a
        local maximum) with Brent's method on the same slope function.  With
        several qualifying roots the one with the largest density wins.  The
        window covers [F^-1(0.001), F^-1(0.999)] by the max identity F = G H,
        H = exp(-Gbar^beta), from baseline quantiles: lo = G^-1(0.001) as
        F <= G, and hi = max(G^-1(q), H^-1(q)) with F(hi) >= q^2, q = sqrt(0.999).
        """
        q = math.sqrt(0.999)  # H^-1(q) has log Gbar = log(-log q) / beta
        lo = float(self.baseline.quantile(0.001))
        hi = max(float(self.baseline.quantile(q)), float(
            self.baseline.quantile_from_log_sf(math.log(-math.log(q)) / self.beta)))

        def slope(x):
            h = np.minimum(1e-6 * np.maximum(1.0, np.abs(x)), 0.5 * x)
            return (self.log_pdf(x + h) - self.log_pdf(x - h)) / (2 * h)

        xs = np.linspace(lo, hi, _MODE_GRID + 1)
        ss = slope(xs)
        rising = np.flatnonzero((ss[:-1] > 0.0) & (ss[1:] < 0.0))
        candidates = [float(brentq(slope, xs[i], xs[i + 1], xtol=1e-12)) for i in rising]
        if not candidates:
            return None
        return max(candidates, key=lambda x: float(self.pdf(x)))

    # -- moments ---------------------------------------------------------

    def truncated_moment(self, p: float, lower: float, upper: float) -> float:
        """E[X^p; lower < X < upper] as an expectation over the auxiliary variable.

        The integral of x(s)^p h(s) over (-log Gbar(lower), -log Gbar(upper)),
        with x(s) = ``baseline.quantile_from_log_sf(-s)`` and h the density
        exp(-e^(-beta s)) (e^-s + beta (1 - e^-s) e^(-beta s)) of S = -log(1-Y),
        which decays like e^(-min(1, beta) s); s^p h spreads over a few
        L = max(1, p)/min(1, beta).  Tanh-sinh on a window up to 64 L long, else
        exp-sinh in units of L beyond each end, at step 1/32.  Each term is
        formed as the product w x^p h, or in log space where x^p or h over- or
        underflows.  ``NumericalError`` if the sum is not finite (the
        moment overflows, or x does where h > 0) or the step-1/16 sum differs
        by over 1e-8 relative, as where the moment does not exist.
        """
        if not 0 < p < np.inf:
            raise ValueError("moment order p must be positive and finite")
        if not (lower >= 0 and upper > lower):
            raise ValueError("need 0 <= lower < upper")
        s_a = 0.0 if lower == 0 else -float(self.baseline.log_sf(lower))
        s_b = math.inf if math.isinf(upper) else -float(self.baseline.log_sf(upper))
        scale = max(1.0, p) / min(1.0, self.beta)
        if s_b - s_a <= _TS_SPAN * scale:
            s, w = s_a + (s_b - s_a) * _TS_NODE, (s_b - s_a) * _TS_SLOPE
        elif math.isinf(s_b):
            s, w = s_a + scale * _ES_NODE, scale * _ES_SLOPE
        else:  # the integral beyond s_a less the one beyond s_b
            s = np.add.outer([s_a, s_b], scale * _ES_NODE)
            w = np.outer([scale, -scale], _ES_SLOPE)
        # each term w x^p h, and its log, log |w| + p log x + log h, which sets
        # the scale and stands in where x^p or h over- or underflows; where x
        # overflowed and h underflows the term is 0
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            neg_s, b = -s, self.beta
            neg_b_s = -b * s
            e_b, b_y = np.exp(neg_b_s), -b * np.expm1(neg_s)  # b_y = b (1 - e^-s)
            # h = e^lead e^r with lead the larger of -s and -b s, so that
            # r = log(e^(-s - lead) + b_y e^(-b s - lead)) - e^(-b s) is O(1):
            # both exponentials are accurate and neither log underflows
            if b >= 1.0:
                lead, r = neg_s, np.log1p(b_y * np.exp((1.0 - b) * s))
            else:
                lead, r = neg_b_s, np.log(np.exp((b - 1.0) * s) + b_y)
            r -= e_b
            h = np.exp(lead) * np.exp(r)
            log_h = lead + r
            x = np.asarray(self.baseline.quantile_from_log_sf(neg_s), dtype=float)
            x_p = x**p
            t = w * x_p * h
            log_t = np.log(np.abs(w)) + p * np.log(x) + log_h
            log_t[np.isinf(x) & (h == 0.0)] = -np.inf
            top = float(log_t.max())
            if top == -math.inf:
                return 0.0
            # sum relative to 2^k near the largest term, then scale back, both
            # exactly, so that a subnormal result is rounded once.  A term is
            # w x^p h itself where its factors and it are normal numbers: its
            # log carries an error of about |log t| eps.  Beyond |top| = 1e4
            # the sum over- or underflows whatever k is, so k stays within
            # ldexp's range; an infinite or nan top leaves k = 0 and a
            # non-finite sum, reported below.
            k = round(min(max(top, -1e4), 1e4) / _LOG2) if math.isfinite(top) else 0
            direct = np.isfinite(t) & (np.minimum(np.minimum(x_p, h), np.abs(t)) >= _TINY)
            terms = np.ldexp(t, -k)
            np.exp(log_t - k * _LOG2, out=terms, where=~direct)
            np.copysign(terms, w, out=terms)
            fine, coarse = terms.sum() / 32.0, terms[..., ::2].sum() / 16.0
            value = np.ldexp(fine, k)
            converged = math.isfinite(value) and abs(fine - coarse) <= _DE_GAP * abs(fine)
            if not converged:
                raise NumericalError(
                    f"moment of order {p} on ({lower}, {upper}) is not finite or did "
                    f"not converge: steps 1/32 and 1/16 give {value:.6e} and "
                    f"{np.ldexp(coarse, k):.6e}")
        return float(value)

    def moment(self, p: float) -> float:
        """Raw moment E[X^p] = truncated_moment(p, 0, inf)."""
        return self.truncated_moment(p, 0.0, np.inf)
