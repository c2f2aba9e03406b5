"""Median regression for positive responses with tilted-exponential errors.

Each response ``y_i`` follows the median-parameterized tilted exponential with

    log(mu_i)    = w_i' alpha        (median submodel, design W)
    log(sigma_i) = z_i' gamma        (shape submodel, design Z)

and the joint coefficient vector theta = (alpha, gamma) is estimated by
maximum likelihood in one damped Newton loop, where one pass of the fused
kernel ``median_tilted_derivatives`` gives log-likelihood, score and Hessian.
Standard errors come from the inverse observed information (negative of that
Hessian at the optimum) and hypothesis tests are Wald z-tests.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
# Never called: perfbench/tracing.py wraps this name until ROADMAP item 1.
from scipy.optimize import minimize  # noqa: F401

from .errors import InferenceError, SpecificationError
from .exponential import median_tilted_derivatives, median_tilted_logpdf

# Rows per kernel block: 8192 float64 temporaries are 64 KB each, below
# glibc's 128 KB mmap threshold, so they are reused from the heap and stay in
# cache instead of being mapped and faulted in afresh on every call.  A block's
# terms are summed before the next block is formed, so no n-sized array of
# terms exists.
_BLOCK = 8192
_RANK_RTOL = 1e-10
# Newton stop: score max-norm, half the Newton decrement per max(1, |loglik|)
# (Boyd & Vandenberghe, Convex Optimization, 9.5.1), iteration cap.
_GRAD_TOL = 1e-6
_LL_TOL = 1e-10
_MAX_ITER = 500
# Fits of at least this many observations start from a pilot fit of about
# 1/16 of the rows; chosen by timing fit with and without it (CHANGES.md).
_PILOT_MIN_OBS = 32768


def _as_matrix(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise SpecificationError(f"{name} must be a 2-D design matrix")
    if not np.isfinite(a).all():
        raise SpecificationError(f"{name} has non-finite entries")
    return a


def _check_full_rank(m: np.ndarray, label: str, names: tuple[str, ...]):
    if m.shape[1] == 0:
        raise SpecificationError(f"{label} has no columns")
    # Greedy scan: a column already representable by its predecessors is
    # dependent; the scan ends on the whole design when no column is.  R of
    # m = QR has m's singular values on every subset of columns, at p x p.
    R = np.linalg.qr(m, mode="r")
    bad, kept = [], []
    for j, name in enumerate(names):
        s = np.linalg.svd(R[:, kept + [j]], compute_uv=False)
        if s[-1] <= _RANK_RTOL * s[0]:
            bad.append(name)
        else:
            kept.append(j)
    if bad:
        raise SpecificationError(
            f"{label} is rank deficient; dependent column(s): {', '.join(bad)}")


@dataclass(frozen=True)
class ModelSpec:
    """Response vector plus the two design matrices and coefficient names.

    Checks the data only: shapes, finite design entries, at least one row,
    row counts, strictly positive finite responses and one name per column.
    ``fit`` checks that the coefficients are estimable, so residuals can be
    taken on any rows.  The likelihood sums over a sorted copy of the rows
    (``_canonical``), built on first use and kept, so the arrays must not be
    modified after a spec is used.
    """

    response: np.ndarray
    mu_design: np.ndarray
    sigma_design: np.ndarray
    mu_names: tuple[str, ...] = ()
    sigma_names: tuple[str, ...] = ()

    def __post_init__(self):
        y = np.asarray(self.response, dtype=float).ravel()
        W = _as_matrix(self.mu_design, "mu_design")
        Z = _as_matrix(self.sigma_design, "sigma_design")
        if y.size == 0:
            raise SpecificationError("no observations")
        if np.any(~(y > 0)) or np.any(~np.isfinite(y)):
            raise SpecificationError("all responses must be strictly positive")
        if W.shape[0] != y.size or Z.shape[0] != y.size:
            raise SpecificationError("design row counts must match the response")
        mu_names = tuple(self.mu_names) or tuple(
            f"mu{j + 1}" for j in range(W.shape[1]))
        sigma_names = tuple(self.sigma_names) or tuple(
            f"sigma{j + 1}" for j in range(Z.shape[1]))
        if len(mu_names) != W.shape[1] or len(sigma_names) != Z.shape[1]:
            raise SpecificationError("coefficient name counts do not match designs")
        for name, value in (("response", y), ("mu_design", W), ("sigma_design", Z),
                            ("mu_names", mu_names), ("sigma_names", sigma_names)):
            object.__setattr__(self, name, value)

    @property
    def n_obs(self) -> int:
        return self.response.size

    @property
    def n_mu_coefs(self) -> int:
        return self.mu_design.shape[1]

    @property
    def n_coefs(self) -> int:
        return self.mu_design.shape[1] + self.sigma_design.shape[1]

    @property
    def coef_names(self) -> tuple[str, ...]:
        return (tuple(f"mu.{s}" for s in self.mu_names)
                + tuple(f"sigma.{s}" for s in self.sigma_names))

    def split(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        theta = np.asarray(theta, dtype=float).ravel()
        if theta.size != self.n_coefs:
            raise SpecificationError("theta length does not match the designs")
        p1 = self.n_mu_coefs
        return theta[:p1], theta[p1:]

    @functools.cached_property
    def _canonical(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """(y, W, Z, pilot size): the rows sorted by ``_row_hash``, -0.0 as 0.0.

        Rows of equal hash that differ are put in the order of their bits, so
        the sorted copy depends on the set of rows only, not on their order.
        The rows whose hash has its top 4 bits zero, about one distinct row in
        16, lead it; their count is the pilot size.  Built on first use and
        kept: the arrays must not be modified after that.
        """
        h = _row_hash(self)
        order = np.argsort(h)
        h = h[order]
        tied = np.flatnonzero(h[1:] == h[:-1])
        if tied.size:  # rare: sort only the rows that share a hash by their bits
            at = np.union1d(tied, tied + 1)
            rows = order[at]
            keys = [(c[rows] + 0.0).view(np.uint64)
                    for c in (self.response, *self.mu_design.T, *self.sigma_design.T)]
            order[at] = rows[np.lexsort([*reversed(keys), h[at]])]
        y, W, Z = (a.take(order, axis=0) for a in
                   (self.response, self.mu_design, self.sigma_design))
        for a in (y, W, Z):
            a += 0.0  # maps -0.0 to 0.0
        return y, W, Z, int(np.searchsorted(h, np.uint64(1 << 60)))


def _row_hash(spec: ModelSpec) -> np.ndarray:
    """64-bit hash of each row from its values: y, then W's, then Z's columns.

    Each column's bits, with -0.0 as 0.0, are mixed in by multiplicative
    hashing (Knuth, TAOCP vol. 3, 6.4); an xor-shift before each multiply
    brings high bits, sign bits among them, down to the bits a later multiply
    carries up, so rows such as (y, 1, x) and (y, 1, -x) hash independently.
    """
    h = np.zeros(spec.n_obs, dtype=np.uint64)
    for column in (spec.response, *spec.mu_design.T, *spec.sigma_design.T):
        h ^= (column + 0.0).view(np.uint64)
        h ^= h >> np.uint64(29)
        h *= np.uint64(0x9E3779B97F4A7C15)  # 2**64 / golden ratio, odd
    return h


def _row_sums(spec: ModelSpec, theta, terms) -> np.ndarray:
    """Sum over all observations of each row of the terms, in canonical order.

    ``terms(y, W, Z, mu, sigma)`` forms the (m, rows) terms of one slice of
    ``_BLOCK`` rows of ``spec._canonical``, with mu and sigma linked for those
    rows only, so the kernels' temporaries stay cache-resident.  Each block's
    rows are summed by numpy's pairwise sum and the block sums are added in
    order.  The canonical order puts the same rows at the same positions
    whatever the order of the observations, so every sum is the same to the
    last bit under any permutation of them.  A sum whose terms hold inf and
    -inf is nan; one that overflows is +-inf.
    """
    y, W, Z, _ = spec._canonical
    alpha, gamma = spec.split(theta)
    total = 0.0
    with np.errstate(all="ignore"):
        for start in range(0, spec.n_obs, _BLOCK):
            rows = slice(start, start + _BLOCK)
            total = total + terms(y[rows], W[rows], Z[rows], np.exp(W[rows] @ alpha),
                                  np.exp(Z[rows] @ gamma)).sum(axis=1)
    return total


def log_likelihood(spec: ModelSpec, theta) -> float:
    """Joint log-likelihood; -inf whenever it, or any term, is not finite.

    The sum of the median-parameterized log-densities at (y_i, mu_i, sigma_i)
    is taken in the canonical row order (``_row_sums``), so it does not depend
    on the order of the observations, down to the last bit.
    """
    [total] = _row_sums(spec, theta, lambda y, W, Z, mu, sigma:
                        median_tilted_logpdf(y, mu, sigma)[None])
    return float(total) if math.isfinite(total) else -math.inf


def _loglik_score_and_hessian(spec: ModelSpec, theta):
    """(log-likelihood, score, Hessian) at theta, in one pass.

    Chains the kernel's log f and link-coordinate derivatives through the
    designs in row blocks of ``_BLOCK``: the sum of log f is ``log_likelihood``
    bit for bit, the score is (W'd_u, Z'd_v), the Hessian has the blocks
    W'D_uu W, W'D_uv Z and Z'D_vv Z.  Each entry is one sum in the canonical
    row order (``_row_sums``), independent of the order of the observations.
    A score or Hessian entry whose terms hold inf and -inf is nan, and one
    whose terms or sum overflow is +-inf or nan.
    """
    p1, p = spec.n_mu_coefs, spec.n_coefs
    pairs = [(i, j) for i in range(p) for j in range(i, p)]

    def block_terms(y, W, Z, mu, sigma):
        log_f, d_u, d_v, d_uu, d_uv, d_vv = median_tilted_derivatives(y, mu, sigma)
        cols = [*W.T, *Z.T]
        terms = np.empty((1 + p + len(pairs), y.size))
        terms[0] = log_f
        for i in range(p):
            np.multiply(cols[i], d_u if i < p1 else d_v, out=terms[1 + i])
        for k, (i, j) in enumerate(pairs, start=1 + p):
            d = d_uu if j < p1 else d_uv if i < p1 else d_vv
            np.multiply(cols[i] * cols[j], d, out=terms[k])
        return terms

    sums = _row_sums(spec, theta, block_terms)
    ll = float(sums[0])
    H = np.empty((p, p))
    for k, (i, j) in enumerate(pairs, start=1 + p):
        H[i, j] = H[j, i] = sums[k]
    return ll if math.isfinite(ll) else -math.inf, sums[1:1 + p], H


def _cholesky_solve(J: np.ndarray, b: np.ndarray, shifts=(0.0,)):
    """Solve (J + s I) x = b by Cholesky for the first shift s that factors.

    None when no shift gives a finite factor."""
    for s in shifts:
        try:
            C = np.linalg.cholesky(J + s * np.eye(len(J)))
        except np.linalg.LinAlgError:
            continue
        if np.all(np.isfinite(C)):
            break
    else:
        return None
    x = np.array(b, dtype=float)
    for i in range(len(x)):
        x[i] = (x[i] - C[i, :i] @ x[:i]) / C[i, i]
    for i in reversed(range(len(x))):
        x[i] = (x[i] - C[i + 1:, i] @ x[i + 1:]) / C[i, i]
    return x


def _information_inverse(J: np.ndarray) -> np.ndarray:
    J_inv = _cholesky_solve(J, np.eye(len(J)))
    if J_inv is None:
        raise InferenceError(
            "observed information is not positive definite; theta_hat is "
            "not a proper maximum or the likelihood is flat along a direction"
        )
    return 0.5 * (J_inv + J_inv.T)


def _two_sided_p(z: float) -> float:
    """2 Phi(-|z|), the two-sided p-value of a standard normal z."""
    return math.erfc(abs(z) / math.sqrt(2.0))


@dataclass(frozen=True)
class FittedModel:
    """Maximum-likelihood fit with Wald inference attached.

    ``theta_hat`` stacks the median coefficients first and the shape
    coefficients after them; ``n_mu_coefs`` records the split.  The Wald
    columns ``std_errors``, ``z_stats`` and ``p_values`` are derived from
    ``theta_hat`` and ``info_inverse``.  ``iterations`` counts the Newton
    iterations on the full data only, not those of a pilot fit (``fit``).
    """

    theta_hat: np.ndarray
    info_inverse: np.ndarray
    loglik_at_optimum: float
    converged: bool
    iterations: int
    gradient_max_norm: float
    n_mu_coefs: int
    n_obs: int
    coef_names: tuple[str, ...] = field(default=())

    @property
    def mu_coefs(self) -> np.ndarray:
        return self.theta_hat[: self.n_mu_coefs]

    @property
    def sigma_coefs(self) -> np.ndarray:
        return self.theta_hat[self.n_mu_coefs:]

    @property
    def std_errors(self) -> np.ndarray:
        return np.sqrt(np.diag(self.info_inverse))

    @property
    def z_stats(self) -> np.ndarray:
        with np.errstate(invalid="ignore", divide="ignore"):
            return self.theta_hat / self.std_errors

    @property
    def p_values(self) -> np.ndarray:
        return np.array([_two_sided_p(z) for z in self.z_stats])


def _initial_theta(spec: ModelSpec) -> np.ndarray:
    # Median submodel starts at the sample median through the log link; the
    # shape submodel starts at sigma = 1 (log sigma = 0); slopes start at 0.
    # Assumes the leading design column is the intercept, which build_design
    # guarantees.
    theta0 = np.zeros(spec.n_coefs)
    theta0[0] = math.log(float(np.median(spec.response)))
    return theta0


def _check_estimable(spec: ModelSpec) -> None:
    if spec.n_coefs >= spec.n_obs:
        raise SpecificationError("more coefficients than observations")
    _check_full_rank(spec.mu_design, "mu_design", spec.mu_names)
    _check_full_rank(spec.sigma_design, "sigma_design", spec.sigma_names)


def _newton(spec: ModelSpec, theta: np.ndarray, warm: bool = False):
    """The damped Newton loop of ``fit``, from theta.

    Each iteration solves J step = score with the observed information
    J = -H from one derivative pass, shifting J's diagonal where its Cholesky
    fails, and halves the step until the log-likelihood does not fall by more
    than the rounding of its sum.  After a full-length step, and for the
    first step from a ``warm`` start near the optimum, the next full step is
    tried with the derivative pass, and its score and Hessian are kept if it
    is taken; other trial points, which step halving may reject, get the
    cheaper ``log_likelihood``.  The loop stops at the first point whose
    score max-norm is below ``_GRAD_TOL`` and whose half Newton decrement
    score . step / 2, the gain a further step predicts, is below ``_LL_TOL``
    max(1, |loglik|) (Boyd & Vandenberghe, Convex Optimization, 9.5.1), or
    after ``_MAX_ITER`` iterations, or when no step can be taken.

    Returns (theta, loglik, H, score max-norm, iterations, converged) at the
    last iterate, or None when the log-likelihood at the start is not finite.
    """
    ll, g, H = _loglik_score_and_hessian(spec, theta)
    if not np.isfinite(ll):
        return None
    # ll is within about (24 + n/_BLOCK) eps of the sum of its terms'
    # magnitudes from exact (README), |ll| when every log f is negative: a
    # trial point that reads less than that below ll may still improve on
    # it, so step halving does not reject it.
    slack_rtol = (24 + spec.n_obs / _BLOCK) * np.finfo(float).eps

    iterations = 0
    converged = False
    full_step = warm
    while True:
        gnorm = float(np.max(np.abs(g)))
        # Levenberg-Marquardt: shifts up to 1e4 max|J_ij| pass every eigenvalue.
        top = float(np.max(np.abs(H)))
        step = _cholesky_solve(-H, g, [0.0] + [top * 10.0 ** k for k in range(-8, 5)])
        if step is None or not np.all(np.isfinite(step)):
            break
        half_decrement = 0.5 * float(g @ step)
        converged = gnorm < _GRAD_TOL and half_decrement < _LL_TOL * max(1.0, abs(ll))
        if converged or iterations >= _MAX_ITER:
            break
        scale = 1.0
        slack = max(1e-12, slack_rtol * abs(ll))
        fused = _loglik_score_and_hessian(spec, theta + step) if full_step else None
        ll_new = fused[0] if fused else log_likelihood(spec, theta + step)
        while scale > 1e-8 and not (np.isfinite(ll_new) and ll_new >= ll - slack):
            scale *= 0.5
            fused = None
            ll_new = log_likelihood(spec, theta + scale * step)
        if scale <= 1e-8:
            break
        theta = theta + scale * step
        ll = ll_new
        iterations += 1
        full_step = scale == 1.0
        _, g, H = fused or _loglik_score_and_hessian(spec, theta)
    return theta, ll, H, gnorm, iterations, converged


def _pilot_theta(spec: ModelSpec) -> np.ndarray | None:
    """theta_hat of the pilot rows, the leading rows of ``spec._canonical``,
    fitted from ``_initial_theta``; None when those rows leave a coefficient
    inestimable (say, they miss a rare dummy level), or the loop cannot start
    or does not converge.  Its warnings are dropped: it only picks a start.
    """
    y, W, Z, k = spec._canonical
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            pilot = ModelSpec(y[:k], W[:k], Z[:k])
            _check_estimable(pilot)
        except SpecificationError:
            return None
        state = _newton(pilot, _initial_theta(pilot))
    return state[0] if state and state[-1] else None


def fit(spec: ModelSpec) -> FittedModel:
    """Maximize the log-likelihood and package estimates with inference.

    First checks that the coefficients are estimable: SpecificationError when
    there are no more observations than coefficients, or when a design is
    rank deficient, naming its dependent columns.  Then runs the damped
    Newton loop ``_newton`` from ``_initial_theta``.

    With at least ``_PILOT_MIN_OBS`` observations the loop runs twice: on a
    pilot of about n/16 rows picked by their hash (``_pilot_theta``), then
    on all rows from the pilot's estimate, a start from a subsample fit
    (Bickel, JASA 70, 1975; Wang, Zhu & Ma, JASA 113, 2018) that takes the
    full-data loop from 7 iterations to 3-5 at n = 1e5.  The full data start
    from ``_initial_theta`` instead when the pilot gives no estimate or the
    log-likelihood is not finite at it.

    The standard errors use the inverse of the last iterate's J
    (InferenceError if a converged J is not positive definite).  When
    ``_MAX_ITER`` iterations run out first, or no step can be taken, the model
    is returned with ``converged=False`` instead of raising.
    """
    _check_estimable(spec)
    start = _pilot_theta(spec) if spec.n_obs >= _PILOT_MIN_OBS else None
    state = _newton(spec, start, warm=True) if start is not None else None
    state = state or _newton(spec, _initial_theta(spec))
    if state is None:
        raise InferenceError("log-likelihood is not finite at the initial point")
    theta, ll, H, gnorm, iterations, converged = state

    p = spec.n_coefs
    try:
        info_inv = _information_inverse(-H)
    except InferenceError:
        if converged:
            raise
        info_inv = np.full((p, p), np.nan)
    if not converged:
        warnings.warn(
            f"fit did not converge in {iterations} iterations "
            f"(gradient max-norm {gnorm:.3e})",
            RuntimeWarning,
        )
    return FittedModel(
        theta_hat=theta,
        info_inverse=info_inv,
        loglik_at_optimum=ll,
        converged=converged,
        iterations=iterations,
        gradient_max_norm=gnorm,
        n_mu_coefs=spec.n_mu_coefs,
        n_obs=spec.n_obs,
        coef_names=spec.coef_names,
    )


def wald_test(fitted: FittedModel, j: int, theta0: float = 0.0) -> tuple[float, float]:
    """Wald z-test of the null theta_j = theta0; returns (z, two-sided p)."""
    if not 0 <= j < fitted.theta_hat.size:
        raise IndexError(f"coefficient index {j} out of range")
    se = float(fitted.std_errors[j])
    if not (np.isfinite(se) and se > 0):
        raise InferenceError(f"standard error for coefficient {j} is not positive")
    z = (float(fitted.theta_hat[j]) - theta0) / se
    return z, _two_sided_p(z)


def predict(fitted: FittedModel, mu_design, sigma_design
            ) -> tuple[np.ndarray, np.ndarray]:
    """Fitted medians exp(W alpha_hat) and shapes exp(Z gamma_hat) of rows W, Z."""
    W = _as_matrix(mu_design, "new_mu_design")
    Z = _as_matrix(sigma_design, "new_sigma_design")
    for m, coefs, label in ((W, fitted.mu_coefs, "median"),
                            (Z, fitted.sigma_coefs, "shape")):
        if m.shape[1] != coefs.size:
            raise SpecificationError(
                f"expected {coefs.size} {label}-design columns, got {m.shape[1]}"
            )
    if W.shape[0] != Z.shape[0]:
        raise SpecificationError(
            f"median and shape designs have {W.shape[0]} and {Z.shape[0]} rows"
        )
    return np.exp(W @ fitted.mu_coefs), np.exp(Z @ fitted.sigma_coefs)
