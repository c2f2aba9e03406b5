import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import ndtr

from tiltreg import (
    FittedModel,
    InferenceError,
    MedianTiltedExponential,
    ModelSpec,
    SpecificationError,
    fit,
    log_likelihood,
    predict,
    wald_test,
)
from tiltreg import regression
from tiltreg.exponential import (
    _shape_constants, median_tilted_derivatives, median_tilted_logpdf,
)
from tiltreg.regression import (
    _BLOCK, _GRAD_TOL, _LL_TOL, _PILOT_MIN_OBS, _check_full_rank, _cholesky_solve,
    _information_inverse, _initial_theta, _loglik_score_and_hessian, _newton,
    _pilot_theta, _row_hash,
)
from tests.conftest import simulate_intercept_only

# a numpy warning leaking out of the regression layer is a failure
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def four_point_hessian(f, x, rel_step=1e-5):
    """Reference Hessian of a scalar function from the four-point stencil.

    ``(f(x+hi+hj) - f(x+hi-hj) - f(x-hi+hj) + f(x-hi-hj)) / (4 hi hj)`` with
    per-coordinate steps ``rel_step * max(1, |x_j|)``.
    """
    p = x.size
    h = rel_step * np.maximum(1.0, np.abs(x))
    H = np.zeros((p, p))
    for i in range(p):
        ei = np.zeros(p)
        ei[i] = h[i]
        for j in range(i, p):
            ej = np.zeros(p)
            ej[j] = h[j]
            H[i, j] = H[j, i] = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4.0 * h[i] * h[j])
    return H


def intercept_spec(y):
    y = np.asarray(y, dtype=float)
    ones = np.ones((y.size, 1))
    return ModelSpec(response=y, mu_design=ones, sigma_design=ones)


# ---------------------------------------------------------------------------
# ModelSpec validation
# ---------------------------------------------------------------------------

class TestModelSpec:
    def test_rejects_nonpositive_response(self):
        with pytest.raises(SpecificationError):
            intercept_spec([1.0, -2.0, 3.0])
        with pytest.raises(SpecificationError):
            intercept_spec([1.0, 0.0])

    # The estimability checks (n > p, full rank) run at the start of fit.
    def test_rejects_too_many_coefficients(self):
        y = np.array([1.0, 2.0, 3.0])
        spec = ModelSpec(response=y, mu_design=np.eye(3)[:, :2],
                         sigma_design=np.ones((3, 1)))
        with pytest.raises(SpecificationError):
            fit(spec)

    def test_rejects_rank_deficiency(self):
        y = np.linspace(1, 2, 10)
        col = np.linspace(0, 1, 10)
        W = np.column_stack([np.ones(10), col, 2.0 * col])
        spec = ModelSpec(response=y, mu_design=W, sigma_design=np.ones((10, 1)))
        with pytest.raises(SpecificationError, match="rank deficient"):
            fit(spec)

    def test_rank_deficiency_names_the_dependent_column(self):
        col = np.linspace(0, 1, 10)
        W = np.column_stack([np.ones(10), col, 2.0 * col])
        with pytest.raises(SpecificationError, match="dependent column.*: b$"):
            fit(ModelSpec(response=np.linspace(1, 2, 10), mu_design=W,
                          sigma_design=np.ones((10, 1)),
                          mu_names=("(Intercept)", "a", "b")))
        with pytest.raises(SpecificationError, match="sigma_design.*: sigma3$"):
            fit(ModelSpec(response=np.linspace(1, 2, 10),
                          mu_design=np.ones((10, 1)), sigma_design=W))

    def test_rank_deficiency_across_row_blocks(self):
        # R comes from the R factors of _BLOCK-row slices, stacked
        n = 3 * _BLOCK + 17
        x = np.random.default_rng(5).normal(size=(n, 2))
        W = np.column_stack([np.ones(n), x, x[:, 0] - 2.0 * x[:, 1]])
        with pytest.raises(SpecificationError, match="dependent column.*: d$"):
            fit(ModelSpec(response=np.linspace(1, 2, n), mu_design=W,
                          sigma_design=np.ones((n, 1)),
                          mu_names=("(Intercept)", "b", "c", "d")))

    def test_near_collinear_full_rank_is_accepted(self):
        # smallest singular value about 1e-6 of the largest: above the 1e-10 cut
        n = 3 * _BLOCK + 17
        x = np.random.default_rng(6).normal(size=(n, 2))
        W = np.column_stack([np.ones(n), x[:, 0], x[:, 0] + 1e-6 * x[:, 1]])
        assert _check_full_rank(W, "mu_design", ("a", "b", "c")) is None

    def test_rank_check_peak_memory_does_not_grow_with_n(self):
        peaks = []
        for n in (2 * _BLOCK, 12 * _BLOCK):
            W = np.column_stack([np.ones(n),
                                 np.random.default_rng(7).normal(size=(n, 2))])
            tracemalloc.start()
            try:
                _check_full_rank(W, "mu_design", ("a", "b", "c"))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0]

    def test_rejects_zero_observations(self):
        # the likelihood and its sums need at least one row
        with pytest.raises(SpecificationError, match="no observations"):
            ModelSpec(response=np.array([]), mu_design=np.ones((0, 1)),
                      sigma_design=np.ones((0, 1)))

    def test_rejects_row_mismatch(self):
        with pytest.raises(SpecificationError):
            ModelSpec(response=np.ones(5), mu_design=np.ones((4, 1)),
                      sigma_design=np.ones((5, 1)))

    def test_coefficient_names(self):
        spec = ModelSpec(
            response=np.array([1.0, 2.0, 3.0, 4.0]),
            mu_design=np.ones((4, 1)),
            sigma_design=np.ones((4, 1)),
            mu_names=("(Intercept)",),
            sigma_names=("(Intercept)",),
        )
        assert spec.coef_names == ("mu.(Intercept)", "sigma.(Intercept)")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("design", ["mu", "sigma"])
@pytest.mark.parametrize("route", ["ModelSpec", "predict"])
def test_non_finite_design_entry_is_rejected(route, design, bad, lime_fit):
    # the lime model's shapes: 4 median columns and 1 shape column
    W, Z = np.ones((5, 4)), np.ones((5, 1))
    (W if design == "mu" else Z)[2, -1] = bad
    if route == "ModelSpec":
        with pytest.raises(SpecificationError,
                           match=f"^{design}_design has non-finite entries$"):
            ModelSpec(response=np.arange(1.0, 6.0), mu_design=W, sigma_design=Z)
    else:
        with pytest.raises(SpecificationError,
                           match=f"^new_{design}_design has non-finite entries$"):
            predict(lime_fit, W, Z)


# ---------------------------------------------------------------------------
# log-likelihood
# ---------------------------------------------------------------------------

class TestLogLikelihood:
    def test_single_observation_contribution_at_median(self):
        # the i-th contribution for y_i = mu_i is just log f(mu; mu, sigma);
        # a literal 1-row ModelSpec is unconstructible (it enforces p < n),
        # so the base case is checked through the contribution function
        mu, sigma = 2.0, 0.8
        expected = float(MedianTiltedExponential(mu, sigma).log_pdf(mu))
        assert float(median_tilted_logpdf(mu, mu, sigma)) == pytest.approx(
            expected, abs=1e-12
        )

    def test_sum_of_contributions(self):
        y = np.array([0.5, 2.0, 3.7])
        spec = intercept_spec(y)
        theta = np.array([math.log(2.0), math.log(0.8)])
        expected = float(np.sum(median_tilted_logpdf(y, 2.0, 0.8)))
        assert log_likelihood(spec, theta) == pytest.approx(expected, abs=1e-12)

    def test_matches_density_route_on_random_draws(self):
        rng = np.random.default_rng(2024)
        n = 60
        y = MedianTiltedExponential(2.0, 0.6).sample(n, seed=5)
        W = np.column_stack([np.ones(n), rng.normal(size=n)])
        Z = np.ones((n, 1))
        spec = ModelSpec(response=y, mu_design=W, sigma_design=Z)
        for _ in range(100):
            theta = np.array([rng.normal(0.7, 0.3), rng.normal(0.0, 0.2),
                              rng.normal(-0.5, 0.3)])
            mu = np.exp(W @ theta[:2])
            sigma = np.exp(Z @ theta[2:])
            direct = sum(
                float(np.log(MedianTiltedExponential(m, s).pdf(v)))
                for m, s, v in zip(mu, sigma, y)
            )
            assert log_likelihood(spec, theta) == pytest.approx(direct, abs=1e-10)

    def test_overflowed_link_returns_minus_inf(self):
        spec = intercept_spec([1.0, 2.0, 3.0])
        assert log_likelihood(spec, np.array([1000.0, 0.0])) == -math.inf
        assert log_likelihood(spec, np.array([0.0, 1000.0])) == -math.inf
        # sigma = e^-1000 underflows to 0
        assert log_likelihood(spec, np.array([0.0, -1000.0])) == -math.inf

    def test_overflowing_sum_returns_minus_inf(self):
        # each 1e308 response has a finite log-density of about -4.6e307, and
        # four of them sum below -1.8e308, where math.fsum raises OverflowError
        spec = intercept_spec([1.0, 2.0, 3.0] + [1e308] * 4 + [1.5])
        theta = np.array([0.7, -0.4])
        with pytest.raises(OverflowError):
            math.fsum(median_tilted_logpdf(spec.response, math.exp(0.7),
                                           math.exp(-0.4)).tolist())
        assert log_likelihood(spec, theta) == -math.inf

    def test_vanishing_sigma_reaches_exponential_limit(self):
        # sigma = e^-700 ~ 1e-304: beta ~ 1010, so f(y) = log 2 e^(-y log 2) at mu = 1
        spec = intercept_spec([1.0, 2.0, 3.0])
        limit = 3.0 * math.log(math.log(2.0)) - 6.0 * math.log(2.0)
        assert log_likelihood(spec, np.array([0.0, -700.0])) == pytest.approx(limit, rel=1e-14)

    def test_concave_along_slice(self):
        spec = simulate_intercept_only(500, 3.0, 0.5, seed=77)
        center = np.array([math.log(3.0), math.log(0.5)])
        direction = np.array([0.35, -0.2])
        lo = log_likelihood(spec, center - direction)
        mid = log_likelihood(spec, center)
        hi = log_likelihood(spec, center + direction)
        assert mid > 0.5 * (lo + hi)

    def test_order_invariance_is_exact(self):
        spec = simulate_intercept_only(400, 2.0, 0.7, seed=3)
        perm = np.random.default_rng(1).permutation(400)
        shuffled = ModelSpec(
            response=spec.response[perm],
            mu_design=spec.mu_design[perm],
            sigma_design=spec.sigma_design[perm],
        )
        theta = np.array([0.6, -0.4])
        assert log_likelihood(spec, theta) == log_likelihood(shuffled, theta)


def fsum_or_nan(values):
    try:
        return math.fsum(values)
    except (ValueError, OverflowError):
        return math.nan


def unblocked_loglik_score_and_hessian(spec, theta):
    """log_likelihood and the derivative pass as whole-array expressions.

    Returns two (ll, score, H) triples: the correctly rounded math.fsum of
    each entry's terms, nan where fsum raises (ll is -inf when a term is not
    finite), and the fsum of the terms' magnitudes, the scale of the entry's
    rounding bound.  Checks on the way that the kernel's log f is
    ``median_tilted_logpdf`` bit for bit."""
    alpha, gamma = spec.split(theta)
    p1, p = spec.n_mu_coefs, spec.n_coefs
    X = np.hstack([spec.mu_design, spec.sigma_design])
    with np.errstate(all="ignore"):
        mu = np.exp(spec.mu_design @ alpha)
        sigma = np.exp(spec.sigma_design @ gamma)
        terms = median_tilted_logpdf(spec.response, mu, sigma)
        log_f, d_u, d_v, d_uu, d_uv, d_vv = median_tilted_derivatives(
            spec.response, mu, sigma)
        score = [X[:, i] * (d_u if i < p1 else d_v) for i in range(p)]
        hess = {(i, j): X[:, i] * X[:, j] * (d_uu if j < p1 else d_uv if i < p1
                                             else d_vv)
                for i in range(p) for j in range(i, p)}
    assert np.array_equal(log_f, terms, equal_nan=True)

    def triple(total):
        ll = total(terms) if np.all(np.isfinite(terms)) else -math.inf
        H = np.empty((p, p))
        for (i, j), t in hess.items():
            H[i, j] = H[j, i] = total(t)
        return ll, np.array([total(t) for t in score]), H
    return (triple(lambda t: fsum_or_nan(t.tolist())),
            triple(lambda t: fsum_or_nan(np.abs(t).tolist())))


# The pass sums blocks of _BLOCK rows pairwise and adds the block sums in
# order.  numpy's pairwise sum runs 8 interleaved sums of 16 terms in each
# leaf of 128, so each finite entry is within about (15 + 3 + 6 + n/_BLOCK)
# eps of the sum of its terms' magnitudes from the exact sum (Higham,
# Accuracy and Stability of Numerical Algorithms, 2nd ed., 4.2): 9e-15 at
# n < 2**17.  The entries checked here come within 2.3e-16.
SUM_RTOL = 1e-14


def permuted(spec, seed=5):
    perm = np.random.default_rng(seed).permutation(spec.n_obs)
    return ModelSpec(response=spec.response[perm],
                     mu_design=spec.mu_design[perm],
                     sigma_design=spec.sigma_design[perm])


def assert_order_free(spec, theta, *reorderings):
    """The derivative pass and ``log_likelihood`` give the same bits on each
    reordering of the spec's rows, and the pass's log-likelihood is the
    latter's."""
    ll, g, H = _loglik_score_and_hessian(spec, theta)
    assert log_likelihood(spec, theta) == ll
    for other in reorderings:
        ll_o, g_o, H_o = _loglik_score_and_hessian(other, theta)
        assert log_likelihood(other, theta) == ll_o == ll
        assert np.array_equal(g_o, g, equal_nan=True)
        assert np.array_equal(H_o, H, equal_nan=True)


class TestRowBlocks:
    """Specs longer than one row block: sums in the canonical row order are
    bit-identical under row permutation and within SUM_RTOL of the exact
    unblocked sums."""

    @pytest.fixture(scope="class")
    def spec(self):
        n = 3 * _BLOCK + 17
        rng = np.random.default_rng(31)
        x = rng.normal(size=(n, 3))
        return ModelSpec(
            response=MedianTiltedExponential(2.0, 0.7).sample(n, seed=9),
            mu_design=np.column_stack([np.ones(n), x[:, 0], x[:, 1]]),
            sigma_design=np.column_stack([np.ones(n), x[:, 2]]),
        )

    @pytest.mark.parametrize("theta", [
        [0.7, 0.0, 0.0, -0.4, 0.0],
        [0.5, 0.3, -0.2, -0.3, 0.2],
        [1.2, -0.8, 0.5, 0.6, -0.9],
        [0.7, 0.0, 0.0, 800.0, 0.0],
    ])
    def test_order_free_and_near_unblocked_sum(self, spec, theta):
        theta = np.array(theta)
        self.assert_reproduces(spec, theta)

    @staticmethod
    def assert_reproduces(spec, theta):
        """Order-free bits, and each entry of the pass near the exact sum:
        within SUM_RTOL of its scale where the exact sum is finite, the same
        infinity where it is infinite, and not finite where math.fsum raises
        (terms inf and -inf, or an overflowing sum)."""
        assert_order_free(spec, theta, permuted(spec), permuted(spec, seed=6))
        exact, scale = unblocked_loglik_score_and_hessian(spec, theta)
        pass_ = _loglik_score_and_hessian(spec, theta)
        for value, want, size in zip(*(np.hstack([t[0], t[1], t[2].ravel()])
                                       for t in (pass_, exact, scale))):
            if math.isfinite(want):
                assert abs(value - want) <= SUM_RTOL * size
            elif math.isinf(want):
                assert value == want
            else:
                assert not math.isfinite(value)

    @staticmethod
    def with_extreme_rows(spec, covariates):
        """Responses 1e308, where the link derivatives are about 4.6e307, at
        the rows keyed in ``covariates``, whose two median covariates are set
        to the given values: a covariate of 10 makes that row's terms infinite.
        """
        y, W = spec.response.copy(), spec.mu_design.copy()
        for r, x in covariates.items():
            y[r], W[r, 1:] = 1e308, x
        return ModelSpec(response=y, mu_design=W, sigma_design=spec.sigma_design)

    def test_one_block_with_an_infinite_term(self, spec):
        # One row holds infinite terms; its log-density term, about -4.6e307,
        # and its other derivative terms are finite.
        extreme = self.with_extreme_rows(spec, {_BLOCK + 100: (10.0, 0.0)})
        theta = np.array([0.7, 0.0, 0.0, -0.4, 0.0])
        ll, score, H = _loglik_score_and_hessian(extreme, theta)
        assert np.isinf(score).any() and np.isinf(H).any() and math.isfinite(ll)
        self.assert_reproduces(extreme, theta)

    def test_inf_minus_inf_gives_nan_and_an_unconverged_fit(self, spec):
        # Two rows in different blocks give +inf and -inf terms to the score
        # entry of the second covariate and to Hessian entries: those entries
        # are nan, as math.fsum raises ValueError for them.
        extreme = self.with_extreme_rows(
            spec, {10: (10.0, 10.0), 2 * _BLOCK + 10: (10.0, -10.0)})
        theta = np.array([0.7, 0.0, 0.0, -0.4, 0.0])
        ll, score, H = _loglik_score_and_hessian(extreme, theta)
        assert np.isnan(score[2]) and np.isnan(H[2]).sum() == 3
        assert np.isinf(H[1, 1]) and math.isfinite(ll)
        self.assert_reproduces(extreme, theta)
        with pytest.warns(RuntimeWarning, match="did not converge"):
            model = fit(extreme)
        assert not model.converged and model.iterations == 0
        assert np.isnan(model.gradient_max_norm)
        assert np.all(np.isnan(model.info_inverse))

    def test_fitted_loglik_is_exact_on_permuted_rows(self, spec):
        # The last log-likelihood of a fit may come from the derivative pass.
        model = fit(spec)
        assert model.converged
        assert model.loglik_at_optimum == log_likelihood(permuted(spec),
                                                         model.theta_hat)

    def test_duplicate_rows(self, spec):
        # 5000 rows twice and one row five times: equal rows share a hash and
        # need no order among themselves.
        rows = np.r_[np.arange(spec.n_obs), np.arange(0, 10_000, 2), [7] * 4]
        dup = ModelSpec(spec.response[rows], spec.mu_design[rows],
                        spec.sigma_design[rows])
        assert_same_canonical(dup, permuted(dup), permuted(dup, seed=6))
        assert_order_free(dup, np.array([0.5, 0.3, -0.2, -0.3, 0.2]),
                          permuted(dup), permuted(dup, seed=6))

    def test_distinct_rows_sharing_a_hash(self, spec):
        # A copy of row 0 with another response and the last shape column
        # solved so that the two rows hash alike: they are ordered by bits.
        shared = with_a_row_sharing_a_hash(spec, 0)
        h = _row_hash(shared)
        assert h[0] == h[-1] and shared.response[0] != shared.response[-1]
        assert np.count_nonzero(h == h[0]) == 2
        reversed_rows = ModelSpec(shared.response[::-1], shared.mu_design[::-1],
                                  shared.sigma_design[::-1])
        assert_same_canonical(shared, reversed_rows, permuted(shared))
        assert_order_free(shared, np.array([0.5, 0.3, -0.2, -0.3, 0.2]),
                          reversed_rows, permuted(shared))

    def test_negative_zero_rows(self, spec):
        # Rows that differ only in the sign of a zero are the same rows.
        W = spec.mu_design.copy()
        W[::3, 2] = 0.0
        signed = W.copy()
        signed[::6, 2] = -0.0
        zeros = ModelSpec(spec.response, W, spec.sigma_design)
        signs = ModelSpec(spec.response, signed, spec.sigma_design)
        assert_same_canonical(zeros, signs, permuted(signs))
        assert_order_free(zeros, np.array([0.5, 0.3, -0.2, -0.3, 0.2]),
                          signs, permuted(signs))

    def test_peak_memory_does_not_grow_with_n(self):
        peaks = []
        for n in (2 * _BLOCK, 12 * _BLOCK):
            x = np.random.default_rng(7).normal(size=(n, 2))
            spec = ModelSpec(
                response=MedianTiltedExponential(2.0, 0.7).sample(n, seed=3),
                mu_design=np.column_stack([np.ones(n), x[:, 0]]),
                sigma_design=np.column_stack([np.ones(n), x[:, 1]]),
            )
            theta = np.array([0.7, 0.1, -0.4, 0.1])
            _loglik_score_and_hessian(spec, theta)
            tracemalloc.start()
            try:
                _loglik_score_and_hessian(spec, theta)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0]


def assert_same_canonical(spec, *others):
    """The canonical copies of the specs hold the same bits."""
    *arrays, k = spec._canonical
    for other in others:
        *other_arrays, other_k = other._canonical
        assert other_k == k
        for a, b in zip(arrays, other_arrays):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


# The hash's last steps, h = K * (u ^ (u >> 29)) with u = h' ^ c for the
# state h' before the last column c, both invert.
_HASH_K = 0x9E3779B97F4A7C15


def _state_before_last_column(spec_with_zero_last_column):
    h = _row_hash(spec_with_zero_last_column) * np.uint64(pow(_HASH_K, -1, 2 ** 64))
    return h ^ (h >> np.uint64(29)) ^ (h >> np.uint64(58))


def with_a_row_sharing_a_hash(spec, row):
    """The spec plus a copy of ``row`` that differs from it in the response
    and in the last shape column, and has the same hash: with u = h' ^ c
    equal for both rows, so are the hashes.  Among 40000 candidate
    responses, the first whose solved c lies in [0.5, 2) is taken."""
    m = 40_000
    y = spec.response[row] * np.linspace(0.5, 1.5, m)
    W = np.repeat(spec.mu_design[row:row + 1], m, axis=0)
    Z = np.repeat(spec.sigma_design[row:row + 1], m, axis=0)
    Z[:, -1] = 0.0
    h_row = _state_before_last_column(
        ModelSpec(spec.response[row:row + 1], W[:1], Z[:1]))[0]
    c = (_state_before_last_column(ModelSpec(y, W, Z)) ^ h_row
         ^ spec.sigma_design[row:row + 1, -1].view(np.uint64)).view(float)
    k = np.flatnonzero((np.abs(c) >= 0.5) & (np.abs(c) < 2.0))[0]
    Z[k, -1] = c[k]
    return ModelSpec(np.r_[spec.response, y[k]],
                     np.vstack([spec.mu_design, W[k]]),
                     np.vstack([spec.sigma_design, Z[k]]))


# ---------------------------------------------------------------------------
# gradient and Hessian machinery
# ---------------------------------------------------------------------------

class TestDerivatives:
    def test_gradient_matches_independent_differences(self):
        spec = simulate_intercept_only(300, 3.0, 0.5, seed=8)
        rng = np.random.default_rng(0)
        for _ in range(5):
            theta = np.array([rng.normal(1.0, 0.2), rng.normal(-0.6, 0.2)])
            g = _loglik_score_and_hessian(spec, theta)[1]
            for j in range(2):
                h = 1e-5 * max(1.0, abs(theta[j]))
                e = np.zeros(2)
                e[j] = h
                fd = (log_likelihood(spec, theta + e)
                      - log_likelihood(spec, theta - e)) / (2 * h)
                assert g[j] == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_hessian_matches_score_differences(self):
        # covariates in both submodels exercise all three Hessian blocks
        n = 2000
        rng = np.random.default_rng(12)
        x = rng.normal(size=(n, 3))
        spec = ModelSpec(
            response=MedianTiltedExponential(2.0, 0.6).sample(n, seed=3),
            mu_design=np.column_stack([np.ones(n), x[:, 0], x[:, 1]]),
            sigma_design=np.column_stack([np.ones(n), x[:, 2]]),
        )
        for theta in ([0.7, 0.0, 0.0, -0.5, 0.0], [0.5, 0.3, -0.2, -0.3, 0.2]):
            theta = np.array(theta)
            H = _loglik_score_and_hessian(spec, theta)[2]
            fd = np.empty_like(H)
            for j in range(theta.size):
                e = np.zeros(theta.size)
                e[j] = 1e-5 * max(1.0, abs(theta[j]))
                g_plus = _loglik_score_and_hessian(spec, theta + e)[1]
                g_minus = _loglik_score_and_hessian(spec, theta - e)[1]
                fd[:, j] = (g_plus - g_minus) / (2 * e[j])
            np.testing.assert_allclose(H, fd, rtol=1e-6)

    def test_observed_information_symmetric_and_cross_checked(self, lime_spec,
                                                              lime_fit):
        # J as fit forms it, and the inverse the fitted model carries
        J = -_loglik_score_and_hessian(lime_spec, lime_fit.theta_hat)[2]
        J_inv = lime_fit.info_inverse
        assert np.max(np.abs(J - J.T)) < 1e-8
        # independent route: four-point second differences of the likelihood
        H = four_point_hessian(lambda t: log_likelihood(lime_spec, t),
                               lime_fit.theta_hat)
        assert np.allclose(J, -H, rtol=5e-4, atol=5e-4)
        assert np.allclose(J @ J_inv, np.eye(J.shape[0]), atol=1e-8)

    def test_observed_information_is_order_invariant(self, lime_spec, lime_fit):
        perm = np.random.default_rng(4).permutation(lime_spec.n_obs)
        shuffled = ModelSpec(
            response=lime_spec.response[perm],
            mu_design=lime_spec.mu_design[perm],
            sigma_design=lime_spec.sigma_design[perm],
        )
        J = _loglik_score_and_hessian(lime_spec, lime_fit.theta_hat)[2]
        J_shuffled = _loglik_score_and_hessian(shuffled, lime_fit.theta_hat)[2]
        assert np.array_equal(J, J_shuffled)
        assert np.array_equal(_information_inverse(-J),
                              _information_inverse(-J_shuffled))

    def test_information_rejects_saddle(self):
        spec = simulate_intercept_only(200, 3.0, 0.5, seed=11)
        H = _loglik_score_and_hessian(spec, np.array([5.0, 3.0]))[2]
        with pytest.raises(InferenceError, match="not positive definite"):
            _information_inverse(-H)


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

class TestFit:
    def test_recovers_simulated_truth(self):
        spec = simulate_intercept_only(5000, 3.0, 0.5, seed=99)
        model = fit(spec)
        assert model.converged
        truth = np.array([math.log(3.0), math.log(0.5)])
        for j in range(2):
            assert abs(model.theta_hat[j] - truth[j]) < 3.0 * model.std_errors[j]

    def test_recovers_shape_covariate(self):
        # sigma varies with a binary covariate; exercises the gamma block of
        # the score chain rule with a 2-column shape design
        n = 3000
        rng = np.random.default_rng(17)
        group = (rng.uniform(size=n) < 0.5).astype(float)
        truth = np.array([math.log(2.0), math.log(0.4), 0.6])
        sigma = np.exp(truth[1] + truth[2] * group)
        y = np.empty(n)
        for g in (0.0, 1.0):
            idx = np.where(group == g)[0]
            s = float(np.exp(truth[1] + truth[2] * g))
            y[idx] = MedianTiltedExponential(2.0, s).sample(idx.size, seed=int(g))
        spec = ModelSpec(
            response=y,
            mu_design=np.ones((n, 1)),
            sigma_design=np.column_stack([np.ones(n), group]),
        )
        model = fit(spec)
        assert model.converged
        for j in range(3):
            assert abs(model.theta_hat[j] - truth[j]) < 3.5 * model.std_errors[j]

    def test_score_small_at_optimum(self):
        spec = simulate_intercept_only(1000, 2.0, 0.8, seed=5)
        model = fit(spec)
        assert model.converged
        assert model.gradient_max_norm < 1e-6
        g = _loglik_score_and_hessian(spec, model.theta_hat)[1]
        assert np.max(np.abs(g)) < 1e-6

    def test_permutation_invariance(self, lime_spec):
        # theta_hat, loglik and info_inverse to the last bit
        for spec in (simulate_intercept_only(800, 3.0, 0.5, seed=21), lime_spec):
            assert_same_fit(fit(permuted(spec, seed=2)), fit(spec))

    def test_covariate_rescaling_equivariance(self):
        n = 600
        rng = np.random.default_rng(14)
        age = rng.uniform(1.0, 50.0, size=n)
        mu = np.exp(-1.0 + 0.03 * age)
        y = np.array([
            MedianTiltedExponential(float(m), 0.5).sample(1, seed=int(i))[0]
            for i, m in enumerate(mu)
        ])
        W = np.column_stack([np.ones(n), age])
        Z = np.ones((n, 1))
        base = fit(ModelSpec(response=y, mu_design=W, sigma_design=Z))
        scaled = fit(ModelSpec(response=y, mu_design=np.column_stack(
            [np.ones(n), age * 10.0]), sigma_design=Z))
        assert scaled.theta_hat[1] == pytest.approx(base.theta_hat[1] / 10.0,
                                                    abs=1e-6)
        med_base = predict(base, W, Z)[0]
        med_scaled = predict(scaled, np.column_stack([np.ones(n), age * 10.0]), Z)[0]
        assert np.max(np.abs(med_base - med_scaled)) < 1e-8

    def test_nonconvergence_flagged_not_raised(self, monkeypatch):
        monkeypatch.setattr(regression, "_MAX_ITER", 1)
        spec = simulate_intercept_only(500, 3.0, 0.5, seed=31)
        with pytest.warns(RuntimeWarning):
            model = fit(spec)
        assert not model.converged
        assert model.iterations <= 1

    def test_lime_passes_over_the_data(self, lime_spec, monkeypatch):
        # 8 iterations with 6 rejected trial points: full steps after full
        # steps are tried with the derivative pass, the rest with
        # log_likelihood (15 and 9 passes when every trial used log_likelihood).
        counts = {}

        def counted(name):
            original = getattr(regression, name)

            def wrapper(*args):
                counts[name] = counts.get(name, 0) + 1
                return original(*args)
            monkeypatch.setattr(regression, name, wrapper)

        counted("log_likelihood")
        counted("_loglik_score_and_hessian")
        model = fit(lime_spec)
        assert model.converged and model.iterations == 8
        assert counts == {"log_likelihood": 11, "_loglik_score_and_hessian": 9}

    @pytest.mark.parametrize("which", ["lime", "simulated"])
    def test_stop_rule_holds_at_estimate(self, which, lime_spec, lime_fit):
        # at the returned point: max|g| < _GRAD_TOL, and half the Newton
        # decrement g . step, with J step = g, is below _LL_TOL max(1, |ll|)
        if which == "lime":
            spec, model = lime_spec, lime_fit
        else:
            spec = simulate_intercept_only(1000, 2.0, 0.8, seed=5)
            model = fit(spec)
        assert model.converged
        ll, g, H = _loglik_score_and_hessian(spec, model.theta_hat)
        step = _cholesky_solve(-H, g)
        assert np.max(np.abs(g)) < _GRAD_TOL
        assert 0.5 * float(g @ step) < _LL_TOL * max(1.0, abs(ll))

    def test_stops_without_a_confirming_step(self):
        # The loop stops at the first point that passes the decrement test,
        # with no confirming iteration: the Newton step it declines here is
        # below 1e-7 in every coordinate.
        spec = simulate_intercept_only(500, 3.0, 0.5, seed=100031)
        model = fit(spec)
        assert model.converged and model.iterations == 4
        _, g, H = _loglik_score_and_hessian(spec, model.theta_hat)
        assert np.max(np.abs(_cholesky_solve(-H, g))) < 1e-7

    def test_sum_rounding_does_not_stall_the_loop(self):
        # Near the optimum a Newton step gains less than the rounding of the
        # log-likelihood's sum (a few ulp of 2.3e5 here): step halving that
        # rejected any fall in ll took 500 iterations without converging.
        spec = simulate_regression(100_000, seed=4)
        model = fit(spec)
        assert model.converged and model.iterations <= 5

    def test_lime_converges_in_few_newton_steps(self, lime_fit):
        assert lime_fit.converged
        assert lime_fit.iterations <= 12

    def test_unused_iterations_budget(self, monkeypatch):
        monkeypatch.setattr(regression, "_MAX_ITER", 500)
        spec = simulate_intercept_only(500, 3.0, 0.5, seed=31)
        model = fit(spec)
        assert model.converged
        assert model.iterations < 500


# ---------------------------------------------------------------------------
# the pilot start of large fits
# ---------------------------------------------------------------------------

PILOT_N = 40_000


def simulate_regression(n, seed):
    """3 median + 2 shape coefficients on standard normal covariates.

    Responses by the max identity of ``TiltedDistribution.sample``, with
    each row's exponential baseline of rate c/mu and shape -log(L)/c."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 3))
    W = np.column_stack([np.ones(n), x[:, 0], x[:, 1]])
    Z = np.column_stack([np.ones(n), x[:, 2]])
    mu = np.exp(W @ np.array([1.0, 0.3, -0.2]))
    c, _, log_L = _shape_constants(np.exp(Z @ np.array([-0.3, 0.2])))
    log_u = np.log(rng.uniform(size=n))
    log_e = np.log(rng.standard_exponential(n))
    y = -(mu / c) * np.minimum(log_u, log_e * c / -log_L)
    return ModelSpec(response=y, mu_design=W, sigma_design=Z)


@pytest.fixture(scope="module")
def pilot_spec():
    return simulate_regression(PILOT_N, seed=2718)


@pytest.fixture(scope="module")
def pilot_fit(pilot_spec):
    return fit(pilot_spec)


def pilot_rows(spec):
    """Mask of the pilot rows in the spec's own order: top 4 hash bits zero."""
    return _row_hash(spec) >> np.uint64(60) == 0


def fit_without_pilot(spec, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(regression, "_PILOT_MIN_OBS", spec.n_obs + 1)
        return fit(spec)


def assert_same_fit(a, b):
    assert np.array_equal(a.theta_hat, b.theta_hat)
    assert np.array_equal(a.info_inverse, b.info_inverse, equal_nan=True)
    assert (a.loglik_at_optimum, a.iterations, a.converged) == (
        b.loglik_at_optimum, b.iterations, b.converged)


class TestPilot:
    def test_theta_is_bit_identical_under_row_permutation(self, pilot_spec,
                                                          pilot_fit):
        assert pilot_spec.n_obs >= _PILOT_MIN_OBS
        order = np.random.default_rng(5).permutation(pilot_spec.n_obs)
        permuted = ModelSpec(pilot_spec.response[order],
                             pilot_spec.mu_design[order],
                             pilot_spec.sigma_design[order])
        assert np.array_equal(pilot_rows(permuted), pilot_rows(pilot_spec)[order])
        assert_same_fit(fit(permuted), pilot_fit)

    def test_picks_about_one_row_in_sixteen(self, pilot_spec):
        # binomial(40000, 1/16): SD 48 rows
        assert abs(int(pilot_rows(pilot_spec).sum()) - PILOT_N / 16) < 250

    def test_mirrored_rows_are_picked_independently(self):
        # Rows (y, 1, x) and (y, 1, -x) differ in one sign bit, which the
        # xor-shifts carry into the low bits: of the pairs whose first row
        # is picked, about 1 in 16 has its mirror picked too (binomial SD 14
        # of about 195).
        rng = np.random.default_rng(27)
        m = 50_000
        y, x = np.tile(rng.uniform(1.0, 2.0, m), 2), rng.normal(size=m)
        spec = ModelSpec(y, np.column_stack([np.ones(2 * m), np.r_[x, -x]]),
                         np.ones((2 * m, 1)))
        pick = pilot_rows(spec)
        first, both = pick[:m].sum(), (pick[:m] & pick[m:]).sum()
        assert abs(both - first / 16) < 70

    def test_pilot_is_the_leading_slice_of_the_canonical_order(self, pilot_spec):
        y, W, Z, k = pilot_spec._canonical
        keep = pilot_rows(pilot_spec)
        assert k == keep.sum()
        assert np.array_equal(np.sort(y[:k]), np.sort(pilot_spec.response[keep]))
        assert not np.isin(y[k:], pilot_spec.response[keep]).any()

    def test_negative_zero_hashes_like_zero(self):
        y = np.arange(1.0, 101.0)
        x = np.where(np.arange(100) % 2, 0.0, -0.0)
        signed = ModelSpec(y, np.column_stack([np.ones(100), x]), np.ones((100, 1)))
        zeros = ModelSpec(y, np.column_stack([np.ones(100), np.zeros(100)]),
                          np.ones((100, 1)))
        assert np.array_equal(pilot_rows(signed), pilot_rows(zeros))

    def test_full_data_passes(self, pilot_spec, pilot_fit, monkeypatch):
        # From _initial_theta this fit takes 7 iterations and 8 full-data
        # derivative passes; from the pilot, at most 6, and every other pass
        # is over the pilot rows.
        sizes = []
        original = regression._loglik_score_and_hessian

        def counted(spec, theta):
            sizes.append(spec.n_obs)
            return original(spec, theta)
        monkeypatch.setattr(regression, "_loglik_score_and_hessian", counted)
        model = fit(pilot_spec)
        assert_same_fit(model, pilot_fit)
        full = sizes.count(PILOT_N)
        assert full <= 6
        assert sizes.count(pilot_rows(pilot_spec).sum()) == len(sizes) - full > 0
        assert model.converged and model.iterations <= 5

    def test_first_step_from_the_pilot_is_a_fused_trial(self, pilot_spec,
                                                        pilot_fit, monkeypatch):
        # The first full step from the pilot's estimate is tried with the
        # derivative pass, which its iteration needs anyway: no full-data
        # log_likelihood call (1 when it is tried with log_likelihood).
        sizes = {"log_likelihood": [], "_loglik_score_and_hessian": []}
        for name, seen in sizes.items():
            def counted(spec, theta, original=getattr(regression, name), seen=seen):
                seen.append(spec.n_obs)
                return original(spec, theta)
            monkeypatch.setattr(regression, name, counted)
        assert_same_fit(fit(pilot_spec), pilot_fit)
        assert sizes["log_likelihood"].count(PILOT_N) == 0
        assert sizes["_loglik_score_and_hessian"].count(PILOT_N) == 5
        monkeypatch.undo()
        newton = regression._newton
        monkeypatch.setattr(regression, "_newton",
                            lambda spec, theta, warm=False: newton(spec, theta))
        assert_same_fit(fit(pilot_spec), pilot_fit)

    def test_rounded_responses_take_no_more_iterations(self, pilot_spec):
        # 1/10 rounding leaves a few hundred distinct responses; the row hash
        # still picks about one row in 16 through the covariates.
        y = np.round(pilot_spec.response, 1)
        keep = y > 0
        spec = ModelSpec(y[keep], pilot_spec.mu_design[keep],
                         pilot_spec.sigma_design[keep])
        assert spec.n_obs >= _PILOT_MIN_OBS
        model = fit(spec)
        *_, iterations, converged = _newton(spec, _initial_theta(spec))
        assert model.converged and converged
        assert model.iterations <= iterations

    def test_rare_level_missing_from_pilot_falls_back(self, pilot_spec, monkeypatch):
        # A dummy with 5 rows, none of them in the pilot, leaves the pilot's
        # median design rank deficient: the fit is the fit without a pilot.
        n = pilot_spec.n_obs
        W = np.column_stack([pilot_spec.mu_design, np.ones(n)])
        as_level = ModelSpec(pilot_spec.response, W, pilot_spec.sigma_design)
        rare = np.flatnonzero(~pilot_rows(as_level))[:5]
        W[:, -1] = 0.0
        W[rare, -1] = 1.0
        spec = ModelSpec(pilot_spec.response, W, pilot_spec.sigma_design)
        assert not pilot_rows(spec)[rare].any()
        assert _pilot_theta(spec) is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit(spec)
        assert model.converged
        assert_same_fit(model, fit_without_pilot(spec, monkeypatch))

    def test_pilot_start_where_loglik_is_not_finite_falls_back(self, pilot_spec,
                                                              monkeypatch):
        # A response near the largest double on a row outside the pilot, whose
        # pilot median is below 1: c y / mu overflows there, so the full
        # log-likelihood is -inf at the pilot's estimate and finite at
        # _initial_theta, where no step can be taken.
        start = _pilot_theta(pilot_spec)
        outside = np.flatnonzero(~pilot_rows(pilot_spec))
        row = outside[np.argmin(pilot_spec.mu_design[outside] @ start[:3])]
        y = pilot_spec.response.copy()
        y[row] = 1.7e308
        spec = ModelSpec(y, pilot_spec.mu_design, pilot_spec.sigma_design)
        assert np.array_equal(_pilot_theta(spec), start)
        assert log_likelihood(spec, start) == -math.inf
        with pytest.warns(RuntimeWarning):
            model = fit(spec)
            without = fit_without_pilot(spec, monkeypatch)
        assert model.iterations == 0
        assert_same_fit(model, without)

    @pytest.mark.parametrize("failure", ["not converged", "not finite"])
    def test_failed_pilot_falls_back_silently(self, failure, pilot_spec,
                                              monkeypatch):
        original = regression._newton

        def failing_pilot(spec, theta):
            if spec.n_obs == PILOT_N:
                return original(spec, theta)
            warnings.warn("pilot trouble", RuntimeWarning)
            if failure == "not finite":
                return None
            *state, _ = original(spec, theta)
            return (*state, False)
        monkeypatch.setattr(regression, "_newton", failing_pilot)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit(pilot_spec)
        monkeypatch.undo()
        assert_same_fit(model, fit_without_pilot(pilot_spec, monkeypatch))

    def test_pilot_estimate_agrees_with_the_fit(self, pilot_spec, pilot_fit,
                                                monkeypatch):
        no_pilot = fit_without_pilot(pilot_spec, monkeypatch)
        assert no_pilot.iterations > pilot_fit.iterations
        np.testing.assert_allclose(pilot_fit.theta_hat, no_pilot.theta_hat,
                                   rtol=0, atol=1e-9)
        assert pilot_fit.loglik_at_optimum == pytest.approx(
            no_pilot.loglik_at_optimum, rel=1e-14)


# ---------------------------------------------------------------------------
# Wald inference
# ---------------------------------------------------------------------------

class TestWald:
    def test_null_at_estimate(self, lime_fit):
        z, p = wald_test(lime_fit, 0, theta0=float(lime_fit.theta_hat[0]))
        assert z == 0.0
        assert p == 1.0

    def test_matches_stored_statistics(self, lime_fit):
        for j in range(lime_fit.theta_hat.size):
            z, p = wald_test(lime_fit, j, theta0=0.0)
            assert z == pytest.approx(float(lime_fit.z_stats[j]), rel=1e-12)
            assert p == pytest.approx(float(lime_fit.p_values[j]), rel=1e-10,
                                      abs=1e-300)

    def test_p_values_match_normal_cdf(self):
        # 2 Phi(-|z|) from math.erfc against scipy's ndtr over z in [0, 37]
        theta = np.linspace(0.0, 37.0, 371)
        model = FittedModel(theta_hat=theta, info_inverse=np.eye(theta.size),
                            loglik_at_optimum=0.0, converged=True, iterations=0,
                            gradient_max_norm=0.0, n_mu_coefs=1, n_obs=10_000)
        ref = 2.0 * ndtr(-np.abs(theta))
        np.testing.assert_allclose(model.p_values, ref, rtol=1e-12, atol=0.0)
        for j in (0, 100, 250, 370):
            assert wald_test(model, j)[1] == pytest.approx(ref[j], rel=1e-12,
                                                           abs=0.0)

    def test_index_error(self, lime_fit):
        with pytest.raises(IndexError):
            wald_test(lime_fit, 99)

    def test_std_error_consistency(self, lime_fit):
        assert np.allclose(
            lime_fit.std_errors,
            np.sqrt(np.diag(lime_fit.info_inverse)),
            rtol=1e-13,
        )

    def test_interval_calibration_500_datasets(self):
        # Across 500 simulated intercept-only fits (n = 500): the 95%
        # likelihood-ratio region covers the truth between 92% and 98% of the
        # time, and the Wald z-scores are roughly standard normal.  The Wald
        # intervals themselves undercover for the shape coefficient at this
        # sample size (its likelihood is markedly skewed); the acceptance
        # suite exercises that criterion as stated and documents the gap.
        truth = np.array([math.log(3.0), math.log(0.5)])
        lr_cover = 0
        zs = []
        for k in range(500):
            spec = simulate_intercept_only(500, 3.0, 0.5, seed=100_000 + k)
            model = fit(spec)
            zs.append((model.theta_hat - truth) / model.std_errors)
            lr = 2.0 * (model.loglik_at_optimum - log_likelihood(spec, truth))
            lr_cover += lr <= 5.991464547107979  # chi2(2) 95% quantile
        assert 0.92 * 500 <= lr_cover <= 0.98 * 500, lr_cover
        zs = np.array(zs)
        assert np.all(np.abs(zs.mean(axis=0)) < 0.35)
        assert np.all((zs.std(axis=0) > 0.85) & (zs.std(axis=0) < 1.35))


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

class TestPredictMedian:
    def test_training_row_is_exp_linear_predictor(self, lime_spec, lime_fit):
        W, Z = lime_spec.mu_design, lime_spec.sigma_design
        med, sigma = predict(lime_fit, W, Z)
        assert np.allclose(med, np.exp(W @ lime_fit.mu_coefs), rtol=1e-15)
        assert np.allclose(sigma, np.exp(Z @ lime_fit.sigma_coefs), rtol=1e-15)

    def test_dimension_mismatch(self, lime_fit):
        with pytest.raises(SpecificationError,
                           match="expected 4 median-design columns, got 2"):
            predict(lime_fit, np.ones((3, 2)), np.ones((3, 1)))
        with pytest.raises(SpecificationError,
                           match="expected 1 shape-design columns, got 2"):
            predict(lime_fit, np.ones((3, 4)), np.ones((3, 2)))

    def test_row_count_mismatch(self, lime_fit):
        with pytest.raises(SpecificationError,
                           match="median and shape designs have 3 and 5 rows"):
            predict(lime_fit, np.ones((3, 4)), np.ones((5, 1)))

    def test_designs_must_be_matrices(self, lime_fit):
        with pytest.raises(SpecificationError, match="new_mu_design must be"):
            predict(lime_fit, np.ones((3, 4, 1)), np.ones((3, 1)))
        with pytest.raises(SpecificationError, match="new_sigma_design must be"):
            predict(lime_fit, np.ones((3, 4)), np.ones((3, 1, 1)))

    def test_age_effect_multiplier(self, lime_fit):
        # +10 years of age multiplies the fitted median by exp(10 * slope)
        base = np.array([[1.0, 20.0, 0.0, 0.0]])
        older = np.array([[1.0, 30.0, 0.0, 0.0]])
        shape = np.ones((1, 1))
        ratio = (predict(lime_fit, older, shape)[0][0]
                 / predict(lime_fit, base, shape)[0][0])
        assert ratio == pytest.approx(math.exp(10.0 * lime_fit.theta_hat[1]),
                                      rel=1e-12)
        assert 1.40 <= ratio <= 1.44
