import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from tiltreg import (
    BaselineDistribution,
    ExponentialBaseline,
    NumericalError,
    TiltedDistribution,
)
from tiltreg import family
from tiltreg.baseline import _require_probability

betas = st.floats(min_value=0.2, max_value=8.0)
rates = st.floats(min_value=0.05, max_value=20.0)
probs = st.floats(min_value=1e-4, max_value=1.0 - 1e-4)
tail_betas = st.floats(min_value=0.1, max_value=20.0)


def tilted(lam=1.0, beta=1.0):
    return TiltedDistribution(ExponentialBaseline(lam), beta)


# ---------------------------------------------------------------------------
# CDF / PDF / SF / hazard
# ---------------------------------------------------------------------------

class TestCdf:
    def test_lower_limit(self):
        assert tilted(1.0, 2.0).cdf(1e-12) == pytest.approx(0.0, abs=1e-11)

    def test_unit_exponential_value(self):
        # (1 - e^-1) * exp(-e^-1), high-precision direct evaluation
        assert tilted(1.0, 1.0).cdf(1.0) == pytest.approx(
            0.43755424751176386, abs=1e-14
        )

    def test_upper_tail(self):
        assert tilted(1.0, 3.0).cdf(10.0) == pytest.approx(1.0, abs=1e-4)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            tilted().cdf(0.0)

    def test_monotone_increasing(self):
        d = tilted(0.8, 2.5)
        x = np.linspace(0.01, 15.0, 500)
        c = d.cdf(x)
        assert np.all(np.diff(c) > 0)


class TestPdf:
    def test_left_boundary_limit(self):
        # continuous extension at the origin approaches rate / e
        assert tilted(1.0, 1.0).pdf(1e-10) == pytest.approx(
            math.exp(-1.0), rel=1e-8
        )

    def test_matches_cdf_derivative(self):
        d = tilted(1.0, 2.0)
        h = 1e-6
        fd = (d.cdf(1.0 + h) - d.cdf(1.0 - h)) / (2 * h)
        assert d.pdf(1.0) == pytest.approx(fd, abs=1e-6)

    def test_upper_tail_vanishes(self):
        assert tilted(1.0, 3.0).pdf(80.0) == pytest.approx(0.0, abs=1e-30)

    def test_cdf_pdf_consistency_on_log_grid(self):
        # abs floor covers the far tail, where the finite-difference oracle
        # itself saturates (cdf values within 1e-16 of each other)
        d = tilted(1.3, 0.7)
        for x in np.logspace(-2, 1.2, 25):
            h = 1e-6 * max(1.0, x)
            fd = (d.cdf(x + h) - d.cdf(x - h)) / (2 * h)
            assert d.pdf(x) == pytest.approx(fd, rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("lam,beta", [(1.0, 0.5), (1.0, 1.0), (2.0, 3.0)])
    def test_normalization(self, lam, beta):
        d = tilted(lam, beta)
        total, _ = quad(lambda x: d.pdf(x), 0, np.inf, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_small_beta_tail_is_finite(self):
        # beta < 1 makes (1-G)^(beta-1) blow up unless fused in log space
        d = tilted(1.0, 0.25)
        v = d.pdf(500.0)
        assert np.isfinite(v) and v >= 0.0

    @pytest.mark.parametrize("beta", [0.3, 0.5, 1.0, 2.0])
    def test_density_at_infinity_is_zero(self, beta):
        # log Gbar = -inf meets (beta-1) log Gbar = +inf or 0*inf: no nan and
        # no floating-point warning, and finite points in the same call keep
        # their values
        d = tilted(1.0, beta)
        x = np.array([0.5, 3.0, math.inf])
        with np.errstate(all="raise"):
            assert d.log_pdf(math.inf) == -math.inf
            assert d.pdf(math.inf) == 0.0
            log_f = d.log_pdf(x)
        assert log_f[2] == -math.inf
        assert np.array_equal(log_f[:2], d.log_pdf(x[:2]))


class TestSurvivalAndHazard:
    def test_sf_at_origin(self):
        assert tilted(1.0, 2.0).sf(1e-12) == pytest.approx(1.0, abs=1e-11)

    def test_sf_value(self):
        assert tilted(1.0, 1.0).sf(1.0) == pytest.approx(
            1.0 - 0.43755424751176386, abs=1e-14
        )

    def test_complement_identity_exact(self):
        d = tilted(0.6, 1.7)
        for t in (0.05, 0.8, 3.0, 9.0):
            assert d.sf(t) + d.cdf(t) == 1.0

    def test_defining_identity(self):
        d = tilted(1.0, 2.0)
        for t in (0.1, 0.9, 2.5, 6.0):
            assert d.hazard(t) * d.sf(t) == pytest.approx(d.pdf(t), rel=1e-12)

    def test_value_from_oracles(self):
        # ratio of the pdf and sf oracle values at t = 1
        assert tilted(1.0, 1.0).hazard(1.0) == pytest.approx(0.7389398716, abs=1e-4)

    def test_nonnegative_at_small_t(self):
        d = tilted(1.0, 2.0)
        assert d.hazard(1e-6) >= 0.0

    def test_hazard_beyond_survival_underflow(self):
        # S(1000) underflows, but log S does not: the hazard is 1.  Only
        # t = inf, where log S is -inf, raises.
        d = tilted(1.0, 1.0)
        assert d.sf(1000.0) == 0.0
        assert d.hazard(1000.0) == pytest.approx(1.0, rel=1e-13)
        with pytest.raises(NumericalError):
            d.hazard(math.inf)

    def test_far_tail_oracle(self):
        # 60-digit S = -expm1(log1p(-a) - a^beta), a = e^(-lam x), out to
        # 2000/(lam min(1, beta)), where S is near e^-2000 and underflows.
        mpmath = pytest.importorskip("mpmath")
        for lam, beta in [(1.0, 0.1), (0.3, 0.5), (2.0, 1.0), (1.0, 3.0),
                          (5.0, 20.0), (1.0, 1.0)]:
            d = tilted(lam, beta)
            scale = lam * min(1.0, beta)
            x = np.linspace(0.5 / scale, 2000.0 / scale, 60)
            log_s, hazard = d.log_sf(x), d.hazard(x)
            with mpmath.workdps(60):
                for xi, ls, h in zip(x.tolist(), log_s, hazard):
                    a = mpmath.exp(-lam * mpmath.mpf(xi))
                    b = a ** beta
                    S = -mpmath.expm1(mpmath.log1p(-a) - b)
                    f = lam * a * (1 + beta * (1 - a) * b / a) * mpmath.exp(-b)
                    assert ls == pytest.approx(float(mpmath.log(S)), rel=1e-14)
                    # exp(log f - log S): each log carries ~|log S| eps
                    assert h == pytest.approx(float(f / S), rel=1e-11)

    def test_hazard_where_cdf_rounds_to_one(self):
        # F(40) rounds to 1, so 1 - F would give S = 0; the hazard is 1
        d = tilted(1.0, 1.0)
        assert d.cdf(40.0) == 1.0
        assert d.sf(40.0) == pytest.approx(2.0 * math.exp(-40.0), rel=1e-15)
        assert d.hazard(40.0) == pytest.approx(1.0, rel=1e-13)

    def test_tail_oracle(self):
        # with a = e^(-lam x): S = 1 - (1-a) exp(-a^beta) = a + a^beta up to
        # relative terms below max(a, a^beta) < 1e-17, i.e. exactly in double
        # precision.  The slack covers rounding of the exponent lam*x ~ 700.
        for lam, beta in [(1.0, 0.1), (0.3, 0.5), (2.0, 1.0), (1.0, 3.0), (5.0, 20.0)]:
            d = tilted(lam, beta)
            x_far = 690.0 / (lam * min(1.0, beta))
            for x in np.linspace(45.0 / (lam * min(1.0, beta)), x_far, 40):
                oracle = math.exp(-lam * x) + math.exp(-beta * lam * x)
                assert d.sf(x) == pytest.approx(oracle, rel=1e-12), (lam, beta, x)
                assert d.log_sf(x) == pytest.approx(math.log(oracle), rel=1e-14)

    @settings(max_examples=100)
    @given(tail_betas, rates, probs)
    def test_complement_in_the_bulk(self, beta, lam, p):
        d = tilted(lam, beta)
        x = d.quantile(p)
        assert abs(d.sf(x) + d.cdf(x) - 1.0) <= 1e-15

    @settings(max_examples=100)
    @given(tail_betas, rates)
    def test_log_sf_finite_and_decreasing_to_1e_300(self, beta, lam):
        d = tilted(lam, beta)
        x_far = 690.0 / (lam * min(1.0, beta))  # S(x_far) ~ 1e-300
        x = np.concatenate([np.logspace(-8, 0, 50) * x_far / 100,
                            np.linspace(x_far / 50, x_far, 500)])
        log_s = d.log_sf(x)
        assert np.all(np.isfinite(log_s))
        assert np.all(np.diff(log_s) < 0.0)
        assert log_s[-1] < math.log(1e-299)

    @settings(max_examples=100)
    @given(tail_betas, rates)
    def test_hazard_tends_to_rate_times_min_one_beta(self, beta, lam):
        # in the tail h = lam (a + beta a^beta) / (a + a^beta), a = e^(-lam x),
        # which is lam*min(1, beta) up to lam |1-beta| r, r = a^|1-beta|;
        # log f and log S are ~700 in size, so each carries ~1e-13 rounding
        d = tilted(lam, beta)
        x_far = 690.0 / (lam * min(1.0, beta))
        limit = lam * min(1.0, beta)
        r = math.exp(-abs(1.0 - beta) * lam * x_far)
        assert abs(d.hazard(x_far) - limit) <= lam * abs(1.0 - beta) * r + 1e-11 * limit


# ---------------------------------------------------------------------------
# auxiliary unit-interval variable
# ---------------------------------------------------------------------------

class _Uniform(BaselineDistribution):
    """Uniform(0, 1): the tilted family over it is the auxiliary variable."""

    def cdf(self, y):
        return _require_probability(y, "y")

    def log_pdf(self, y):
        return np.zeros_like(_require_probability(y, "y"))

    def quantile(self, p):
        return _require_probability(p)

    def log_sf(self, y):
        return np.log1p(-_require_probability(y, "y"))

    def quantile_from_log_sf(self, log_s):
        return -np.expm1(log_s)


def tilt_variable(beta):
    """Auxiliary variable with CDF y * exp(-(1-y)**beta) on (0, 1)."""
    return TiltedDistribution(_Uniform(), beta)


class TestTiltVariable:
    def test_density_limit_at_one(self):
        assert tilt_variable(1.0).pdf(1.0 - 1e-12) == pytest.approx(2.0, abs=1e-9)

    def test_density_value(self):
        # e^-0.25 * (1 + 0.5*2*0.5), direct evaluation
        assert tilt_variable(2.0).pdf(0.5) == pytest.approx(
            1.1682011746071073, abs=1e-14
        )

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 3.7])
    def test_density_normalization(self, beta):
        total, _ = quad(tilt_variable(beta).pdf, 0.0, 1.0, limit=300)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_density_domain(self):
        with pytest.raises(ValueError):
            tilt_variable(1.0).pdf(0.0)
        with pytest.raises(ValueError):
            tilt_variable(1.0).pdf(1.0)

    def test_quantile_tends_to_one(self):
        assert tilt_variable(2.0).quantile(1.0 - 1e-12) > 1.0 - 1e-5

    def test_quantile_roundtrip(self):
        v = tilt_variable(1.6)
        p = np.linspace(0.01, 0.99, 99)
        q = v.quantile(p)
        assert np.max(np.abs(q * np.exp(-((1 - q) ** 1.6)) - p)) < 1e-12

    def test_known_root(self):
        # bisection oracle to 1e-14, verified by substitution
        q = tilt_variable(1.0).quantile(0.25)
        assert q == pytest.approx(0.43837841630998287, abs=1e-12)
        assert q * math.exp(-(1 - q)) == pytest.approx(0.25, abs=1e-13)


# ---------------------------------------------------------------------------
# auxiliary quantile solve in s = -log(1 - q)
# ---------------------------------------------------------------------------

solve_betas = st.floats(min_value=0.1, max_value=20.0)
solve_probs = st.floats(min_value=1e-300, max_value=1.0 - 1e-15)


def log_aux_cdf(s, beta):
    """log(1 - e^-s) - e^(-beta s), written independently of the solver."""
    log_y = math.log(-math.expm1(-s)) if s < 0.5 else math.log1p(-math.exp(-s))
    return log_y - math.exp(-beta * s)


def aux_log_sf_oracle(beta, p):
    """s with (1 - e^-s) * exp(-e^(-beta s)) = p, by 60-digit bisection."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        log_p = mpmath.log(mpmath.mpf(p))
        # y = p * exp(e^(-beta s)) lies in (p, e*p), so s lies in (p, 4p)
        lo, hi = mpmath.mpf(p), 4 * mpmath.mpf(p)
        for _ in range(220):
            mid = (lo + hi) / 2
            if mpmath.log(-mpmath.expm1(-mid)) - mpmath.exp(-beta * mid) < log_p:
                lo = mid
            else:
                hi = mid
        return float(lo)


class TestAuxiliarySolve:
    def test_array_solve_equals_scalar_solves_bitwise(self, monkeypatch):
        # several blocks and a shrinking active set must not couple elements
        monkeypatch.setattr(family, "_SOLVE_BLOCK", 4096)
        rng = np.random.default_rng(11)
        p = np.concatenate([rng.uniform(size=9000), 10.0 ** rng.uniform(-300, -1, 500),
                            1.0 - 10.0 ** rng.uniform(-15, -1, 500)])
        s = family._aux_log_sf_solve(0.1, p)
        scalar = [family._aux_log_sf_solve(0.1, float(pi)) for pi in p]
        assert np.array_equal(s, np.array(scalar))

    @settings(max_examples=200)
    @given(solve_betas, solve_probs)
    def test_residual_within_a_few_ulp(self, beta, p):
        s = float(family._aux_log_sf_solve(beta, p))
        scale = max(1.0, abs(math.log(p)))
        assert abs(log_aux_cdf(s, beta) - math.log(p)) <= 4 * np.finfo(float).eps * scale

    @settings(max_examples=200)
    @given(solve_betas, solve_probs, solve_probs)
    def test_monotone_in_p(self, beta, p1, p2):
        lo, hi = sorted((p1, p2))
        # g is only resolved to a few ulp of max(1, |log p|), so the order of
        # two roots is defined for p further apart than that
        if hi - lo <= 64 * np.finfo(float).eps * max(1.0, -math.log(lo)) * lo:
            return
        s = family._aux_log_sf_solve(beta, np.array([lo, hi]))
        assert s[0] <= s[1]

    @pytest.mark.parametrize("beta", [0.3, 1.0, 2.0, 8.0])
    @pytest.mark.parametrize("p", [1e-20, 1e-50, 1e-100, 1e-200, 1e-300])
    def test_deep_lower_tail_within_4_ulp_of_oracle(self, beta, p):
        # at rate 1 the quantile is s itself
        s = tilted(1.0, beta).quantile(p)
        exact = aux_log_sf_oracle(beta, p)
        assert abs(s - exact) <= 4 * math.ulp(exact), (s - exact) / math.ulp(exact)

    def test_exhausted_budget_raises(self, monkeypatch):
        monkeypatch.setattr(family, "_ROOT_MAX_ITER", 1)
        with pytest.raises(NumericalError, match="did not converge"):
            tilted(1.0, 2.0).quantile(np.linspace(0.01, 0.99, 50))


# ---------------------------------------------------------------------------
# quantiles and sampling
# ---------------------------------------------------------------------------

class TestQuantile:
    def test_roundtrip_grid(self):
        p = np.linspace(0.01, 0.99, 99)
        for lam in (0.5, 2.0):
            for beta in (0.5, 1.0, 2.0, 3.0, 5.0):
                d = tilted(lam, beta)
                err = np.max(np.abs(d.cdf(d.quantile(p)) - p))
                assert err < 1e-10, (lam, beta, err)

    def test_median_of_reparameterized_rate(self):
        # rate (sigma+log2)/mu with the matching shape pins the median at mu
        from tiltreg import MedianTiltedExponential

        mu, sigma = 3.0, 0.7
        m = MedianTiltedExponential(mu, sigma)
        d = tilted(m.baseline.rate, m.beta)
        assert d.quantile(0.5) == pytest.approx(mu, rel=1e-12)

    def test_inverse_of_cdf_oracle(self):
        assert tilted(1.0, 1.0).quantile(0.43755424751176386) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_small_beta_upper_tail_is_not_clamped(self):
        # at beta = 0.1 the 0.99 quantile sits at q = 1 - 1e-20, which rounds to 1
        d = tilted(1.0, 0.1)
        assert abs(d.cdf(d.quantile(0.99)) - 0.99) < 1e-12

    @settings(max_examples=50)
    @given(betas, rates, probs)
    def test_roundtrip_property(self, beta, lam, p):
        d = tilted(lam, beta)
        assert d.cdf(d.quantile(p)) == pytest.approx(p, abs=1e-9)


class TestSampling:
    def test_determinism(self):
        d = tilted(1.0, 2.0)
        a = d.sample(100, seed=12345)
        b = d.sample(100, seed=12345)
        assert np.array_equal(a, b)
        assert np.all(a > 0)

    def test_seed_changes_stream(self):
        d = tilted(1.0, 2.0)
        assert not np.array_equal(d.sample(100, seed=1), d.sample(100, seed=2))

    def test_ks_against_cdf(self):
        d = tilted(1.0, 2.0)
        n = 10**4
        x = np.sort(d.sample(n, seed=20240801))
        u = d.cdf(x)
        i = np.arange(1, n + 1)
        ks = max(np.max(i / n - u), np.max(u - (i - 1) / n))
        assert ks < 1.627 / math.sqrt(n)

    def test_empirical_median(self):
        d = tilted(1.0, 2.0)
        n = 10**5
        s = d.sample(n, seed=31415)
        med = d.quantile(0.5)
        se = 1.0 / (2.0 * d.pdf(med) * math.sqrt(n))
        assert abs(np.median(s) - med) < 3.0 * se

    def test_small_beta_draws_do_not_pile_up_on_the_maximum(self):
        x = tilted(1.0, 0.1).sample(10**5, seed=2718)
        assert np.sum(x == x.max()) <= 1

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            tilted().sample(0, seed=1)

    @pytest.mark.parametrize("make, seed", [
        (lambda: tilted(1.0, 0.1), 6021),
        (lambda: tilted(1.0, 1.0), 6022),
        (lambda: tilted(1.0, 20.0), 6023),
        (lambda: TiltedDistribution(_LogLogistic(2.5, 3.0), 0.4), 6024),
    ], ids=["exp-beta0.1", "exp-beta1", "exp-beta20", "loglogistic-beta0.4"])
    def test_max_identity_matches_cdf(self, make, seed):
        # draws of max(X1, X2) against F = G exp(-Gbar^beta) at the
        # Kolmogorov level-1e-6 critical value
        d, n = make(), 10**6
        F = np.asarray(d.cdf(np.sort(d.sample(n, seed=seed))))
        i = np.arange(1, n + 1) / n
        stat = math.sqrt(n) * max(np.max(i - F), np.max(F - (i - 1.0 / n)))
        assert stat < math.sqrt(-math.log(0.5e-6) / 2.0)

    @pytest.mark.parametrize("beta", [0.01, 1.0, 50.0])
    def test_zero_variates_give_finite_positive_draws(self, monkeypatch, beta):
        # zeros in U alone, in E alone and in both, next to ordinary values
        u = np.array([0.0, 0.0, 0.5, 0.999, 0.0])
        e = np.array([0.0, 3.0, 0.0, 0.2, 40.0])

        class ZeroStream:
            def uniform(self, size):
                return u.copy()

            def standard_exponential(self, size):
                return e.copy()

        monkeypatch.setattr(family.np.random, "default_rng", lambda seed: ZeroStream())
        x = tilted(1.0, beta).sample(u.size, seed=0)
        assert x.shape == u.shape
        assert np.all(np.isfinite(x) & (x > 0))


# ---------------------------------------------------------------------------
# mode
# ---------------------------------------------------------------------------

def scalar_scan_mode(d):
    """The mode scan with one scalar log_pdf call per grid point and side.

    Its window comes from the max identity F = G H, H = exp(-Gbar^beta), and
    is checked to cover [F^-1(0.001), F^-1(0.999)].
    """
    def slope(x):
        h = min(1e-6 * max(1.0, abs(x)), 0.5 * x)
        return float((d.log_pdf(x + h) - d.log_pdf(x - h)) / (2 * h))

    q = math.sqrt(0.999)
    lo = float(d.baseline.quantile(0.001))
    hi = max(float(d.baseline.quantile(q)), float(
        d.baseline.quantile_from_log_sf(math.log(-math.log(q)) / d.beta)))
    assert d.cdf(lo) <= 0.001 and d.cdf(hi) >= 0.999
    xs = np.linspace(lo, hi, 257)
    ss = [slope(float(x)) for x in xs]
    roots = [float(brentq(slope, xs[i], xs[i + 1], xtol=1e-12))
             for i in range(256) if ss[i] > 0.0 and ss[i + 1] < 0.0]
    return max(roots, key=lambda x: float(d.pdf(x))) if roots else None


class TestMode:
    def test_exists_for_beta_three(self):
        assert tilted(1.0, 3.0).mode() is not None

    def test_is_critical_point_of_log_density(self):
        d = tilted(1.0, 3.0)
        x0 = d.mode()
        h = 1e-6 * max(1.0, x0)
        slope = (d.log_pdf(x0 + h) - d.log_pdf(x0 - h)) / (2 * h)
        assert abs(slope) < 1e-8

    def test_matches_grid_argmax(self):
        d = tilted(1.0, 3.0)
        xs = np.linspace(10.0 / 10**5, 10.0, 10**5)
        argmax = xs[np.argmax(d.pdf(xs))]
        assert abs(d.mode() - argmax) <= 10.0 / 10**5

    def test_no_interior_critical_point(self):
        assert tilted(1.0, 0.5).mode() is None

    @pytest.mark.parametrize("beta", [0.3, 1.0, 2.0, 8.0, 20.0])
    @pytest.mark.parametrize("lam", [0.37, 1.0, 5.0])
    def test_array_scan_equals_scalar_scan_bitwise(self, beta, lam):
        d = tilted(lam, beta)
        assert d.mode() == scalar_scan_mode(d)

    @pytest.mark.parametrize("beta", [0.3, 1.0, 2.0, 8.0])
    def test_runs_no_auxiliary_quantile_solve(self, monkeypatch, beta):
        expected = tilted(1.0, beta).mode()

        def no_solve(*args, **kwargs):
            raise AssertionError("mode ran the auxiliary-quantile solve")

        monkeypatch.setattr(family, "_aux_log_sf_solve", no_solve)
        assert tilted(1.0, beta).mode() == expected

    def test_unimodal_for_beta_at_least_two(self):
        for beta in (2.0, 3.0, 5.0):
            d = tilted(1.0, beta)
            xs = np.linspace(1e-3, 15.0, 20000)
            f = d.pdf(xs)
            interior = (f[1:-1] > f[:-2]) & (f[1:-1] > f[2:])
            assert int(np.sum(interior)) == 1


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def density_moment(d, p, lo, hi):
    """Independent oracle: direct quadrature of x^p f(x)."""
    val, _ = quad(lambda x: x**p * d.pdf(x), lo, hi, limit=300)
    return val


class TestMoments:
    def test_empty_window(self):
        d = tilted(1.0, 1.0)
        assert d.truncated_moment(1.0, 2.0 - 1e-12, 2.0) == pytest.approx(
            0.0, abs=1e-10
        )

    @pytest.mark.parametrize("p", [1.0, 2.0])
    @pytest.mark.parametrize("window", [(0.0, 1.0), (0.5, 3.0)])
    def test_identity_against_density_quadrature(self, p, window):
        d = tilted(1.0, 1.5)
        lo, hi = window
        lhs = density_moment(d, p, lo, hi)
        rhs = d.truncated_moment(p, lo, hi)
        assert rhs == pytest.approx(lhs, abs=1e-8)

    def test_additivity(self):
        d = tilted(1.0, 2.0)
        p = 2.0
        total = d.truncated_moment(p, 0.5, 3.0) + d.truncated_moment(p, 3.0, math.inf)
        assert total == pytest.approx(d.truncated_moment(p, 0.5, math.inf), abs=1e-8)

    def test_upper_with_zero_cut_equals_raw_moment(self):
        d = tilted(1.0, 1.0)
        upper = d.truncated_moment(1.5, 0.0, math.inf)
        assert upper == pytest.approx(d.moment(1.5), abs=1e-12)

    def test_jensen_ordering(self):
        d = tilted(1.0, 2.0)
        assert d.moment(2.0) >= d.moment(1.0) ** 2

    def test_scale_equivariance(self):
        # X at rate 2 is distributed as X at rate 1 divided by 2
        assert tilted(2.0, 1.0).moment(1.0) == pytest.approx(
            0.5 * tilted(1.0, 1.0).moment(1.0), rel=1e-9
        )

    def test_upper_moment_against_density_quadrature(self):
        d = tilted(1.0, 2.0)
        lhs = density_moment(d, 2.0, 1.0, np.inf)
        assert d.truncated_moment(2.0, 1.0, math.inf) == pytest.approx(lhs, rel=1e-6)

    def test_upper_moment_against_monte_carlo(self):
        d = tilted(1.0, 2.0)
        x = d.sample(10**6, seed=808)
        mc = float(np.mean(np.where(x > 1.0, x**2, 0.0)))
        assert d.truncated_moment(2.0, 1.0, math.inf) == pytest.approx(mc, rel=0.02)

    def test_validation(self):
        d = tilted()
        with pytest.raises(ValueError):
            d.truncated_moment(0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            d.truncated_moment(math.inf, 0.0, 1.0)
        with pytest.raises(ValueError):
            d.truncated_moment(1.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            d.truncated_moment(1.0, -0.5, math.inf)


def aux_moment_series(beta, q):
    """E[S^q] for S = -log(1 - Y), Y the auxiliary variable, at 40 digits.

    P(S > s) = e^-s - sum_{k>=1} (-1)^k/k! (e^(-beta k s) - e^(-(beta k+1) s)),
    so E[S^q] = Gamma(q+1) [1 - sum_k (-1)^k/k! ((beta k)^-q - (beta k+1)^-q)].
    The terms fall like 1/k!, so 80 of them leave nothing at this precision.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        b, q = mpmath.mpf(beta), mpmath.mpf(q)
        tail = mpmath.fsum((-1) ** k / mpmath.factorial(k)
                           * ((b * k) ** -q - (b * k + 1) ** -q)
                           for k in range(1, 80))
        return mpmath.gamma(q + 1) * (1 - tail)


def aux_moment_quad(x_of_s, beta, p, s_a, s_b):
    """60-digit quadrature of x(s)^p h(s) over (s_a, s_b), h the density of S."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        b, s_a, s_b = mpmath.mpf(beta), mpmath.mpf(s_a), mpmath.mpf(s_b)

        def integrand(s):
            e_b = mpmath.exp(-b * s)
            return x_of_s(s) ** p * mpmath.exp(-e_b) * (
                mpmath.exp(-s) - b * mpmath.expm1(-s) * e_b)

        cuts = [s_a + c / min(1, b) for c in (0.1, 1, 10, 100)]
        return mpmath.quad(integrand, [s_a, *[c for c in cuts if c < s_b], s_b])


class _LogLogistic(BaselineDistribution):
    """Log-logistic with shape k and scale c: Gbar(x) = 1/(1 + (x/c)^k)."""

    def __init__(self, shape: float, scale: float):
        self.shape, self.scale = shape, scale

    def log_pdf(self, x):
        x = np.asarray(x, dtype=float)
        log_z = self.shape * np.log(x / self.scale)
        return np.log(self.shape / x) + log_z - 2.0 * np.logaddexp(0.0, log_z)

    def log_sf(self, x):
        return -np.log1p((np.asarray(x, dtype=float) / self.scale) ** self.shape)

    def quantile_from_log_sf(self, log_s):
        # c * expm1(s)^(1/k), s = -log_s, written so it overflows only with x
        s = -np.asarray(log_s, dtype=float)
        k = self.shape
        return self.scale * np.exp(s / k) * (-np.expm1(-s)) ** (1.0 / k)


class TestMomentOracles:
    """The moment rule against the series for E[S^q] and 60-digit quadrature."""

    @pytest.mark.parametrize("beta", [0.001, 0.01, 0.1, 0.3, 1, 2, 8, 50, 500])
    def test_exponential_raw_moments_match_the_series(self, beta):
        # x(s) = s / lambda, so E[X^p] = E[S^p] / lambda^p; s^20 h peaks near
        # s = 20/min(1, beta), beyond the bulk of h
        for lam in (0.37, 1.0, 5.0):
            for p in (0.5, 1.0, 2.0, 3.7, 20.0):
                exact = float(aux_moment_series(beta, p) / lam**p)
                assert tilted(lam, beta).moment(p) == pytest.approx(exact, rel=1e-13)

    @pytest.mark.parametrize("beta", [0.001, 0.01, 0.1, 0.3, 1, 2, 8, 50, 500])
    def test_high_order_moments_are_accurate_to_a_few_ulps(self, beta):
        # x^p is formed with ** where finite: in log space it would carry an
        # error of about p |log x| eps, 2e-14 relative at p = 50
        for lam in (0.37, 1.0, 5.0):
            for p in (20.0, 50.0):
                exact = aux_moment_series(beta, p) / lam**p
                value = tilted(lam, beta).moment(p)
                assert abs(value - exact) <= 2e-15 * abs(exact)

    @pytest.mark.parametrize("shape", [0.7, 1.5, 3.0])
    def test_weibull_raw_moments_match_the_series(self, shape):
        from tests.test_baseline import _Weibull

        # x(s) = c s^(1/k), so E[X^p] = c^p E[S^(p/k)]
        for beta in (0.3, 1.0, 8.0):
            d = TiltedDistribution(_Weibull(shape, 2.0), beta)
            for p in (0.5, 2.0, 3.7):
                exact = float(2.0**p * aux_moment_series(beta, p / shape))
                assert d.moment(p) == pytest.approx(exact, rel=1e-13)

    @pytest.mark.parametrize("beta", [0.1, 1.0, 50.0])
    @pytest.mark.parametrize("window", [(1e-9, 1e-6), (0.0, 2.0), (0.5, 3.0),
                                        (3.0, 40.0), (1.0, math.inf), (3.0, 1e5)])
    def test_exponential_truncated_moments_match_quadrature(self, beta, window):
        # (3, 1e5) is 37000 long in s: the tail beyond 3 less that beyond 1e5
        lam, (lo, hi) = 0.37, window
        exact = aux_moment_quad(lambda s: s / lam, beta, 3.7, lam * lo, lam * hi)
        assert tilted(lam, beta).truncated_moment(3.7, lo, hi) == pytest.approx(
            float(exact), rel=1e-13)

    def test_log_logistic_moment_exists_below_its_shape(self):
        # Gbar ~ x^-2 and beta = 1, so E[X^p] is finite iff p < 2
        mpmath = pytest.importorskip("mpmath")
        d = TiltedDistribution(_LogLogistic(2.0, 1.0), 1.0)

        def x_of_s(s):  # expm1(s)^(1/2)
            return mpmath.exp(s / 2) * mpmath.sqrt(-mpmath.expm1(-s))

        exact = aux_moment_quad(x_of_s, 1.0, 1.5, 0.0, mpmath.inf)
        assert d.moment(1.5) == pytest.approx(float(exact), rel=1e-13)
        for p in (2.0, 2.5):
            with pytest.raises(NumericalError):
                d.moment(p)

    # Beyond s = 745, h = 2 e^-s (1 + O(e^-s)) underflows, and at beta = 0.3
    # s^100 overflows where h > 0; the rule forms its terms in log space.

    def test_truncated_moment_where_h_underflows(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            exact = float(2 * mpmath.gammainc(101, 800))  # 1.70744524153753e-57
        assert tilted(1.0, 1.0).truncated_moment(100.0, 800.0, math.inf) == (
            pytest.approx(exact, rel=1e-13))

    def test_subnormal_truncated_moment(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            exact = float(2 * mpmath.gammainc(2, 745))  # 4.2109472898641e-321
        value = tilted(1.0, 1.0).truncated_moment(1.0, 745.0, math.inf)
        assert abs(value - exact) <= 2 * math.ulp(0.0)

    def test_moment_where_x_to_the_p_overflows(self):
        exact = float(aux_moment_series(0.3, 100.0))  # 1.8108320927810199e210
        assert tilted(1.0, 0.3).moment(100.0) == pytest.approx(exact, rel=1e-13)

    def test_x_overflowing_where_h_is_positive_is_an_error(self):
        # x(s) = expm1(s)^2 overflows beyond s = 355, where h ~ 0.01 e^(-0.01 s)
        d = TiltedDistribution(_LogLogistic(0.5, 1.0), 0.01)
        with pytest.raises(NumericalError, match="not finite"):
            d.truncated_moment(0.5, 1e100, math.inf)

    def test_astronomical_order_is_a_numerical_error(self):
        # log-terms near 1e300: the scale 2^k must stay within ldexp's range
        with pytest.raises(NumericalError, match="not finite"):
            tilted(1.0, 1.0).truncated_moment(1e300, 0.5, 3.0)

    def test_step_gap_still_rejects_an_unresolved_moment(self):
        # 2 Gamma(151) = 1.14e263 is finite, but the two steps differ by 1.7e-6
        with pytest.raises(NumericalError, match="1.142677e\\+263"):
            tilted(1.0, 1.0).moment(150.0)


# ---------------------------------------------------------------------------
# empirical identifiability
# ---------------------------------------------------------------------------

def test_baseline_with_negative_support_rejected():
    from scipy.stats import norm

    class _NormalBaseline(BaselineDistribution):
        def cdf(self, x):
            return norm.cdf(x, loc=2.0)

        def log_pdf(self, x):
            return norm.logpdf(x, loc=2.0)

        def quantile(self, p):
            return norm.ppf(p, loc=2.0)

        def log_sf(self, x):
            return norm.logsf(x, loc=2.0)

        def quantile_from_log_sf(self, log_s):
            return norm.isf(np.exp(log_s), loc=2.0)

    with pytest.raises(ValueError, match="support"):
        TiltedDistribution(_NormalBaseline(), 2.0)


def test_distinct_parameters_give_distinct_cdfs():
    rng = np.random.default_rng(7)
    x = np.linspace(1e-3, 12.0, 1000)
    for _ in range(25):
        b1, l1 = rng.uniform(0.3, 4.0), rng.uniform(0.3, 4.0)
        d_b, d_l = rng.uniform(1e-3, 1.0, size=2)
        b2, l2 = b1 + d_b, l1 + d_l
        gap = np.max(np.abs(tilted(l1, b1).cdf(x) - tilted(l2, b2).cdf(x)))
        assert gap > 0.0
