import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from tiltreg import (
    ExponentialBaseline,
    MedianTiltedExponential,
    NumericalError,
    TiltedDistribution,
)
from tiltreg.cli import main
from tiltreg.exponential import (
    _log_density_terms,
    median_tilted_cdf,
    median_tilted_derivatives,
    median_tilted_logpdf,
)

LOG2 = math.log(2.0)

mus = st.floats(min_value=0.1, max_value=100.0)
sigmas = st.floats(min_value=0.01, max_value=10.0)


def mp_logpdf(mpmath, x, mu, sigma):
    """log f at the floats (x, mu, sigma), from the printed formula in mpmath."""
    x, mu, sigma = (mpmath.mpf(float(v)) for v in (x, mu, sigma))
    c = sigma + mpmath.log(2)
    L = mpmath.log(2 * (1 - mpmath.exp(-c)))
    r = x / mu
    b = L ** r
    return (mpmath.log(c / mu) - c * r - b
            + mpmath.log(1 - mpmath.log(L) / c * mpmath.expm1(c * r) * b))


def classical(beta, rate):
    """The tilted exponential in (beta, rate) coordinates."""
    return TiltedDistribution(ExponentialBaseline(rate), beta)


# ---------------------------------------------------------------------------
# classical (beta, rate) closed forms
# ---------------------------------------------------------------------------

class TestClosedForms:
    def test_cdf_value(self):
        assert classical(1.0, 1.0).cdf(1.0) == pytest.approx(
            0.43755424751176386, abs=1e-15
        )

    def test_cdf_lower_limit(self):
        assert classical(2.0, 1.5).cdf(1e-12) == pytest.approx(0.0, abs=1e-11)

    def test_pdf_matches_cdf_derivative(self):
        d = classical(2.0, 1.0)
        for x in (0.2, 1.0, 3.5):
            h = 1e-6 * max(1.0, x)
            fd = (d.cdf(x + h) - d.cdf(x - h)) / (2 * h)
            assert d.pdf(x) == pytest.approx(fd, abs=1e-6)

    def test_complement_identity(self):
        d = classical(1.3, 0.8)
        for t in (0.1, 1.0, 4.0):
            assert d.sf(t) + d.cdf(t) == 1.0

    def test_hazard_identity(self):
        d = classical(1.3, 0.8)
        for t in (0.1, 1.0, 4.0):
            assert d.hazard(t) * d.sf(t) == pytest.approx(d.pdf(t), rel=1e-12)

    def test_hazard_overflow(self):
        # log S stays finite where S underflows; only t = inf raises
        assert classical(1.0, 1.0).hazard(2000.0) == pytest.approx(1.0, rel=1e-13)
        with pytest.raises(NumericalError):
            classical(1.0, 1.0).hazard(np.inf)

    def test_parameter_validation(self):
        for bad in ((0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (1.0, -2.0)):
            with pytest.raises(ValueError):
                classical(*bad)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            classical(1.0, 1.0).cdf(-1.0)


# ---------------------------------------------------------------------------
# median parameterization
# ---------------------------------------------------------------------------

class TestMedianParameterization:
    def test_rate_identity(self):
        sigma = 0.9
        m = MedianTiltedExponential(sigma + LOG2, sigma)
        assert m.baseline.rate == pytest.approx(1.0, rel=1e-15)

    def test_conversion_values(self):
        m = MedianTiltedExponential(2.0, 1.0)
        assert isinstance(m, TiltedDistribution)
        assert m.baseline.rate == pytest.approx(0.8465735902799727, rel=1e-14)
        assert m.beta == pytest.approx(0.4214604421527134, rel=1e-12)

    def test_median_pinned_via_classical(self):
        for mu, sigma in [(0.5, 0.1), (2.0, 1.0), (40.0, 5.0)]:
            m = MedianTiltedExponential(mu, sigma)
            assert classical(m.beta, m.baseline.rate).cdf(mu) == pytest.approx(
                0.5, abs=1e-14
            )

    def test_median_pinning_log_grid(self):
        mu_grid = np.exp(np.linspace(np.log(0.1), np.log(100.0), 20))
        sigma_grid = np.exp(np.linspace(np.log(0.01), np.log(10.0), 20))
        worst = 0.0
        for mu in mu_grid:
            for sigma in sigma_grid:
                m = MedianTiltedExponential(float(mu), float(sigma))
                worst = max(worst, abs(m.cdf(float(mu)) - 0.5))
        assert worst < 1e-12

    def test_cdf_agrees_with_classical_route(self):
        # the regression kernel against the generic family in (beta, rate)
        x = np.linspace(0.01, 12.0, 200)
        m = MedianTiltedExponential(2.0, 1.0)
        assert np.max(np.abs(median_tilted_cdf(x, 2.0, 1.0) - m.cdf(x))) < 1e-13

    def test_cdf_two_route_value(self):
        # cross-checked through the (beta, rate) route
        assert MedianTiltedExponential(2.0, 1.0).cdf(1.0) == pytest.approx(
            0.2836331204951583, abs=1e-14
        )

    def test_pdf_agrees_with_classical_route(self):
        x = np.linspace(0.01, 12.0, 200)
        m = MedianTiltedExponential(2.0, 1.0)
        kernel = np.exp(median_tilted_logpdf(x, 2.0, 1.0))
        assert np.allclose(kernel, m.pdf(x), rtol=1e-12)

    def test_pdf_integrates_to_one(self):
        m = MedianTiltedExponential(1.5, 0.4)
        total, _ = quad(lambda x: float(m.pdf(x)), 0.0, np.inf, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_pdf_matches_cdf_derivative(self):
        m = MedianTiltedExponential(2.0, 1.0)
        for x in (0.3, 1.0, 2.0, 6.0):
            h = 1e-6 * max(1.0, x)
            fd = (m.cdf(x + h) - m.cdf(x - h)) / (2 * h)
            assert m.pdf(x) == pytest.approx(fd, abs=1e-6)

    def test_reparameterization_inverts(self):
        for mu, sigma in [(0.3, 0.05), (2.0, 1.0), (25.0, 4.0)]:
            m = MedianTiltedExponential(mu, sigma)
            mu_back = m.quantile(0.5)
            sigma_back = m.baseline.rate * mu_back - LOG2
            assert mu_back == pytest.approx(mu, abs=1e-8)
            assert sigma_back == pytest.approx(sigma, abs=1e-8)

    def test_implied_beta_positive_across_sigma(self):
        for sigma in np.exp(np.linspace(np.log(1e-6), np.log(1e3), 40)):
            beta = MedianTiltedExponential(1.0, float(sigma)).beta
            assert beta > 0

    @pytest.mark.parametrize("sigma", [1e-9, 1e-12, 1e-300])
    def test_tiny_sigma_keeps_median(self, sigma, capsys):
        # L = log1p(1 - e^-sigma) stays positive, so beta stays finite
        m = MedianTiltedExponential(2.0, sigma)
        assert abs(m.cdf(2.0) - 0.5) <= 1e-15
        assert m.quantile(0.5) == pytest.approx(2.0, rel=1e-14)
        assert main(["dist", "cdf", "--mu", "2", "--sigma", repr(sigma), "--x", "2"]) == 0
        assert capsys.readouterr().out.strip() == "0.5"

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            MedianTiltedExponential(0.0, 1.0)
        with pytest.raises(ValueError):
            MedianTiltedExponential(1.0, -0.5)

    def test_large_x_over_mu_stays_finite(self):
        # one-shot exp((x/mu) log L) must not underflow through intermediates
        assert np.isfinite(median_tilted_logpdf(5.0, 0.05, 3.0))  # x/mu = 100
        assert np.isfinite(MedianTiltedExponential(0.05, 3.0).log_pdf(5.0))

    def test_sampling_matches_distribution(self):
        m = MedianTiltedExponential(3.0, 0.5)
        s = m.sample(10**4, seed=4242)
        assert np.all(s > 0)
        # empirical median close to mu
        assert np.median(s) == pytest.approx(3.0, rel=0.05)

    @pytest.mark.parametrize("sigma", [1e-8, 1e-6, 1e-4, 0.15, 1.0, 20.0])
    def test_matches_40_digit_formulas(self, sigma):
        # log f, F, beta and the rate against the printed formulas, with
        # L = log(2(1 - e^-c)) evaluated at 40 digits
        mpmath = pytest.importorskip("mpmath")
        mu = 2.0
        x = np.array([1e-6, 0.01, 0.5, 1.0, 3.0, 30.0]) * mu
        m = MedianTiltedExponential(mu, sigma)
        got = [*median_tilted_logpdf(x, mu, sigma), *median_tilted_cdf(x, mu, sigma),
               m.beta, m.baseline.rate]
        with mpmath.workdps(40):
            c = mpmath.mpf(sigma) + mpmath.log(2)
            L = mpmath.log(2 * (1 - mpmath.exp(-c)))
            logpdf, cdf = [], []
            for xi in x:
                r = mpmath.mpf(float(xi)) / mu
                b = L ** r
                logpdf.append(mpmath.log(c / mu) - c * r - b
                              + mpmath.log(1 - mpmath.log(L) / c * mpmath.expm1(c * r) * b))
                cdf.append(-mpmath.expm1(-c * r) * mpmath.exp(-b))
            want = [*logpdf, *cdf, -mpmath.log(L) / c, c / mu]
            worst = max(abs((mpmath.mpf(float(g)) - w) / w) for g, w in zip(got, want))
        assert worst < 1e-14

    def test_logpdf_matches_40_digits_on_a_log_grid(self):
        # 1000 seeded points with mu in e^[-3, 3], sigma in e^[-8, 3] and
        # x/mu in e^[-20, 5]: within 2e-15 absolute, or relative beyond 1
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(20081)
        mu, sigma, ratio = np.exp(rng.uniform([-3, -8, -20], [3, 3, 5], (1000, 3))).T
        x = ratio * mu
        got = median_tilted_logpdf(x, mu, sigma)
        worst = 0.0
        with mpmath.workdps(40):
            for args, g in zip(zip(x, mu, sigma), got):
                want = mp_logpdf(mpmath, *args)
                worst = max(worst, abs(g - want) / max(1, abs(want)))
        assert worst <= 2e-15

    @settings(max_examples=60)
    @given(mus, sigmas)
    def test_median_pin_property(self, mu, sigma):
        assert MedianTiltedExponential(mu, sigma).cdf(mu) == pytest.approx(
            0.5, abs=1e-12
        )

    @settings(max_examples=40)
    @given(mus, sigmas, st.floats(min_value=0.05, max_value=20.0))
    def test_two_route_property(self, mu, sigma, x):
        m = MedianTiltedExponential(mu, sigma)
        assert median_tilted_cdf(x, mu, sigma) == pytest.approx(m.cdf(x), abs=1e-13)


# ---------------------------------------------------------------------------
# fused derivative kernel
# ---------------------------------------------------------------------------

class TestDerivativeKernel:
    # (log mu, log sigma, x/mu): the small c x/mu side (below 1e-8), x/mu =
    # 100, sigma in {1e-6, 20} and interior points
    POINTS = [
        pytest.param(math.log(3.0), math.log(0.5), 1e-9, id="small-q"),
        pytest.param(2.0, -1.9, 1e-10, id="small-q-lime-sigma"),
        pytest.param(1.0, math.log(1e-6), 1e-9, id="small-q-sigma-1e-6"),
        pytest.param(0.0, math.log(20.0), 1e-10, id="small-q-sigma-20"),
        pytest.param(0.0, 0.0, 100.0, id="ratio-100"),
        pytest.param(0.0, math.log(1e-6), 100.0, id="ratio-100-sigma-1e-6"),
        pytest.param(0.0, math.log(20.0), 100.0, id="ratio-100-sigma-20"),
        pytest.param(0.0, math.log(1e-6), 1.0, id="median-sigma-1e-6"),
        pytest.param(0.0, math.log(20.0), 1.0, id="median-sigma-20"),
        pytest.param(-1.5, -1.9, 0.3, id="interior-a"),
        pytest.param(0.5, 0.2, 3.0, id="interior-b"),
    ]

    @pytest.mark.parametrize("u, v, ratio", POINTS)
    def test_matches_50_digit_differentiation(self, u, v, ratio):
        mpmath = pytest.importorskip("mpmath")
        x = ratio * math.exp(u)
        got = median_tilted_derivatives(x, math.exp(u), math.exp(v))
        with mpmath.workdps(50):
            xm = mpmath.mpf(x)

            def log_f(uu, vv):
                mu, sigma = mpmath.exp(uu), mpmath.exp(vv)
                c = sigma + mpmath.log(2)
                L = mpmath.log(2 * (1 - mpmath.exp(-c)))
                r = xm / mu
                b = L ** r
                return (mpmath.log(c / mu) - c * r
                        + mpmath.log(1 - mpmath.log(L) / c * mpmath.expm1(c * r) * b)
                        - b)

            at = (mpmath.mpf(u), mpmath.mpf(v))
            orders = ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
            want = [log_f(*at)] + [mpmath.diff(log_f, at, order) for order in orders]
            assert len(got) == len(want)
            for g, w in zip(got, want):
                if abs(w) > 1e-300:
                    assert abs((mpmath.mpf(float(g)) - w) / w) < 1e-10

    # (x, mu, sigma) where both density terms are -inf (x/mu overflows), or
    # one term is -inf or below the other by far more than 40: x/mu = 1e-300
    # or less, and responses of 1e308
    SPECIAL = [
        (1e308, 1e-10, 1.0), (1e300, 1e-300, 0.5),
        (1e308, 1.0, 1.0), (1e308, 1.0, 20.0), (1e308, 3.0, 1e-6),
        (1e308, 1e300, 1.0), (1e-300, 1.0, 1.0), (1e-300, 1.0, 20.0),
        (3e-300, 3.0, 1e-6), (5e-324, 10.0, 1.0), (1e-300, 1e300, 1.0),
    ]

    def test_log_density_is_logpdf_bitwise(self):
        u, v, ratio = (np.array(col) for col in zip(*(p.values for p in self.POINTS)))
        mu, sigma = np.exp(u), np.exp(v)
        x = ratio * mu
        sx, smu, ssigma = (np.array(col) for col in zip(*self.SPECIAL))
        for x, mu, sigma in ((x, mu, sigma), (sx, smu, ssigma)):
            with np.errstate(all="ignore"):
                assert np.array_equal(median_tilted_derivatives(x, mu, sigma)[0],
                                      median_tilted_logpdf(x, mu, sigma), equal_nan=True)
                for args in zip(x, mu, sigma):
                    assert np.array_equal(median_tilted_derivatives(*args)[0],
                                          median_tilted_logpdf(*args), equal_nan=True)

    def test_special_values_match_logaddexp(self):
        # log f is -inf or finite exactly where np.logaddexp of the same
        # terms gives it, and never nan
        x, mu, sigma = (np.array(col) for col in zip(*self.SPECIAL))
        with np.errstate(all="ignore"):
            *_, b, t1, t2, _ = _log_density_terms(x, mu, sigma)
            want = np.logaddexp(t1, t2) - b
            got = median_tilted_logpdf(x, mu, sigma)
        assert np.isneginf(want[:2]).all() and np.isfinite(want[2:]).all()
        assert np.array_equal(np.isneginf(got), np.isneginf(want))
        assert np.array_equal(np.isfinite(got), np.isfinite(want))
        assert not np.isnan(got).any()
