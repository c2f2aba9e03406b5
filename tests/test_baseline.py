import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tiltreg import BaselineDistribution, ExponentialBaseline, TiltedDistribution

rates = st.floats(min_value=1e-3, max_value=1e3)
probs = st.floats(min_value=1e-6, max_value=1.0 - 1e-6)


class TestExponentialCdf:
    def test_lower_limit(self):
        assert ExponentialBaseline(1.0).cdf(1e-300) == pytest.approx(0.0, abs=1e-12)

    def test_median_of_unit_rate(self):
        assert ExponentialBaseline(1.0).cdf(math.log(2)) == pytest.approx(0.5, abs=1e-15)

    def test_direct_value(self):
        # 1 - exp(-2), evaluated directly
        assert ExponentialBaseline(2.0).cdf(1.0) == pytest.approx(
            0.8646647167633873, abs=1e-12
        )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            ExponentialBaseline(0.0)
        with pytest.raises(ValueError):
            ExponentialBaseline(-1.5)
        with pytest.raises(ValueError):
            ExponentialBaseline(1.0).cdf(0.0)
        with pytest.raises(ValueError):
            ExponentialBaseline(1.0).cdf(-2.0)


class TestExponentialQuantile:
    def test_median(self):
        assert ExponentialBaseline(1.0).quantile(0.5) == pytest.approx(
            math.log(2), abs=1e-15
        )

    def test_inverse_identity(self):
        assert ExponentialBaseline(1.0).quantile(-math.expm1(-1.0)) == pytest.approx(
            1.0, rel=1e-14
        )

    def test_direct_value(self):
        # -log(0.1)/0.5
        assert ExponentialBaseline(0.5).quantile(0.9) == pytest.approx(
            4.605170185988091, rel=1e-13
        )

    def test_domain_errors(self):
        b = ExponentialBaseline(1.0)
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                b.quantile(p)


def test_roundtrip_grid():
    b = ExponentialBaseline(0.7)
    p = np.linspace(0.01, 0.99, 99)
    assert np.max(np.abs(b.cdf(b.quantile(p)) - p)) < 1e-12


@given(rates, probs)
def test_roundtrip_property(rate, p):
    b = ExponentialBaseline(rate)
    assert b.cdf(b.quantile(p)) == pytest.approx(p, abs=1e-10)


def test_pdf_matches_cdf_derivative():
    b = ExponentialBaseline(1.3)
    for x in (0.1, 0.5, 1.0, 2.7, 5.0):
        h = 1e-5 * max(1.0, x)
        fd = (b.cdf(x + h) - b.cdf(x - h)) / (2 * h)
        assert b.pdf(x) == pytest.approx(fd, abs=1e-6)


class _Weibull(BaselineDistribution):
    """Weibull baseline with exact log-survival forms."""

    def __init__(self, shape: float, scale: float):
        self.shape = shape
        self.scale = scale

    def cdf(self, x):
        return -np.expm1(-((np.asarray(x) / self.scale) ** self.shape))

    def log_pdf(self, x):
        z = np.asarray(x, dtype=float) / self.scale
        return np.log(self.shape / self.scale) + (self.shape - 1) * np.log(z) - z**self.shape

    def quantile(self, p):
        return self.scale * (-np.log1p(-np.asarray(p))) ** (1.0 / self.shape)

    def log_sf(self, x):
        return -((np.asarray(x, dtype=float) / self.scale) ** self.shape)

    def quantile_from_log_sf(self, log_s):
        return self.scale * (-np.asarray(log_s, dtype=float)) ** (1.0 / self.shape)


class TestWeibullTilt:
    """beta < 1 over a non-exponential baseline, where G rounds to 1."""

    d = TiltedDistribution(_Weibull(1.5, 1.0), 0.5)

    def test_pdf_is_finite_where_cdf_rounds_to_one(self):
        assert np.isfinite(self.d.pdf(12.0))
        assert self.d.pdf(12.0) > 0.0

    def test_sf_matches_closed_form(self):
        a = math.exp(-(12.0**1.5))  # baseline survival at 12
        expected = -math.expm1(-math.sqrt(a)) + a * math.exp(-math.sqrt(a))
        assert expected == pytest.approx(9.4e-10, rel=1e-2)
        assert self.d.sf(12.0) == pytest.approx(expected, rel=1e-12)

    def test_upper_quantile_roundtrips(self):
        p = 1.0 - 1e-12
        assert self.d.cdf(self.d.quantile(p)) == pytest.approx(p, abs=1e-12)

    @pytest.mark.parametrize("missing", ["log_pdf", "log_sf", "quantile_from_log_sf"])
    def test_log_survival_pair_is_required(self, missing):
        # the Weibull without one method: its abstract declaration shows through
        incomplete = type("_Incomplete", (_Weibull,),
                          {missing: getattr(BaselineDistribution, missing)})
        with pytest.raises(TypeError, match=missing):
            incomplete(1.5, 1.0)

    def test_abstract_methods_are_the_log_forms(self):
        assert BaselineDistribution.__abstractmethods__ == {
            "log_pdf", "log_sf", "quantile_from_log_sf"}
        assert "pdf" not in vars(ExponentialBaseline)

    def test_far_tail_oracle(self):
        # 50-digit log f and f/S with a = Gbar(x) = e^(-x^1.5):
        # f = g (1 + beta (1-a) a^(beta-1)) e^(-a^beta), g = 1.5 sqrt(x) a, and
        # S = -expm1(-a^beta) + a e^(-a^beta).  g is subnormal at x = 82, 0 beyond.
        mpmath = pytest.importorskip("mpmath")
        beta = 0.5
        x = np.array([12.0, 60.0, 82.0, 90.0, 200.0, 1000.0])
        log_f, hazard = self.d.log_pdf(x), self.d.hazard(x)
        with mpmath.workdps(50):
            for xi, lf, h in zip(x.tolist(), log_f, hazard):
                xm = mpmath.mpf(xi)
                a = mpmath.exp(-(xm**1.5))
                b = a**beta
                f = 1.5 * mpmath.sqrt(xm) * a * (1 + beta * (1 - a) * b / a) * mpmath.exp(-b)
                S = -mpmath.expm1(-b) + a * mpmath.exp(-b)
                assert lf == pytest.approx(float(mpmath.log(f)), rel=1e-14), xi
                # exp(log f - log S): each log carries ~|log S| eps
                assert h == pytest.approx(float(f / S), rel=1e-11), xi


def test_exponential_quantile_from_log_sf_is_exact_in_the_tail():
    b = ExponentialBaseline(0.5)
    assert b.quantile_from_log_sf(-100.0) == 200.0
    assert b.quantile_from_log_sf(-0.3) == pytest.approx(b.quantile(-math.expm1(-0.3)), rel=1e-15)


def test_log_forms_agree_with_plain_forms():
    b = ExponentialBaseline(2.5)
    x = np.array([0.1, 1.0, 4.0])
    assert np.allclose(np.exp(b.log_pdf(x)), b.pdf(x), rtol=1e-13)
    assert np.allclose(np.exp(b.log_sf(x)), 1.0 - b.cdf(x), rtol=1e-12)


class _PairOnlyExponential(BaselineDistribution):
    """Exponential baseline defining only the three required methods."""

    def __init__(self, rate: float):
        self.rate = rate

    def log_pdf(self, x):
        return ExponentialBaseline(self.rate).log_pdf(x)

    def log_sf(self, x):
        return ExponentialBaseline(self.rate).log_sf(x)

    def quantile_from_log_sf(self, log_s):
        return ExponentialBaseline(self.rate).quantile_from_log_sf(log_s)


@pytest.mark.parametrize("beta", [0.3, 1.0, 2.0, 8.0])
@pytest.mark.parametrize("rate", [0.37, 1.0, 5.0])
def test_three_methods_reproduce_the_exponential_bitwise(rate, beta):
    # the derived pdf/cdf/quantile give the exponential's bits, and so does
    # every tilted quantity
    mine, ref = _PairOnlyExponential(rate), ExponentialBaseline(rate)
    x = np.geomspace(1e-6, 60.0, 200)
    p = np.linspace(0.01, 0.99, 50)
    for f, arg in (("pdf", x), ("cdf", x), ("cdf", 0.7), ("quantile", p),
                   ("quantile", 0.3)):
        assert np.array_equal(getattr(mine, f)(arg), getattr(ref, f)(arg)), f
    a, b = TiltedDistribution(mine, beta), TiltedDistribution(ref, beta)
    for f, arg in (("cdf", x), ("sf", x), ("pdf", x), ("hazard", x),
                   ("quantile", p), ("cdf", 0.7)):
        assert np.array_equal(getattr(a, f)(arg), getattr(b, f)(arg)), f
    assert a.moment(2.0) == b.moment(2.0)
    assert a.mode() == b.mode()
