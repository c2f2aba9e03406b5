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

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        z = (x / self.scale) ** self.shape
        return self.shape / self.scale * (x / self.scale) ** (self.shape - 1) * np.exp(-z)

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

    @pytest.mark.parametrize("missing", ["pdf", "log_sf", "quantile_from_log_sf"])
    def test_log_survival_pair_is_required(self, missing):
        # the Weibull without one method: its abstract declaration shows through
        incomplete = type("_Incomplete", (_Weibull,),
                          {missing: getattr(BaselineDistribution, missing)})
        with pytest.raises(TypeError, match=missing):
            incomplete(1.5, 1.0)


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

    def pdf(self, x):
        return ExponentialBaseline(self.rate).pdf(x)

    def log_sf(self, x):
        return ExponentialBaseline(self.rate).log_sf(x)

    def quantile_from_log_sf(self, log_s):
        return ExponentialBaseline(self.rate).quantile_from_log_sf(log_s)


class _PairAndLogPdfExponential(_PairOnlyExponential):
    """The same, plus the exponential's closed-form log_pdf override."""

    def log_pdf(self, x):
        return ExponentialBaseline(self.rate).log_pdf(x)


@pytest.mark.parametrize("beta", [0.3, 1.0, 2.0, 8.0])
@pytest.mark.parametrize("rate", [0.37, 1.0, 5.0])
def test_three_methods_reproduce_the_exponential_bitwise(rate, beta):
    # the derived cdf/quantile give the exponential's closed-form bits, and so
    # does every tilted quantity; pdf and mode read log_pdf, whose log(pdf)
    # default differs from the closed form in the last bits
    mine, ref = _PairOnlyExponential(rate), ExponentialBaseline(rate)
    x = np.geomspace(1e-6, 60.0, 200)
    p = np.linspace(0.01, 0.99, 50)
    for f, arg in (("cdf", x), ("cdf", 0.7), ("quantile", p), ("quantile", 0.3)):
        assert np.array_equal(getattr(mine, f)(arg), getattr(ref, f)(arg)), f
    a, b = TiltedDistribution(mine, beta), TiltedDistribution(ref, beta)
    for f, arg in (("cdf", x), ("sf", x), ("quantile", p), ("cdf", 0.7)):
        assert np.array_equal(getattr(a, f)(arg), getattr(b, f)(arg)), f
    assert a.moment(2.0) == b.moment(2.0)
    assert np.allclose(a.pdf(x), b.pdf(x), rtol=1e-12, atol=0.0)
    c = TiltedDistribution(_PairAndLogPdfExponential(rate), beta)
    assert np.array_equal(c.pdf(x), b.pdf(x))
    assert c.mode() == b.mode()
