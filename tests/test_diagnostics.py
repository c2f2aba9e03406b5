import hashlib
import os
import subprocess
import sys
import tracemalloc
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kurtosis, norm, skew

from tiltreg import (
    MedianTiltedExponential,
    ModelSpec,
    build_report,
    fit,
    quantile_residuals,
    render_svg,
)
from tiltreg import regression
from tiltreg.diagnostics import _CHUNK, _Canvas, _centi_text, _join, _pad_limits
from tests.conftest import simulate_intercept_only


def blom_positions(n):
    i = np.arange(1, n + 1)
    return (i - 0.375) / (n + 0.25)


def assert_coordinates_match_per_point_map(report, tmp_path):
    """Every circle and band vertex prints the ``.2f`` of its own pixel."""
    qq, worm, bands = report.qq_points, report.worm_points, report.bands
    n = qq.shape[0]
    limits = {
        "qq": (_pad_limits(qq[:, 0]),
               _pad_limits(np.concatenate([qq[:, 1], qq[:, 0]]))),
        "worm": (_pad_limits(worm[:, 0]),
                 _pad_limits(np.concatenate([worm[:, 1], bands[:, 0],
                                             bands[:, 1]]))),
    }
    for kind, pts in (("qq", qq), ("worm", worm)):
        canvas = _Canvas(*limits[kind])
        path = tmp_path / f"{kind}.svg"
        render_svg(report, kind, path)
        text = path.read_text(encoding="utf-8")
        assert text.endswith("</svg>\n")
        root = ET.fromstring(text)
        circles = [e for e in root.iter() if e.tag.endswith("circle")]
        assert len(circles) == n
        for e, (tx, ty) in zip(circles, pts.tolist()):
            assert e.get("cx") == f"{canvas.x(tx):.2f}"
            assert e.get("cy") == f"{canvas.y(ty):.2f}"
        polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
        for e, col in zip(polylines, (0, 1)):
            assert e.get("points") == " ".join(
                f"{canvas.x(tx):.2f},{canvas.y(b):.2f}"
                for tx, b in zip(pts[:, 0].tolist(), bands[:, col].tolist())
            )
        assert len(polylines) == (2 if kind == "worm" else 0)


# ---------------------------------------------------------------------------
# quantile residuals
# ---------------------------------------------------------------------------

class TestQuantileResiduals:
    def test_zero_at_fitted_median(self):
        spec = simulate_intercept_only(200, 3.0, 0.5, seed=1)
        model = fit(spec)
        mu_hat = float(np.exp(model.theta_hat[0]))
        probe = ModelSpec(
            response=np.array([mu_hat] * 4),
            mu_design=np.ones((4, 1)),
            sigma_design=np.ones((4, 1)),
        )
        r = quantile_residuals(model, probe)
        assert np.max(np.abs(r)) < 1e-9

    def test_increasing_in_response(self):
        spec = simulate_intercept_only(200, 3.0, 0.5, seed=2)
        model = fit(spec)
        y = np.linspace(0.2, 12.0, 50)
        probe = ModelSpec(
            response=y,
            mu_design=np.ones((50, 1)),
            sigma_design=np.ones((50, 1)),
        )
        r = quantile_residuals(model, probe)
        assert np.all(np.diff(r) > 0)

    def test_wellspecified_simulation_calibration(self):
        spec = simulate_intercept_only(5000, 3.0, 0.5, seed=3)
        model = fit(spec)
        r = quantile_residuals(model, spec)
        assert -0.05 < float(np.mean(r)) < 0.05
        assert 0.9 < float(np.var(r, ddof=1)) < 1.1

    def test_residuals_finite_under_clamping(self):
        spec = simulate_intercept_only(100, 3.0, 0.5, seed=4)
        model = fit(spec)
        extreme = ModelSpec(
            response=np.array([1e-12, 1e6, 3.0, 2.0]),
            mu_design=np.ones((4, 1)),
            sigma_design=np.ones((4, 1)),
        )
        r = quantile_residuals(model, extreme)
        assert np.all(np.isfinite(r))
        assert np.max(np.abs(r)) < 8.5

    def test_warns_on_nonconverged_fit(self, monkeypatch):
        monkeypatch.setattr(regression, "_MAX_ITER", 1)
        spec = simulate_intercept_only(300, 3.0, 0.5, seed=6)
        with pytest.warns(RuntimeWarning):
            model = fit(spec)
        with pytest.warns(RuntimeWarning):
            quantile_residuals(model, spec)

    def test_pit_uniform_under_true_model(self):
        m0 = MedianTiltedExponential(3.0, 0.5)
        n = 10**4
        x = np.sort(m0.sample(n, seed=424242))
        u = m0.cdf(x)
        i = np.arange(1, n + 1)
        ks = max(np.max(i / n - u), np.max(u - (i - 1) / n))
        assert ks < 1.627 / np.sqrt(n)
        r = norm.ppf(np.clip(u, 1e-15, 1 - 1e-15))
        from scipy.stats import kurtosis, skew

        assert abs(skew(r)) < 0.1
        assert abs(kurtosis(r)) < 0.2

    def test_lime_residuals_are_unchanged(self, lime_spec, lime_fit):
        # the lime residuals, pinned to the last bit by a digest of their bytes
        r = quantile_residuals(lime_fit, lime_spec)
        assert hashlib.sha256(r.tobytes()).hexdigest() == (
            "8a225287ce43c168c493fbda1f3bfeb14fbd6fdfad5e1769d81b5438d19ecc9a")


# ---------------------------------------------------------------------------
# QQ plot points of the report
# ---------------------------------------------------------------------------

class TestQQPlot:
    def test_identity_for_blom_quantiles(self):
        n = 40
        r = norm.ppf(blom_positions(n))
        pts = build_report(np.random.default_rng(0).permutation(r)).qq_points
        assert np.allclose(pts[:, 0], pts[:, 1], atol=1e-12)

    def test_sorted_by_theoretical_quantile(self):
        pts = build_report(np.random.default_rng(1).normal(size=75)).qq_points
        assert np.all(np.diff(pts[:, 0]) > 0)
        assert np.all(np.diff(pts[:, 1]) >= 0)


# ---------------------------------------------------------------------------
# worm plot points and bands of the report
# ---------------------------------------------------------------------------

class TestWormPlot:
    def test_detrending_identity(self):
        report = build_report(np.random.default_rng(2).normal(size=60))
        pts, qq = report.worm_points, report.qq_points
        assert np.allclose(pts[:, 1] + pts[:, 0], qq[:, 1], atol=1e-14)

    def test_zero_deviation_for_blom_quantiles(self):
        pts = build_report(norm.ppf(blom_positions(30))).worm_points
        assert np.max(np.abs(pts[:, 1])) < 1e-12

    def test_band_formula(self):
        n = 50
        r = np.random.default_rng(3).normal(size=n)
        bands = build_report(r).bands
        p = blom_positions(n)
        z = norm.ppf(p)
        half = 1.96 * np.sqrt(p * (1 - p) / n) / norm.pdf(z)
        assert np.allclose(bands[:, 1], half, rtol=1e-12)
        assert np.allclose(bands[:, 0], -half, rtol=1e-12)

    def test_band_width_shrinks_like_root_n(self):
        # compare the middle plotting position across a 4x sample-size jump
        r1 = np.random.default_rng(4).normal(size=101)
        r2 = np.random.default_rng(5).normal(size=404)
        b1 = build_report(r1).bands
        b2 = build_report(r2).bands
        mid1 = b1[50, 1]
        mid2 = b2[201, 1]
        assert mid1 / mid2 == pytest.approx(2.0, rel=0.05)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            build_report(np.arange(9, dtype=float))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_residuals(self, bad):
        r = np.random.default_rng(6).normal(size=40)
        r[17] = bad
        with pytest.raises(ValueError, match="residuals must be finite"):
            build_report(r)


# ---------------------------------------------------------------------------
# pixel text
# ---------------------------------------------------------------------------

def assert_centi_text_matches_format(values):
    values = np.asarray(values, dtype=float)
    assert _centi_text(values).tolist() == [
        f"{v:.2f}".encode() for v in values.tolist()]


class TestCentiText:
    @settings(max_examples=200)
    @given(st.lists(st.floats(min_value=0.0, max_value=640.0), min_size=1,
                    max_size=50))
    def test_matches_format_on_the_canvas(self, values):
        assert_centi_text_matches_format(values)

    def test_every_half_cent_tie_and_its_neighbours(self):
        ties = (np.arange(64000) + 0.5) / 100
        assert_centi_text_matches_format(ties)
        assert_centi_text_matches_format(np.nextafter(ties, -np.inf))
        assert_centi_text_matches_format(np.nextafter(ties, np.inf))

    def test_values_off_the_canvas(self):
        assert_centi_text_matches_format([
            -0.0, -1e-300, -0.004, -0.005, -0.006, -3.14159, 639.994999,
            639.995, 639.996, 640.0, 640.004, 641.5, 1e6, 1e300,
            np.nan, np.inf, -np.inf, 0.0, 5e-324,
        ])


# Values whose .2f texts are off the canvas: up to 16 bytes wide, or "nan".
_OFF_CANVAS = np.array([-3.14159, 640.004, 123456.789, 1e12, -1e-300,
                        np.inf, np.nan])
# A part of a row: a constant text without NUL, or (seed, off-canvas count)
# for an array of .2f texts of canvas values with some off the canvas.
_join_parts = st.one_of(
    st.binary(min_size=1, max_size=12).map(lambda b: b.replace(b"\0", b".")),
    st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 20)),
)


class TestJoin:
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([1, _CHUNK - 1, _CHUNK + 1]),
           st.lists(_join_parts, min_size=1, max_size=6).filter(
               lambda parts: any(isinstance(p, tuple) for p in parts)))
    def test_matches_per_row_join(self, n, specs):
        parts = []
        for spec in specs:
            if isinstance(spec, bytes):
                parts.append(spec)
                continue
            seed, off = spec
            rng = np.random.default_rng(seed)
            values = rng.uniform(0.0, 640.0, n)
            values[rng.integers(0, n, off)] = rng.choice(_OFF_CANVAS, off)
            parts.append(_centi_text(values))
        columns = [p.tolist() if isinstance(p, np.ndarray) else [p] * n
                   for p in parts]
        assert _join(*parts) == b"".join(b"".join(row) for row in zip(*columns))


# ---------------------------------------------------------------------------
# report and SVG rendering
# ---------------------------------------------------------------------------

class TestReportAndRendering:
    @pytest.fixture()
    def report(self):
        rng = np.random.default_rng(11)
        return build_report(rng.normal(size=80))

    def test_report_summary_fields(self, report):
        assert set(report.summary) == {
            "mean", "variance", "skewness", "excess_kurtosis"
        }
        assert report.residuals.size == 80

    def test_summary_moments_match_scipy(self):
        rng = np.random.default_rng(12)
        for r in (rng.normal(size=80), rng.gamma(2.0, size=1000) - 2.0):
            summary = build_report(r).summary
            assert summary["skewness"] == pytest.approx(skew(r), abs=1e-12)
            assert summary["excess_kurtosis"] == pytest.approx(kurtosis(r), abs=1e-12)

    def test_summary_products_match_powers(self):
        # d2 * d and d2 * d2 against the pow route d**3 and d**4
        r = np.random.default_rng(13).standard_t(5, size=100_000)
        d = r - np.mean(r)
        m2 = np.mean(d**2)
        summary = build_report(r).summary
        assert summary["skewness"] == pytest.approx(
            np.mean(d**3) / m2**1.5, rel=1e-13, abs=1e-15)
        assert summary["excess_kurtosis"] == pytest.approx(
            np.mean(d**4) / m2**2 - 3.0, rel=1e-13)

    @pytest.mark.parametrize("value", [0.0, 0.1, -2.7])
    def test_zero_variance_rejected(self, value):
        # 0.1 and -2.7 leave a mean a rounding off the value: d is not zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="zero variance"):
                build_report(np.full(20, value))

    def test_report_points_share_one_sort(self):
        # the ordered residuals themselves, not the deviations plus quantiles
        r = np.random.default_rng(16).standard_t(5, size=500)
        report = build_report(r)
        qq, worm = report.qq_points, report.worm_points
        assert qq[:, 1].tobytes() == np.sort(r).tobytes()
        assert worm[:, 0].tobytes() == qq[:, 0].tobytes()
        assert worm[:, 1].tobytes() == (qq[:, 1] - qq[:, 0]).tobytes()
        assert report.bands[:, 0].tobytes() == (-report.bands[:, 1]).tobytes()

    def test_cli_import_leaves_scipy_stats_out(self):
        # a fresh interpreter importing the same package as this test run
        import tiltreg

        src = os.path.dirname(os.path.dirname(tiltreg.__file__))
        code = ("import sys, tiltreg.cli; print([m for m in "
                "('scipy.stats', 'scipy.integrate') if m in sys.modules])")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True,
                             env={**os.environ, "PYTHONPATH": src}).stdout
        assert out.strip() == "[]"

    def test_report_rejects_tiny_samples(self):
        with pytest.raises(ValueError):
            build_report(np.array([0.1]))

    def test_render_deterministic(self, report, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        render_svg(report, "qq", a)
        render_svg(report, "qq", b)
        assert a.read_bytes() == b.read_bytes()

    def test_render_valid_svg_with_point_elements(self, report, tmp_path):
        for kind in ("qq", "worm"):
            path = tmp_path / f"{kind}.svg"
            render_svg(report, kind, path)
            root = ET.parse(path).getroot()
            assert root.tag.endswith("svg")
            circles = [e for e in root.iter() if e.tag.endswith("circle")]
            assert len(circles) == 80

    def test_worm_render_has_bands(self, report, tmp_path):
        path = tmp_path / "worm.svg"
        render_svg(report, "worm", path)
        root = ET.parse(path).getroot()
        polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
        assert len(polylines) == 2

    def test_coordinates_match_per_point_map(self, tmp_path):
        report = build_report(np.random.default_rng(13).standard_t(5, size=3000))
        assert_coordinates_match_per_point_map(report, tmp_path)

    def test_coordinates_match_across_chunk_boundaries(self, tmp_path):
        # two full chunks and a partial one; rounded residuals give ties
        r = np.random.default_rng(14).standard_t(5, size=2 * _CHUNK + 17)
        r[::3] = np.round(r[::3], 1)
        assert_coordinates_match_per_point_map(build_report(r), tmp_path)

    def test_plot_bytes_match_pinned_digests(self, tmp_path):
        # twelve full chunks and a partial one; rounded residuals give ties
        r = np.random.default_rng(17).standard_t(5, size=12 * _CHUNK + 5)
        r[::3] = np.round(r[::3], 1)
        report = build_report(r)
        digests = {
            "qq": "3fc2f09dfe38f92681b60f0d32bd6c93dce3a922b2abacb92a43afa444d9f293",
            "worm": "38b579cf62ef4fe7f0cdc4fb8cb2133682947243f6d56b24d509c419fe60d495",
        }
        for kind, digest in digests.items():
            path = tmp_path / f"{kind}.svg"
            render_svg(report, kind, path)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_render_peak_memory_does_not_grow_with_n(self, tmp_path):
        # the worm plot streams both the band vertices and the circles
        path = tmp_path / "worm.svg"
        peaks = []
        for n in (2 * _CHUNK, 12 * _CHUNK):
            report = build_report(np.random.default_rng(15).normal(size=n))
            render_svg(report, "worm", path)
            tracemalloc.start()
            try:
                render_svg(report, "worm", path)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0]

    def test_invalid_kind(self, report, tmp_path):
        with pytest.raises(ValueError):
            render_svg(report, "histogram", tmp_path / "x.svg")

    def test_unwritable_path(self, report, tmp_path):
        with pytest.raises(OSError):
            render_svg(report, "qq", tmp_path / "missing_dir" / "x.svg")

    def test_lime_residuals_track_normal_line(self, lime_spec, lime_fit):
        r = quantile_residuals(lime_fit, lime_spec)
        pts = build_report(r).qq_points
        middle = slice(int(0.1 * len(r)), int(0.9 * len(r)))
        gap = np.abs(pts[middle, 1] - pts[middle, 0])
        assert np.percentile(gap, 90) < 0.35

    def test_lime_worm_mostly_inside_bands(self, lime_spec, lime_fit):
        r = quantile_residuals(lime_fit, lime_spec)
        report = build_report(r)
        pts, bands = report.worm_points, report.bands
        inside = np.mean((pts[:, 1] >= bands[:, 0]) & (pts[:, 1] <= bands[:, 1]))
        assert inside >= 0.95
