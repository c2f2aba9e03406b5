"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line with the
measured quantities before asserting, so a full run documents every gate.
Criteria 1-2 need the lime-tree fixture at data/lime.csv (385 rows).
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from tiltreg import (
    ExponentialBaseline,
    MedianTiltedExponential,
    TiltedDistribution,
    build_report,
    fit,
    quantile_residuals,
)
from tiltreg.cli import main
from tests.conftest import simulate_intercept_only

PAPER_ESTIMATES = np.array([-1.578, 0.035, -0.402, 0.492, -1.909])
PAPER_STD_ERRORS = np.array([0.131, 0.002, 0.097, 0.132, 0.328])
PAPER_Z_STATS = np.array([-12.039, 16.605, -4.151, 3.733, -5.817])


def report(criterion: str, passed: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    return passed


# --------------------------------------------------------------------------
# 1. published-table reproduction
# --------------------------------------------------------------------------

def test_criterion_1_table_reproduction(lime_spec):
    t0 = time.perf_counter()
    model = fit(lime_spec)
    elapsed = time.perf_counter() - t0

    est_err = np.max(np.abs(model.theta_hat - PAPER_ESTIMATES))
    se_err = np.max(np.abs(model.std_errors - PAPER_STD_ERRORS))
    z_err = np.max(np.abs(model.z_stats - PAPER_Z_STATS))
    pmax = float(np.max(model.p_values))
    ok = (
        model.converged
        and est_err < 0.01
        and se_err < 0.02
        and z_err < 0.3
        and pmax < 0.001
        and elapsed < 10.0
    )
    assert report(
        "1",
        ok,
        f"max dev: estimates {est_err:.4f} (<0.01), std errors {se_err:.4f} "
        f"(<0.02), z {z_err:.3f} (<0.3), max p {pmax:.2e} (<0.001), "
        f"{elapsed:.2f}s (<10s)",
    )


def test_criterion_2_interpretation_constants(lime_fit):
    age10 = math.exp(10.0 * lime_fit.theta_hat[1])
    natural = math.exp(lime_fit.theta_hat[2])
    planted = math.exp(lime_fit.theta_hat[3])
    sigma = math.exp(lime_fit.theta_hat[4])
    ok = (
        1.40 <= age10 <= 1.44
        and 0.66 <= natural <= 0.68
        and 1.62 <= planted <= 1.65
        and 0.14 <= sigma <= 0.16
    )
    assert report(
        "2",
        ok,
        f"exp(10*age)={age10:.4f} in [1.40,1.44], exp(natural)={natural:.4f} "
        f"in [0.66,0.68], exp(planted)={planted:.4f} in [1.62,1.65], "
        f"sigma={sigma:.4f} in [0.14,0.16]",
    )


# --------------------------------------------------------------------------
# 3. median pinning
# --------------------------------------------------------------------------

def test_criterion_3_median_pinning():
    mus = np.exp(np.linspace(math.log(0.1), math.log(100.0), 20))
    sigmas = np.exp(np.linspace(math.log(0.01), math.log(10.0), 20))
    worst = max(
        abs(MedianTiltedExponential(float(m), float(s)).cdf(float(m)) - 0.5)
        for m in mus
        for s in sigmas
    )
    assert report("3", worst < 1e-12, f"max |cdf(mu) - 0.5| = {worst:.2e} (<1e-12)")


# --------------------------------------------------------------------------
# 4. quantile roundtrip
# --------------------------------------------------------------------------

def test_criterion_4_quantile_roundtrip():
    p = np.linspace(0.01, 0.99, 99)
    settings = [(lam, beta) for lam in (0.5, 2.0)
                for beta in (0.5, 1.0, 2.0, 3.0, 5.0)]
    t0 = time.perf_counter()
    worst = 0.0
    for lam, beta in settings:
        d = TiltedDistribution(ExponentialBaseline(lam), beta)
        worst = max(worst, float(np.max(np.abs(d.cdf(d.quantile(p)) - p))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 1.0
    assert report(
        "4", ok,
        f"max |cdf(quantile(p)) - p| = {worst:.2e} (<1e-10) over "
        f"{len(settings)} settings x 99 probs in {elapsed:.3f}s (<1s)",
    )


# --------------------------------------------------------------------------
# 5. sampler law (KS at the 1% level)
# --------------------------------------------------------------------------

def test_criterion_5_sampler_ks():
    n = 10**4
    crit = 1.627 / math.sqrt(n)
    worst = 0.0
    for lam in (1.0, 2.0):
        for beta in (0.5, 1.0, 3.0):
            d = TiltedDistribution(ExponentialBaseline(lam), beta)
            x = np.sort(d.sample(n, seed=20240801))
            u = d.cdf(x)
            i = np.arange(1, n + 1)
            ks = max(float(np.max(i / n - u)), float(np.max(u - (i - 1) / n)))
            worst = max(worst, ks)
    assert report(
        "5", worst < crit,
        f"max KS over 6 cells = {worst:.5f} (< {crit:.5f})",
    )


# --------------------------------------------------------------------------
# 6. truncated-moment identity
# --------------------------------------------------------------------------

def test_criterion_6_truncated_moment_identity():
    d = TiltedDistribution(ExponentialBaseline(1.0), 1.5)
    worst_abs, worst_rel = 0.0, 0.0
    for p in (1.0, 2.0):
        for lo, hi in ((0.0, 1.0), (0.5, 3.0), (1.0, math.inf)):
            direct, _ = quad(lambda x: x**p * d.pdf(x), lo, hi, limit=300)
            identity = d.truncated_moment(p, lo, hi)
            err = abs(identity - direct)
            worst_abs = max(worst_abs, err)
            worst_rel = max(worst_rel, err / abs(direct))
    ok = worst_abs < 1e-8 or worst_rel < 1e-6
    assert report(
        "6", ok,
        f"max abs dev {worst_abs:.2e} (<1e-8) / max rel dev {worst_rel:.2e} "
        f"(<1e-6) over p in {{1,2}} x 3 windows",
    )


# --------------------------------------------------------------------------
# 7. moments vs Monte Carlo
# --------------------------------------------------------------------------

def test_criterion_7_moment_monte_carlo():
    n = 10**6
    worst = 0.0
    details = []
    for beta, seed in ((1.0, 515), (2.0, 516)):
        d = TiltedDistribution(ExponentialBaseline(1.0), beta)
        x = d.sample(n, seed=seed)
        for p in (1.0, 2.0):
            mc = float(np.mean(x**p))
            exact = d.moment(p)
            rel = abs(mc - exact) / exact
            worst = max(worst, rel)
            details.append(f"beta={beta} p={p}: {rel:.4f}")
    assert report(
        "7", worst < 0.02,
        f"max relative MC deviation {worst:.4f} (<0.02) [{'; '.join(details)}]",
    )


# --------------------------------------------------------------------------
# 8. unimodality and mode location
# --------------------------------------------------------------------------

def test_criterion_8_mode_matches_grid_argmax():
    d = TiltedDistribution(ExponentialBaseline(1.0), 3.0)
    n = 10**6
    xs = np.linspace(20.0 / n, 20.0, n)
    f = d.pdf(xs)
    argmax = float(xs[np.argmax(f)])
    resolution = 20.0 / n
    mode = d.mode()
    interior = (f[1:-1] > f[:-2]) & (f[1:-1] > f[2:])
    n_max = int(np.sum(interior))
    ok = mode is not None and abs(mode - argmax) <= resolution and n_max == 1
    assert report(
        "8", ok,
        f"mode {mode:.8f} vs grid argmax {argmax:.8f} "
        f"(|diff| {abs(mode - argmax):.2e} <= {resolution:.0e}), "
        f"{n_max} interior maximum(s)",
    )


# --------------------------------------------------------------------------
# 9. parameter recovery across 100 refits
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def recovery_runs():
    truth = np.array([math.log(3.0), math.log(0.5)])
    z = []
    for k in range(100):
        spec = simulate_intercept_only(2000, 3.0, 0.5, seed=777_000 + k)
        model = fit(spec)
        z.append((model.theta_hat - truth) / model.std_errors)
    return np.array(z)


def test_criterion_9_estimates_within_three_se(recovery_runs):
    counts = (np.abs(recovery_runs) < 3.0).sum(axis=0)
    ok = bool(np.all(counts >= 95))
    assert report(
        "9a", ok,
        f"runs with |estimate - truth| < 3 se: mu {counts[0]}/100, "
        f"sigma {counts[1]}/100 (each >= 95)",
    )


def test_criterion_9_wald_coverage(recovery_runs):
    # The Wald normal approximation for the shape coefficient is known to be
    # poor at n = 2000 (its likelihood is skewed; the 95% likelihood-ratio
    # region covers nominally while Wald covers ~88%).  The criterion is
    # asserted exactly as stated; see the regression-module calibration test
    # for the likelihood-ratio counterpart.
    counts = (np.abs(recovery_runs) < 1.96).sum(axis=0)
    ok = bool(np.all((counts >= 92) & (counts <= 98)))
    assert report(
        "9b", ok,
        f"runs whose 95% Wald interval covers the truth: mu {counts[0]}/100, "
        f"sigma {counts[1]}/100 (each required in [92, 98])",
    )


# --------------------------------------------------------------------------
# 10. residual calibration
# --------------------------------------------------------------------------

def test_criterion_10_residual_calibration():
    from scipy.stats import kurtosis, skew

    spec = simulate_intercept_only(10**4, 3.0, 0.5, seed=880001)
    model = fit(spec)
    r = quantile_residuals(model, spec)
    diag = build_report(r)
    pts, bands = diag.worm_points, diag.bands
    inside = float(np.mean((pts[:, 1] >= bands[:, 0]) & (pts[:, 1] <= bands[:, 1])))
    mean = float(np.mean(r))
    var = float(np.var(r, ddof=1))
    sk = float(skew(r))
    ku = float(kurtosis(r))
    ok = (
        -0.05 < mean < 0.05
        and 0.9 < var < 1.1
        and abs(sk) < 0.1
        and abs(ku) < 0.2
        and inside >= 0.95
    )
    assert report(
        "10", ok,
        f"mean {mean:+.4f} in (-0.05,0.05), variance {var:.4f} in (0.9,1.1), "
        f"skew {sk:+.4f} (<0.1), excess kurtosis {ku:+.4f} (<0.2), "
        f"worm inside bands {inside:.4f} (>=0.95)",
    )


# --------------------------------------------------------------------------
# 11. end-to-end determinism
# --------------------------------------------------------------------------

def test_criterion_11_cli_determinism(tmp_path, lime_path, capsys):
    artifacts = []
    for name in ("run1", "run2"):
        d = tmp_path / name
        d.mkdir()
        code = main([
            "fit", "--data", str(lime_path), "--response", "Foliage",
            "--mu", "Age", "Origin",
            "--out", str(d / "model.json"), "--plots", str(d / "plots"),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        artifacts.append((
            stdout,
            (d / "model.json").read_bytes(),
            (d / "plots_qq.svg").read_bytes(),
            (d / "plots_worm.svg").read_bytes(),
        ))
    ok = artifacts[0] == artifacts[1]
    assert report(
        "11", ok,
        "two identical fit+plots runs produced byte-identical stdout, model "
        "JSON and both SVG files" if ok else "outputs differ between runs",
    )
