"""The benchmark's workloads: inputs made from the seed, one op, its check.

Each workload builds its inputs in ``__init__`` (set-up), runs ``warm_up``
once before timing, and then repeats ``op``.  ``check`` takes what ``op``
returned and gives ``None`` when the result is correct, else the reason it
is not.  Library calls go through module attributes at call time, so the
tracer's wrappers see them; the checks run with tracing off.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

import tiltreg.cli
from tiltreg import diagnostics, exponential, regression
from tiltreg.baseline import ExponentialBaseline
from tiltreg.family import TiltedDistribution

BETAS = (0.3, 1.0, 2.0, 8.0)

# Published lime-tree table and the tolerances of acceptance criterion 1.
LIME_ESTIMATES = np.array([-1.578, 0.035, -0.402, 0.492, -1.909])
LIME_STD_ERRORS = np.array([0.131, 0.002, 0.097, 0.132, 0.328])
LIME_EST_TOL = 0.01
LIME_SE_TOL = 0.02


class LimeCli:
    """``tiltreg fit --plots``, ``residuals`` and ``predict`` on the lime data.

    The paper's case study: n = 385, where argparse, CSV ingest, JSON output
    and small SVGs weigh as much as the likelihood kernels.  The inputs are
    the checked-in CSV, so the seed does not change them.
    """

    size = "n=385 rows, 3 CLI commands per op"
    outputs = ("model.json", "plots_qq.svg", "plots_worm.svg",
               "residuals.csv", "predict.csv")

    def __init__(self, seed: int, workdir: str):
        self.dir = workdir
        data = os.path.join("data", "lime.csv")
        model = os.path.join(workdir, "model.json")
        self.argvs = (
            ["fit", "--data", data, "--response", "Foliage", "--mu", "Age",
             "Origin", "--out", model, "--plots", os.path.join(workdir, "plots")],
            ["residuals", "--model", model, "--data", data,
             "--out", os.path.join(workdir, "residuals.csv")],
            ["predict", "--model", model, "--data", data,
             "--out", os.path.join(workdir, "predict.csv")],
        )
        self.reference = None

    def warm_up(self):
        # The first op's outputs are the reference later ops must match.
        result = self.op()
        reason = self.check(result)
        if reason:
            raise RuntimeError(f"lime-cli warm-up: {reason}")

    def op(self):
        for name in self.outputs:
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(self.dir, name))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            codes = [tiltreg.cli.main(argv) for argv in self.argvs]
        return codes, out.getvalue(), err.getvalue()

    def check(self, result):
        codes, stdout, stderr = result
        if codes != [0, 0, 0]:
            return f"exit codes {codes}: {stderr.strip()}"
        files = {}
        for name in self.outputs:
            with open(os.path.join(self.dir, name), "rb") as fh:
                files[name] = fh.read()
        doc = json.loads(files["model.json"])
        est_err = np.max(np.abs(np.array(doc["estimates"]) - LIME_ESTIMATES))
        se_err = np.max(np.abs(np.array(doc["std_errors"]) - LIME_STD_ERRORS))
        if not (est_err < LIME_EST_TOL and se_err < LIME_SE_TOL):
            return f"estimates off by {est_err:.4g}, std errors by {se_err:.4g}"
        outputs = (stdout, files)
        if self.reference is None:
            self.reference = outputs
        elif outputs != self.reference:
            return "outputs differ from the first op's bytes"
        return None


def simulate_regression(seed: int, n: int):
    """Responses of a 3 + 2 coefficient median regression, by CDF inversion.

    Covariates are independent standard normals; each y_i solves
    ``median_tilted_cdf(y_i, mu_i, sigma_i) = u_i`` by bisection on
    log(y_i / mu_i) to full double precision.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 3))
    W = np.column_stack([np.ones(n), x[:, 0], x[:, 1]])
    Z = np.column_stack([np.ones(n), x[:, 2]])
    truth = np.array([1.0, 0.3, -0.2, -0.3, 0.2])
    mu = np.exp(W @ truth[:3])
    sigma = np.exp(Z @ truth[3:])
    u = rng.uniform(size=n)
    lo, hi = np.full(n, -60.0), np.full(n, 60.0)
    while np.any(hi - lo > 4e-16 * np.maximum(1.0, np.abs(lo))):
        mid = 0.5 * (lo + hi)
        below = exponential.median_tilted_cdf(mu * np.exp(mid), mu, sigma) < u
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    y = mu * np.exp(0.5 * (lo + hi))
    return regression.ModelSpec(response=y, mu_design=W, sigma_design=Z), truth, rng


class Fit1e5:
    """ML fit at n = 1e5 with covariates in both submodels, then diagnostics.

    Per-observation work dominates: the finite-difference Hessians, the
    score, the residual CDF and the size of the two SVGs.
    """

    n = 100_000
    size = "n=100000, 3 median + 2 shape coefficients"

    def __init__(self, seed: int, workdir: str):
        self.spec, self.truth, rng = simulate_regression(seed, self.n)
        order = rng.permutation(self.n)
        self.permuted = regression.ModelSpec(
            response=self.spec.response[order],
            mu_design=self.spec.mu_design[order],
            sigma_design=self.spec.sigma_design[order],
        )
        self.paths = (os.path.join(workdir, "qq.svg"),
                      os.path.join(workdir, "worm.svg"))

    def warm_up(self):
        small = regression.ModelSpec(
            response=self.spec.response[:2000],
            mu_design=self.spec.mu_design[:2000],
            sigma_design=self.spec.sigma_design[:2000],
        )
        self._run(small)

    def _run(self, spec):
        model = regression.fit(spec)
        residuals = diagnostics.quantile_residuals(model, spec)
        report = diagnostics.build_report(residuals)
        diagnostics.render_svg(report, "qq", self.paths[0])
        diagnostics.render_svg(report, "worm", self.paths[1])
        return model

    def op(self):
        return self._run(self.spec)

    def check(self, model):
        if not model.converged or not model.gradient_max_norm < 1e-6:
            return (f"converged={model.converged}, gradient max-norm "
                    f"{model.gradient_max_norm:.3e}")
        z = np.abs(model.theta_hat - self.truth) / model.std_errors
        if not np.all(z <= 4.0):
            return f"true coefficients {np.round(z, 2).tolist()} SE away"
        ll = regression.log_likelihood(self.permuted, model.theta_hat)
        if ll != model.loglik_at_optimum:
            return f"log-likelihood {ll!r} on permuted data != {model.loglik_at_optimum!r}"
        return None


class Draws:
    """2.5e5 inverse-transform draws at each beta in BETAS.

    Isolates the bulk auxiliary-quantile solve; never touches regression.
    The draw seed of each beta is derived from the benchmark seed.
    """

    n = 250_000
    size = "4 x 250000 draws"
    # Kolmogorov critical values of sqrt(n)*D at levels 1e-6 (the check) and
    # 1% (reported only: a correct sampler exceeds it on ~1 seed in 60).
    ks_limit = math.sqrt(-math.log(0.5e-6) / 2.0)
    ks_limit_1pct = 1.627

    def __init__(self, seed: int, workdir: str):
        self.dists = [TiltedDistribution(ExponentialBaseline(1.0), b) for b in BETAS]
        self.seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(len(BETAS))]
        self.notes = {}

    def warm_up(self):
        for d, s in zip(self.dists, self.seeds):
            d.sample(1000, s)

    def op(self):
        return [d.sample(self.n, s) for d, s in zip(self.dists, self.seeds)]

    def check(self, draws):
        ks = self.notes["sqrt_n_ks"] = []
        self.notes["sqrt_n_ks_limit"] = self.ks_limit
        for beta, d, x in zip(BETAS, self.dists, draws):
            if x.shape != (self.n,) or not np.all(np.isfinite(x) & (x > 0)):
                return f"beta={beta}: draws not all finite and positive"
            F = np.asarray(d.cdf(np.sort(x)))
            i = np.arange(1, self.n + 1) / self.n
            stat = math.sqrt(self.n) * max(np.max(i - F), np.max(F - (i - 1.0 / self.n)))
            ks.append(stat)
            self.notes["over_1pct_value"] = sum(int(k >= self.ks_limit_1pct) for k in ks)
            if not stat < self.ks_limit:
                return f"beta={beta}: sqrt(n)*KS {stat:.4f} >= {self.ks_limit:.4f}"
        return None


class DistScalar:
    """Scalar quantiles, moments, a truncated moment and the mode per beta.

    The same family layer as Draws, one point at a time through quadrature
    and mode scans, so per-call set-up shows here.  Inputs do not depend on
    the seed.
    """

    size = "4 betas x (3 quantiles, 4 moments, mode)"
    probs = (0.1, 0.5, 0.9)

    def __init__(self, seed: int, workdir: str):
        self.dists = [TiltedDistribution(ExponentialBaseline(1.0), b) for b in BETAS]
        self.reference_modes = None

    def warm_up(self):
        result = self.op()
        reason = self.check(result)
        if reason:
            raise RuntimeError(f"dist-scalar warm-up: {reason}")

    def op(self):
        out = []
        for d in self.dists:
            qs = [d.quantile(p) for p in self.probs]
            r = {
                "cdf_q": [d.cdf(q) for q in qs],
                "m2": d.moment(2),
                "tm": d.truncated_moment(1, 0.5, 3),
                "mode": d.mode(),
                "below": d.truncated_moment(1, 0.0, qs[1]),
                "above": d.truncated_moment(1, qs[1], math.inf),
                "m1": d.moment(1),
            }
            if r["mode"] is not None:
                m = r["mode"]
                r["pdf"] = [d.pdf(m - 1e-4 * m), d.pdf(m), d.pdf(m + 1e-4 * m)]
            out.append(r)
        return out

    def check(self, out):
        for beta, r in zip(BETAS, out):
            err = max(abs(c - p) for c, p in zip(r["cdf_q"], self.probs))
            if not err < 1e-10:
                return f"beta={beta}: |cdf(quantile(p)) - p| = {err:.3e}"
            split = r["below"] + r["above"]
            if not abs(split - r["m1"]) <= 1e-8 * abs(r["m1"]):
                return f"beta={beta}: split moments {split!r} != moment(1) {r['m1']!r}"
            if not (r["m2"] > r["m1"] ** 2 and 0.0 < r["tm"] < r["m1"]):
                return f"beta={beta}: moment(2) or truncated_moment out of range"
            if r["mode"] is not None:
                left, at, right = r["pdf"]
                if not (at >= left and at >= right):
                    return f"beta={beta}: density at mode {r['mode']!r} is not a maximum"
        modes = [r["mode"] is None for r in out]
        if self.reference_modes is None:
            self.reference_modes = modes
        elif modes != self.reference_modes:
            return f"betas without interior mode changed: {modes}"
        return None


WORKLOADS = {
    "lime-cli": LimeCli,
    "fit-1e5": Fit1e5,
    "draws": Draws,
    "dist-scalar": DistScalar,
}
