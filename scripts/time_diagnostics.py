"""Time the fit and each diagnostics phase on a large simulated regression.

Draws n rows from the vectorized generator ``simulate_regression`` of
``tests/test_regression.py`` (3 median + 2 shape coefficients) and saves
them once.  Then, for each ``--src`` tree in turn and ``--reps`` times over,
a fresh interpreter that imports ``tiltreg`` from that tree warms up on the
first 2000 rows and runs the phases of the benchmark's fit-1e5 op once on
all rows: ``fit``, ``quantile_residuals``, ``build_report`` and
``render_svg`` of the QQ and the worm plot.  Runs alternate between the
trees, so drift in the machine's speed falls on each alike.  Prints, per
tree and phase, the median and interquartile range of the wall time and the
median of the process's ``ru_maxrss`` (its high-water resident size) after
the phase, and the two SVG sizes.

Usage:  python scripts/time_diagnostics.py [--rows 100000] [--reps 10]
            [--src DIR ...] [--outdir DIR]

``--src`` defaults to this checkout's ``src``; give it twice, say a parent
and a changed tree, for an A/B comparison.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PHASES = ("fit", "residuals", "report", "qq", "worm")


def write_data(path, rows: int, seed: int = 29) -> None:
    """Save ``rows`` draws of ``simulate_regression`` as y, W and Z."""
    import numpy as np

    for tree in (str(ROOT), str(SRC)):
        if tree not in sys.path:
            sys.path.insert(0, tree)
    from tests.test_regression import simulate_regression

    spec = simulate_regression(rows, seed)
    np.savez(path, y=spec.response, W=spec.mu_design, Z=spec.sigma_design)


def _worker(src: str, data: str, outdir: str) -> None:
    """One run in this interpreter: prints a JSON line of times and RSS."""
    import resource
    import time

    import numpy as np

    sys.path.insert(0, src)
    from tiltreg import ModelSpec, build_report, fit, quantile_residuals, render_svg

    arrays = np.load(data)
    spec = ModelSpec(response=arrays["y"], mu_design=arrays["W"],
                     sigma_design=arrays["Z"])
    paths = {kind: str(pathlib.Path(outdir) / f"{kind}.svg")
             for kind in ("qq", "worm")}

    def phases(spec):
        model = fit(spec)
        yield "fit"
        residuals = quantile_residuals(model, spec)
        yield "residuals"
        report = build_report(residuals)
        yield "report"
        for kind, path in paths.items():
            render_svg(report, kind, path)
            yield kind

    small = ModelSpec(response=spec.response[:2000],
                      mu_design=spec.mu_design[:2000],
                      sigma_design=spec.sigma_design[:2000])
    for _ in phases(small):
        pass
    result = {}
    start = time.perf_counter()
    for phase in phases(spec):
        end = time.perf_counter()
        result[phase] = {
            "ms": 1e3 * (end - start),
            "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        start = time.perf_counter()
    result["bytes"] = {kind: pathlib.Path(path).stat().st_size
                       for kind, path in paths.items()}
    print(json.dumps(result))


def run(rows: int, reps: int, srcs, outdir) -> dict:
    """{src: [one result per run]} over ``reps`` alternating runs."""
    outdir = pathlib.Path(outdir)
    data = outdir / f"diagnostics_{rows}.npz"
    write_data(data, rows)
    results = {src: [] for src in srcs}
    for _ in range(reps):
        for src in srcs:
            done = subprocess.run(
                [sys.executable, __file__, "--worker", src, str(data), str(outdir)],
                capture_output=True, text=True, check=True)
            results[src].append(json.loads(done.stdout.splitlines()[-1]))
    return results


def _summary(values) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (
        values * 3)
    return f"median {median:8.1f} ms   IQR [{q1:.1f}, {q3:.1f}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=100_000)
    parser.add_argument("--reps", type=int, default=10)
    parser.add_argument("--src", action="append",
                        help="a tree whose tiltreg package is timed (repeatable)")
    parser.add_argument("--outdir", help="keep the data and SVG files here")
    parser.add_argument("--worker", nargs=3, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        _worker(*args.worker)
        return 0
    srcs = [str(pathlib.Path(s).resolve()) for s in args.src or [SRC]]
    with tempfile.TemporaryDirectory() as scratch:
        outdir = args.outdir or scratch
        pathlib.Path(outdir).mkdir(parents=True, exist_ok=True)
        results = run(args.rows, args.reps, srcs, outdir)
    print(f"{args.rows} rows, {args.reps} alternating runs per tree")
    for src in srcs:
        print(src)
        for phase in PHASES:
            ms = [result[phase]["ms"] for result in results[src]]
            rss = statistics.median(result[phase]["maxrss_mb"]
                                    for result in results[src])
            print(f"  {phase:<10} {_summary(ms)}   maxrss {rss:.1f} MB")
        sizes = results[src][-1]["bytes"]
        print(f"  svg bytes  qq {sizes['qq']}   worm {sizes['worm']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
