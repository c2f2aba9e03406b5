"""Time CSV ingest and a CLI fit on a large generated file.

Writes an n-row CSV with a numeric response ``y``, numeric covariates ``x1``,
``x2`` and ``z`` and a three-level column ``g``, drawn from the median
regression of ``tests/test_regression.simulate_regression`` with a level
effect of ``g`` added to the median.  Then, for each ``--src`` tree in turn
and ``--reps`` times over, a fresh interpreter that imports ``tiltreg`` from
that tree times one ``ingest_csv`` of the file and one
``tiltreg fit --mu x1 x2 g --sigma z`` through ``cli.main``.  Runs alternate
between the trees, so drift in the machine's speed falls on each alike.
Prints the median and interquartile range of each timing per tree, and
whether every run wrote the same model file.

Usage:  python scripts/time_ingest.py [--rows 100000] [--reps 10]
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

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
FIT_ARGS = ["--response", "y", "--mu", "x1", "x2", "g", "--sigma", "z"]


def write_csv(path, rows: int, seed: int = 29) -> None:
    """``rows`` draws of (y, x1, x2, z, g) by the max identity of
    ``TiltedDistribution.sample``, each row's baseline exponential of rate
    c/mu with shape -log(L)/c."""
    import numpy as np

    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, 3))
    g = rng.integers(0, 3, rows)
    W = np.column_stack([np.ones(rows), x[:, 0], x[:, 1], g == 1, g == 2])
    sigma = np.exp(np.column_stack([np.ones(rows), x[:, 2]]) @ [-0.3, 0.2])
    mu = np.exp(W @ [1.0, 0.3, -0.2, 0.2, -0.1])
    c, log_L = sigma + np.log(2.0), np.log(np.log1p(-np.expm1(-sigma)))
    log_u = np.log(rng.uniform(size=rows))
    log_e = np.log(rng.standard_exponential(rows))
    y = -(mu / c) * np.minimum(log_u, log_e * c / -log_L)
    levels = np.array(["Coppice", "Natural", "Planted"])[g]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("y,x1,x2,z,g\n")
        fh.writelines(f"{a!r},{b!r},{d!r},{e!r},{f}\n" for a, b, d, e, f in zip(
            y.tolist(), x[:, 0].tolist(), x[:, 1].tolist(), x[:, 2].tolist(),
            levels.tolist()))


def _worker(src: str, data: str, model: str) -> None:
    """One timed run in this interpreter: prints a JSON line of the times."""
    import contextlib
    import io
    import time

    sys.path.insert(0, src)
    from tiltreg import ModelConfig, ingest_csv
    from tiltreg.cli import main

    start = time.perf_counter()
    ingest_csv(data, ModelConfig("y", ("x1", "x2", "g"), ("z",)))
    middle = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["fit", "--data", data, *FIT_ARGS, "--out", model])
    end = time.perf_counter()
    print(json.dumps({"ingest_ms": 1e3 * (middle - start),
                      "fit_ms": 1e3 * (end - middle), "code": code}))


def run(rows: int, reps: int, srcs, outdir) -> dict:
    """{src: {"ingest_ms": [...], "fit_ms": [...]}} over ``reps`` alternating
    runs, and "same_model": whether every run wrote the same model bytes."""
    outdir = pathlib.Path(outdir)
    data = outdir / f"ingest_{rows}.csv"
    write_csv(data, rows)
    times = {src: {"ingest_ms": [], "fit_ms": []} for src in srcs}
    models = set()
    for rep in range(reps):
        for i, src in enumerate(srcs):
            model = outdir / f"model_{i}_{rep}.json"
            done = subprocess.run(
                [sys.executable, __file__, "--worker", src, str(data), str(model)],
                capture_output=True, text=True, check=True)
            result = json.loads(done.stdout.splitlines()[-1])
            if result["code"] != 0:
                raise RuntimeError(f"tiltreg fit exited {result['code']} with "
                                   f"{src}: {done.stderr.strip()}")
            for key in ("ingest_ms", "fit_ms"):
                times[src][key].append(result[key])
            models.add(model.read_bytes())
    return {**times, "same_model": len(models) == 1}


def _summary(values) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (
        values * 3)
    return f"median {median:9.1f} ms   IQR [{q1:.1f}, {q3:.1f}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=100_000)
    parser.add_argument("--reps", type=int, default=10)
    parser.add_argument("--src", action="append",
                        help="a tree whose tiltreg package is timed (repeatable)")
    parser.add_argument("--outdir", help="keep the CSV and model files here")
    parser.add_argument("--worker", nargs=3, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        _worker(*args.worker)
        return 0
    srcs = [str(pathlib.Path(s).resolve()) for s in args.src or [SRC]]
    with tempfile.TemporaryDirectory() as scratch:
        outdir = args.outdir or scratch
        pathlib.Path(outdir).mkdir(parents=True, exist_ok=True)
        result = run(args.rows, args.reps, srcs, outdir)
    print(f"{args.rows} rows, {args.reps} alternating runs per tree")
    for src in srcs:
        print(src)
        print(f"  ingest_csv   {_summary(result[src]['ingest_ms'])}")
        print(f"  tiltreg fit  {_summary(result[src]['fit_ms'])}")
    print(f"model files byte-identical across runs: {result['same_model']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
