"""One benchmark process: set up a workload, then (unless a probe) measure it.

Started by ``perfbench/run.py`` from the root of a checkout.  It caps the
BLAS/OpenMP thread pools at the number of usable cores before NumPy is
imported, imports ``tiltreg`` from the checkout's ``src/``, builds the
workload's inputs and warms up, and prints ``READY`` with its set-up
breakdown.  A probe exits there.  The measuring process then runs ops in a
closed loop with one client until ``--seconds`` would be exceeded and prints
one JSON line with the op records' statistics.

With ``--trace 1`` ops alternate between traced (spans recorded through
``tracing.Tracer``) and untraced, starting traced, so the tracing overhead is
the difference of the two medians measured under the same conditions.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads() -> int:
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def git_sha(root: str) -> str | None:
    """HEAD's commit read from ``.git`` when the checkout has one."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256(src: str) -> str:
    """Digest of the library's sources, identifying the code without git."""
    digest = hashlib.sha256()
    pkg = os.path.join(src, "tiltreg")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def environment(root: str, nproc: int, seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
        "git_sha": git_sha(root),
        "src_sha256": source_sha256(os.path.join(root, "src")),
        "seed": seed,
    }


def reference_ms(reps: int) -> list[float]:
    """Wall times of ``reps`` runs of a fixed computation that uses no tiltreg.

    A mix like the library's own: interpreter work on Python objects, many
    small NumPy calls, SciPy quadrature of a Python function, and
    elementwise work on a larger array.  On a shared machine whose speed
    drifts by tens of percent over minutes, op time divided by this time
    is the steadier figure.
    """
    import numpy as np
    from scipy.integrate import quad

    x = np.linspace(0.01, 1.0, 4096)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        table = {}
        for i in range(2_000):
            table[str(i)] = [i, i * 0.5, (i, -i)]
        for i in range(300):
            float(np.exp(-np.log1p(i * 1e-3)))
        quad(lambda u: float(np.exp(-u)) * u, 0.0, 5.0)
        for _ in range(5):
            np.log1p(np.exp(-x)).sum()
        times.append((time.perf_counter() - t0) * 1e3)
    return times


def _median(values):
    return statistics.median(values) if values else None


def measure(workload, seconds: float, trace: bool, spans_path: str) -> dict:
    from tracing import EXACT_COUNTS, Tracer, layer_stats

    tracer = Tracer()
    wall, cpu, ref, traced_wall, layers, failures = [], [], [], [], [], []
    attempted = failed = 0
    first_spans = None
    start = time.perf_counter()
    while True:
        traced = trace and attempted % 2 == 0
        reason = None
        if not traced:
            # About 2% of the op's time, taken just before it.
            reps = round(0.02 * wall[-1] / statistics.mean(ref)) if wall else 0
            ref.extend(reference_ms(max(1, reps)))
        with tracer.installed() if traced else contextlib.nullcontext():
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                result = workload.op()
            except Exception as exc:  # a failed op is counted, not fatal
                reason = f"raised {exc!r}"
            t1, c1 = time.perf_counter(), time.process_time()
        if reason is None:
            reason = workload.check(result)
        if traced:
            stats = layer_stats(tracer.spans)
            if first_spans is None:
                first_spans = list(tracer.spans)
            elif reason is None:
                for key in EXACT_COUNTS:
                    if stats.get(key, 0) != layers[0].get(key, 0):
                        reason = f"{key} is {stats.get(key, 0)}, first op had {layers[0].get(key, 0)}"
            layers.append(stats)
        attempted += 1
        if reason is not None:
            failed += 1
            failures.append(reason)
        elif traced:
            traced_wall.append((t1 - t0) * 1e3)
        else:
            wall.append((t1 - t0) * 1e3)
            cpu.append((c1 - c0) * 1e3)
        elapsed = time.perf_counter() - start
        done = elapsed + (t1 - t0) > seconds
        if done and (not trace or attempted >= 2):
            break

    # Means, not medians: op times are bimodal on a shared machine (slow and
    # fast stretches of seconds), and a run median jumps between the modes.
    ref_mean = statistics.mean(ref)
    e2e = {
        "op_cost": statistics.mean(wall) / ref_mean if wall else None,
        "op_cpu_cost": statistics.mean(cpu) / ref_mean if cpu else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_per_s": len(wall) / (sum(wall) / 1e3) if wall else None,
        "op_cpu_ms": statistics.mean(cpu) if cpu else None,
        "op_p50_ms": _median(wall),
        "reference_ms": ref_mean,
        "fail_frac": failed / attempted,
    }
    # The highest percentile with at least ten samples beyond it.
    if len(wall) >= 100:
        e2e["op_p90_ms"] = statistics.quantiles(wall, n=10, method="inclusive")[8]
    out = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:5],
        "samples": {"untraced_ops": len(wall), "traced_ops": len(traced_wall),
                    "reference_reps": len(ref)},
        "op_ms": {"untraced": wall, "traced": traced_wall},
        "end_to_end": e2e,
        "notes": getattr(workload, "notes", {}),
    }
    if trace:
        keys = sorted({k for stats in layers for k in stats})
        per_layer = {k: statistics.median(s.get(k, 0) for s in layers) for k in keys}
        p50 = _median(wall)
        traced_p50 = _median(traced_wall)
        per_layer["trace.op_p50_ms"] = traced_p50
        per_layer["trace.untraced_op_p50_ms"] = p50
        per_layer["trace.overhead_ms"] = (
            traced_p50 - p50 if traced_p50 is not None and p50 is not None else None)
        out["per_layer"] = per_layer
        write_spans(spans_path, first_spans or [])
    return out


def write_spans(path: str, spans) -> None:
    """The first traced op's spans as JSON lines, times in ns from its start."""
    t0 = spans[0][1] if spans else 0
    with open(path, "w", encoding="utf-8") as fh:
        for i, (name, start, end, parent, _, attrs) in enumerate(spans):
            rec = {"op": 0, "id": i, "name": name, "start_ns": start - t0,
                   "end_ns": end - t0, "parent": parent}
            if attrs:
                rec["attrs"] = attrs
            fh.write(json.dumps(rec) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--role", choices=("probe", "measure"), required=True)
    parser.add_argument("--out", required=True, help="directory for span files")
    args = parser.parse_args(argv)

    t_start = time.perf_counter()
    nproc = cap_threads()
    root = os.getcwd()
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import numpy  # noqa: F401  (timed as part of the import phase)
    import tiltreg

    if not os.path.abspath(tiltreg.__file__).startswith(src + os.sep):
        print(f"imported tiltreg from {tiltreg.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    t_imported = time.perf_counter()
    workdir = os.path.join(".bench_tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        t_inputs = time.perf_counter()
        workload.warm_up()
        t_ready = time.perf_counter()
        print("READY " + json.dumps({
            "import_s": t_imported - t_start,
            "inputs_s": t_inputs - t_imported,
            "warm_up_s": t_ready - t_inputs,
        }), flush=True)
        if args.role == "probe":
            return 0
        spans_path = os.path.join(args.out, f"{args.workload}-seed{args.seed}.spans.jsonl")
        result = measure(workload, args.seconds, bool(args.trace), spans_path)
        result["input_size"] = workload.size
        result["environment"] = environment(root, nproc, args.seed)
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
