"""tiltreg benchmark: run one workload and print its metrics as JSON.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fit-1e5 --seed 1 --seconds 20 --trace 0

Workloads and metrics are listed in BENCHMARK.json and perfbench/README.md.
The launcher starts ``perfbench/worker.py`` SETUP_REPEATS times, one after
the other.  Each worker imports tiltreg, builds the seed's inputs and warms
up; ``setup_s`` is the median, over those processes, of the wall time from
starting the process to its READY line.  The last worker goes on to measure.

The last line printed is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The line before it holds the
environment.  The full result, with sample counts, ``op_p90_ms`` (when a run
has at least 100 ops), ``fail_frac`` and every traced layer, is written to
``.bench_out/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

SETUP_REPEATS = 3
# Wall-time limit of one worker beyond --seconds, after which it is killed.
WORKER_GRACE_S = 120.0
# What a checkout must hold for the benchmark to build and run the library.
REQUIRED = (os.path.join("src", "tiltreg", "__init__.py"),
            os.path.join("data", "lime.csv"), "BENCHMARK.json")


def run_worker(argv: list[str], limit_s: float, role: str):
    """Start one worker; return (seconds to READY, READY info, result or None)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv, "--role", role],
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(limit_s, proc.kill)
    watchdog.start()
    try:
        ready_s = info = None
        lines = []
        for line in proc.stdout:
            if ready_s is None and line.startswith("READY "):
                ready_s = time.perf_counter() - t0
                info = json.loads(line[len("READY "):])
            else:
                lines.append(line)
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready_s is None:
        raise RuntimeError(f"{role} worker exited with code {code}")
    result = json.loads(lines[-1]) if role == "measure" else None
    return ready_s, info, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not os.path.isfile(p)]
    if missing:
        print(f"not a tiltreg checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out_dir = ".bench_out"
    os.makedirs(out_dir, exist_ok=True)
    worker = [os.path.join("perfbench", "worker.py"),
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--out", out_dir]
    limit = args.seconds + WORKER_GRACE_S
    setups = []
    try:
        for k in range(SETUP_REPEATS):
            role = "measure" if k == SETUP_REPEATS - 1 else "probe"
            ready_s, info, result = run_worker(worker, limit, role)
            setups.append(dict(info, total_s=ready_s))
    except (RuntimeError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    result["end_to_end"]["setup_s"] = statistics.median(s["total_s"] for s in setups)
    result.update({"workload": args.workload, "seconds": args.seconds,
                   "trace": args.trace, "setups": setups})
    figures = {**result["end_to_end"], **result.get("per_layer", {})}
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)

    metrics = {}
    for m in wanted:
        # Layers a workload never enters have no spans: they read 0.
        value = figures.get(m["name"], 0 if args.trace else None)
        if value is None:
            print(f"benchmark failed: no value for {m['name']}", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"environment": result["environment"]}))
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
