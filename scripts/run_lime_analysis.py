"""End-to-end case study on the lime-tree foliage data.

Fits the median regression of foliage biomass on tree age and origin,
prints the coefficient table with effect-size interpretations, and writes
the model file, residuals and diagnostic plots under outputs/.

Usage:  python scripts/run_lime_analysis.py [--data data/lime.csv] [--outdir outputs]
"""

import argparse
import math
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from tiltreg.cli import main as cli_main  # noqa: E402


def run(data: str, outdir: str) -> int:
    out = pathlib.Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    model_path = out / "lime_model.json"

    code = cli_main([
        "fit",
        "--data", data,
        "--response", "Foliage",
        "--mu", "Age", "Origin",
        "--out", str(model_path),
        "--plots", str(out / "lime"),
    ])
    if code != 0:
        return code

    code = cli_main([
        "residuals",
        "--model", str(model_path),
        "--data", data,
        "--out", str(out / "lime_residuals.csv"),
    ])
    if code != 0:
        return code

    import json

    doc = json.loads(model_path.read_text())
    est = dict(zip(doc["coefficients"], doc["estimates"]))
    print()
    print("Effect sizes (multiplicative, on the median foliage biomass):")
    print(f"  +10 years of age : x{math.exp(10 * est['mu.Age']):.3f}")
    print(f"  natural vs coppice: x{math.exp(est['mu.OriginNatural']):.3f}")
    print(f"  planted vs coppice: x{math.exp(est['mu.OriginPlanted']):.3f}")
    print(f"  shape parameter   : {math.exp(est['sigma.(Intercept)']):.3f}")
    print()
    print(f"Artifacts written to {out}/: lime_model.json, lime_qq.svg, "
          f"lime_worm.svg, lime_residuals.csv")
    return 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--data", default="data/lime.csv")
    ap.add_argument("--outdir", default="outputs")
    args = ap.parse_args()
    sys.exit(run(args.data, args.outdir))
