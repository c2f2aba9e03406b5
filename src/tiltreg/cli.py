"""Command-line interface: argument handling and output.

Subcommands: ``fit`` (estimate a median regression from CSV data and persist
it as JSON), ``predict`` (fitted medians/shapes for new rows), ``residuals``
(quantile residuals as CSV), ``dist`` (evaluate distribution functions) and
``sample`` (seeded random draws).  Exit codes: 0 success, 1 usage or
specification error, 2 numerical non-convergence, 3 I/O error.  ``data``
reads the tables and writes, reads and checks the model file.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings

from .baseline import ExponentialBaseline
from .data import (
    ModelConfig,
    build_design,
    design_matrices,
    design_schema,
    ingest_csv,
    model_document,
    read_model,
    table_from_schema,
)
from .diagnostics import build_report, quantile_residuals, render_svg
from .errors import InferenceError, NumericalError, SpecificationError
from .exponential import MedianTiltedExponential
from .family import TiltedDistribution
from .regression import FittedModel, ModelSpec, fit, predict


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


@functools.cache
def _build_parser() -> _Parser:
    """The argparse tree, built once per process.  It holds no handlers: ``main``
    looks ``cmd_<command>`` up at each call, so rebinding one takes effect."""
    parser = _Parser(prog="tiltreg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_fit = sub.add_parser("fit", help="fit a median regression from CSV data")
    p_fit.add_argument("--data", required=True, help="input CSV file")
    p_fit.add_argument("--response", required=True, help="response column name")
    p_fit.add_argument("--mu", nargs="*", default=[], metavar="TERM",
                       help="median-submodel terms (intercept is implicit)")
    p_fit.add_argument("--sigma", nargs="*", default=[], metavar="TERM",
                       help="shape-submodel terms (intercept is implicit)")
    p_fit.add_argument("--out", required=True, help="output model JSON file")
    p_fit.add_argument("--plots", metavar="PREFIX",
                       help="write PREFIX_qq.svg and PREFIX_worm.svg")

    p_pred = sub.add_parser("predict", help="fitted medians for new data")
    p_pred.add_argument("--model", required=True, help="model JSON from fit")
    p_pred.add_argument("--data", required=True, help="CSV with covariates")
    p_pred.add_argument("--out", required=True, help="output CSV")

    p_res = sub.add_parser("residuals", help="quantile residuals as CSV")
    p_res.add_argument("--model", required=True, help="model JSON from fit")
    p_res.add_argument("--data", required=True,
                       help="CSV with response and covariates")
    p_res.add_argument("--out", required=True, help="output CSV")

    p_dist = sub.add_parser("dist", help="evaluate distribution functions")
    p_dist.add_argument("function",
                        choices=["cdf", "pdf", "sf", "hrf", "quantile", "moment"])
    p_dist.add_argument("--beta", type=float, help="shape parameter")
    p_dist.add_argument("--lambda", dest="lam", type=float, help="rate parameter")
    p_dist.add_argument("--mu", type=float, help="median parameter")
    p_dist.add_argument("--sigma", type=float, help="shape parameter")
    p_dist.add_argument("--x", nargs="+", type=float,
                        help="evaluation points for cdf/pdf/sf/hrf")
    p_dist.add_argument("--p", nargs="+", type=float,
                        help="probabilities (quantile) or moment orders")

    p_samp = sub.add_parser("sample", help="seeded random draws as CSV")
    p_samp.add_argument("--n", type=int, required=True)
    p_samp.add_argument("--beta", type=float)
    p_samp.add_argument("--lambda", dest="lam", type=float)
    p_samp.add_argument("--mu", type=float)
    p_samp.add_argument("--sigma", type=float)
    p_samp.add_argument("--seed", type=int, default=0)
    p_samp.add_argument("--out", required=True, help="output CSV")

    return parser


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def _format_p(p: float) -> str:
    return "<0.001" if p < 0.001 else f"{p:.3f}"


def _format_number(value: float, digits: int, width: int) -> str:
    """``value`` with ``digits`` decimals, in e-notation when that fixed form
    would take ``width`` characters or more."""
    text = f"{value:.{digits}f}"
    return text if len(text) < width else f"{value:.{digits}e}"


def _coefficient_table(model: FittedModel) -> str:
    width = max(len(n) for n in model.coef_names) + 2
    lines = [
        f"  {'coefficient':<{width}}{'estimate':>10}{'std. error':>12}"
        f"{'z-stat':>10}{'p-value':>10}"
    ]
    for j, name in enumerate(model.coef_names):
        # each cell keeps a leading space, so wide values cannot run together
        est, se, z = (" " + _format_number(value, 3, w) for value, w in (
            (model.theta_hat[j], 10), (model.std_errors[j], 12),
            (model.z_stats[j], 10)))
        lines.append(
            f"  {name:<{width}}{est:>10}{se:>12}{z:>10}"
            f"{_format_p(model.p_values[j]):>10}"
        )
    return "\n".join(lines)


def _write_lines(path, header: str, lines) -> None:
    """Write ``header`` and then each of ``lines`` as one CSV line."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{header}\n")
        fh.writelines(f"{line}\n" for line in lines)


def _warn_dropped(table) -> None:
    if table.n_dropped:
        print(f"warning: dropped {table.n_dropped} row(s) with missing or "
              "unparseable cells", file=sys.stderr)


def cmd_fit(args) -> int:
    config = ModelConfig(
        response=args.response,
        mu_terms=tuple(args.mu),
        sigma_terms=tuple(args.sigma),
    )
    table = ingest_csv(args.data, config)
    _warn_dropped(table)
    spec = build_design(table, config)
    with warnings.catch_warnings():
        # non-convergence is reported through the exit code, not a warning
        warnings.simplefilter("ignore", RuntimeWarning)
        model = fit(spec)
        residuals = quantile_residuals(model, spec) if args.plots else None

    print(f"Median regression fit ({table.n_rows} observations)")
    print(
        f"  log-likelihood: {_format_number(model.loglik_at_optimum, 4, 13)}"
        f"    iterations: {model.iterations}"
        f"    converged: {'yes' if model.converged else 'NO'}"
    )
    print()
    print(_coefficient_table(model))

    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(model_document(model, design_schema(table, config)))
    if args.plots:
        report = build_report(residuals)
        render_svg(report, "qq", f"{args.plots}_qq.svg")
        render_svg(report, "worm", f"{args.plots}_worm.svg")

    if not model.converged:
        print(
            f"error: optimizer did not converge "
            f"(gradient max-norm {model.gradient_max_norm:.3e})",
            file=sys.stderr,
        )
        return 2
    return 0


# ---------------------------------------------------------------------------
# predict / residuals
# ---------------------------------------------------------------------------

def _model_and_rows(args, require_response: bool):
    """(model, y, W, Z): the --model and the --data rows read by its schema."""
    model, schema = read_model(args.model)
    table = table_from_schema(args.data, schema, require_response)
    _warn_dropped(table)
    W, Z, _, _ = design_matrices(table, schema)
    return model, table.numeric[schema["response"]] if require_response else None, W, Z


def cmd_predict(args) -> int:
    model, _, W, Z = _model_and_rows(args, require_response=False)
    medians, sigmas = predict(model, W, Z)
    _write_lines(args.out, "median,sigma",
                 (f"{m!r},{s!r}" for m, s in zip(medians.tolist(), sigmas.tolist())))
    print(f"wrote {len(medians)} prediction(s) to {args.out}")
    return 0


def cmd_residuals(args) -> int:
    model, y, W, Z = _model_and_rows(args, require_response=True)
    spec = ModelSpec(y, W, Z)
    if not model.converged:
        print("warning: the model did not converge; residuals are from its "
              "last iterate", file=sys.stderr)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        residuals = quantile_residuals(model, spec)
    _write_lines(args.out, "quantile_residual", map(repr, residuals.tolist()))
    print(f"wrote {len(residuals)} residual(s) to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# dist / sample
# ---------------------------------------------------------------------------

def _distribution_from(args) -> TiltedDistribution:
    has_classical = args.beta is not None or args.lam is not None
    has_median = args.mu is not None or args.sigma is not None
    if has_classical and has_median:
        raise SpecificationError(
            "give either --beta/--lambda or --mu/--sigma, not both"
        )
    if has_classical:
        if args.beta is None or args.lam is None:
            raise SpecificationError("--beta and --lambda are both required")
        return TiltedDistribution(ExponentialBaseline(args.lam), args.beta)
    if has_median:
        if args.mu is None or args.sigma is None:
            raise SpecificationError("--mu and --sigma are both required")
        return MedianTiltedExponential(mu=args.mu, sigma=args.sigma)
    raise SpecificationError(
        "parameters required: --beta/--lambda or --mu/--sigma"
    )


def cmd_dist(args) -> int:
    dist = _distribution_from(args)
    func = args.function
    if func in ("cdf", "pdf", "sf", "hrf"):
        if not args.x:
            raise SpecificationError(f"--x is required for {func}")
        evaluate = {
            "cdf": dist.cdf,
            "pdf": dist.pdf,
            "sf": dist.sf,
            "hrf": dist.hazard,
        }[func]
        values = [evaluate(x) for x in args.x]
    elif func == "quantile":
        if not args.p:
            raise SpecificationError("--p is required for quantile")
        values = [dist.quantile(p) for p in args.p]
    else:  # moment
        if not args.p:
            raise SpecificationError("--p (moment order) is required for moment")
        values = [dist.moment(p) for p in args.p]
    for v in values:
        print(f"{v:.10g}")
    return 0


def cmd_sample(args) -> int:
    dist = _distribution_from(args)
    draws = dist.sample(args.n, args.seed)
    _write_lines(args.out, "sample", map(repr, draws.tolist()))
    print(f"wrote {args.n} draw(s) to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return globals()["cmd_" + args.command](args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (SpecificationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, InferenceError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
