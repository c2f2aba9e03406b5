"""Survival-tilted distributions and median regression for positive data."""

__version__ = "0.1.0"

from .baseline import BaselineDistribution, ExponentialBaseline
from .data import (
    DatasetTable,
    ModelConfig,
    build_design,
    design_schema,
    ingest_csv,
)
from .diagnostics import (
    DiagnosticsReport,
    build_report,
    qq_plot_data,
    quantile_residuals,
    render_svg,
    worm_plot_data,
)
from .errors import InferenceError, NumericalError, SpecificationError
from .exponential import MedianTiltedExponential
from .family import TiltedDistribution
from .regression import (
    FittedModel,
    ModelSpec,
    fit,
    log_likelihood,
    observed_information,
    predict_median,
    predict_sigma,
    wald_test,
)

__all__ = [
    "BaselineDistribution",
    "DatasetTable",
    "DiagnosticsReport",
    "ExponentialBaseline",
    "FittedModel",
    "InferenceError",
    "MedianTiltedExponential",
    "ModelConfig",
    "ModelSpec",
    "NumericalError",
    "SpecificationError",
    "TiltedDistribution",
    "build_design",
    "build_report",
    "design_schema",
    "fit",
    "ingest_csv",
    "log_likelihood",
    "observed_information",
    "predict_median",
    "predict_sigma",
    "qq_plot_data",
    "quantile_residuals",
    "render_svg",
    "wald_test",
    "worm_plot_data",
]
