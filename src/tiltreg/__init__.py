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
    quantile_residuals,
    render_svg,
)
from .errors import InferenceError, NumericalError, SpecificationError
from .exponential import MedianTiltedExponential
from .family import TiltedDistribution
from .regression import (
    FittedModel,
    ModelSpec,
    fit,
    log_likelihood,
    predict,
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
    "predict",
    "quantile_residuals",
    "render_svg",
    "wald_test",
]
