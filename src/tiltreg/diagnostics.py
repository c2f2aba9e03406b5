"""Quantile residuals and goodness-of-fit plots.

Residuals are normal scores of the fitted CDF: r_i = Phi^{-1}(F(y_i)) with F
evaluated at the per-observation fitted (mu_i, sigma_i).  Under a correct
model they are approximately standard normal, so a QQ-plot against normal
quantiles and a worm plot (the de-trended QQ-plot, with pointwise 95% bands)
summarize fit quality.  Plots are written as standalone SVG with fully
deterministic bytes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .exponential import median_tilted_cdf
from .regression import FittedModel, ModelSpec, predict

# Keeps Phi^{-1} finite: |residual| tops out near 8.
_CDF_FLOOR = 1e-15


def quantile_residuals(fitted: FittedModel, spec: ModelSpec) -> np.ndarray:
    """Normal scores of the fitted CDF at each observation.

    The CDF value is floored into [1e-15, 1 - 1e-15] before applying the
    normal quantile function so saturation cannot produce infinities.  A
    non-converged fit still yields residuals but attaches a warning.
    """
    if not fitted.converged:
        warnings.warn(
            "computing quantile residuals from a non-converged fit",
            RuntimeWarning,
        )
    mu, sigma = predict(fitted, spec.mu_design, spec.sigma_design)
    u = median_tilted_cdf(spec.response, mu, sigma)
    u = np.clip(u, _CDF_FLOOR, 1.0 - _CDF_FLOOR)
    return ndtri(u)


@dataclass(frozen=True)
class DiagnosticsReport:
    """Residuals with their QQ/worm renderings and moment summary.

    At the i-th of n Blom plotting positions p_i = (i - 3/8) / (n + 1/4),
    with theoretical normal quantile z_i: ``qq_points`` are (z_i, i-th
    ordered residual), ``worm_points`` are (z_i, ordered residual - z_i), and
    ``bands`` are the worm plot's pointwise 95% limits (lower, upper)
    ``-/+ 1.96 sqrt(p_i (1 - p_i) / n) / phi(z_i)``.
    """

    residuals: np.ndarray
    qq_points: np.ndarray
    worm_points: np.ndarray
    bands: np.ndarray
    summary: dict[str, float]


def build_report(residuals) -> DiagnosticsReport:
    """Assemble the full report from at least 10 finite residuals that are not
    all equal (ValueError otherwise)."""
    r = np.asarray(residuals, dtype=float).ravel()
    if r.size < 10:
        raise ValueError("worm plot needs at least 10 residuals")
    if not np.all(np.isfinite(r)):
        raise ValueError("residuals must be finite")
    p = (np.arange(1, r.size + 1) - 0.375) / (r.size + 0.25)
    qq = np.column_stack([ndtri(p), np.sort(r)])
    theo = qq[:, 0]
    half = 1.96 * np.sqrt(p * (1.0 - p) / r.size) / (
        np.exp(-theo**2 / 2.0) / np.sqrt(2 * np.pi))  # 1.96 se / phi(theo)
    bands = np.column_stack([-half, half])
    worm = np.column_stack([theo, qq[:, 1] - theo])
    # biased central-moment ratios (Fisher's skewness and excess kurtosis);
    # d2 * d and d2 * d2 are products, where d**3 and d**4 would call pow
    d = r - np.mean(r)
    d2 = d * d
    m2 = np.mean(d2)
    if qq[0, 1] == qq[-1, 1] or not m2 > 0:
        raise ValueError("residuals have zero variance")
    summary = {
        "mean": float(np.mean(r)),
        "variance": float(np.var(r, ddof=1)),
        "skewness": float(np.mean(d2 * d) / m2**1.5),
        "excess_kurtosis": float(np.mean(d2 * d2) / m2**2 - 3.0),
    }
    return DiagnosticsReport(
        residuals=r,
        qq_points=qq,
        worm_points=worm,
        bands=bands,
        summary=summary,
    )


# ---------------------------------------------------------------------------
# SVG rendering.  Plots are assembled by hand so output bytes depend only on
# the report contents (matplotlib embeds environment-dependent metadata).
# ---------------------------------------------------------------------------

_W, _H = 640, 480
_ML, _MR, _MT, _MB = 70, 20, 40, 55
# Points are formatted and written this many at a time.
_CHUNK = 8192
# The pixel texts 0.00 to 640.00 as byte strings, indexed by centi-pixels.
_UNITS = np.array([str(i) for i in range(_W + 1)], dtype="S3")
_CENTS = np.array([f".{c:02d}" for c in range(100)], dtype="S3")
_CENTI_TEXT = np.strings.add(_UNITS[:, None], _CENTS).ravel()[:100 * _W + 1]


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _centi_text(v: np.ndarray) -> np.ndarray:
    """``f"{x:.2f}"`` of each x in ``v`` as a byte-string (``S``) array.

    For 0 <= x < 640 the product 100 x is within 2^-37 of its exact value,
    so away from half-cent ties its nearest integer k is what the correctly
    rounded ``.2f`` prints: the text is entry k of ``_CENTI_TEXT``, one
    gather for the whole array.  Values within 1e-6 of a tie, negative values
    (-0.0 too), values >= 640 and nan or inf are formatted with ``.2f``
    itself, after widening the array to their length.
    """
    c = 100.0 * v
    k = np.rint(c)
    with np.errstate(invalid="ignore"):  # inf - inf is nan, caught below
        exact = ~np.signbit(v) & (v < _W) & (np.abs(c - k) < 0.5 - 1e-6)
    text = _CENTI_TEXT[np.where(exact, k, 0.0).astype(np.intp)]
    odd = np.flatnonzero(~exact)
    if odd.size:
        formatted = np.array([f"{x:.2f}".encode() for x in v[odd].tolist()])
        text = text.astype(np.promote_types(text.dtype, formatted.dtype))
        text[odd] = formatted
    return text


def _join(*parts) -> bytes:
    """``parts`` (``S`` arrays of one length and byte strings) concatenated
    row by row, then all rows joined into one byte string.

    Each part fills one field of a record array, so a row's bytes are its
    parts in order.  ``S`` types pad short texts with NUL, which no SVG text
    holds, so the padding is dropped from the record bytes.
    """
    parts = [np.asarray(part) for part in parts]
    rows = np.empty(max(part.size for part in parts),
                    dtype=[(f"f{i}", part.dtype) for i, part in enumerate(parts)])
    for name, part in zip(rows.dtype.names, parts):
        rows[name] = part
    return rows.tobytes().replace(b"\0", b"")


def _ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / target
    mag = 10.0 ** np.floor(np.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    ticks, t = [], np.ceil(lo / step) * step
    while t <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(t) < 1e-12 * span else float(t))
        t += step
    return ticks


class _Canvas:
    """Maps data coordinates, scalars or whole arrays, to SVG pixels."""

    def __init__(self, xlim, ylim):
        self.xlim = xlim
        self.ylim = ylim

    def x(self, v):
        lo, hi = self.xlim
        return _ML + (v - lo) / (hi - lo) * (_W - _ML - _MR)

    def y(self, v):
        lo, hi = self.ylim
        return _H - _MB - (v - lo) / (hi - lo) * (_H - _MT - _MB)


def _frame(canvas: _Canvas, title: str, xlabel: str, ylabel: str) -> list[str]:
    """The plot frame, axis ticks with their labels, and the three titles."""
    x0, x1 = _ML, _W - _MR
    y0, y1 = _H - _MB, _MT
    axes = [f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" '
            f'fill="none" stroke="black" stroke-width="1"/>']
    for t in _ticks(*canvas.xlim):
        px = canvas.x(t)
        if x0 - 0.5 <= px <= x1 + 0.5:
            axes.append(
                f'<line x1="{px:.2f}" y1="{y0}" x2="{px:.2f}" y2="{y0 + 5}" '
                f'stroke="black" stroke-width="1"/>'
            )
            axes.append(
                f'<text x="{px:.2f}" y="{y0 + 18}" text-anchor="middle" '
                f'font-size="11">{_fmt(t)}</text>'
            )
    for t in _ticks(*canvas.ylim):
        py = canvas.y(t)
        if y1 - 0.5 <= py <= y0 + 0.5:
            axes.append(
                f'<line x1="{x0 - 5}" y1="{py:.2f}" x2="{x0}" y2="{py:.2f}" '
                f'stroke="black" stroke-width="1"/>'
            )
            axes.append(
                f'<text x="{x0 - 8}" y="{py + 4:.2f}" text-anchor="end" '
                f'font-size="11">{_fmt(t)}</text>'
            )
    labels = [
        f'<text x="{(x0 + x1) / 2:.2f}" y="{_H - 12}" text-anchor="middle" '
        f'font-size="13">{xlabel}</text>',
        f'<text x="18" y="{(y0 + y1) / 2:.2f}" text-anchor="middle" '
        f'font-size="13" transform="rotate(-90 18 {(y0 + y1) / 2:.2f})">'
        f"{ylabel}</text>",
        f'<text x="{(x0 + x1) / 2:.2f}" y="24" text-anchor="middle" '
        f'font-size="15">{title}</text>',
    ]
    return axes + labels


def _pad_limits(*arrays: np.ndarray) -> tuple[float, float]:
    lo = float(np.min([np.min(a) for a in arrays]))
    hi = float(np.max([np.max(a) for a in arrays]))
    pad = 0.06 * (hi - lo) if hi > lo else max(0.5, abs(hi)) * 0.1
    return lo - pad, hi + pad


def _chunk_text(to_pixels, values: np.ndarray):
    """Yield the pixel texts of ``values``, ``_CHUNK`` at a time."""
    for start in range(0, len(values), _CHUNK):
        yield _centi_text(to_pixels(values[start:start + _CHUNK]))


def render_svg(report: DiagnosticsReport, kind: str, path) -> None:
    """Write the QQ or worm plot of a report to ``path`` as SVG.

    Points are circles, the reference (identity line for QQ, zero line plus
    dotted 95% bands for worm) is drawn beneath them.  Byte output is a pure
    function of the report contents.  Every pixel coordinate is printed to
    0.01 px, the ``.2f`` text gathered from a table by its integer number of
    centi-pixels (``_centi_text``).  Circles and band vertices are built
    ``_CHUNK`` points at a time: their texts and the fixed markup fill one
    record array (``_join``), whose bytes are written at once.  Only the x
    texts, shared by circles and bands, are held whole (a few bytes per
    point); the y texts and the document are not.
    """
    if kind not in ("qq", "worm"):
        raise ValueError("kind must be 'qq' or 'worm'")
    if kind == "qq":
        pts, bands = report.qq_points, []
        ylim = _pad_limits(pts[:, 1], pts[:, 0])
        title, ylabel = "Normal QQ plot of quantile residuals", "Ordered residual"
    else:
        pts, bands = report.worm_points, [report.bands[:, 0], report.bands[:, 1]]
        ylim = _pad_limits(pts[:, 1], *bands)
        title, ylabel = "Worm plot of quantile residuals", "Deviation"
    xlim = _pad_limits(pts[:, 0])
    canvas = _Canvas(xlim, ylim)
    ref_y = xlim if kind == "qq" else (0, 0)
    elements = _frame(canvas, title, "Theoretical quantile", ylabel)
    elements.append(
        f'<line x1="{canvas.x(xlim[0]):.2f}" y1="{canvas.y(ref_y[0]):.2f}" '
        f'x2="{canvas.x(xlim[1]):.2f}" y2="{canvas.y(ref_y[1]):.2f}" '
        f'stroke="firebrick" stroke-width="1.5"/>'
    )
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">\n<rect width="{_W}" height="{_H}" '
        f'fill="white"/>\n'
    )
    x_text = list(_chunk_text(canvas.x, pts[:, 0]))
    with open(path, "wb") as fh:
        fh.write("".join([head, *(f"{element}\n" for element in elements)])
                 .encode("utf-8"))
        for band in bands:
            fh.write(b'<polyline points="')
            skip = 1  # vertices are space-separated: none before the first
            for tx, ty in zip(x_text, _chunk_text(canvas.y, band)):
                fh.write(memoryview(_join(b" ", tx, b",", ty))[skip:])
                skip = 0
            fh.write(b'" fill="none" stroke="gray" '
                     b'stroke-width="1" stroke-dasharray="3,3"/>\n')
        for tx, ty in zip(x_text, _chunk_text(canvas.y, pts[:, 1])):
            fh.write(_join(b'<circle cx="', tx, b'" cy="', ty,
                           b'" r="2.5" fill="steelblue" fill-opacity="0.7"/>\n'))
        fh.write(b"</svg>\n")
