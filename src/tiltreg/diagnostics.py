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
# Rows per residual block, as in the fit: a block's float64 temporaries are
# 64 KB each, below glibc's 128 KB mmap threshold, so they are reused from the
# heap instead of being mapped and faulted in afresh.
_BLOCK = 8192


def quantile_residuals(fitted: FittedModel, spec: ModelSpec) -> np.ndarray:
    """Normal scores of the fitted CDF at each observation.

    The CDF value is floored into [1e-15, 1 - 1e-15] before applying the
    normal quantile function so saturation cannot produce infinities.  A
    non-converged fit still yields residuals but attaches a warning.  Rows
    are taken ``_BLOCK`` at a time (``predict``, the CDF, the floor, then
    Phi^{-1} into the output), so the only n-sized array is the result.
    """
    if not fitted.converged:
        warnings.warn(
            "computing quantile residuals from a non-converged fit",
            RuntimeWarning,
        )
    r = np.empty(spec.n_obs)
    for start in range(0, spec.n_obs, _BLOCK):
        rows = slice(start, start + _BLOCK)
        mu, sigma = predict(fitted, spec.mu_design[rows], spec.sigma_design[rows])
        u = median_tilted_cdf(spec.response[rows], mu, sigma)
        np.clip(u, _CDF_FLOOR, 1.0 - _CDF_FLOOR, out=u)
        ndtri(u, out=r[rows])
    return r


@dataclass(frozen=True)
class DiagnosticsReport:
    """Residuals with their QQ/worm coordinates and moment summary.

    At the i-th of n Blom plotting positions p_i = (i - 3/8) / (n + 1/4),
    the report holds three n-vectors: ``quantiles``, the theoretical normal
    quantiles z_i; ``ordered``, the residuals sorted ascending; and
    ``half_width``, the worm plot's pointwise 95% band half-width
    ``1.96 sqrt(p_i (1 - p_i) / n) / phi(z_i)``.  The (n, 2) views are built
    on each access: ``qq_points`` are (z_i, i-th ordered residual),
    ``worm_points`` are (z_i, ordered residual - z_i), and ``bands`` are the
    band limits (lower, upper) = (-half-width, half-width).
    """

    residuals: np.ndarray
    quantiles: np.ndarray
    ordered: np.ndarray
    half_width: np.ndarray
    summary: dict[str, float]

    @property
    def qq_points(self) -> np.ndarray:
        return np.column_stack([self.quantiles, self.ordered])

    @property
    def worm_points(self) -> np.ndarray:
        return np.column_stack([self.quantiles, self.ordered - self.quantiles])

    @property
    def bands(self) -> np.ndarray:
        return np.column_stack([-self.half_width, self.half_width])


def build_report(residuals) -> DiagnosticsReport:
    """Assemble the full report from at least 10 finite residuals that are not
    all equal (ValueError otherwise).

    Besides the input, the report keeps three n-vectors and holds at most
    three at a time: the moment summary's deviations come first, then the
    plotting positions and the band half-width are updated in place, and
    the sorted copy is made last.
    """
    r = np.asarray(residuals, dtype=float).ravel()
    n = r.size
    if n < 10:
        raise ValueError("worm plot needs at least 10 residuals")
    if not np.all(np.isfinite(r)):
        raise ValueError("residuals must be finite")
    # biased central-moment ratios (Fisher's skewness and excess kurtosis);
    # d2 * d and d2 * d2 are products, where d**3 and d**4 would call pow
    d = r - np.mean(r)
    d2 = d * d
    m2 = np.mean(d2)
    if np.min(r) == np.max(r) or not m2 > 0:
        raise ValueError("residuals have zero variance")
    summary = {
        "mean": float(np.mean(r)),
        "variance": float(np.var(r, ddof=1)),
        "skewness": float(np.mean(d2 * d) / m2**1.5),
        "excess_kurtosis": float(np.mean(d2 * d2) / m2**2 - 3.0),
    }
    del d, d2
    p = np.arange(1.0, n + 1.0)  # i = 1, ..., n, each exact as a double
    p -= 0.375
    p /= n + 0.25
    quantiles = ndtri(p)
    # 1.96 se / phi(z) with se = sqrt(p (1 - p) / n): the operations of
    # 1.96 * sqrt(p * (1 - p) / n) / (exp(-z**2 / 2) / sqrt(2 pi)) in order
    half = 1.0 - p
    half *= p
    half /= n
    np.sqrt(half, out=half)
    half *= 1.96
    phi = np.square(quantiles, out=p)
    np.negative(phi, out=phi)
    phi /= 2.0
    np.exp(phi, out=phi)
    phi /= np.sqrt(2 * np.pi)
    half /= phi
    del p, phi
    return DiagnosticsReport(
        residuals=r,
        quantiles=quantiles,
        ordered=np.sort(r),
        half_width=half,
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


def _chunk_text(to_pixels, values, chunks):
    """Yield the pixel texts of ``values(rows)`` for each slice in ``chunks``."""
    for rows in chunks:
        yield _centi_text(to_pixels(values(rows)))


def render_svg(report: DiagnosticsReport, kind: str, path) -> None:
    """Write the QQ or worm plot of a report to ``path`` as SVG.

    Points are circles in one group that sets their fill and fill-opacity
    (inherited properties: the group has no ``opacity``, so each circle is
    still painted on its own at 0.7); the reference (identity line for QQ,
    zero line plus dotted 95% bands for worm) is drawn beneath them.  Byte
    output is a pure function of the report contents.  Every pixel
    coordinate is printed to 0.01 px, the ``.2f`` text gathered from a table
    by its integer number of centi-pixels (``_centi_text``).  Circles and
    band vertices are built ``_CHUNK`` points at a time from the report's
    three vectors: the worm deviations and band limits of a chunk are formed
    when it is written, its texts and the fixed markup fill one record array
    (``_join``), and its bytes are written at once.  The worm's y-limits
    come from per-chunk extremes.  Only the x texts, shared by circles and
    bands, are held whole (a few bytes per point); no n-sized float array is
    formed.
    """
    if kind not in ("qq", "worm"):
        raise ValueError("kind must be 'qq' or 'worm'")
    z, ordered, half = report.quantiles, report.ordered, report.half_width
    chunks = [slice(start, start + _CHUNK) for start in range(0, z.size, _CHUNK)]
    if kind == "qq":
        point_y, bands = ordered.__getitem__, []
        ylim = _pad_limits(ordered, z)
        title, ylabel = "Normal QQ plot of quantile residuals", "Ordered residual"
    else:
        def point_y(rows):
            return ordered[rows] - z[rows]

        bands = [lambda rows: -half[rows], half.__getitem__]
        extremes = [(dev.min(), dev.max()) for dev in map(point_y, chunks)]
        top = half.max()  # the bands are -half and half, with half > 0
        ylim = _pad_limits(np.array(extremes), np.array([-top, top]))
        title, ylabel = "Worm plot of quantile residuals", "Deviation"
    xlim = _pad_limits(z)
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
    x_text = list(_chunk_text(canvas.x, z.__getitem__, chunks))
    with open(path, "wb") as fh:
        fh.write("".join([head, *(f"{element}\n" for element in elements)])
                 .encode("utf-8"))
        for band in bands:
            fh.write(b'<polyline points="')
            skip = 1  # vertices are space-separated: none before the first
            for tx, ty in zip(x_text, _chunk_text(canvas.y, band, chunks)):
                fh.write(memoryview(_join(b" ", tx, b",", ty))[skip:])
                skip = 0
            fh.write(b'" fill="none" stroke="gray" '
                     b'stroke-width="1" stroke-dasharray="3,3"/>\n')
        fh.write(b'<g fill="steelblue" fill-opacity="0.7">\n')
        for tx, ty in zip(x_text, _chunk_text(canvas.y, point_y, chunks)):
            fh.write(_join(b'<circle cx="', tx, b'" cy="', ty, b'" r="2.5"/>\n'))
        fh.write(b"</g>\n</svg>\n")
