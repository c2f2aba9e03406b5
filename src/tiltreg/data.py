"""CSV ingestion, design matrices and the model file for the CLI.

Input files are UTF-8 CSV, with or without a leading byte-order mark, with a
header row, comma delimiter and '.' decimal mark.  Only the columns a model
references are retained.  A referenced column is numeric when most of its
non-missing cells parse as numbers; anything else is categorical, with levels
sorted lexicographically and the first level used as the dummy-coding
reference.  Data read against a stored model schema takes the kinds and levels
from it.  Rows with missing or unparseable cells in a referenced column are
dropped, and the drop count is reported on the table.  ``model_document``
writes a model file and ``read_model`` reads it, holding every check of it.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress
from operator import itemgetter

import numpy as np

from . import __version__
from .errors import SpecificationError
from .regression import FittedModel, ModelSpec

_MISSING = {"", "NA", "NaN", "nan", "N/A", "null", "NULL"}
_MODEL_FORMAT = "tiltreg-model"


@dataclass(frozen=True)
class ModelConfig:
    """Names the response and the terms of the two linear predictors.

    Terms are column names; the placeholder term "1" is allowed and means
    "intercept only".  An intercept is always included in both predictors.
    """

    response: str
    mu_terms: tuple[str, ...] = ()
    sigma_terms: tuple[str, ...] = ()

    def __post_init__(self):
        for name in ("mu_terms", "sigma_terms"):
            object.__setattr__(
                self, name, tuple(t for t in getattr(self, name) if t != "1"))

    @property
    def referenced_columns(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys((self.response, *self.mu_terms, *self.sigma_terms)))


@dataclass
class DatasetTable:
    """Referenced columns of a CSV after type inference and row filtering."""

    columns: tuple[str, ...]
    numeric: dict[str, np.ndarray] = field(default_factory=dict)
    categorical: dict[str, list[str]] = field(default_factory=dict)
    levels: dict[str, tuple[str, ...]] = field(default_factory=dict)
    n_rows: int = 0
    n_dropped: int = 0

    def is_numeric(self, name: str) -> bool:
        return name in self.numeric


def _try_float(cell: str) -> float | None:
    # every missing-cell marker is None here too: "NaN" parses but is not finite
    try:
        v = float(cell)
    except ValueError:
        return None
    return v if math.isfinite(v) else None


def _parse_column(cells: list[str], kind: str | None):
    """(values, usable): the cells as floats or stripped strings, and the mask
    of those that keep their row.  A column that ``float`` maps whole needs no
    strip, as ``float`` skips surrounding whitespace; any other is stripped
    and parsed once per distinct cell."""
    if kind != "categorical":
        try:
            numbers = np.fromiter(map(float, cells), float, len(cells))
        except ValueError:
            pass
        else:
            usable = np.isfinite(numbers)
            if kind or usable.all():
                return numbers, usable
    cells = list(map(str.strip, cells))
    if kind != "categorical":
        counts = Counter(cells)
        parsed = {cell: _try_float(cell) for cell in counts}
        n_numbers = sum(k for c, k in counts.items() if parsed[c] is not None)
        n_present = sum(k for c, k in counts.items() if c not in _MISSING)
        if kind or 2 * n_numbers > n_present:
            # fromiter reads None as nan, which drops the row
            numbers = np.fromiter(map(parsed.get, cells), float, len(cells))
            return numbers, np.isfinite(numbers)
    return cells, ~np.fromiter(map(_MISSING.__contains__, cells), bool, len(cells))


def _read_table(path, columns: tuple[str, ...], kinds: dict[str, str]
                ) -> DatasetTable:
    """Read ``columns`` of a CSV file into a DatasetTable.

    A cell is a number iff Python's ``float`` parses it, surrounding
    whitespace stripped, to a finite value: " 2.5 " and "1_000" are numbers,
    while "inf", "1e400" and "nan" are not, and in a numeric column drop
    their row like a missing cell.
    A column named in ``kinds`` has that kind, "numeric" or "categorical";
    any other is numeric when most of its non-missing cells are numbers.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = [h.strip() for h in next(reader)]
            except StopIteration:
                raise SpecificationError(f"{path}: file is empty") from None
            # as tuples of strings, which the cyclic GC stops tracking
            rows = list(map(tuple, filter(None, reader)))
    except OSError as exc:
        raise OSError(f"cannot read dataset {path}: {exc}") from exc
    index = {name: i for i, name in enumerate(header)}
    missing_cols = [c for c in columns if c not in index]
    if missing_cols:
        raise SpecificationError(
            f"{path}: referenced column(s) not found: {', '.join(missing_cols)}"
        )
    repeated = [c for c in columns if header.count(c) > 1]
    if repeated:
        raise SpecificationError(
            f"{path}: referenced column(s) named more than once in the header: "
            f"{', '.join(repeated)}"
        )
    if set(map(len, rows)) - {len(header)}:
        width = next(len(row) for row in rows if len(row) != len(header))
        raise SpecificationError(
            f"{path}: row with {width} cells does not match the header"
        )

    values, keep = {}, np.ones(len(rows), dtype=bool)
    for c in columns:
        values[c], usable = _parse_column(
            list(map(itemgetter(index[c]), rows)), kinds.get(c))
        keep &= usable
    n_rows = int(keep.sum())
    if not n_rows:
        raise SpecificationError(f"{path}: no usable rows after filtering")

    table = DatasetTable(columns=columns, n_rows=n_rows,
                         n_dropped=len(rows) - n_rows)
    for c, column in values.items():
        if isinstance(column, np.ndarray):
            table.numeric[c] = column[keep]
        else:
            kept = list(compress(column, keep.tolist()))
            table.categorical[c] = kept
            table.levels[c] = tuple(sorted(set(kept)))
    return table


def ingest_csv(path, config: ModelConfig) -> DatasetTable:
    """Read the columns ``config`` references, inferring each column's kind."""
    return _read_table(path, config.referenced_columns, {})


def table_from_schema(path, schema: dict, require_response: bool) -> DatasetTable:
    """Read the columns of a stored schema (predict/residuals), kinds replayed.

    ``design_matrices`` then replays the categorical level sets.
    """
    kinds = {t["name"]: t["kind"] for t in schema["columns"]}
    columns = tuple(kinds)
    if require_response:
        kinds[schema["response"]] = "numeric"
        columns = tuple(dict.fromkeys((schema["response"], *columns)))
    return _read_table(path, columns, kinds)


def _design_columns(schema: dict, key: str):
    """(term, level) of each column of the ``schema[key]`` design after the
    intercept: level None for a numeric term, and for a categorical term one
    dummy per level after the first, the reference."""
    columns = {c["name"]: c for c in schema["columns"]}
    for term in schema[key]:
        if columns[term]["kind"] == "numeric":
            yield term, None
        else:
            yield from ((term, level) for level in columns[term]["levels"][1:])


def _design_names(schema: dict, key: str) -> tuple[str, ...]:
    return ("(Intercept)", *(term if level is None else f"{term}{level}"
                             for term, level in _design_columns(schema, key)))


def design_matrices(table: DatasetTable, schema: dict
                    ) -> tuple[np.ndarray, np.ndarray, tuple[str, ...], tuple[str, ...]]:
    """(W, Z, mu_names, sigma_names): the intercepted designs under ``schema``.

    Categorical columns dummy-code against the schema's levels, so a file
    with, say, a single origin level still gets every trained column; an
    unseen level is an error naming it.
    """
    for column in schema["columns"]:
        if column["kind"] == "categorical":
            unknown = sorted(set(table.categorical[column["name"]]) - set(column["levels"]))
            if unknown:
                raise SpecificationError(
                    f"column {column['name']}: unknown level(s) {', '.join(unknown)}")
    # as Python str, which numpy's str type is not: it drops trailing NULs
    cells = {c: np.array(v, dtype=object) for c, v in table.categorical.items()}

    def design(key: str) -> np.ndarray:
        return np.column_stack([np.ones(table.n_rows)] + [
            table.numeric[term] if level is None else
            (cells[term] == np.array(level, dtype=object)).astype(float)
            for term, level in _design_columns(schema, key)])
    return (design("mu_terms"), design("sigma_terms"),
            _design_names(schema, "mu_terms"), _design_names(schema, "sigma_terms"))


def build_design(table: DatasetTable, config: ModelConfig) -> ModelSpec:
    """Assemble the ModelSpec: response and the designs of ``design_schema``.

    ModelSpec checks the responses and the design shapes; ``fit`` checks
    that the coefficients are estimable, naming any dependent column.
    """
    if config.response not in table.columns:
        raise SpecificationError(f"response column {config.response} not in table")
    if not table.is_numeric(config.response):
        raise SpecificationError(
            f"response column {config.response} must be numeric"
        )
    return ModelSpec(table.numeric[config.response],
                     *design_matrices(table, design_schema(table, config)))


def design_schema(table: DatasetTable, config: ModelConfig) -> dict:
    """JSON-ready description of how prediction data must be interpreted."""
    terms = []
    for term in dict.fromkeys(config.mu_terms + config.sigma_terms):
        terms.append({"name": term, "kind": "numeric"} if table.is_numeric(term) else
                     {"name": term, "kind": "categorical",
                      "levels": list(table.levels[term])})
    return {
        "response": config.response,
        "mu_terms": list(config.mu_terms),
        "sigma_terms": list(config.sigma_terms),
        "columns": terms,
    }


def model_document(model: FittedModel, schema: dict) -> str:
    """The text of a model file: ``model`` and the ``design_schema`` its data
    were read by, as sorted, indented JSON; ``read_model`` reads it back."""
    return json.dumps({
        "format": _MODEL_FORMAT,
        "version": __version__,
        "schema": schema,
        "coefficients": list(model.coef_names),
        "n_mu_coefs": model.n_mu_coefs,
        "estimates": model.theta_hat.tolist(),
        "std_errors": model.std_errors.tolist(),
        "z_stats": model.z_stats.tolist(),
        "p_values": model.p_values.tolist(),
        "info_inverse": model.info_inverse.tolist(),
        "loglik": model.loglik_at_optimum,
        "converged": model.converged,
        "iterations": model.iterations,
        "gradient_max_norm": model.gradient_max_norm,
        "n_obs": model.n_obs,
    }, indent=2, sort_keys=True) + "\n"


def _is_names(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def read_model(path) -> tuple[FittedModel, dict]:
    """(model, schema) of a ``model_document`` file, or SpecificationError
    naming the file and its first fault: an entry missing or not of its JSON
    type, a schema unlike those ``design_schema`` writes, or arrays and
    coefficient names that disagree with each other or with the schema's
    designs.  The derived ``std_errors``, ``z_stats`` and ``p_values`` are
    not read."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # not UTF-8, or not JSON
            raise SpecificationError(f"{path} is not a JSON file: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecificationError(f"{path} holds a JSON {type(doc).__name__}, not an object")
    if doc.get("format") != _MODEL_FORMAT:
        raise SpecificationError(f"{path} is not a {_MODEL_FORMAT} file")

    def entry(key: str, types=(int,), what="integer"):
        if type(doc[key]) not in types:  # exact: a JSON true is no integer
            raise TypeError(f"{key!r} is not a JSON {what}")
        return doc[key]

    def numbers(key: str) -> np.ndarray:
        # dtype=float would take "1.5" and true; null reads as nan, standard
        # JSON's stand-in for the NaN an unconverged fit writes
        values = np.array(doc[key], dtype=object)
        if not all(v is None or type(v) in (int, float) for v in values.flat):
            raise TypeError(f"{key!r} is not an array of JSON numbers")
        return values.astype(float)

    try:
        model = FittedModel(
            theta_hat=numbers("estimates"),
            info_inverse=numbers("info_inverse"),
            loglik_at_optimum=float(entry("loglik", (int, float), "number")),
            converged=entry("converged", (bool,), "boolean"),
            iterations=entry("iterations"),
            gradient_max_norm=float(entry("gradient_max_norm", (int, float), "number")),
            n_mu_coefs=entry("n_mu_coefs"),
            n_obs=entry("n_obs"),
            coef_names=tuple(doc["coefficients"]),
        )
        schema = doc["schema"]
    except KeyError as exc:
        raise SpecificationError(f"{path} has no {exc} entry") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise SpecificationError(f"{path} has an entry of the wrong type: {exc}") from exc

    def bad(what: str) -> SpecificationError:
        return SpecificationError(f"{path} has a model schema {what}")

    if not isinstance(schema, dict):
        raise bad("that is not an object")
    if not isinstance(schema.get("response"), str):
        raise bad("without a response name")
    for key in ("mu_terms", "sigma_terms"):
        if not _is_names(schema.get(key)):
            raise bad(f"whose {key!r} is not a list of names")
    columns = schema.get("columns")
    if not isinstance(columns, list):
        raise bad("without a 'columns' list")
    for column in columns:
        if not (isinstance(column, dict) and isinstance(column.get("name"), str)):
            raise bad("with a column entry that has no name")
        kind = column.get("kind")
        if kind == "categorical" and not _is_names(column.get("levels")):
            raise bad(f"whose categorical column {column['name']!r} has no levels")
        if kind not in ("numeric", "categorical"):
            raise bad(f"whose column {column['name']!r} has kind {kind!r}")
        if column["name"] == schema["response"] and kind != "numeric":
            raise bad(f"whose response column {column['name']!r} is not numeric")
    named = {column["name"] for column in columns}
    for term in schema["mu_terms"] + schema["sigma_terms"]:
        if term not in named:
            raise bad(f"whose term {term!r} has no column entry")

    names, p = doc["coefficients"], len(model.coef_names)
    mu_names = _design_names(schema, "mu_terms")
    designed = [f"mu.{n}" for n in mu_names] + [
        f"sigma.{n}" for n in _design_names(schema, "sigma_terms")]
    for fault, what in (  # the first fault is reported
            (not (_is_names(names) and len(set(names)) == p),
             "coefficients are not distinct names"),
            (model.theta_hat.shape != (p,) or not np.isfinite(model.theta_hat).all(),
             f"estimates are not {p} finite numbers, one per coefficient"),
            (not 1 <= model.n_mu_coefs < p, f"n_mu_coefs is not in [1, {p})"),
            # nan entries allowed: unconverged fits
            (model.info_inverse.shape != (p, p), f"info_inverse is not {p} x {p}"),
            (model.n_mu_coefs != len(mu_names),
             f"n_mu_coefs is not {len(mu_names)}, the median columns of its schema"),
            (names != designed,
             f"coefficients are not its schema's design names {', '.join(designed)}")):
        if fault:
            raise SpecificationError(f"{path}: {what}")
    return model, schema
