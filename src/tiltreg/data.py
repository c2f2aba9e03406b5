"""CSV ingestion and design-matrix construction for the CLI.

Input files are UTF-8 CSV, with or without a leading byte-order mark, with a
header row, comma delimiter and '.' decimal mark.  Only the columns a model
references are retained.  A referenced column is numeric when most of its
non-missing cells parse as numbers; anything else is categorical, with levels
sorted lexicographically and the first level used as the dummy-coding
reference.  Data read against a stored model schema takes the kinds and levels
from it.  Rows with missing or unparseable cells in a referenced column are
dropped, and the drop count is reported on the table.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SpecificationError
from .regression import ModelSpec

_MISSING = {"", "NA", "NaN", "nan", "N/A", "null", "NULL"}


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


def _read_table(path, columns: tuple[str, ...], kinds: dict[str, str]
                ) -> DatasetTable:
    """Read ``columns`` of a CSV file into a DatasetTable, parsing each cell once.

    A column named in ``kinds`` has that kind, "numeric" or "categorical";
    any other is numeric when most of its non-missing cells parse.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = [h.strip() for h in next(reader)]
            except StopIteration:
                raise SpecificationError(f"{path}: file is empty") from None
            rows = [row for row in reader if row]
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
    for row in rows:
        if len(row) != len(header):
            raise SpecificationError(
                f"{path}: row with {len(row)} cells does not match the header"
            )

    # Each column's cells as values, None where the row must be dropped.
    values: dict[str, list] = {}
    numeric_cols = set()
    for c in columns:
        cells = [row[index[c]].strip() for row in rows]
        if kinds.get(c) != "categorical":
            numbers = [_try_float(v) for v in cells]
            parsed = len(numbers) - numbers.count(None)
            if kinds.get(c) == "numeric" or parsed * 2 > sum(
                    v not in _MISSING for v in cells):
                values[c] = numbers
                numeric_cols.add(c)
                continue
        values[c] = [None if v in _MISSING else v for v in cells]

    keep = [i for i in range(len(rows))
            if all(column[i] is not None for column in values.values())]
    if not keep:
        raise SpecificationError(f"{path}: no usable rows after filtering")

    table = DatasetTable(columns=columns, n_rows=len(keep),
                         n_dropped=len(rows) - len(keep))
    for c, column in values.items():
        kept = [column[i] for i in keep]
        if c in numeric_cols:
            table.numeric[c] = np.array(kept)
        else:
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


def _dummy_columns(
    values: list[str], levels: tuple[str, ...], column: str
) -> tuple[list[np.ndarray], list[str]]:
    """Dummy-code against the first (reference) level; k levels -> k-1 columns."""
    unknown = sorted(set(values) - set(levels))
    if unknown:
        raise SpecificationError(
            f"column {column}: unknown level(s) {', '.join(unknown)}"
        )
    cols, names = [], []
    for level in levels[1:]:
        cols.append(np.array([1.0 if v == level else 0.0 for v in values]))
        names.append(f"{column}{level}")
    return cols, names


def _design_matrix(
    table: DatasetTable,
    terms: tuple[str, ...],
    levels: dict[str, tuple[str, ...]],
) -> tuple[np.ndarray, tuple[str, ...]]:
    cols = [np.ones(table.n_rows)]
    names = ["(Intercept)"]
    for term in terms:
        if table.is_numeric(term):
            cols.append(table.numeric[term])
            names.append(term)
        else:
            dummies, dnames = _dummy_columns(
                table.categorical[term], levels[term], term
            )
            cols.extend(dummies)
            names.extend(dnames)
    return np.column_stack(cols), tuple(names)


def design_matrices(table: DatasetTable, schema: dict
                    ) -> tuple[np.ndarray, np.ndarray, tuple[str, ...], tuple[str, ...]]:
    """(W, Z, mu_names, sigma_names): the intercepted designs under ``schema``.

    Categorical columns dummy-code against the schema's levels, so a file
    with, say, a single origin level still gets every trained column; an
    unseen level is an error naming it.
    """
    levels = {t["name"]: tuple(t["levels"])
              for t in schema["columns"] if t["kind"] == "categorical"}
    W, mu_names = _design_matrix(table, tuple(schema["mu_terms"]), levels)
    Z, sigma_names = _design_matrix(table, tuple(schema["sigma_terms"]), levels)
    return W, Z, mu_names, sigma_names


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
        if table.is_numeric(term):
            terms.append({"name": term, "kind": "numeric"})
        else:
            terms.append(
                {"name": term, "kind": "categorical",
                 "levels": list(table.levels[term])}
            )
    return {
        "response": config.response,
        "mu_terms": list(config.mu_terms),
        "sigma_terms": list(config.sigma_terms),
        "columns": terms,
    }


def _is_names(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _check_schema(path, schema) -> dict:
    """Return ``schema`` if it has the layout ``design_schema`` writes.

    Otherwise raise SpecificationError naming the file and the first entry
    that is missing or of the wrong type.
    """
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
    named = {column["name"] for column in columns}
    for term in schema["mu_terms"] + schema["sigma_terms"]:
        if term not in named:
            raise bad(f"whose term {term!r} has no column entry")
    return schema
