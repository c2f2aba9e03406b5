"""CSV ingestion and design-matrix construction for the CLI.

Input files are UTF-8 CSV with a header row, comma delimiter and '.' decimal
mark.  Only the columns a model references are retained.  A referenced column
is numeric when most of its non-missing cells parse as numbers; anything else
is categorical, with levels sorted lexicographically and the first level used
as the dummy-coding reference.  Rows with missing or unparseable cells in a
referenced column are dropped, and the drop count is reported on the table.
"""

from __future__ import annotations

import csv
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
        object.__setattr__(
            self, "mu_terms", tuple(t for t in self.mu_terms if t != "1")
        )
        object.__setattr__(
            self, "sigma_terms", tuple(t for t in self.sigma_terms if t != "1")
        )

    @property
    def referenced_columns(self) -> tuple[str, ...]:
        seen: dict[str, None] = {self.response: None}
        for t in self.mu_terms + self.sigma_terms:
            seen.setdefault(t, None)
        return tuple(seen)


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
    try:
        v = float(cell)
    except ValueError:
        return None
    return v if np.isfinite(v) else None


def _read_rows(path) -> tuple[list[str], list[list[str]]]:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise SpecificationError(f"{path}: file is empty") from None
            rows = [row for row in reader if row]
    except OSError as exc:
        raise OSError(f"cannot read dataset {path}: {exc}") from exc
    return [h.strip() for h in header], rows


def ingest_csv(path, config: ModelConfig, kinds: dict[str, str] | None = None
               ) -> DatasetTable:
    """Read the referenced columns of a CSV file into a DatasetTable.

    ``kinds`` optionally pins columns to "numeric" or "categorical" (used when
    replaying a stored model schema); other columns get type inference.
    """
    header, rows = _read_rows(path)
    index = {name: i for i, name in enumerate(header)}
    wanted = config.referenced_columns
    missing_cols = [c for c in wanted if c not in index]
    if missing_cols:
        raise SpecificationError(
            f"{path}: referenced column(s) not found: {', '.join(missing_cols)}"
        )
    for row in rows:
        if len(row) != len(header):
            raise SpecificationError(
                f"{path}: row with {len(row)} cells does not match the header"
            )

    cells = {c: [row[index[c]].strip() for row in rows] for c in wanted}

    # Type inference: numeric when a majority of non-missing cells parse.
    kinds = kinds or {}
    numeric_cols: list[str] = []
    for c in wanted:
        if c in kinds:
            if kinds[c] == "numeric":
                numeric_cols.append(c)
            continue
        values = [v for v in cells[c] if v not in _MISSING]
        parsed = sum(1 for v in values if _try_float(v) is not None)
        if values and parsed * 2 > len(values):
            numeric_cols.append(c)

    keep = []
    for i in range(len(rows)):
        ok = True
        for c in wanted:
            v = cells[c][i]
            if v in _MISSING or (c in numeric_cols and _try_float(v) is None):
                ok = False
                break
        if ok:
            keep.append(i)

    if not keep:
        raise SpecificationError(f"{path}: no usable rows after filtering")

    table = DatasetTable(columns=wanted, n_rows=len(keep),
                         n_dropped=len(rows) - len(keep))
    for c in wanted:
        kept = [cells[c][i] for i in keep]
        if c in numeric_cols:
            table.numeric[c] = np.array([float(v) for v in kept])
        else:
            table.categorical[c] = kept
            table.levels[c] = tuple(sorted(set(kept)))
    return table


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


def build_design(table: DatasetTable, config: ModelConfig) -> ModelSpec:
    """Assemble the ModelSpec: response and intercepted, named designs.

    ModelSpec checks positivity and rank, naming any dependent column.
    """
    if config.response not in table.columns:
        raise SpecificationError(f"response column {config.response} not in table")
    if not table.is_numeric(config.response):
        raise SpecificationError(
            f"response column {config.response} must be numeric"
        )
    W, mu_names = _design_matrix(table, config.mu_terms, table.levels)
    Z, sigma_names = _design_matrix(table, config.sigma_terms, table.levels)
    return ModelSpec(
        response=table.numeric[config.response],
        mu_design=W,
        sigma_design=Z,
        mu_names=mu_names,
        sigma_names=sigma_names,
    )


def design_schema(table: DatasetTable, config: ModelConfig) -> dict:
    """JSON-ready description of how prediction data must be interpreted."""
    terms = []
    seen = set()
    for term in config.mu_terms + config.sigma_terms:
        if term in seen:
            continue
        seen.add(term)
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


def table_from_schema(path, schema: dict, require_response: bool) -> DatasetTable:
    """Ingest a CSV against a stored schema (used by predict/residuals).

    Column kinds are replayed from the schema rather than re-inferred;
    ``prediction_designs`` then replays the categorical level sets.
    """
    terms = tuple(t["name"] for t in schema["columns"])
    kinds = {t["name"]: t["kind"] for t in schema["columns"]}
    if require_response:
        config = ModelConfig(response=schema["response"], mu_terms=terms)
        kinds[schema["response"]] = "numeric"
    elif terms:
        config = ModelConfig(response=terms[0], mu_terms=terms)
    else:
        # Intercept-only model: only the row count matters.
        _, rows = _read_rows(path)
        if not rows:
            raise SpecificationError(f"{path}: no data rows")
        return DatasetTable(columns=(), n_rows=len(rows), n_dropped=0)
    return ingest_csv(path, config, kinds=kinds)


def prediction_designs(table: DatasetTable, schema: dict
                       ) -> tuple[np.ndarray, np.ndarray]:
    """(mu_design, sigma_design) for new data under a stored schema.

    Categorical columns dummy-code against the training levels, so a file
    with, say, a single origin level still gets every trained column; an
    unseen level is an error naming it.
    """
    levels = {
        t["name"]: tuple(t["levels"])
        for t in schema["columns"]
        if t["kind"] == "categorical"
    }
    W, _ = _design_matrix(table, tuple(schema["mu_terms"]), levels)
    Z, _ = _design_matrix(table, tuple(schema["sigma_terms"]), levels)
    return W, Z
