import csv
import dataclasses
import hashlib
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tiltreg import (
    ExponentialBaseline,
    FittedModel,
    ModelConfig,
    SpecificationError,
    TiltedDistribution,
    build_design,
    design_schema,
    fit,
    ingest_csv,
)
from tiltreg import regression
from tiltreg.cli import main
from tiltreg.data import (
    _MISSING, DatasetTable, _read_table, design_matrices, model_document, read_model,
    table_from_schema,
)


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

def _oracle_try_float(cell):
    try:
        v = float(cell)
    except ValueError:
        return None
    return v if math.isfinite(v) else None


def _oracle_read_table(path, columns, kinds):
    """The reader's rule cell by cell: every cell stripped and parsed once."""
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
            f"{path}: referenced column(s) not found: {', '.join(missing_cols)}")
    repeated = [c for c in columns if header.count(c) > 1]
    if repeated:
        raise SpecificationError(
            f"{path}: referenced column(s) named more than once in the header: "
            f"{', '.join(repeated)}")
    for row in rows:
        if len(row) != len(header):
            raise SpecificationError(
                f"{path}: row with {len(row)} cells does not match the header")
    values, numeric_cols = {}, set()
    for c in columns:
        cells = [row[index[c]].strip() for row in rows]
        if kinds.get(c) != "categorical":
            numbers = [_oracle_try_float(v) for v in cells]
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


def assert_reads_like_oracle(path, columns, kinds=None):
    """_read_table gives the oracle's table, numbers compared by bits, or
    refuses the file with the oracle's message."""
    kinds = kinds or {}
    try:
        expected = _oracle_read_table(path, columns, kinds)
    except SpecificationError as exc:
        with pytest.raises(SpecificationError) as raised:
            _read_table(path, columns, kinds)
        assert str(raised.value) == str(exc)
        return None
    table = _read_table(path, columns, kinds)
    assert (table.columns, table.n_rows, table.n_dropped) == (
        expected.columns, expected.n_rows, expected.n_dropped)
    assert table.numeric.keys() == expected.numeric.keys()
    for c, values in expected.numeric.items():
        assert table.numeric[c].dtype == values.dtype == np.float64
        assert table.numeric[c].tobytes() == values.tobytes(), c
    assert table.categorical == expected.categorical
    assert table.levels == expected.levels
    return table


def write_cells(path, header, rows, prefix=""):
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows([header, *rows])
    path.write_text(prefix + buffer.getvalue(), encoding="utf-8")
    return path


# float's spellings, every missing marker, text, and cells that hold commas
CELLS = tuple(dict.fromkeys((
    " 2.5 ", "\xa02.5", "\x1c2.5\x1f", "1_000", "1e400", "-Infinity", "nan", " NaN ",
    "inf", "-0", "3", "0x10", "a", " b ", "a,b", "\u30002", *sorted(_MISSING))))

class TestIngest:
    def test_lime_shape_and_levels(self, lime_table):
        assert lime_table.n_rows == 385
        assert lime_table.n_dropped == 0
        assert lime_table.levels["Origin"] == ("Coppice", "Natural", "Planted")
        assert lime_table.is_numeric("Foliage")
        assert lime_table.is_numeric("Age")

    def test_bad_response_row_dropped(self, tmp_path, capsys):
        csv = tmp_path / "d.csv"
        csv.write_text("y,x\n1.0,2.0\noops,3.0\n2.5,4.0\n", encoding="utf-8")
        table = ingest_csv(csv, ModelConfig(response="y", mu_terms=("x",)))
        assert table.n_rows == 2
        assert table.n_dropped == 1

    def test_missing_cells_dropped(self, tmp_path):
        csv = tmp_path / "d.csv"
        csv.write_text("y,x\n1.0,2.0\n2.0,NA\n2.5,\n3.0,4.0\n", encoding="utf-8")
        table = ingest_csv(csv, ModelConfig(response="y", mu_terms=("x",)))
        assert table.n_rows == 2
        assert table.n_dropped == 2

    def test_exponent_notation(self, tmp_path):
        csv = tmp_path / "d.csv"
        csv.write_text("y\n1.5e-2\n2.0\n3.0\n", encoding="utf-8")
        table = ingest_csv(csv, ModelConfig(response="y"))
        assert table.numeric["y"][0] == pytest.approx(0.015)

    def test_missing_column(self, tmp_path):
        csv = tmp_path / "d.csv"
        csv.write_text("y\n1.0\n", encoding="utf-8")
        with pytest.raises(SpecificationError, match="nope"):
            ingest_csv(csv, ModelConfig(response="y", mu_terms=("nope",)))

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            ingest_csv(tmp_path / "absent.csv", ModelConfig(response="y"))

    def test_empty_after_filtering(self, tmp_path):
        csv = tmp_path / "d.csv"
        csv.write_text("y\nNA\nNA\n", encoding="utf-8")
        with pytest.raises(SpecificationError, match="no usable rows"):
            ingest_csv(csv, ModelConfig(response="y"))


class TestIngestMatchesTheCellByCellRule:
    """The column-at-a-time reader against a copy of the cell-by-cell one."""

    KINDS = ({}, {"x": "numeric"}, {"x": "categorical"})

    @pytest.mark.parametrize("kinds", KINDS)
    @pytest.mark.parametrize("cell", CELLS)
    def test_each_cell_among_numbers(self, cell, kinds, tmp_path):
        # one odd cell in a numeric column: the fast path or its fallback
        rows = [[f"{i + 1}.5", "1.25"] for i in range(5)] + [[cell, "2"]]
        path = write_cells(tmp_path / "d.csv", ["x", "y"], rows)
        assert_reads_like_oracle(path, ("y", "x"), kinds)

    @pytest.mark.parametrize("kinds", KINDS)
    @pytest.mark.parametrize("cell", CELLS)
    def test_each_cell_among_text(self, cell, kinds, tmp_path):
        rows = [["p"], ["q"], [" p "], [cell]]
        path = write_cells(tmp_path / "d.csv", ["x"], rows)
        assert_reads_like_oracle(path, ("x",), kinds)

    def test_float_spellings_on_the_fast_path(self, tmp_path):
        cells = [" 2.5 ", "\xa02.5", "1_000", "1e400", "-Infinity", "nan", " NaN ", "7"]
        path = write_cells(tmp_path / "d.csv", ["x"], [[c] for c in cells])
        table = assert_reads_like_oracle(path, ("x",))
        assert table.numeric["x"].tolist() == [2.5, 2.5, 1000.0, 7.0]
        assert table.n_dropped == 4

    @pytest.mark.parametrize("kinds", KINDS)
    def test_every_missing_marker(self, kinds, tmp_path):
        markers = sorted(_MISSING)
        rows = [[m, "1"] for m in markers] + [[f"{i}.5", "2"] for i in range(10)]
        path = write_cells(tmp_path / "d.csv", ["x", "y"], rows)
        table = assert_reads_like_oracle(path, ("y", "x"), kinds)
        assert table.n_dropped == len(markers)

    def test_quoted_cells_that_hold_commas(self, tmp_path):
        rows = [["1.0", "a,b"], ["2.0", "c"], ["3.0", " a,b "], ["1,5", "c"]]
        path = write_cells(tmp_path / "d.csv", ["y", "g"], rows)
        table = assert_reads_like_oracle(path, ("y", "g"))
        assert table.levels["g"] == ("a,b", "c") and table.n_dropped == 1

    @pytest.mark.parametrize("cells, numeric", [
        (["1.5", "2", "4", "inf", "a", "NA"], True),  # 3 numbers of 5 cells
        (["1.5", "2", "inf", "a", "NA"], False),  # 2 of 4: a tie
        (["1.5", "2", "inf", "a", "b", "NA"], False),  # 2 of 5
    ])
    def test_columns_either_side_of_the_majority_rule(self, cells, numeric, tmp_path):
        # "inf" parses but is no number; the marker is not counted
        path = write_cells(tmp_path / "d.csv", ["x"], [[c] for c in cells])
        table = assert_reads_like_oracle(path, ("x",))
        assert table.is_numeric("x") == numeric

    def test_byte_order_mark_and_blank_lines(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("\ufeffy,g\n1.5,a\n\n2.5,b\n\n\n3.5,a\n", encoding="utf-8")
        table = assert_reads_like_oracle(path, ("y", "g"))
        assert (table.n_rows, table.levels["g"]) == (3, ("a", "b"))

    @pytest.mark.parametrize("text, columns, message", [
        ("y\n1.0\n", ("y", "nope", "gone"), "referenced column(s) not found: nope, gone"),
        ("y,x,x\n1,2,3\n", ("y", "x"),
         "referenced column(s) named more than once in the header: x"),
        ("y,x\n1,2\n1\n1,2,3\n", ("y",), "row with 1 cells does not match the header"),
        ("", ("y",), "file is empty"),
        ("y,g\nNA,a\n2,NA\n", ("y", "g"), "no usable rows after filtering"),
    ])
    def test_refusals_keep_their_messages(self, text, columns, message, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(text, encoding="utf-8")
        assert assert_reads_like_oracle(path, columns) is None
        with pytest.raises(SpecificationError) as raised:
            _read_table(path, columns, {})
        assert str(raised.value) == f"{path}: {message}"

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=st.lists(st.lists(st.sampled_from(CELLS), min_size=3, max_size=3),
                         max_size=12),
           kinds=st.lists(st.sampled_from([None, "numeric", "categorical"]),
                          min_size=2, max_size=2),
           prefix=st.sampled_from(["", "\ufeff"]))
    def test_any_table_of_the_cell_vocabulary(self, rows, kinds, prefix, tmp_path):
        path = write_cells(tmp_path / "h.csv", ["a", "b", "c"], rows, prefix)
        given_kinds = {c: k for c, k in zip("ab", kinds) if k}
        assert_reads_like_oracle(path, ("a", "b", "c"), given_kinds)
        assert_reads_like_oracle(path, ("c", "a"), {})


# ---------------------------------------------------------------------------
# design construction
# ---------------------------------------------------------------------------

class TestBuildDesign:
    def test_lime_design_shapes(self, lime_spec):
        assert lime_spec.mu_design.shape == (385, 4)
        assert lime_spec.sigma_design.shape == (385, 1)
        assert lime_spec.mu_names == (
            "(Intercept)", "Age", "OriginNatural", "OriginPlanted"
        )
        assert lime_spec.sigma_names == ("(Intercept)",)

    def test_dummy_count(self, tmp_path):
        csv = tmp_path / "d.csv"
        csv.write_text(
            "y,g\n1.0,a\n2.0,b\n3.0,c\n4.0,a\n5.0,b\n6.0,c\n", encoding="utf-8"
        )
        config = ModelConfig(response="y", mu_terms=("g",))
        spec = build_design(ingest_csv(csv, config), config)
        # 3 levels -> intercept + 2 dummies
        assert spec.mu_design.shape[1] == 3
        assert spec.mu_names == ("(Intercept)", "gb", "gc")

    def test_dummy_columns_match_per_cell_coding(self, tmp_path):
        # "a\x00" is a level of its own, though a numpy str array drops the NUL
        levels = ["a", "a\x00", "b", "a,b"]
        rows = [[f"{i + 1}.0", levels[i % 4]] for i in range(12)]
        config = ModelConfig(response="y", mu_terms=("g",))
        table = ingest_csv(write_cells(tmp_path / "d.csv", ["y", "g"], rows), config)
        assert table.levels["g"] == ("a", "a\x00", "a,b", "b")
        expected = np.column_stack([np.ones(12)] + [
            np.array([1.0 if v == level else 0.0 for v in table.categorical["g"]])
            for level in table.levels["g"][1:]])
        assert build_design(table, config).mu_design.tobytes() == expected.tobytes()

    def test_reference_level_is_lexicographic_first(self, lime_spec):
        # coppice rows code to zero on both dummies
        natural = lime_spec.mu_design[:, 2]
        planted = lime_spec.mu_design[:, 3]
        assert set(np.unique(natural)) == {0.0, 1.0}
        assert np.all((natural + planted) <= 1.0)

    def test_collinear_columns_rejected_by_name(self, tmp_path):
        csv = tmp_path / "d.csv"
        rows = ["y,a,b"] + [f"{i + 1}.0,{i}.0,{2 * i}.0" for i in range(8)]
        csv.write_text("\n".join(rows) + "\n", encoding="utf-8")
        config = ModelConfig(response="y", mu_terms=("a", "b"))
        spec = build_design(ingest_csv(csv, config), config)
        with pytest.raises(SpecificationError, match="b"):
            fit(spec)

    def test_nonpositive_response_rejected(self, tmp_path):
        csv = tmp_path / "d.csv"
        csv.write_text("y\n1.0\n-2.0\n3.0\n", encoding="utf-8")
        config = ModelConfig(response="y")
        with pytest.raises(SpecificationError, match="positive"):
            build_design(ingest_csv(csv, config), config)


# ---------------------------------------------------------------------------
# CLI end to end
# ---------------------------------------------------------------------------

LIME_TABLE = [
    "",
    "  coefficient          estimate  std. error    z-stat   p-value",
    "  mu.(Intercept)         -1.578       0.131   -12.030    <0.001",
    "  mu.Age                  0.035       0.002    16.599    <0.001",
    "  mu.OriginNatural       -0.402       0.097    -4.159    <0.001",
    "  mu.OriginPlanted        0.491       0.132     3.727    <0.001",
    "  sigma.(Intercept)      -1.908       0.328    -5.818    <0.001",
]


def run_fit(tmp_path, lime_path, extra=()):
    out = tmp_path / "model.json"
    code = main([
        "fit", "--data", str(lime_path), "--response", "Foliage",
        "--mu", "Age", "Origin", "--out", str(out), *extra,
    ])
    return code, out


class TestFitCommand:
    def test_lime_fit_table_and_exit_code(self, tmp_path, lime_path, capsys):
        code, out = run_fit(tmp_path, lime_path)
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "Median regression fit (385 observations)"
        # the iteration count is left free: it belongs to the optimizer
        assert lines[1].startswith("  log-likelihood: -492.9301    iterations: ")
        assert lines[1].endswith("    converged: yes")
        assert lines[2:] == LIME_TABLE
        doc = json.loads(out.read_text())
        assert doc["converged"] is True
        assert len(doc["estimates"]) == 5

    def test_deterministic_outputs(self, tmp_path, lime_path, capsys):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        d1.mkdir(), d2.mkdir()
        outs = []
        for d in (d1, d2):
            code = main([
                "fit", "--data", str(lime_path), "--response", "Foliage",
                "--mu", "Age", "Origin",
                "--out", str(d / "model.json"),
                "--plots", str(d / "lime"),
            ])
            assert code == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert (d1 / "model.json").read_bytes() == (d2 / "model.json").read_bytes()
        assert (d1 / "lime_qq.svg").read_bytes() == (d2 / "lime_qq.svg").read_bytes()
        assert (d1 / "lime_worm.svg").read_bytes() == (d2 / "lime_worm.svg").read_bytes()

    def test_lime_plot_bytes_match_pinned_digests(self, tmp_path, lime_path, capsys):
        """The lime ``fit --plots`` SVGs and model file hash to the digests
        pinned here.

        Every SVG coordinate is printed to 0.01 px, so a last-bit libm
        difference does not move those bytes.  The model file prints every
        bit of the estimates and of the inverse information, so its digest
        also pins the fit.  A change that declares a change of plot or model
        output must update the digests with it.
        """
        code, model = run_fit(tmp_path, lime_path, ("--plots", str(tmp_path / "lime")))
        assert code == 0
        capsys.readouterr()
        files = {"qq": tmp_path / "lime_qq.svg", "worm": tmp_path / "lime_worm.svg",
                 "model": model}
        digests = {kind: hashlib.sha256(path.read_bytes()).hexdigest()
                   for kind, path in files.items()}
        assert digests == {
            "qq": "77123c78accf2a5d2924cbf08d87b5c32217726a8441236060e876572f5e3ee9",
            "worm": "3bfe580745afb1eee51649e4fce591c6cd004443c341d9523c1b3404db7915db",
            "model": "e00ef85e5dd495b942a37001e174dc9e5c9539cbfd6000a52bf4bf77921c9024",
        }

    def test_persistence_roundtrip_is_stable(self, tmp_path, lime_path):
        _, out = run_fit(tmp_path, lime_path)
        doc = json.loads(out.read_text())
        rewritten = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert rewritten.encode() == out.read_bytes()

    def test_nonconvergence_exit_code(self, tmp_path, lime_path, capsys,
                                      monkeypatch):
        monkeypatch.setattr(regression, "_MAX_ITER", 1)
        out = tmp_path / "model.json"
        code = main([
            "fit", "--data", str(lime_path), "--response", "Foliage",
            "--mu", "Age", "Origin", "--out", str(out),
        ])
        assert code == 2
        capsys.readouterr()

    def test_nonconvergence_prints_no_python_warning(self, tmp_path, lime_path,
                                                     capsys, monkeypatch):
        # fit reports it through its error line and exit code, residuals
        # through one warning line; neither lets a Python warning through
        monkeypatch.setattr(regression, "_MAX_ITER", 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, model_path = run_fit(tmp_path, lime_path,
                                       ("--plots", str(tmp_path / "lime")))
            fit_err = capsys.readouterr().err
            res_code = main(["residuals", "--model", str(model_path),
                             "--data", str(lime_path),
                             "--out", str(tmp_path / "res.csv")])
            res_err = capsys.readouterr().err
        assert code == 2
        assert [line.split(" (")[0] for line in fit_err.splitlines()] == [
            "error: optimizer did not converge"]
        assert res_code == 0
        assert res_err == ("warning: the model did not converge; residuals are "
                           "from its last iterate\n")

    def test_wide_values_keep_their_columns(self, tmp_path, capsys, monkeypatch):
        # One response of 1e300 makes the log-likelihood and the z-stats far
        # wider than their fixed-point fields: they print in e-notation, and
        # every cell stays a token of its own.
        monkeypatch.setattr(regression, "_MAX_ITER", 3)
        csv = tmp_path / "outlier.csv"
        rows = [f"{1 + k / 100:.2f}" for k in range(49)] + ["1e300"]
        csv.write_text("y\n" + "\n".join(rows) + "\n", encoding="utf-8")
        code = main(["fit", "--data", str(csv), "--response", "y",
                     "--out", str(tmp_path / "model.json")])
        assert code == 2
        lines = capsys.readouterr().out.splitlines()
        loglik = lines[1].split()[1]
        assert float(loglik) < -1e290 and len(loglik) <= 12
        rows = lines[4:]
        assert [row.split()[0] for row in rows] == ["mu.(Intercept)",
                                                    "sigma.(Intercept)"]
        assert all(len(row.split()) == 5 for row in rows)
        assert abs(float(rows[0].split()[3])) > 1e100

    def test_byte_order_mark_is_accepted(self, tmp_path, lime_path, capsys):
        # a UTF-8 BOM before the header fits exactly like the plain file
        outputs = []
        for prefix in (b"", b"\xef\xbb\xbf"):
            folder = tmp_path / f"bom{len(prefix)}"
            folder.mkdir()
            data = folder / "lime.csv"
            data.write_bytes(prefix + lime_path.read_bytes())
            code, out = run_fit(folder, data)
            outputs.append((code, capsys.readouterr().out, out.read_bytes()))
        assert outputs[0][0] == 0
        assert outputs[1] == outputs[0]

    def test_iteration_cap_is_not_an_option(self, tmp_path, lime_path, capsys):
        out = tmp_path / "model.json"
        code = main([
            "fit", "--data", str(lime_path), "--response", "Foliage",
            "--out", str(out), "--max-iter", "1",
        ])
        assert code == 1
        assert "--max-iter" in capsys.readouterr().err
        assert not out.exists()

    def test_usage_error_exit_code(self, capsys):
        assert main(["fit", "--nonsense"]) == 1
        capsys.readouterr()

    def test_dropped_row_warning(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        rows = ["y"] + [f"{1.0 + 0.1 * i}" for i in range(40)] + ["oops"]
        data.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code = main(["fit", "--data", str(data), "--response", "y",
                     "--out", str(tmp_path / "m.json")])
        assert code == 0
        captured = capsys.readouterr()
        assert "dropped 1 row" in captured.err

    def test_seed_is_a_usage_error(self, tmp_path, lime_path, capsys):
        # fitting is deterministic, so fit takes no --seed
        out = tmp_path / "m.json"
        assert main([
            "fit", "--data", str(lime_path), "--response", "Foliage",
            "--mu", "Age", "Origin", "--out", str(out), "--seed", "1",
        ]) == 1
        err = capsys.readouterr().err
        assert "usage:" in err and "--seed" in err
        assert not out.exists()

    def test_missing_column_exit_code(self, tmp_path, lime_path, capsys):
        code = main([
            "fit", "--data", str(lime_path), "--response", "Missing",
            "--out", str(tmp_path / "m.json"),
        ])
        assert code == 1
        capsys.readouterr()

    def test_repeated_header_name_is_refused_where_referenced(
            self, tmp_path, lime_path, capsys):
        # DBH renamed to Age: two columns are named Age
        lines = lime_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "Foliage,DBH,Age,Origin"
        data = tmp_path / "twice.csv"
        data.write_text("\n".join(["Foliage,Age,Age,Origin", *lines[1:]]) + "\n",
                        encoding="utf-8")
        for mu, code in (("Age", 1), ("Origin", 0)):
            out = tmp_path / f"{mu}.json"
            assert main(["fit", "--data", str(data), "--response", "Foliage",
                         "--mu", mu, "--out", str(out)]) == code
            err = capsys.readouterr().err
            assert out.exists() == (code == 0)
            assert ("named more than once in the header: Age" in err) == (code == 1)

    def test_unwritable_output_exit_code(self, tmp_path, lime_path, capsys):
        code = main([
            "fit", "--data", str(lime_path), "--response", "Foliage",
            "--mu", "Age", "Origin",
            "--out", str(tmp_path / "no_dir" / "m.json"),
        ])
        assert code == 3
        capsys.readouterr()


class TestPredictCommand:
    @pytest.fixture()
    def model_path(self, tmp_path, lime_path):
        _, out = run_fit(tmp_path, lime_path)
        return out

    def test_training_rows_reproduce_fit(self, model_path, tmp_path, lime_path,
                                         lime_spec, lime_fit, capsys):
        out = tmp_path / "pred.csv"
        code = main(["predict", "--model", str(model_path),
                     "--data", str(lime_path), "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        rows = out.read_text().strip().splitlines()[1:]
        medians = np.array([float(r.split(",")[0]) for r in rows])
        expected = np.exp(lime_spec.mu_design @ lime_fit.mu_coefs)
        assert np.max(np.abs(medians - expected)) < 1e-12

    def test_age_shift_ratio(self, model_path, tmp_path, capsys):
        csv = tmp_path / "new.csv"
        csv.write_text(
            "Age,Origin\n20,Coppice\n30,Coppice\n", encoding="utf-8"
        )
        out = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(model_path),
                     "--data", str(csv), "--out", str(out)]) == 0
        capsys.readouterr()
        doc = json.loads(model_path.read_text())
        alpha_age = doc["estimates"][1]
        rows = out.read_text().strip().splitlines()[1:]
        med = [float(r.split(",")[0]) for r in rows]
        assert med[1] / med[0] == pytest.approx(math.exp(10 * alpha_age), rel=1e-12)
        assert 1.40 <= med[1] / med[0] <= 1.44

    def test_planted_vs_coppice_ratio(self, model_path, tmp_path, capsys):
        csv = tmp_path / "new.csv"
        csv.write_text(
            "Age,Origin\n25,Coppice\n25,Planted\n", encoding="utf-8"
        )
        out = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(model_path),
                     "--data", str(csv), "--out", str(out)]) == 0
        capsys.readouterr()
        rows = out.read_text().strip().splitlines()[1:]
        med = [float(r.split(",")[0]) for r in rows]
        assert 1.62 <= med[1] / med[0] <= 1.65

    @pytest.mark.parametrize("document, message", [
        ({"format": "tiltreg-model"}, "has no 'estimates' entry"),
        ([1, 2], "holds a JSON list, not an object"),
    ])
    def test_malformed_model_file(self, tmp_path, lime_path, capsys, document,
                                  message):
        model = tmp_path / "bad.json"
        model.write_text(json.dumps(document), encoding="utf-8")
        code = main(["predict", "--model", str(model),
                     "--data", str(lime_path), "--out", str(tmp_path / "p.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(model) in err and message in err

    @pytest.mark.parametrize("text", ["{", "\xff\xfe"], ids=["truncated", "binary"])
    def test_model_file_that_is_not_json(self, tmp_path, lime_path, capsys, text):
        model = tmp_path / "bad.json"
        model.write_bytes(text.encode("latin-1"))
        out = tmp_path / "p.csv"
        assert main(["predict", "--model", str(model),
                     "--data", str(lime_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model} is not a JSON file: ")
        assert not out.exists()

    @pytest.mark.parametrize("schema, message", [
        ({}, "model schema without a response name"),
        ({"response": "Foliage", "mu_terms": ["Origin"], "sigma_terms": [],
          "columns": [{"name": "Origin", "kind": "categorical"}]},
         "categorical column 'Origin' has no levels"),
        # the coefficients are those of Age then Origin
        ({"response": "Foliage", "mu_terms": ["Origin", "Age"], "sigma_terms": [],
          "columns": [{"name": "Age", "kind": "numeric"},
                      {"name": "Origin", "kind": "categorical",
                       "levels": ["Coppice", "Natural", "Planted"]}]},
         "coefficients are not its schema's design names mu.(Intercept), "
         "mu.OriginNatural, mu.OriginPlanted, mu.Age, sigma.(Intercept)"),
        ({"response": "Foliage", "mu_terms": ["Age"], "sigma_terms": ["Foliage"],
          "columns": [{"name": "Age", "kind": "numeric"},
                      {"name": "Foliage", "kind": "categorical", "levels": ["a"]}]},
         "response column 'Foliage' is not numeric"),
    ])
    def test_malformed_model_schema(self, model_path, tmp_path, lime_path,
                                    capsys, schema, message):
        doc = json.loads(model_path.read_text())
        doc["schema"] = schema
        model = tmp_path / "bad.json"
        model.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["predict", "--model", str(model),
                     "--data", str(lime_path), "--out", str(tmp_path / "p.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(model) in err and message in err

    @pytest.mark.parametrize("command", ["predict", "residuals"])
    @pytest.mark.parametrize("key, value, message", [
        ("estimates", [None] * 5, "estimates are not 5 finite numbers"),
        ("estimates", [0.1, 0.2, float("nan"), 0.3, 0.4],
         "estimates are not 5 finite numbers"),
        ("estimates", [0.1, 0.2, 0.3, 0.4], "estimates are not 5 finite numbers"),
        ("n_mu_coefs", 9, "n_mu_coefs is not in [1, 5)"),
        ("n_mu_coefs", 0, "n_mu_coefs is not in [1, 5)"),
        ("info_inverse", [[1.0]], "info_inverse is not 5 x 5"),
        ("estimates", "abc", "has an entry of the wrong type"),
        ("info_inverse", [[1.0, 2.0], [3.0]], "has an entry of the wrong type"),
        ("coefficients", [1, 2, 3, 4, 5], "coefficients are not distinct names"),
        ("coefficients", ["a", "a", "b", "c", "d"],
         "coefficients are not distinct names"),
        ("coefficients", "abcde", "coefficients are not distinct names"),
        ("coefficients", ["a", "b", "c", "d", None],
         "coefficients are not distinct names"),
        ("n_mu_coefs", 2, "n_mu_coefs is not 4, the median columns of its schema"),
        ("coefficients", ["mu.(Intercept)", "mu.OriginNatural", "mu.Age",
                          "mu.OriginPlanted", "sigma.(Intercept)"],
         "coefficients are not its schema's design names mu.(Intercept), mu.Age,"),
        ("converged", "no", "'converged' is not a JSON boolean"),
        ("converged", 1, "'converged' is not a JSON boolean"),
        ("iterations", 3.0, "'iterations' is not a JSON integer"),
        ("n_obs", "385", "'n_obs' is not a JSON integer"),
        ("n_mu_coefs", True, "'n_mu_coefs' is not a JSON integer"),
        ("loglik", "-492.9", "'loglik' is not a JSON number"),
    ], ids=["null-estimates", "nan-estimate", "short-estimates", "n-mu-9",
            "n-mu-0", "info-1x1", "text-estimates", "ragged-info", "number-names",
            "repeated-names", "one-string-names", "null-name", "n-mu-2",
            "permuted-names", "text-converged", "number-converged",
            "float-iterations", "text-n-obs", "boolean-n-mu", "text-loglik"])
    def test_inconsistent_model_arrays(self, model_path, tmp_path, lime_path,
                                       capsys, command, key, value, message):
        doc = json.loads(model_path.read_text())
        doc[key] = value
        model = tmp_path / "bad.json"
        model.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out.csv"
        code = main([command, "--model", str(model),
                     "--data", str(lime_path), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(model) in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "residuals"])
    @pytest.mark.parametrize("key, entries", [
        ("estimates", lambda values: [str(v) for v in values]),
        ("estimates", lambda values: [True] * len(values)),
        ("info_inverse", lambda rows: [[str(rows[0][0])] + rows[0][1:]] + rows[1:]),
        ("estimates", lambda values: [10**400] + values[1:]),
    ], ids=["text-estimates", "boolean-estimates", "one-text-info-entry",
            "overflowing-estimate"])
    def test_model_numbers_must_be_json_numbers(
            self, model_path, tmp_path, lime_path, capsys, command, key, entries):
        # "1.5" and true are no JSON numbers, though float() takes both
        doc = json.loads(model_path.read_text())
        doc[key] = entries(doc[key])
        model = tmp_path / "bad.json"
        model.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out.csv"
        code = main([command, "--model", str(model),
                     "--data", str(lime_path), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model} has an entry of the wrong type: ")
        assert not out.exists()

    def test_nan_information_of_an_unconverged_fit_is_accepted(
            self, model_path, tmp_path, lime_path, capsys):
        doc = json.loads(model_path.read_text())
        doc["info_inverse"] = [[float("nan")] * 5] * 5
        model = tmp_path / "nan_info.json"
        model.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "p.csv"
        assert main(["predict", "--model", str(model),
                     "--data", str(lime_path), "--out", str(out)]) == 0
        assert "nan" not in out.read_text()

    def test_unknown_level_named(self, model_path, tmp_path, capsys):
        csv = tmp_path / "new.csv"
        csv.write_text("Age,Origin\n25,Grafted\n", encoding="utf-8")
        code = main(["predict", "--model", str(model_path),
                     "--data", str(csv), "--out", str(tmp_path / "p.csv")])
        assert code == 1
        assert "Grafted" in capsys.readouterr().err


class TestModelFile:
    """``model_document`` and ``read_model`` are one format, read back whole."""

    @pytest.mark.parametrize("mu_terms, max_iter", [
        (("Age", "Origin"), 500),
        ((), 500),
        # two Newton iterations leave lime where J is not positive definite
        (("Age", "Origin"), 2),
    ], ids=["lime", "intercept-only", "unconverged"])
    def test_written_model_reads_back_field_by_field(
            self, tmp_path, lime_path, monkeypatch, mu_terms, max_iter):
        monkeypatch.setattr(regression, "_MAX_ITER", max_iter)
        config = ModelConfig(response="Foliage", mu_terms=mu_terms)
        table = ingest_csv(lime_path, config)
        schema = design_schema(table, config)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            model = fit(build_design(table, config))
        if max_iter == 2:
            assert not model.converged and np.isnan(model.info_inverse).all()
        else:
            assert model.converged
        path = tmp_path / "model.json"
        path.write_bytes(model_document(model, schema).encode("utf-8"))
        read, read_schema = read_model(path)
        assert read_schema == schema
        for f in dataclasses.fields(FittedModel):
            written, back = getattr(model, f.name), getattr(read, f.name)
            assert type(back) is type(written), f.name
            if isinstance(written, np.ndarray):
                assert back.shape == written.shape, f.name
                assert np.array_equal(back, written, equal_nan=True), f.name
            elif isinstance(written, float):
                assert repr(back) == repr(written), f.name
            else:
                assert back == written, f.name


class TestOneDataPath:
    """fit, predict and residuals read through one reader and one design builder."""

    def test_schema_replay_gives_the_fit_design_bitwise(self, lime_path):
        config = ModelConfig(response="Foliage", mu_terms=("Age", "Origin"))
        table = ingest_csv(lime_path, config)
        spec = build_design(table, config)
        schema = design_schema(table, config)
        W, Z, mu_names, sigma_names = design_matrices(
            table_from_schema(lime_path, schema, require_response=True), schema)
        assert W.shape == spec.mu_design.shape and Z.shape == spec.sigma_design.shape
        assert W.tobytes() == spec.mu_design.tobytes()
        assert Z.tobytes() == spec.sigma_design.tobytes()
        assert (mu_names, sigma_names) == (spec.mu_names, spec.sigma_names)

    @pytest.mark.parametrize("command", ["predict", "residuals"])
    def test_dropped_row_is_warned_and_not_written(self, command, tmp_path,
                                                   lime_path, capsys):
        _, model = run_fit(tmp_path, lime_path)
        lines = lime_path.read_text(encoding="utf-8").splitlines()
        age = lines[0].split(",").index("Age")
        cells = lines[5].split(",")
        cells[age] = "NA"
        lines[5] = ",".join(cells)
        data = tmp_path / "lime_na.csv"
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        out = tmp_path / "out.csv"
        assert main([command, "--model", str(model), "--data", str(data),
                     "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == (
            "warning: dropped 1 row(s) with missing or unparseable cells\n")
        assert captured.out.startswith("wrote 384 ")
        assert len(out.read_text().splitlines()) == 1 + 384

    def test_intercept_only_predict_checks_the_row_shape(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text(
            "y\n" + "\n".join(f"{0.5 + 0.3 * i}" for i in range(25)) + "\n",
            encoding="utf-8",
        )
        model = tmp_path / "m.json"
        assert main(["fit", "--data", str(data), "--response", "y",
                     "--out", str(model)]) == 0
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("y\n1.0\n2.0,3.0\n", encoding="utf-8")
        capsys.readouterr()
        out = tmp_path / "p.csv"
        assert main(["predict", "--model", str(model), "--data", str(ragged),
                     "--out", str(out)]) == 1
        assert "row with 2 cells does not match the header" in capsys.readouterr().err
        assert not out.exists()


class TestShapeCovariateEndToEnd:
    def test_fit_and_predict_with_sigma_term(self, tmp_path, capsys):
        from tiltreg import MedianTiltedExponential

        rng = np.random.default_rng(23)
        n = 400
        group = np.where(rng.uniform(size=n) < 0.5, "a", "b")
        rows = ["y,g"]
        for i, g in enumerate(group):
            sigma = 0.4 if g == "a" else 0.9
            y = float(MedianTiltedExponential(2.0, sigma).sample(1, seed=i)[0])
            rows.append(f"{y!r},{g}")
        data = tmp_path / "d.csv"
        data.write_text("\n".join(rows) + "\n", encoding="utf-8")
        model_path = tmp_path / "m.json"
        code = main([
            "fit", "--data", str(data), "--response", "y",
            "--sigma", "g", "--out", str(model_path),
        ])
        assert code == 0
        capsys.readouterr()
        out = tmp_path / "p.csv"
        pred_data = tmp_path / "new.csv"
        pred_data.write_text("g\na\nb\n", encoding="utf-8")
        assert main(["predict", "--model", str(model_path),
                     "--data", str(pred_data), "--out", str(out)]) == 0
        capsys.readouterr()
        rows = out.read_text().strip().splitlines()[1:]
        sig = [float(r.split(",")[1]) for r in rows]
        med = [float(r.split(",")[0]) for r in rows]
        assert med[0] == pytest.approx(med[1])  # mu is intercept-only
        assert sig[0] == pytest.approx(0.4, rel=0.35)
        assert sig[1] == pytest.approx(0.9, rel=0.35)


class TestInterceptOnlyEndToEnd:
    def test_fit_predict_residuals_round_trip(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text(
            "y\n" + "\n".join(f"{0.5 + 0.3 * i}" for i in range(25)) + "\n",
            encoding="utf-8",
        )
        model_path = tmp_path / "m.json"
        assert main(["fit", "--data", str(data), "--response", "y",
                     "--out", str(model_path)]) == 0
        pred = tmp_path / "p.csv"
        assert main(["predict", "--model", str(model_path),
                     "--data", str(data), "--out", str(pred)]) == 0
        res = tmp_path / "r.csv"
        assert main(["residuals", "--model", str(model_path),
                     "--data", str(data), "--out", str(res)]) == 0
        capsys.readouterr()
        doc = json.loads(model_path.read_text())
        pred_rows = pred.read_text().strip().splitlines()[1:]
        assert len(pred_rows) == 25
        medians = {float(r.split(",")[0]) for r in pred_rows}
        assert len(medians) == 1  # constant fitted median
        assert medians.pop() == pytest.approx(math.exp(doc["estimates"][0]),
                                              rel=1e-12)
        assert len(res.read_text().strip().splitlines()) == 26


class TestResidualsCommand:
    def test_residual_csv(self, tmp_path, lime_path, lime_spec, lime_fit, capsys):
        _, model_path = run_fit(tmp_path, lime_path)
        out = tmp_path / "res.csv"
        code = main(["residuals", "--model", str(model_path),
                     "--data", str(lime_path), "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "quantile_residual"
        values = np.array([float(v) for v in lines[1:]])
        from tiltreg import quantile_residuals

        assert np.allclose(values, quantile_residuals(lime_fit, lime_spec),
                           atol=1e-12)

    @pytest.mark.parametrize("subset", ["natural", "head"])
    def test_any_rows_with_the_model_columns(self, subset, tmp_path, lime_path,
                                             capsys):
        # 12 rows of one origin level (rank-deficient dummies) and 3 rows
        # (fewer than the 5 coefficients) are valid data for a fitted model:
        # each residual is the full file's residual of that row, bit for bit.
        _, model_path = run_fit(tmp_path, lime_path)
        header, *rows = lime_path.read_text(encoding="utf-8").splitlines()
        full = tmp_path / "full.csv"
        assert main(["residuals", "--model", str(model_path),
                     "--data", str(lime_path), "--out", str(full)]) == 0
        full_lines = full.read_text().splitlines()[1:]
        if subset == "natural":
            picked = [i for i, row in enumerate(rows)
                      if row.endswith(",Natural")][:12]
        else:
            picked = [0, 1, 2]
        data = tmp_path / "subset.csv"
        data.write_text("\n".join([header] + [rows[i] for i in picked]) + "\n",
                        encoding="utf-8")
        out = tmp_path / "res.csv"
        assert main(["residuals", "--model", str(model_path),
                     "--data", str(data), "--out", str(out)]) == 0
        capsys.readouterr()
        assert len(picked) in (12, 3)
        assert out.read_text().splitlines()[1:] == [full_lines[i] for i in picked]


class TestDistCommand:
    def test_cdf_value(self, capsys):
        assert main(["dist", "cdf", "--beta", "1", "--lambda", "1",
                     "--x", "1"]) == 0
        assert capsys.readouterr().out.strip() == "0.4375542475"

    def test_quantile_median_pinning(self, capsys):
        assert main(["dist", "quantile", "--mu", "2", "--sigma", "1",
                     "--p", "0.5"]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_sf_and_hrf_values(self, capsys):
        assert main(["dist", "sf", "--beta", "1", "--lambda", "1",
                     "--x", "1"]) == 0
        assert capsys.readouterr().out.strip() == "0.5624457525"
        assert main(["dist", "hrf", "--beta", "1", "--lambda", "1",
                     "--x", "1"]) == 0
        assert capsys.readouterr().out.strip() == "0.7389398716"

    def test_moment_matches_quadrature_oracle(self, capsys):
        # E[X] at beta = lambda = 1 from the series for E[S] (tests/test_family.py)
        exact = 1.4287201581256108
        assert main(["dist", "moment", "--p", "1", "--beta", "1",
                     "--lambda", "1"]) == 0
        assert capsys.readouterr().out.strip() == f"{exact:.10g}"
        d = TiltedDistribution(ExponentialBaseline(1.0), 1.0)
        assert d.moment(1.0) == pytest.approx(exact, rel=1e-13)

    def test_moment_order_edge_cases(self, capsys):
        args = ["dist", "moment", "--beta", "1", "--lambda", "1", "--p"]
        assert main(args + ["inf"]) == 1
        assert "moment order" in capsys.readouterr().err
        # E[X^400] ~ 400! overflows: an explicit numerical error, no traceback
        assert main(args + ["400"]) == 2
        assert capsys.readouterr().err.startswith("numerical error: ")
        assert main(args + ["1e-300"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_ten_significant_digits(self, capsys):
        assert main(["dist", "pdf", "--beta", "2", "--lambda", "1",
                     "--x", "0.5", "--x", "1.5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1  # nargs='+' takes the last --x occurrence
        # rerun with multiple points in one flag
        assert main(["dist", "pdf", "--beta", "2", "--lambda", "1",
                     "--x", "0.5", "1.5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2

    def test_parameterization_conflicts(self, capsys):
        assert main(["dist", "cdf", "--beta", "1", "--x", "1"]) == 1
        assert main(["dist", "cdf", "--beta", "1", "--lambda", "1",
                     "--mu", "2", "--sigma", "1", "--x", "1"]) == 1
        assert main(["dist", "cdf", "--x", "1"]) == 1
        capsys.readouterr()

    def test_domain_error_exit_code(self, capsys):
        assert main(["dist", "cdf", "--beta", "-1", "--lambda", "1",
                     "--x", "1"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("function", ["cdf", "pdf", "sf", "hrf"])
    def test_nonpositive_point_names_x(self, function, capsys):
        assert main(["dist", function, "--beta", "1", "--lambda", "1",
                     "--x", "-1"]) == 1
        assert capsys.readouterr().err == "error: x must be strictly positive\n"

    def test_hrf_where_cdf_rounds_to_one(self, capsys):
        assert main(["dist", "hrf", "--beta", "1", "--lambda", "1",
                     "--x", "40"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_pdf_at_infinity(self, capsys):
        assert main(["dist", "pdf", "--beta", "0.5", "--lambda", "1",
                     "--x", "inf"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "0\n"
        assert captured.err == ""


class TestSampleCommand:
    def test_reproducible_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert main(["sample", "--n", "200", "--beta", "2", "--lambda", "1",
                         "--seed", "42", "--out", str(path)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_single_draw_positive(self, tmp_path, capsys):
        out = tmp_path / "one.csv"
        assert main(["sample", "--n", "1", "--mu", "2", "--sigma", "1",
                     "--seed", "7", "--out", str(out)]) == 0
        capsys.readouterr()
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "sample"
        assert float(lines[1]) > 0

    def test_invalid_parameters(self, tmp_path, capsys):
        assert main(["sample", "--n", "5", "--beta", "0", "--lambda", "1",
                     "--seed", "1", "--out", str(tmp_path / "s.csv")]) == 1
        capsys.readouterr()
