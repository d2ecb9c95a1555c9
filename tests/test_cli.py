"""End-to-end tests for the randomx-eval command line interface."""

import csv
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

import randomx_eval
from randomx_eval._pool import USER_BLAS_ENV, _blas_pools, blas_threads
from randomx_eval import cli
from randomx_eval.cli import _read_dataset, bundled_config_path, main
from randomx_eval.criteria import criteria_report
from randomx_eval.datagen import CovariateModel, MeanModel
from randomx_eval.errors import ConfigError, ParseError
from randomx_eval.experiments import CRITERIA_METHODS
from randomx_eval.smoothers import SmootherSpec, fit

DECOMPOSE_HEADER = (
    "scenario,covariates,mean,n,p,sigma,B,se_B,V,se_V,"
    "Bplus,se_Bplus,Vplus,se_Vplus,errS,errR"
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def write_config(tmp_path, **over):
    doc = {
        "seed": 2,
        "reps": 30,
        "n": 20,
        "p": 3,
        "test_m": 50,
        "sigma": 1.5,
        "scenarios": [
            {
                "name": "norm-lin",
                "covariates": {"variant": "normal_block", "blocks": 3, "rho": 0.5},
                "mean": {"variant": "linear_sum"},
            },
            {
                "name": "unif-abs",
                "covariates": {"variant": "copula_uniform", "blocks": 3, "rho": 0.5},
                "mean": {"variant": "abs_sum", "C": 1.0},
            },
        ],
    }
    doc.update(over)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def write_dataset(tmp_path, name="data.csv"):
    rng = np.random.default_rng(80)
    X = rng.standard_normal((8, 2))
    Y = np.abs(X).sum(axis=1) + 0.5 * rng.standard_normal(8)
    path = tmp_path / name
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "x2", "y"])
        for xi, yi in zip(X, Y):
            writer.writerow([repr(float(xi[0])), repr(float(xi[1])), repr(float(yi))])
    return str(path), X, Y


class TestEval:
    def test_keys_without_sigma2(self, tmp_path, capsys):
        path, X, Y = write_dataset(tmp_path)
        code, out, _ = run_cli(capsys, "eval", path)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["key", "value"]
        assert [r[0] for r in rows] == ["rss", "sigma2_hat", "rcp_hat", "gcv", "ocv"]
        report = criteria_report(fit(SmootherSpec.least_squares(), X, Y))
        assert rows[0][1] == "%.17g" % report.rss
        assert rows[3][1] == "%.17g" % report.gcv

    def test_sigma2_adds_plugin_rows(self, tmp_path, capsys):
        path, X, Y = write_dataset(tmp_path)
        code, out, _ = run_cli(capsys, "eval", path, "--sigma2", "0.25")
        assert code == 0
        _, rows = parse_csv(out)
        assert [r[0] for r in rows] == [
            "rss", "sigma2_hat", "cp", "rcp", "rcp_hat", "gcv", "ocv", "bplus_hat", "rcp_plus",
        ]
        report = criteria_report(fit(SmootherSpec.least_squares(), X, Y), sigma2=0.25)
        by_key = dict(rows)
        assert by_key["rcp_plus"] == "%.17g" % report.rcp_plus

    def test_ridge_smoother(self, tmp_path, capsys):
        path, _, _ = write_dataset(tmp_path)
        code, out, _ = run_cli(capsys, "eval", path, "--smoother", "ridge", "--lam", "0.5")
        assert code == 0 and "rcp_hat" in out
        code, _, err = run_cli(capsys, "eval", path, "--smoother", "ridge")
        assert code == 2 and "--lam" in err

    def test_lam_without_ridge_is_config_error(self, tmp_path, capsys):
        path, _, _ = write_dataset(tmp_path)
        code, out, err = run_cli(capsys, "eval", path, "--lam", "100")
        assert code == 2 and out == "" and err.startswith("error:") and "--lam" in err

    @pytest.mark.parametrize("flags", [
        ("--sigma2", "nan"), ("--sigma2", "inf"), ("--sigma2", "-1"),
        ("--smoother", "ridge", "--lam", "nan"), ("--smoother", "ridge", "--lam", "inf"),
    ])
    def test_flag_out_of_range_is_config_error(self, tmp_path, capsys, flags):
        path, _, _ = write_dataset(tmp_path)
        code, _, err = run_cli(capsys, "eval", path, *flags)
        assert code == 2 and err.startswith("error:") and flags[-2] in err

    @pytest.mark.parametrize("flags", [
        ("--sigma2", "-1"), ("--lam", "100"), ("--smoother", "ridge", "--lam", "inf"),
    ])
    def test_flags_are_checked_before_the_data_is_read(self, tmp_path, capsys, monkeypatch, flags):
        def read_dataset(path):
            raise AssertionError(f"{path} was read before the flags were checked")

        monkeypatch.setattr("randomx_eval.cli._read_dataset", read_dataset)
        path, _, _ = write_dataset(tmp_path)
        code, _, err = run_cli(capsys, "eval", path, *flags)
        assert code == 2 and err.startswith("error:") and flags[-2] in err

    @pytest.mark.parametrize("text, flags, code, words", [
        ("x1,x2,y\n1,2,3\n4,5,7\n9,1,2\n", (), 2, "need p < n - 1"),
        ("x1,x2,x3,y\n1,2,3,4\n4,5,7,1\n9,1,2,3\n", (), 2, "need p < n - 1"),
        ("x1,x2,x3,y\n1,2,3,4\n4,5,7,1\n", ("--smoother", "ridge", "--lam", "1"), 2,
         "need p < n - 1"),
        # least squares cannot fit n = 2 rows in p = 3: the fit fails before any criterion
        ("x1,x2,x3,y\n1,2,3,4\n4,5,7,1\n", (), 3, "rank(X) < p"),
    ], ids=["ls_n3_p2", "ls_n3_p3", "ridge_n2_p3", "ls_n2_p3"])
    def test_size_rule_is_input_error(self, tmp_path, capsys, text, flags, code, words):
        path = tmp_path / "small.csv"
        path.write_text(text)
        got, out, err = run_cli(capsys, "eval", str(path), *flags)
        assert got == code and out == "" and err.startswith("error:") and words in err

    @pytest.mark.parametrize("rows_before", [0, 5000])  # decoded with the header, or later
    def test_file_that_is_not_utf8_is_input_error(self, tmp_path, capsys, rows_before):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"x,y\n" + b"1,2\n" * rows_before + "\u00e9,3\n".encode("latin-1"))
        code, _, err = run_cli(capsys, "eval", str(path))
        assert code == 2 and "not UTF-8" in err

    def test_non_numeric_cell_names_row(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,2\noops,4\n")
        code, _, err = run_cli(capsys, "eval", str(path))
        assert code == 2 and "row 3" in err

    def test_ragged_row(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1\n")
        code, _, err = run_cli(capsys, "eval", str(path))
        assert code == 2 and "row 2" in err

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "eval", str(tmp_path / "absent.csv"))
        assert code == 2 and "cannot read" in err

    def test_unwritable_out_is_input_error(self, tmp_path, capsys):
        path, _, _ = write_dataset(tmp_path)
        for out in (tmp_path / "missing_dir" / "x.csv", tmp_path):
            code, stdout, err = run_cli(capsys, "eval", path, "--out", str(out))
            assert code == 2 and stdout == "" and err.startswith("error: --out")

    def test_collinear_design_is_numeric_failure(self, tmp_path, capsys):
        path = tmp_path / "collinear.csv"
        path.write_text("x1,x2,y\n1,2,1\n2,4,2\n3,6,2\n4,8,5\n")
        code, _, err = run_cli(capsys, "eval", str(path))
        assert code == 3 and err.startswith("error:")

    def test_out_file_and_manifest(self, tmp_path, capsys, monkeypatch):
        for var in USER_BLAS_ENV:
            monkeypatch.delenv(var, raising=False)
        path, _, _ = write_dataset(tmp_path)
        out = tmp_path / "report.csv"
        code, stdout, _ = run_cli(capsys, "eval", path, "--out", str(out))
        assert code == 0 and stdout == ""
        assert out.read_text().startswith("key,value\n")
        manifest = json.loads((tmp_path / "report.csv.manifest.json").read_text())
        assert manifest["command"] == "eval" and manifest["seed"] is None
        assert len(manifest["config_digest"]) == 64
        assert {"version", "started", "finished"} <= manifest.keys()
        assert manifest["python_version"] == platform.python_version()
        assert manifest["numpy_version"] == np.__version__
        assert manifest["scipy_version"] == scipy.__version__
        # eval has no replicate loop: no workers, and BLAS keeps its own count
        assert manifest["threads"] is None
        assert manifest["blas_threads"] == blas_threads(in_loop=False)
        if _blas_pools():
            assert manifest["blas_threads"] == max(get() for get, _ in _blas_pools())

        config = write_config(tmp_path, reps=4)
        study = tmp_path / "table.csv"
        run_cli(capsys, "decompose", "--config", config, "--out", str(study), "--threads", "2")
        manifest = json.loads((tmp_path / "table.csv.manifest.json").read_text())
        assert manifest["threads"] == 2
        assert manifest["blas_threads"] == (1 if _blas_pools() else None)
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        run_cli(capsys, "decompose", "--config", config, "--out", str(study))
        manifest = json.loads((tmp_path / "table.csv.manifest.json").read_text())
        assert manifest["threads"] == 1 and manifest["blas_threads"] == 3


# Ways a double may be written in an eval CSV.
_FORMATS = (repr, lambda x: "%.17g" % x, lambda x: "%.6e" % x)
# Numeric cells of an eval CSV; the last two are quoted and span two lines.
_GOOD_CELLS = ("1", "-2.5", "3e2", " 4", '"5"', '"6\n"', '"\n7"')
# Pieces of arbitrary short CSV bodies.
_TOKENS = ("0", "1", "7", ".", "-", "e", ",", '"', '""', "\r", "\n", "\r\n", "\t", " ",
           "inf", "nan", "1_0")


class TestReadDataset:
    """`eval`'s CSV reader: numpy's C reader for the rows, a locator for bad ones."""

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.integers(2, 4).flatmap(lambda width: st.lists(
            st.lists(st.floats(allow_nan=False, allow_infinity=False),
                     min_size=width, max_size=width),
            min_size=2, max_size=5,
        )),
        fmt=st.sampled_from(_FORMATS),
        quoted=st.booleans(),
        newline=st.sampled_from(["\n", "\r\n"]),
    )
    def test_doubles_read_back_bit_identical(self, tmp_path_factory, values, fmt, quoted, newline):
        width = len(values[0])
        cells = [[fmt(v) for v in row] for row in values]
        expected = np.array([[float(c) for c in row] for row in cells])
        if quoted:
            cells = [['"%s"' % c for c in row] for row in cells]
        lines = [",".join(f"c{j}" for j in range(width))] + [",".join(row) for row in cells]
        path = tmp_path_factory.mktemp("read") / "data.csv"
        path.write_bytes((newline.join(lines) + newline).encode())
        X, Y = _read_dataset(str(path))
        got = np.column_stack([X, Y])
        assert got.shape == expected.shape
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("x,y\n\n1,2\n\n\n3,4\n\n")
        X, Y = _read_dataset(str(path))
        assert X.tolist() == [[1.0], [3.0]] and Y.tolist() == [2.0, 4.0]

    @pytest.mark.parametrize("text, row, words", [
        ("x,y\n1,2\n\n3\n", 4, "expected 2 columns, got 1"),  # ragged, after a blank line
        ("x,y,z\n1,2\n3,4\n", 2, "expected 3 columns, got 2"),  # every row too narrow
        ("x,y\r\n1,2\r\n3,4\r\n5,oops\r\n", 4, "'oops' in column 2"),  # non-numeric
        ("x,y\n", 2, "at least one data row"),  # empty body
        ("x,y\n\n\n", 2, "at least one data row"),  # only blank lines
        ("x1,y\n1,2\n", 2, "at least two data rows"),  # one data row
        ("x,y\n1,2\n1_000,4\n", 3, "'1_000' in column 1"),  # float() would take it
        ('x,y\n"1\n",2\n3,inf\n', 4, "non-finite value in column 2"),  # after a two-line record
        ("x\n1\n", 1, "covariate column"),  # header too narrow
    ])
    def test_bad_file_names_row(self, tmp_path, capsys, text, row, words):
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode())
        with pytest.raises(ParseError) as info:
            _read_dataset(str(path))
        assert info.value.row == row and words in str(info.value)
        code, _, err = run_cli(capsys, "eval", str(path))
        assert code == 2 and f"row {row}:" in err

    @pytest.mark.parametrize("text, row", [
        ('"a,b\n' + "1,2\n" * 40_000, 1),  # the header's quote is never closed
        ('a,b\n1,2\n"3,' + "4\n5,6\n" * 40_000, 3),  # a data record's quote is never closed
    ], ids=["header", "data_record"])
    def test_record_csv_cannot_split_names_its_first_row(self, tmp_path, capsys, text, row):
        path = tmp_path / "unclosed.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match="field larger than field limit") as info:
            _read_dataset(str(path))
        assert info.value.row == row
        code, _, err = run_cli(capsys, "eval", str(path))
        assert code == 2 and err.startswith(f"error: row {row}: malformed CSV")

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_bad_record_is_named_by_its_first_line(self, tmp_path_factory, data):
        width = data.draw(st.integers(2, 4), label="width")
        good = st.lists(st.sampled_from(_GOOD_CELLS), min_size=width, max_size=width)
        line = st.one_of(good.map(",".join), st.just(""))  # "" is a blank line
        before = data.draw(st.lists(line, max_size=5), label="before")
        after = data.draw(st.lists(line, max_size=3), label="after")
        cells = data.draw(good, label="cells")
        bad = data.draw(st.sampled_from(("oops", "1_000", "", "inf", "ragged")), label="bad")
        if bad != "ragged":
            cells[data.draw(st.integers(0, width - 1), label="column")] = bad
        elif data.draw(st.booleans(), label="short"):
            cells.pop()
        else:
            cells.append("1")
        header = ",".join(f"c{j}" for j in range(width))
        text = "\n".join([header, *before, ",".join(cells), *after]) + "\n"
        newline = data.draw(st.sampled_from(["\n", "\r\n"]), label="newline")
        path = tmp_path_factory.mktemp("bad") / "data.csv"
        path.write_bytes(text.replace("\n", newline).encode())
        with pytest.raises(ParseError) as info:
            _read_dataset(str(path))
        assert info.value.row == 2 + sum(1 + record.count("\n") for record in before)

    @settings(max_examples=200, deadline=None)
    @given(
        header=st.sampled_from(["a,b\n", "a,b,c\r\n"]),
        body=st.one_of(st.lists(st.sampled_from(_TOKENS), max_size=20).map("".join),
                       st.text(st.characters(blacklist_categories=("Cs",)), max_size=30)),
    )
    def test_any_body_reads_finite_or_is_a_parse_error(self, tmp_path_factory, header, body):
        path = tmp_path_factory.mktemp("body") / "data.csv"
        path.write_bytes((header + body).encode())
        try:
            X, Y = _read_dataset(str(path))
        except ParseError:
            return
        assert X.shape == (len(Y), header.count(",")) and len(Y) >= 2
        assert np.all(np.isfinite(X)) and np.all(np.isfinite(Y))

    def test_bad_last_record_reads_each_record_once(self, tmp_path, monkeypatch):
        # one reader call per good record, and cell by cell only for the bad one
        rows, width = 300, 6
        lines = [",".join(f"c{j}" for j in range(width))] + [",".join(["1.5"] * width)] * rows
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines + [",".join(["2"] * (width - 1) + ["oops"])]) + "\n")
        calls, loadtxt = [], cli._loadtxt
        monkeypatch.setattr(cli, "_loadtxt", lambda text: calls.append(text) or loadtxt(text))
        error = cli._bad_row(str(path), width)
        assert (error.row, str(error)) == (rows + 2, f"row {rows + 2}: non-numeric value 'oops' in column {width}")
        assert len(calls) <= rows + 1 + width

    @settings(max_examples=200, deadline=None)
    @given(body=st.lists(st.lists(st.sampled_from(_GOOD_CELLS + ("oops", "inf", "", '"1\n"', "nan")),
                                  min_size=1, max_size=4).map(",".join), max_size=6).map("\n".join))
    def test_locator_names_what_a_cell_by_cell_read_names(self, tmp_path_factory, body):
        # the record-at-once reader gives the row and message of reading every cell alone
        path = tmp_path_factory.mktemp("cells") / "data.csv"
        path.write_text("a,b,c\n" + body + "\n")
        assert str(cli._bad_row(str(path), 3)) == str(_bad_row_cell_by_cell(str(path), 3))

    def test_peak_memory_tracks_the_data(self, tmp_path):
        rng = np.random.default_rng(3)
        path = tmp_path / "big.csv"
        header = ",".join(f"c{j}" for j in range(51))
        np.savetxt(path, rng.standard_normal((2000, 51)), fmt="%.17g", delimiter=",",
                   header=header, comments="")
        tracemalloc.start()
        try:
            X, Y = _read_dataset(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert X.shape == (2000, 50)
        assert peak <= 3 * (X.nbytes + Y.nbytes)


def _bad_row_cell_by_cell(path, width):
    """`cli._bad_row` with one reader call per cell: the rows and messages it must give."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        row = reader.line_num + 1
        for cells in reader:
            if cells and len(cells) != width:
                return ParseError(f"expected {width} columns, got {len(cells)}", row=row)
            for j, cell in enumerate(cells, start=1):
                try:
                    value = cli._loadtxt(io.StringIO('"%s"' % cell.replace('"', '""')))
                except ValueError:
                    return ParseError(f"non-numeric value {cell!r} in column {j}", row=row)
                if not np.isfinite(value).all():
                    return ParseError(f"non-finite value in column {j}", row=row)
            row = reader.line_num + 1
    return ParseError("malformed data")


class TestDecompose:
    def test_unreadable_config(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "decompose", "--config", str(tmp_path / "absent.json"))
        assert code == 2 and "cannot read config" in err

    def test_top_level_must_be_an_object(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        code, _, err = run_cli(capsys, "decompose", "--config", str(path))
        assert code == 2 and "top level must be a JSON object" in err

    @pytest.mark.parametrize("over, field, words", [
        ({"scenarios": []}, "scenarios", "non-empty list"),
        ({"sigma": -1.0}, "sigma", "sigma must be finite and > 0"),
        ({"scenarios": [1]}, "scenarios[0]", "expected object"),
    ], ids=["no_scenarios", "negative_sigma", "scenario_not_object"])
    def test_bad_study_value_is_named(self, tmp_path, capsys, over, field, words):
        code, _, err = run_cli(capsys, "decompose", "--config", write_config(tmp_path, **over))
        assert code == 2 and err.startswith(f"error: config field '{field}':") and words in err

    def test_integer_is_read_as_a_number(self, tmp_path, capsys):
        outs = [run_cli(capsys, "decompose", "--config", write_config(tmp_path, sigma=sigma))
                for sigma in (2, 2.0)]
        assert outs[0][0] == 0 and outs[0] == outs[1]

    def test_stdout_table(self, tmp_path, capsys):
        config = write_config(tmp_path)
        code, out, _ = run_cli(capsys, "decompose", "--config", config)
        assert code == 0
        header, rows = parse_csv(out)
        assert ",".join(header) == DECOMPOSE_HEADER
        assert [r[0] for r in rows] == ["norm-lin", "unif-abs"]
        assert rows[0][1:5] == ["normal_block", "linear_sum", "20", "3"]
        assert rows[1][1:3] == ["copula_uniform", "abs_sum"]

    def test_float_cells_roundtrip(self, tmp_path, capsys):
        config = write_config(tmp_path)
        _, out, _ = run_cli(capsys, "decompose", "--config", config)
        _, rows = parse_csv(out)
        for cell in rows[0][6:]:
            assert "%.17g" % float(cell) == cell

    def test_manifest_digest_is_config_hash(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "table.csv"
        code, _, _ = run_cli(capsys, "decompose", "--config", config, "--out", str(out))
        assert code == 0
        manifest = json.loads((tmp_path / "table.csv.manifest.json").read_text())
        with open(config, "rb") as fh:
            assert manifest["config_digest"] == hashlib.sha256(fh.read()).hexdigest()
        assert manifest["command"] == "decompose" and manifest["seed"] == 2

    def test_byte_identical_across_thread_counts(self, tmp_path, capsys):
        config = write_config(tmp_path)
        outputs = []
        for threads in ("1", "2", "8"):
            out = tmp_path / f"t{threads}.csv"
            code, _, _ = run_cli(
                capsys, "decompose", "--config", config, "--out", str(out), "--threads", threads
            )
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_seed_and_reps_overrides_change_output(self, tmp_path, capsys):
        config = write_config(tmp_path)
        _, base, _ = run_cli(capsys, "decompose", "--config", config)
        _, reseeded, _ = run_cli(capsys, "decompose", "--config", config, "--seed", "3")
        _, more_reps, _ = run_cli(capsys, "decompose", "--config", config, "--reps", "40")
        assert base != reseeded and base != more_reps

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "decompose", "--config", str(path))
        assert code == 2 and "malformed JSON" in err

    def test_missing_top_level_field(self, tmp_path, capsys):
        config = write_config(tmp_path)
        doc = json.loads(open(config).read())
        del doc["n"]
        path = tmp_path / "no_n.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "decompose", "--config", str(path))
        assert code == 2 and "'n'" in err

    def test_bad_nested_field_is_named(self, tmp_path, capsys):
        config = write_config(tmp_path)
        doc = json.loads(open(config).read())
        doc["scenarios"][0]["covariates"]["rho"] = "high"
        path = tmp_path / "bad_rho.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "decompose", "--config", str(path))
        assert code == 2 and "scenarios[0].covariates.rho" in err

    @pytest.mark.parametrize("covariates, mean, field", [
        ({"variant": "scaled_product", "sigma_half": [[1, "x"], [0, 1]]},
         {"variant": "linear_sum"}, "scenarios[0].covariates"),
        ({"variant": "isotropic_normal"},
         {"variant": "linear_beta", "beta": [1, [2]]}, "scenarios[0].mean"),
        ({"variant": "isotropic_normal"},
         {"variant": "linear_beta", "beta": [1, 2, 3]}, "scenarios[0]"),
    ], ids=["sigma_half_not_numeric", "beta_ragged", "beta_length_not_p"])
    def test_bad_model_value_is_config_error(self, tmp_path, capsys, covariates, mean, field):
        config = write_config(
            tmp_path, p=2, scenarios=[{"name": "bad", "covariates": covariates, "mean": mean}]
        )
        code, _, err = run_cli(capsys, "decompose", "--config", config)
        assert code == 2 and err.startswith(f"error: config field '{field}':")

    def test_underdetermined_fit_is_numeric_failure(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            n=5,
            p=10,
            scenarios=[{
                "name": "wide",
                "covariates": {"variant": "isotropic_normal"},
                "mean": {"variant": "linear_sum"},
            }],
        )
        code, _, err = run_cli(capsys, "decompose", "--config", config)
        assert code == 3 and "replicate" in err

    def test_failing_cell_of_a_group_is_named(self, tmp_path, capsys):
        config = write_config(tmp_path, scenarios=[
            {"name": "iso", "covariates": {"variant": "isotropic_normal"},
             "mean": {"variant": "linear_sum"}},
            {"name": "zero-column", "covariates": {"variant": "scaled_product",
                                                   "sigma_half": np.diag([1.0, 1.0, 0.0]).tolist()},
             "mean": {"variant": "linear_sum"}},
        ])
        for command in ("decompose", "criteria"):
            code, out, err = run_cli(capsys, command, "--config", config)
            assert code == 3 and out == ""
            assert err.startswith("error: replicate 0 of scenario 'zero-column' (master seed 2)")

    @pytest.mark.parametrize("where, key, field", [
        ((), "sigmaa", "sigmaa"),
        (("scenarios", 0), "means", "scenarios[0].means"),
        (("scenarios", 0, "covariates"), "rh0", "scenarios[0].covariates.rh0"),
        (("scenarios", 1, "mean"), "CC", "scenarios[1].mean.CC"),
        (("smoother",), "kk", "smoother.kk"),
    ])
    def test_unknown_key_is_config_error(self, tmp_path, capsys, where, key, field):
        config = write_config(tmp_path, smoother={"variant": "knn", "k": 1})
        assert run_cli(capsys, "decompose", "--config", config)[0] == 0
        doc = json.loads(open(config).read())
        obj = doc
        for step in where:
            obj = obj[step]
        obj[key] = 3
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "decompose", "--config", str(path))
        assert code == 2 and err.startswith(f"error: config field '{field}': unknown key")

    def test_nan_bandwidth_is_config_error(self, tmp_path, capsys):
        smoother = {"variant": "kernel_ridge", "lam": 1.0, "bandwidth": float("nan")}
        config = write_config(tmp_path, smoother=smoother)
        assert "NaN" in open(config).read()
        code, _, err = run_cli(capsys, "decompose", "--config", config)
        assert code == 2 and "'smoother'" in err and "bandwidth" in err

    def test_kernel_field_is_config_error(self, tmp_path, capsys):
        # kernel ridge is Gaussian; the config has no field choosing the kernel
        smoother = {"variant": "kernel_ridge", "lam": 1.0, "kernel": "gaussian"}
        code, _, err = run_cli(capsys, "decompose", "--config", write_config(tmp_path, smoother=smoother))
        assert code == 2 and err.startswith("error: config field 'smoother.kernel': unknown key")

    def test_unwritable_out_fails_before_the_study(self, tmp_path, capsys, monkeypatch):
        def study(*args, **kwargs):
            raise AssertionError("the study ran")

        monkeypatch.setattr("randomx_eval.cli.run_decomposition_study", study)
        config = write_config(tmp_path)
        for out in (tmp_path / "missing_dir" / "x.csv", tmp_path):
            code, stdout, err = run_cli(capsys, "decompose", "--config", config, "--out", str(out))
            assert code == 2 and stdout == "" and err.startswith("error: --out")

    def test_knn_k_above_n_is_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path, smoother={"variant": "knn", "k": 50})
        code, _, err = run_cli(capsys, "decompose", "--config", config)
        assert code == 2 and "'smoother'" in err and "k=50 exceeds n=20" in err
        config = write_config(tmp_path, reps=2, smoother={"variant": "knn", "k": 20})
        assert run_cli(capsys, "decompose", "--config", config)[0] == 0


class TestCriteria:
    def test_rows_per_scenario_and_method(self, tmp_path, capsys):
        config = write_config(tmp_path, reps=40)
        code, out, _ = run_cli(capsys, "criteria", "--config", config)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["scenario", "method", "mse", "bias2", "variance", "rel_to_ocv"]
        assert len(rows) == 2 * len(CRITERIA_METHODS)
        assert [r[1] for r in rows[:5]] == list(CRITERIA_METHODS)
        ocv_rows = [r for r in rows if r[1] == "OCV"]
        assert all(r[5] == "1" for r in ocv_rows)

    def test_too_few_rows_is_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path, n=10, p=9)
        code, _, err = run_cli(capsys, "criteria", "--config", config)
        assert code == 2 and "n > p + 1" in err

    def test_rejects_non_ls_smoother(self, tmp_path, capsys):
        config = write_config(tmp_path, smoother={"variant": "knn", "k": 3})
        code, _, err = run_cli(capsys, "criteria", "--config", config)
        assert code == 2 and "least squares" in err


class TestRidgeRatio:
    def test_flag_driven_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "ridge-ratio", "--n", "40", "--p", "8", "--reps", "5",
            "--lambda-min", "1", "--lambda-max", "1000", "--lambda-points", "4",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["lambda", "ratio", "ci_low", "ci_high", "theory_limit"]
        assert len(rows) == 4
        assert float(rows[0][0]) == 1.0 and float(rows[-1][0]) == 1000.0
        limit = {r[4] for r in rows}
        assert limit == {"%.17g" % (40 / 49)}

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        path = tmp_path / "ridge.json"
        path.write_text(json.dumps({
            "seed": 1, "n": 30, "p": 5, "reps": 4,
            "lambda_min": 1.0, "lambda_max": 100.0, "lambda_points": 3,
        }))
        code, out, _ = run_cli(capsys, "ridge-ratio", "--config", str(path))
        assert code == 0 and len(parse_csv(out)[1]) == 3
        code, out, _ = run_cli(capsys, "ridge-ratio", "--config", str(path), "--lambda-points", "5")
        assert code == 0 and len(parse_csv(out)[1]) == 5

    def test_manifest_without_config_digests_params(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code, _, _ = run_cli(
            capsys, "ridge-ratio", "--n", "30", "--p", "5", "--reps", "4",
            "--lambda-points", "3", "--out", str(out),
        )
        assert code == 0
        manifest = json.loads((tmp_path / "curve.csv.manifest.json").read_text())
        assert manifest["command"] == "ridge-ratio" and len(manifest["config_digest"]) == 64

    def test_bad_grid(self, capsys):
        code, _, err = run_cli(capsys, "ridge-ratio", "--lambda-min", "10", "--lambda-max", "1")
        assert code == 2 and "lambda_min" in err
        code, _, err = run_cli(capsys, "ridge-ratio", "--lambda-points", "1")
        assert code == 2 and "lambda_points" in err

    def test_non_finite_penalty_is_config_error(self, capsys):
        for value in ("inf", "nan"):
            code, out, err = run_cli(capsys, "ridge-ratio", "--n", "30", "--p", "5", "--reps", "3",
                                     "--lambda-points", "3", "--lambda-max", value)
            assert code == 2 and "lambda_max" in err and out == ""

    def test_huge_penalty_gives_finite_ratios_near_the_limit(self, capsys):
        code, out, _ = run_cli(capsys, "ridge-ratio", "--n", "30", "--p", "5", "--reps", "3",
                               "--lambda-min", "1e6", "--lambda-max", "1e308", "--lambda-points", "3")
        assert code == 0
        ratios = [float(row[1]) for row in parse_csv(out)[1]]
        assert np.all(np.isfinite(ratios))
        # lam^2 cancels in Var_R / Var_S, so 1e308 reads as the limit 1e6 nearly reaches
        assert ratios[-1] == pytest.approx(ratios[0], rel=1e-4)

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "ridge.json"
        path.write_text(json.dumps({"n": 30, "p": 5, "reps": 4, "lambda_mn": 1.0}))
        code, _, err = run_cli(capsys, "ridge-ratio", "--config", str(path))
        assert code == 2 and "'lambda_mn'" in err and "unknown key" in err

    def test_negative_seed_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "ridge-ratio", "--n", "30", "--p", "5", "--reps", "3",
                               "--seed", "-1")
        assert code == 2 and "seed" in err

    def test_p_must_be_below_n(self, capsys):
        code, _, err = run_cli(capsys, "ridge-ratio", "--n", "10", "--p", "10", "--reps", "3")
        assert code == 2 and "p" in err


# --------------------------------------------------------------------------
# per-variant model fields
# --------------------------------------------------------------------------

MODELS = {"covariates": CovariateModel, "mean": MeanModel, "smoother": SmootherSpec}
WHERE = {"covariates": "scenarios[0].covariates", "mean": "scenarios[0].mean",
         "smoother": "smoother"}
JSON_KINDS = {int: "integer", float: "number", str: "string", list: "array"}
# a value off its default for every model field, as JSON
OFF_DEFAULT = {"blocks": 3, "rho": 0.5, "base": "uniform", "sigma_half": np.eye(3).tolist(),
               "C": 2.0, "beta": [1.0, 2.0, 3.0], "lam": 1.0, "bandwidth": 1.0, "k": 2}
UNREAD = [
    (model, variant, key)
    for model, cls in MODELS.items()
    for variant, reads in cls.FIELDS.items()
    for key in OFF_DEFAULT
    if key not in reads and key in cls.__dataclass_fields__
]


def _construct(model, variant, **fields):
    fields = {k: np.asarray(v) if k in ("sigma_half", "beta") else v for k, v in fields.items()}
    return MODELS[model](variant, *((3,) if model == "covariates" else ()), **fields)


def _config_with(tmp_path, model, spec):
    """The default config with ``spec`` as its smoother, or as a model of its one scenario."""
    if model == "smoother":
        return write_config(tmp_path, p=3, smoother=spec)
    scenario = {"name": "s", "covariates": {"variant": "isotropic_normal"},
                "mean": {"variant": "linear_sum"}, model: spec}
    return write_config(tmp_path, p=3, scenarios=[scenario])


class TestModelFields:
    def test_readme_table_matches_the_code(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        table, rows = {model: {} for model in MODELS}, []
        for line in readme.read_text(encoding="utf-8").splitlines():
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if len(cells) == 3 and cells[0].strip("`") in MODELS:
                fields = {}
                for item in filter(None, cells[2].split(",")):
                    key, kind = item.split()
                    fields[key.strip("`")] = kind.strip("()")
                rows.append((cells[0].strip("`"), cells[1].strip("`")))
                table[rows[-1][0]][rows[-1][1]] = fields
        assert len(rows) == len(set(rows))  # a variant listed twice would hide its first row
        code = {model: {variant: {key: JSON_KINDS[kind] for key, kind in reads.items()}
                        for variant, reads in cls.FIELDS.items()}
                for model, cls in MODELS.items()}
        assert table == code

    def test_every_field_has_an_off_default_value(self):
        fields = {f for cls in MODELS.values() for f in cls.__dataclass_fields__}
        assert fields - {"variant", "p"} == set(OFF_DEFAULT)

    @pytest.mark.parametrize("model, variant, key", UNREAD,
                             ids=["-".join(case) for case in UNREAD])
    def test_unread_field_is_rejected(self, tmp_path, capsys, model, variant, key):
        with pytest.raises(ValueError, match=f"{variant} does not read {key}"):
            _construct(model, variant, **{key: OFF_DEFAULT[key]})
        base = {"variant": variant, **{k: OFF_DEFAULT[k] for k in MODELS[model].FIELDS[variant]}}
        _construct(model, **base)  # the spec is valid without the unread key
        config = _config_with(tmp_path, model, {**base, key: OFF_DEFAULT[key]})
        code, _, err = run_cli(capsys, "decompose", "--config", config)
        assert code == 2
        assert err.startswith(f"error: config field '{WHERE[model]}.{key}': unknown key for variant")

    @pytest.mark.parametrize("model", list(MODELS))
    def test_unknown_variant_is_named_as_such(self, tmp_path, capsys, model):
        with pytest.raises(ValueError, match="unknown .* variant 'no_such'"):
            _construct(model, "no_such")
        config = _config_with(tmp_path, model, {"variant": "no_such", "rho": 0.5, "lam": 1.0})
        code, _, err = run_cli(capsys, "decompose", "--config", config)
        assert code == 2
        assert err.startswith(f"error: config field '{WHERE[model]}.variant': unknown variant")

    @pytest.mark.parametrize("model, spec", [
        ("smoother", {"variant": "least_squares", "lam": 50.0}),
        ("covariates", {"variant": "isotropic_normal", "rho": 0.9, "blocks": 2, "base": "rademacher"}),
        ("smoother", {"variant": "knn", "k": 3, "lam": 1.0, "bandwidth": 1.0}),
    ])
    def test_configs_with_unread_fields_exit_2(self, tmp_path, capsys, model, spec):
        code, _, err = run_cli(capsys, "decompose", "--config", _config_with(tmp_path, model, spec))
        unread = [key for key in spec if key not in ("variant", *MODELS[model].FIELDS[spec["variant"]])]
        assert code == 2 and f"'{WHERE[model]}.{unread[0]}'" in err


@pytest.mark.parametrize("command", ["decompose", "criteria", "ridge-ratio"])
def test_threads_below_one_is_input_error(tmp_path, capsys, command):
    args = (["--n", "30", "--p", "5", "--reps", "3"] if command == "ridge-ratio"
            else ["--config", write_config(tmp_path)])
    code, out, err = run_cli(capsys, command, *args, "--threads", "0")
    assert code == 2 and out == "" and err == "error: threads must be >= 1\n"


def test_cells_refuse_booleans():
    # bool is an int, so without the guard a stray True would print as the cell "1"
    for value in (True, np.True_):
        with pytest.raises(TypeError, match="no boolean cells"):
            cli._fmt(value)
    assert [cli._fmt(v) for v in (np.int64(3), 0.1, "a")] == ["3", "0.10000000000000001", "a"]


def test_module_entry_point_passes_exit_codes_to_the_shell(tmp_path):
    good, _, _ = write_dataset(tmp_path)
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n1,2\noops,4\n")
    collinear = tmp_path / "collinear.csv"
    collinear.write_text("x1,x2,y\n1,2,1\n2,4,2\n3,6,2\n4,8,5\n")
    env = {**os.environ, "PYTHONPATH": str(Path(randomx_eval.__file__).resolve().parents[1])}
    for path, code in ((good, 0), (bad, 2), (collinear, 3)):
        proc = subprocess.run([sys.executable, "-m", "randomx_eval.cli", "eval", str(path)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == code, proc.stderr


#: Run in a fresh process: ``cli.main`` on the arguments, if any, then print the exit code and
#: every loaded module of scipy.linalg and scipy.special.
_SCIPY_PROBE = """
import sys
from randomx_eval import cli
code = cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(code, *sorted(m for m in sys.modules if m.split(".")[:2] in (["scipy", "linalg"], ["scipy", "special"])))
"""


def test_import_leaves_scipy_special_unloaded(tmp_path):
    # only copula draws and their x0 moments need scipy.special, and LAPACK comes from numpy:
    # neither the import nor an eval run, manifest included, loads scipy.linalg or scipy.special
    env = {**os.environ, "PYTHONPATH": str(Path(randomx_eval.__file__).resolve().parents[1])}
    data, _, _ = write_dataset(tmp_path)
    out = str(tmp_path / "out.csv")
    for argv in ([], ["eval", data, "--sigma2", "1", "--out", out],
                 ["eval", data, "--smoother", "ridge", "--lam", "3", "--out", out]):
        proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, *argv], env=env,
                              capture_output=True, text=True)
        assert proc.stdout.split() == ["0"], (argv, proc.stdout, proc.stderr)


def test_tracer_binds_every_name_it_patches(tmp_path):
    # the benchmark's tracer wraps each layer by the name a module binds, all at start-up,
    # so one traced run fails if any of those names has gone
    root = Path(__file__).resolve().parents[1]
    data, _, _ = write_dataset(tmp_path)
    spans = tmp_path / "spans.json"
    env = {**os.environ, "PYTHONPATH": str(Path(randomx_eval.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, str(root / "perfbench" / "tracer.py"), str(spans),
                           "eval", data, "--sigma2", "1"], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(spans.read_text())["spans"]


class TestBundledConfigs:
    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            bundled_config_path("absent.json")

    @pytest.mark.parametrize("name", ["high_dim.json", "low_dim.json"])
    def test_study_configs_run(self, name, capsys):
        path = bundled_config_path(name)
        doc = json.loads(open(path).read())
        assert doc["n"] == 100 and len(doc["scenarios"]) == 6
        code, out, _ = run_cli(capsys, "decompose", "--config", path, "--reps", "3")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 6
        assert {r[1] for r in rows} == {"normal_block", "copula_uniform", "copula_t4"}
        assert {r[2] for r in rows} == {"linear_sum", "abs_sum"}

    def test_ridge_config_runs(self, capsys):
        path = bundled_config_path("ridge.json")
        code, out, _ = run_cli(
            capsys, "ridge-ratio", "--config", path, "--reps", "2", "--lambda-points", "3"
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 3 and float(rows[-1][0]) == pytest.approx(1e6)
