import csv
import re
import shlex
from pathlib import Path

import pytest

from dispomet.cli import (
    EXIT_EMPTY_GROUP,
    EXIT_ERROR,
    EXIT_MALFORMED,
    EXIT_OK,
    EXIT_SCHEMA,
    main,
)

HEADER = "investor_id,asset_id,side,quantity,price,timestamp\n"
CLEAN = (
    HEADER
    + "I1,ETF1L,B,10,10.0,2015-01-05 09:00:00\n"
    + "I2,ETF1S,B,5,10.0,2015-01-05 09:01:00\n"
    + "I1,ETF1L,S,10,12.0,2015-01-05 09:02:00\n"
)
REGISTRY = "asset_id,underlying_id,leverage\nETF1L,IDX,1\nETF1S,IDX,-1\n"


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "transactions.csv"
    path.write_text(CLEAN)
    return str(path)


def test_validate_clean(clean_file, capsys):
    assert main(["validate", "--transactions", clean_file]) == EXIT_OK
    out = capsys.readouterr().out
    assert "3 rows accepted, 0 rejected" in out
    assert "Number of transactions" in out


def test_validate_missing_column(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("investor_id,asset_id,side,quantity,price\nI1,A,B,1,10\n")
    assert main(["validate", "--transactions", str(path)]) == EXIT_SCHEMA
    assert "SchemaError" in capsys.readouterr().err


def test_validate_bad_row_strict_vs_lenient(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text(HEADER + "I1,A,B,0,10,2015-01-05 09:00:00\nI1,A,B,1,10,2015-01-05 09:01:00\n")
    assert main(["validate", "--transactions", str(path)]) == EXIT_MALFORMED
    assert main(["validate", "--transactions", str(path), "--lenient"]) == EXIT_OK
    assert "1 row skipped" in capsys.readouterr().out


def test_validate_missing_file(tmp_path):
    assert main(["validate", "--transactions", str(tmp_path / "nope.csv")]) != EXIT_OK


def read_records(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_compute_outputs_per_framing_and_method(clean_file, tmp_path):
    out = tmp_path / "out"
    assert main(
        ["compute", "--transactions", clean_file, "--out", str(out), "--framing", "all"]
    ) == EXIT_OK
    for framing in ("narrow", "wide", "integrated"):
        for method in ("count", "total", "value"):
            assert (out / f"records_{framing}_{method}.csv").exists()
            assert (out / f"hist_{framing}_{method}.csv").exists()
    rows = read_records(out / "records_narrow_count.csv")
    # I1's single closed gain has no loss side, so the record is undefined.
    i1 = [r for r in rows if r["investor_id"] == "I1"]
    assert i1 and all(r["defined"] == "false" and r["de"] == "" for r in i1)


def test_compute_single_method_subset(clean_file, tmp_path):
    out = tmp_path / "out"
    assert main(
        ["compute", "--transactions", clean_file, "--out", str(out), "--method", "count"]
    ) == EXIT_OK
    assert (out / "records_integrated_count.csv").exists()
    assert not (out / "records_integrated_total.csv").exists()


def test_synth_then_compute_and_compare(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(
        ["synth", "--out", str(data), "--investors", "40", "--seed", "42",
         "--pg", "0.6", "--pl", "0.3", "--assets", "8", "--horizon", "40"]
    ) == EXIT_OK
    assert main(
        ["compare", "--transactions", str(data / "transactions.csv"),
         "--registry", str(data / "instruments.csv"), "--spec", "long-vs-inverse"]
    ) == EXIT_OK
    out = capsys.readouterr().out
    assert "-1x = 1x" in out
    assert "* p<0.1, ** p<0.05, *** p<0.01" in out


def test_compare_context_split_sections(tmp_path, capsys):
    data = tmp_path / "data"
    main(["synth", "--out", str(data), "--investors", "60", "--seed", "9",
          "--pg", "0.5", "--pl", "0.4", "--assets", "8", "--horizon", "50"])
    code = main(
        ["compare", "--transactions", str(data / "transactions.csv"),
         "--registry", str(data / "instruments.csv"), "--spec", "context-split"]
    )
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "Negative vs Positive Portfolio" in out


def test_compare_empty_group(tmp_path, capsys):
    # Only long instruments traded: the inverse group is empty.
    path = tmp_path / "transactions.csv"
    path.write_text(CLEAN.replace("ETF1S", "ETF1L"))
    reg = tmp_path / "instruments.csv"
    reg.write_text(REGISTRY)
    code = main(
        ["compare", "--transactions", str(path), "--registry", str(reg), "--spec", "long-vs-inverse"]
    )
    assert code == EXIT_EMPTY_GROUP
    assert "EmptyGroup" in capsys.readouterr().err


def test_report_prints_summary_and_histogram(clean_file, capsys):
    assert main(["report", "--transactions", clean_file]) == EXIT_OK
    out = capsys.readouterr().out
    assert "Descriptive Summary of Investors" in out
    assert "Histogram" in out


def test_validate_accepts_byte_order_mark(tmp_path, capsys):
    path = tmp_path / "transactions.csv"
    path.write_text("\ufeff" + CLEAN, encoding="utf-8")
    reg = tmp_path / "instruments.csv"
    reg.write_text("\ufeff" + REGISTRY, encoding="utf-8")
    assert main(["validate", "--transactions", str(path), "--registry", str(reg)]) == EXIT_OK
    assert "3 rows accepted, 0 rejected" in capsys.readouterr().out


def test_mixed_timezone_awareness_is_a_malformed_row(tmp_path, capsys):
    path = tmp_path / "transactions.csv"
    path.write_text(
        HEADER
        + "I1,A,B,1,10,2015-01-05 09:00:00+00:00\n"
        + "I1,A,S,1,11,2015-01-05 09:01:00\n"
        + "I1,A,B,1,12,2015-01-05 09:02:00+01:00\n"
    )
    assert main(["compute", "--transactions", str(path), "--out", str(tmp_path / "out")]) == EXIT_MALFORMED
    assert "line 3" in capsys.readouterr().err
    assert main(["validate", "--transactions", str(path), "--lenient"]) == EXIT_OK
    assert "2 rows accepted, 1 rejected" in capsys.readouterr().out


def test_compute_bad_bin_width_writes_no_records(clean_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["compute", "--transactions", clean_file, "--out", str(out), "--bins", "0"]) == EXIT_ERROR
    assert "InvalidBinWidth" in capsys.readouterr().err
    assert not list(out.glob("records_*.csv"))


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    commands = [
        shlex.split(line)[1:]
        for block in re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("dispomet ")
    ]
    assert {argv[0] for argv in commands} == {"synth", "validate", "compute", "compare", "report"}
    monkeypatch.chdir(tmp_path)  # the README's relative paths land under tmp_path
    for argv in commands:
        assert main(argv) == EXIT_OK, argv


def test_quantity_beyond_int64_is_a_malformed_row(tmp_path, capsys):
    path = tmp_path / "transactions.csv"
    path.write_text(CLEAN + "I2,ETF1S,S,99999999999999999999,11.0,2015-01-05 09:03:00\n")
    out = tmp_path / "out"
    assert main(["compute", "--transactions", str(path), "--out", str(out)]) == EXIT_MALFORMED
    assert "line 5" in capsys.readouterr().err
    assert not out.exists()
    assert main(["compute", "--transactions", str(path), "--out", str(out), "--lenient"]) == EXIT_OK
    assert main(["validate", "--transactions", str(path), "--lenient"]) == EXIT_OK
    assert "3 rows accepted, 1 rejected" in capsys.readouterr().out


@pytest.mark.parametrize("methods", ["foo", "count,count", "count,,total"])
def test_bad_method_list_is_one_error_line(methods, clean_file, tmp_path, capsys):
    reg = tmp_path / "instruments.csv"
    reg.write_text(REGISTRY)
    out = tmp_path / "out"
    for argv in (
        ["compute", "--transactions", clean_file, "--out", str(out)],
        ["compute", "--transactions", clean_file, "--out", str(out),
         "--level", "investor-mean-of-assets"],
        ["compare", "--transactions", clean_file, "--registry", str(reg),
         "--spec", "long-vs-inverse", "--out", str(out)],
        ["report", "--transactions", clean_file],
    ):
        assert main(argv + ["--method", methods]) == EXIT_ERROR, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("dispomet: error: ") and "--method" in line
    assert not out.exists()
