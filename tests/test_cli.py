import contextlib
import csv
import io
import re
import shlex
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dispomet.cli import (
    EXIT_EMPTY_GROUP,
    EXIT_ERROR,
    EXIT_IO,
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
    ):
        assert main(argv + ["--method", methods]) == EXIT_ERROR, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("dispomet: error: ") and "--method" in line
    assert not out.exists()


MISSING_COLUMN = "investor_id,asset_id,side,quantity,price\nI1,A,B,1,10\n"
ZERO_QUANTITY = HEADER + "I1,A,B,0,10,2015-01-05 09:00:00\n"
REGISTRY_HEADER = "asset_id,underlying_id,leverage\n"


def _compare(spec):
    return ["compare", "--transactions", "{tx}", "--registry", "{reg}", "--spec", spec]


_VALIDATE = ["validate", "--transactions", "{tx}", "--registry", "{reg}"]


@pytest.mark.parametrize(
    "argv, transactions, registry, code, first_line",
    [
        (_VALIDATE, MISSING_COLUMN, REGISTRY, EXIT_SCHEMA, "SchemaError: missing column(s): timestamp"),
        (_compare("long-vs-inverse"), MISSING_COLUMN, REGISTRY, EXIT_SCHEMA,
         "SchemaError: missing column(s): timestamp"),
        (_VALIDATE, CLEAN, "asset_id,underlying_id\nETF1L,IDX\n", EXIT_SCHEMA,
         "SchemaError: missing column(s): leverage"),
        (_compare("long-vs-inverse"), CLEAN, "asset_id,underlying_id\nETF1L,IDX\n", EXIT_SCHEMA,
         "SchemaError: missing column(s): leverage"),
        (["compute", "--transactions", "{tx}", "--out", "{out}"], ZERO_QUANTITY, REGISTRY, EXIT_MALFORMED,
         "MalformedRow: line 2: quantity must be positive, got 0"),
        (_compare("long-vs-inverse"), ZERO_QUANTITY, REGISTRY, EXIT_MALFORMED,
         "MalformedRow: line 2: quantity must be positive, got 0"),
        (_VALIDATE, CLEAN, REGISTRY + "ETF1L,IDX,2\n", EXIT_MALFORMED,
         "DuplicateAsset: duplicate asset_id 'ETF1L' in registry"),
        (_compare("long-vs-inverse"), CLEAN, REGISTRY + "ETF1L,IDX,2\n", EXIT_MALFORMED,
         "DuplicateAsset: duplicate asset_id 'ETF1L' in registry"),
        (_VALIDATE, CLEAN, REGISTRY_HEADER + "ETF1L,IDX,0\n", EXIT_MALFORMED,
         "ZeroLeverage: asset_id 'ETF1L' has leverage 0"),
        (_compare("long-vs-inverse"), CLEAN, REGISTRY_HEADER + "ETF1L,IDX,0\n", EXIT_MALFORMED,
         "ZeroLeverage: asset_id 'ETF1L' has leverage 0"),
        (_VALIDATE, CLEAN, REGISTRY_HEADER + "ETF1L,IDX,x\n", EXIT_MALFORMED,
         "MalformedRow: line 2: unparseable leverage 'x'"),
        (_compare("long-vs-inverse"), CLEAN, REGISTRY_HEADER + "ETF1L,IDX,x\n", EXIT_MALFORMED,
         "MalformedRow: line 2: unparseable leverage 'x'"),
        (_compare("long-vs-inverse"), CLEAN, REGISTRY + "ETF2L,IDX,nan\n", EXIT_MALFORMED,
         "MalformedRow: line 4: leverage must be finite, got nan"),
        (_compare("long-vs-inverse"), CLEAN, REGISTRY, EXIT_EMPTY_GROUP,
         "EmptyGroup: group filter '-1x' selected no defined values"),
        (_compare("context-split"), CLEAN, REGISTRY, EXIT_EMPTY_GROUP,
         "EmptyGroup: group filter '-1x negative context' selected no defined values"),
        (["validate", "--transactions", "{missing}"], CLEAN, REGISTRY, EXIT_IO,
         "IOError: [Errno 2] No such file or directory: '{missing}'"),
        (["report", "--transactions", "{tx}"], HEADER, REGISTRY, EXIT_ERROR, "EmptyDataset: no transactions"),
        (["compute", "--transactions", "{tx}", "--out", "{out}", "--bins", "0"], CLEAN, REGISTRY, EXIT_ERROR,
         "InvalidBinWidth: bin width must be in (0, 2], got 0.0"),
        (["compute", "--transactions", "{tx}", "--out", "{out}", "--bins", "1e-300"], CLEAN, REGISTRY, EXIT_ERROR,
         "InvalidBinWidth: bin width 1e-300 gives more than 1000000 bins"),
        (["synth", "--out", "{out}", "--investors", "3", "--leverages", "abc"], CLEAN, REGISTRY, EXIT_ERROR,
         "UsageError: --leverages: expected comma-separated numbers, got 'abc'"),
        (["synth", "--out", "{out}", "--investors", "3", "--leverages", "1,nan"], CLEAN, REGISTRY, EXIT_ERROR,
         "InvalidProfile: leverage menu must be non-empty with nonzero finite entries"),
        (_compare("long-vs-inverse") + ["--decimals", "-1"], CLEAN, REGISTRY, EXIT_ERROR,
         "UsageError: --decimals must be >= 0, got -1"),
        (_VALIDATE, CLEAN + "I1,ETF1L,B,1,9.0,2015-01-05 09:03:00\udcff\n", REGISTRY, EXIT_MALFORMED,
         "MalformedRow: line 5: not UTF-8 text: byte 0xff cannot be decoded"),
        (_compare("long-vs-inverse") + ["--lenient"], CLEAN, REGISTRY + "ETF2\udcc3(,IDX,2\n", EXIT_MALFORMED,
         "MalformedRow: line 4: not UTF-8 text: byte 0xc3 cannot be decoded"),
        (["compute", "--transactions", "{tx}", "--out", "{out}", "--lenient"],
         CLEAN + "I3" + "x" * 131073 + ",ETF1L,B,1,9.0,2015-01-05 09:03:00\n", REGISTRY, EXIT_MALFORMED,
         "MalformedRow: line 5: field larger than field limit (131072)"),
        (_VALIDATE, CLEAN, REGISTRY + 'ETF2L,"' + "IDX\n" * 40000 + '",2\n', EXIT_MALFORMED,
         "MalformedRow: line 32772: field larger than field limit (131072)"),
    ],
    ids=[
        "validate-transactions-schema", "compare-transactions-schema", "validate-registry-schema",
        "compare-registry-schema", "compute-malformed-row", "compare-malformed-row",
        "validate-duplicate-asset", "compare-duplicate-asset", "validate-zero-leverage",
        "compare-zero-leverage", "validate-bad-leverage", "compare-bad-leverage",
        "compare-non-finite-leverage", "long-vs-inverse-empty-group", "context-split-empty-group",
        "missing-file", "report-empty-log", "compute-bins-0", "compute-bins-too-many",
        "synth-unparseable-leverages", "synth-non-finite-leverage", "compare-negative-decimals",
        "validate-transactions-not-utf8", "compare-registry-not-utf8", "compute-field-too-long",
        "validate-registry-field-too-long",
    ],
)
def test_exit_code_and_first_error_line(argv, transactions, registry, code, first_line, tmp_path, capsys):
    paths = {"tx": tmp_path / "transactions.csv", "reg": tmp_path / "instruments.csv",
             "out": tmp_path / "out", "missing": tmp_path / "nope.csv"}
    # A lone surrogate escape in the text writes that raw, undecodable byte.
    paths["tx"].write_text(transactions, encoding="utf-8", errors="surrogateescape")
    paths["reg"].write_text(registry, encoding="utf-8", errors="surrogateescape")
    assert main([arg.format(**paths) for arg in argv]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[0] == "dispomet: error: " + first_line.format(**paths)


@pytest.mark.parametrize(
    "argv",
    [
        ["compute"],
        ["compute", "--transactions", "t.csv", "--out", "out", "--bins", "abc"],
        ["compute", "--transactions", "t.csv", "--out", "out", "--threads", "2"],
        ["report", "--transactions", "t.csv", "--method", "count"],
    ],
)
def test_usage_error_exits_with_code_1(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == EXIT_ERROR
    assert re.match(r"dispomet( \w+)?: error: ", capsys.readouterr().err.splitlines()[-1])


# Fuzz: arbitrary bytes or CSV-shaped text with hostile fields, under a fixed
# menu of flags, must end in a documented exit code and never in a traceback.
_FUZZ_FIELDS = st.one_of(
    st.sampled_from(["I1", "I2", "A", "B", "S", "1", "7", "0", "-1", "10.0", "1e308", "nan",
                     "inf", "2015-01-05 09:00:00", "2015-01-05 09:00:00+00:00",
                     "0001-01-01T00:00:00+01:00", "9999-12-31 23:59:59-01:00", '"', ""]),
    st.text(alphabet="0123456789.-+eE:TZ ,\"\n\rBSabIn\x00é", max_size=12),
)
_FUZZ_TABLE = st.tuples(
    st.permutations(["investor_id", "asset_id", "side", "quantity", "price", "timestamp"]),
    st.lists(st.lists(_FUZZ_FIELDS, min_size=0, max_size=7), max_size=12),
).map(lambda t: "\n".join(",".join(row) for row in [list(t[0]), *t[1]]).encode("utf-8"))
_FUZZ_REGISTRY = st.sampled_from([REGISTRY, REGISTRY_HEADER + "A,IDX,2\nB,IDX,-2\n"]).map(str.encode) | st.binary(
    max_size=60
)
_FUZZ_ARGV = st.sampled_from(
    [
        ["validate", "--transactions", "{tx}", "--registry", "{reg}"],
        ["validate", "--transactions", "{tx}", "--lenient"],
        ["compute", "--transactions", "{tx}", "--out", "{out}"],
        ["compute", "--transactions", "{tx}", "--out", "{out}", "--framing", "all", "--lenient"],
        ["compute", "--transactions", "{tx}", "--out", "{out}", "--level", "investor-mean-of-assets",
         "--eval-scope", "sells-only", "--zero-denominator", "zero", "--method", "value,count"],
        ["compute", "--transactions", "{tx}", "--out", "{out}", "--framing", "wide",
         "--context-rule", "include-traded-asset", "--bins", "0.5", "--lenient"],
        *(_compare(spec) + ["--lenient"] for spec in ("volatility-long", "volatility-short",
                                                      "long-vs-inverse", "context-split")),
        _compare("long-vs-inverse") + ["--decimals", "0", "--method", "total"],
        ["report", "--transactions", "{tx}"],
        ["report", "--transactions", "{tx}", "--lenient", "--bins", "2"],
    ]
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(transactions=_FUZZ_TABLE | st.binary(max_size=200), registry=_FUZZ_REGISTRY, argv=_FUZZ_ARGV)
def test_arbitrary_input_ends_in_a_documented_exit_code(transactions, registry, argv):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"tx": Path(tmp, "transactions.csv"), "reg": Path(tmp, "instruments.csv"), "out": Path(tmp, "out")}
        paths["tx"].write_bytes(transactions)
        paths["reg"].write_bytes(registry)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([arg.format(**paths) for arg in argv])
    assert code in range(6)
