import contextlib
import csv
import errno
import gc
import importlib
import io
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import dispomet
from dispomet import _kernel, _rows, cli, ingest, metrics, stats
from dispomet.cli import (
    EXIT_EMPTY_GROUP,
    EXIT_ERROR,
    EXIT_IO,
    EXIT_MALFORMED,
    EXIT_OK,
    EXIT_SCHEMA,
    main,
)
from dispomet.ingest import MalformedRow, Transaction

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


def test_compute_writes_each_framing_before_aggregating_the_next(clean_file, tmp_path, monkeypatch):
    # Each framing is aggregated once, for every method, and all of its
    # files are written before the next framing's aggregate call.
    out = tmp_path / "out"
    calls = []
    aggregate = metrics.aggregate

    def recording_aggregate(store, level, framing, **kwargs):
        calls.append((framing.value, [m.value for m in kwargs["methods"]], sorted(p.name for p in out.iterdir())))
        return aggregate(store, level, framing, **kwargs)

    monkeypatch.setattr(metrics, "aggregate", recording_aggregate)
    assert main(["compute", "--transactions", clean_file, "--out", str(out), "--framing", "all"]) == EXIT_OK
    want, written = [], []
    for framing in ("narrow", "wide", "integrated"):
        want.append((framing, ["count", "total", "value"], sorted(written)))
        written += [f"{kind}_{framing}_{method}.csv" for method in ("count", "total", "value") for kind in ("hist", "records")]
    assert calls == want
    assert sorted(p.name for p in out.iterdir()) == sorted(written)


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


def test_log_commands_build_no_transaction(tmp_path, monkeypatch):
    def no_transaction(self, *args, **kwargs):
        raise AssertionError("a Transaction was built")

    monkeypatch.setattr(Transaction, "__init__", no_transaction)
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--investors", "100", "--seed", "42",
                 "--pg", "0.6", "--pl", "0.3", "--assets", "8", "--horizon", "40"]) == EXIT_OK
    tx, reg = str(data / "transactions.csv"), str(data / "instruments.csv")
    header, *rows = (data / "transactions.csv").read_text().splitlines(keepends=True)
    shuffled = tmp_path / "shuffled.csv"  # out of time order, with one bad row
    shuffled.write_text(header + "".join(rows[::-1]) + "I1,A,X,1,1,2015-01-05 09:00:00\n")
    for log in (tx, str(shuffled)):
        assert main(["validate", "--transactions", log, "--registry", reg, "--lenient"]) == EXIT_OK
        assert main(["report", "--transactions", log, "--lenient"]) == EXIT_OK
        assert main(["compute", "--transactions", log, "--out", str(tmp_path / "out"),
                     "--framing", "all", "--lenient"]) == EXIT_OK
        for spec in ("volatility-long", "volatility-short", "long-vs-inverse", "context-split"):
            assert main(["compare", "--transactions", log, "--registry", reg, "--spec", spec,
                         "--lenient"]) == EXIT_OK


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


@pytest.mark.parametrize("spec", ["volatility-long", "volatility-short", "long-vs-inverse", "context-split"])
def test_compare_out_writes_the_table_it_would_print(spec, synth_log, tmp_path, capsys):
    argv = ["compare", "--transactions", str(synth_log / "transactions.csv"),
            "--registry", str(synth_log / "instruments.csv"), "--spec", spec]
    assert main(argv) == EXIT_OK
    printed = capsys.readouterr().out
    assert main([*argv, "--out", str(tmp_path / "tables")]) == EXIT_OK
    path = tmp_path / "tables" / f"compare_{spec}.txt"
    assert capsys.readouterr().out == f"wrote comparison table to {path}\n"
    assert path.read_text(encoding="utf-8") == printed


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


def test_compare_labels_tell_near_leverages_apart(tmp_path, capsys):
    # Six significant digits print both leverages as 2.12346.  A label is
    # the registry's text of its leverage: the short form where it is exact,
    # so whole leverages still read 2x and -7x, else the float's repr.
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--investors", "40", "--assets", "4",
                 "--leverages", "2.1234567,2.1234568"]) == EXIT_OK
    capsys.readouterr()
    argv = ["compare", "--transactions", str(data / "transactions.csv"),
            "--registry", str(data / "instruments.csv"), "--spec", "volatility-long"]
    assert main(argv) == EXIT_OK
    labels = [line.split()[:3] for line in capsys.readouterr().out.splitlines() if " = " in line]
    assert labels == [["2.1234567x", "=", "2.1234568x"]] * 2  # the negative and the positive portfolio
    assert [line.split(",")[2] for line in (data / "instruments.csv").read_text().splitlines()[1:]] == [
        "2.1234567", "2.1234568", "2.1234567", "2.1234568",
    ]
    assert [stats._lev_label(leverage) for leverage in (2.0, -7.0, 0.5, 1e-07)] == ["2x", "-7x", "0.5x", "1e-07x"]


@pytest.mark.parametrize("method", [None, "count", "value", "total,value"])
def test_compare_aggregates_only_the_requested_methods(synth_log, monkeypatch, capsys, method):
    argv = ["compare", "--transactions", str(synth_log / "transactions.csv"),
            "--registry", str(synth_log / "instruments.csv"), "--spec", "volatility-long"]
    argv += [] if method is None else ["--method", method]
    aggregate, received = metrics.aggregate, []

    def every_method(store, level, framing, *, methods, zero_policy):
        return aggregate(store, level, framing, zero_policy=zero_policy)

    def recorded(store, level, framing, *, methods, zero_policy):
        received.append(list(methods))
        return aggregate(store, level, framing, methods=methods, zero_policy=zero_policy)

    monkeypatch.setattr(metrics, "aggregate", every_method)
    assert main(argv) == EXIT_OK
    table = capsys.readouterr().out  # the table from records of all three methods
    monkeypatch.setattr(metrics, "aggregate", recorded)
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == table
    assert received == [[metrics.Method(name) for name in (method or "count,total,value").split(",")]]


def _naive_compare_table(spec, tx_path, reg_path):
    """compare's table at 17 decimals, each sample picked record by record from aggregate's records."""
    with open(tx_path, encoding="utf-8", newline="") as fh:
        store = metrics.run_engine(ingest.parse_transactions(fh))
    with open(reg_path, encoding="utf-8", newline="") as fh:
        registry = ingest.parse_instruments(fh)
    framing = metrics.Framing.NARROW if spec == "long-vs-inverse" else metrics.Framing.INTEGRATED
    records = list(metrics.aggregate(store, metrics.Level.PER_ASSET, framing))

    def sample(method, leverage, context):
        return [r.de for r in records if r.defined and r.method is method and r.context is context
                and r.asset_id in registry and registry[r.asset_id].leverage == leverage]

    def row(a, b, context_a, context_b):
        label = f"{ingest.number_text(a)}x = {ingest.number_text(b)}x"
        return label, [stats.mann_whitney(sample(m, a, context_a), sample(m, b, context_b)) for m in metrics.Method]

    leverages = sorted({inst.leverage for inst in registry.values()})
    longs = [l for l in leverages if l > 0]
    shorts = sorted([l for l in leverages if l < 0], key=abs)
    negative, positive = metrics.Context.NEGATIVE, metrics.Context.POSITIVE
    if spec.startswith("volatility-"):
        group, header = (longs, "Long ETF") if spec == "volatility-long" else (shorts, "Short ETF")
        sections = [(title, [row(a, b, context, context) for a, b in itertools.combinations(group, 2)])
                    for title, context in (("Negative Portfolio", negative), ("Positive Portfolio", positive))]
    elif spec == "long-vs-inverse":
        header = "ETF"
        sections = [("", [row(-l, l, None, None) for l in longs if -l in shorts])]
    else:
        header = ""
        sections = [
            (f"{kind} ETFs tested in Negative vs Positive Portfolio", [row(l, l, negative, positive) for l in group])
            for kind, group in (("Short", shorts), ("Long", longs)) if group
        ]
    return stats.render_table(sections, ["Count", "Total", "Value"], row_header=header, decimals=17) + "\n"


@pytest.mark.parametrize("spec", ["volatility-long", "volatility-short", "long-vs-inverse", "context-split"])
def test_compare_prints_the_table_of_a_naive_selection(spec, synth_log, capsys):
    tx, reg = synth_log / "transactions.csv", synth_log / "instruments.csv"
    assert main(["compare", "--transactions", str(tx), "--registry", str(reg), "--spec", spec,
                 "--decimals", "17"]) == EXIT_OK
    printed = capsys.readouterr().out
    assert printed.count(" = ") >= 4
    assert printed == _naive_compare_table(spec, tx, reg)


class _FullDevice(io.RawIOBase):
    """A writer that fails every write as a full disk does."""

    def writable(self):
        return True

    def write(self, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_stdout_that_cannot_be_written_is_one_io_error(clean_file, tmp_path):
    accented = tmp_path / "accented.csv"
    accented.write_text(CLEAN + "I1,ETF1L,é,1,9.0,2015-01-05 09:03:00\n", encoding="utf-8")
    unencodable = re.escape("UnicodeEncodeError: 'ascii' codec can't encode character '\\xe9' in position ") + (
        r"\d+: ordinal not in range\(128\)"
    )
    cases = [
        (_FullDevice(), "utf-8", ["validate", "--transactions", clean_file],
         re.escape(f"IOError: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}")),
        # An ASCII stdout given a reject that quotes the side é, then an --out path with é in it.
        (io.BytesIO(), "ascii", ["validate", "--transactions", str(accented), "--lenient"], unencodable),
        (io.BytesIO(), "ascii", ["compute", "--transactions", clean_file, "--out", str(tmp_path / "résultats")],
         unencodable),
    ]
    for raw, encoding, argv, message in cases:
        stdout, stderr = io.TextIOWrapper(raw, encoding=encoding), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
        finally:
            stdout.close()
        assert code == EXIT_IO, argv
        (line,) = stderr.getvalue().splitlines()
        assert re.fullmatch(f"dispomet: error: {message}", line), line


def _run_console_script(monkeypatch, argv, stdout):
    """cli.run as the console script runs it, in-process; returns its exit code and stderr."""
    stderr = io.StringIO()
    monkeypatch.setattr(sys, "argv", ["dispomet", *argv])
    monkeypatch.setattr(gc, "freeze", lambda: None)  # keep this process's heap collectable
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), pytest.raises(SystemExit) as done:
        cli.run()
    return done.value.code, stderr.getvalue()


def test_help_that_stdout_cannot_take_is_one_io_error(monkeypatch):
    null = os.open(os.devnull, os.O_WRONLY)

    class FullStdout(_FullDevice):
        def fileno(self):  # run points the stdout descriptor at the null device
            return null

    stdout = io.TextIOWrapper(FullStdout(), encoding="utf-8")
    try:
        code, err = _run_console_script(monkeypatch, ["--help"], stdout)
    finally:
        stdout.close()
        os.close(null)
    assert code == EXIT_IO
    (line,) = err.splitlines()
    assert line == f"dispomet: error: IOError: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"


def test_help_to_a_writable_stdout_exits_0(monkeypatch):
    stdout = io.StringIO()
    assert _run_console_script(monkeypatch, ["--help"], stdout) == (EXIT_OK, "")
    assert stdout.getvalue().startswith("usage: dispomet")


# Prints, as JSON on stderr, the dispomet modules a fresh process loaded,
# whether it loaded numpy and which it loaded of the stdlib modules that only
# synth needs: for a command run through cli.run at exit, with whether the
# heap was frozen; for a bare import before dispomet.random_stream is first
# read.
_FRESH_PROCESS = """
import atexit, gc, json, sys

SYNTH_ONLY = ("dataclasses", "decimal", "fractions", "inspect", "statistics")

def report(**extra):
    names = sorted(name for name in sys.modules if name.startswith("dispomet."))
    stdlib = [name for name in SYNTH_ONLY if name in sys.modules]
    print(json.dumps({"modules": names, "numpy": "numpy" in sys.modules, "stdlib": stdlib, **extra}), file=sys.stderr)

if sys.argv[1:]:
    atexit.register(lambda: report(frozen=gc.get_freeze_count() > 0))
    sys.argv[0] = "dispomet"
    from dispomet.cli import run
    run()
else:
    import dispomet
    from datetime import datetime
    from dispomet.ingest import Side, Transaction
    dispomet.run_engine([Transaction("I1", "A", side, 1, 10.0, datetime(2015, 1, 5, 9, m), m)
                         for m, side in enumerate((Side.BUY, Side.SELL))])
    report()
    assert callable(dispomet.random_stream)
"""


@pytest.fixture(scope="module")
def synth_log(tmp_path_factory):
    out = tmp_path_factory.mktemp("log")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--out", str(out), "--investors", "60", "--seed", "3"]) == EXIT_OK
    # The same rows out of time order: the runs of equal timestamp in reverse
    # order, each run's rows kept in their order.
    header, *rows = (out / "transactions.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    runs = [list(run) for _, run in itertools.groupby(rows, key=lambda row: row.rsplit(",", 1)[1])]
    (out / "reversed.csv").write_text(header + "".join(itertools.chain(*reversed(runs))), encoding="utf-8")
    return out


@pytest.mark.parametrize(
    "argv, loads, numpy",
    [
        # A log in time order streams through _rows alone; the rest parse a whole log.
        (["compute", "--transactions", "{tx}", "--out", "{out}", "--framing", "all"], set(), False),
        (["compute", "--transactions", "{reversed}", "--out", "{out}", "--framing", "all"], {"dispomet.ingest"},
         False),
        (["validate", "--transactions", "{tx}", "--registry", "{reg}"], {"dispomet.ingest"}, False),
        (["report", "--transactions", "{tx}"], {"dispomet.ingest"}, False),
        (["compare", "--transactions", "{tx}", "--registry", "{reg}", "--spec", "volatility-long"],
         {"dispomet.ingest", "dispomet.stats"}, False),
        (["synth", "--out", "{out}", "--investors", "3"], {"dispomet.ingest", "dispomet.synth"}, False),
        ([], {"dispomet.ingest"}, False),  # a bare import dispomet, then run_engine over a list
        (["--help"], set(), False),
    ],
    ids=["compute", "compute-out-of-order", "validate", "report", "compare", "synth", "import", "help"],
)
def test_fresh_process_loads_only_the_modules_it_runs(argv, loads, numpy, synth_log, tmp_path):
    paths = {"tx": synth_log / "transactions.csv", "reg": synth_log / "instruments.csv", "out": tmp_path / "out",
             "reversed": synth_log / "reversed.csv"}
    src = str(Path(dispomet.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run(
        [sys.executable, "-c", _FRESH_PROCESS, *(arg.format(**paths) for arg in argv)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == EXIT_OK, done.stderr
    report = json.loads(done.stderr.splitlines()[-1])
    assert {"dispomet.ingest", "dispomet.synth", "dispomet.stats"} & set(report["modules"]) == loads
    assert report["numpy"] is numpy  # synth draws from a stdlib PCG64: no command needs numpy
    # dataclasses loads inspect, ast, dis and tokenize; fractions loads decimal.
    if "dispomet.synth" not in loads:
        assert report["stdlib"] == []
    if argv:
        assert report["frozen"]


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["compute", "--transactions", "{bad}", "--out", "{out}"], EXIT_MALFORMED,
         "dispomet: error: MalformedRow: line 3: side must be B or S, got 'X'"),
        (["report", "--transactions", "{tx}", "--bins", "0"], EXIT_ERROR,
         "dispomet: error: InvalidBinWidth: bin width must be in (0, 2], got 0.0"),
    ],
    ids=["compute-malformed-row", "report-bins-0"],
)
def test_a_failed_run_does_not_load_numpy(argv, code, message, tmp_path):
    # Mapping synth's InvalidProfile to its exit code imported synth, and
    # numpy with it, in every run that failed.
    bad = tmp_path / "bad.csv"
    bad.write_text(HEADER + "I1,A1,B,1,10,2015-01-05 09:00:00\nI1,A1,X,1,10,2015-01-05 09:01:00\n")
    (tmp_path / "tx.csv").write_text(CLEAN)
    paths = {"bad": bad, "tx": tmp_path / "tx.csv", "out": tmp_path / "out"}
    src = str(Path(dispomet.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run(
        [sys.executable, "-c", _FRESH_PROCESS, *(arg.format(**paths) for arg in argv)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == code, done.stderr
    *lines, last = done.stderr.splitlines()
    assert lines == [message]
    report = json.loads(last)
    assert "dispomet.synth" not in report["modules"] and report["numpy"] is False and report["stdlib"] == []
    # A strict compute stops in the streamed parse, and report before it reads its input: neither loads ingest.
    assert not {"dispomet.ingest", "dispomet.stats"} & set(report["modules"])
    assert not list(tmp_path.rglob("records_*"))


# Every attribute that perfbench/run.py and perfbench/tracer.py read or
# wrap, as (module of dispomet, attribute path); "" is the package.
_BENCHMARK_ATTRIBUTES = [
    ("ingest", "parse_transactions_report"), ("ingest", "serialize_transactions"),
    ("ingest", "serialize_instruments"), ("metrics", "run_engine"), ("metrics", "TallyStore.to_dict"),
    ("metrics", "aggregate"), ("metrics", "histogram"), ("_kernel", "encode"), ("_kernel", "stream"),
    ("_kernel", "njit"), ("stats", "mann_whitney"), ("stats", "render_table"), ("cli", "main"),
    ("", "random_stream"), ("", "run_engine"),
]


@pytest.mark.parametrize("module, path", _BENCHMARK_ATTRIBUTES)
def test_every_name_the_benchmark_reads_resolves(module, path):
    value = importlib.import_module(f"dispomet.{module}" if module else "dispomet")
    for name in path.split("."):
        value = getattr(value, name)
    assert value is None if path == "njit" else callable(value)


def test_cli_calls_the_whole_log_parse_through_the_ingest_module(tmp_path, monkeypatch, capsys):
    # perfbench's tracer wraps ingest.parse_transactions_report: a name that
    # cli bound at import would escape the wrap.
    calls = []
    parse = ingest.parse_transactions_report

    def counted(*args, **kwargs):
        calls.append(args)
        return parse(*args, **kwargs)

    monkeypatch.setattr(ingest, "parse_transactions_report", counted)
    (tmp_path / "tx.csv").write_text(CLEAN)
    assert main(["validate", "--transactions", str(tmp_path / "tx.csv")]) == EXIT_OK
    assert len(calls) == 1


def test_every_spec_has_a_plan_in_stats_and_every_plan_a_spec():
    (commands,) = [action for action in cli.build_parser()._actions if action.dest == "command"]
    (spec,) = [action for action in commands.choices["compare"]._actions if action.dest == "spec"]
    plans = {name for name in vars(stats) if name.endswith("_sections") and not name.startswith("_")}
    assert sorted(cli._COMPARE_SPECS[choice][2] for choice in spec.choices) == sorted(plans)
    assert len(plans) == 4 and all(callable(getattr(stats, plan)) for plan in plans)


def _ordered_log(n_rows, bad_line=None):
    """A log of ``n_rows`` rows in time order; the row at ``bad_line``, if any, has side X."""
    rows = [f"I{i % 3},A{i % 4},{'BS'[i // 12 % 2]},{1 + i % 2},{10 + i % 5},2015-01-05 09:{i // 60:02d}:{i % 60:02d}\n"
            for i in range(n_rows)]
    if bad_line is not None:
        rows[bad_line - 2] = rows[bad_line - 2].replace(",B,", ",X,").replace(",S,", ",X,")
    return HEADER + "".join(rows)


@pytest.mark.parametrize("last_row_out_of_order", [False, True])
def test_a_bad_row_after_streamed_chunks_stops_compute_as_the_whole_parse_does(last_row_out_of_order, tmp_path,
                                                                               monkeypatch, capsys):
    text = _ordered_log(40, bad_line=35)
    if last_row_out_of_order:  # the bad row is met by the streaming attempt, which has not seen the disorder
        text += "I0,A0,B,1,10,2015-01-05 08:00:00\n"
    path = tmp_path / "transactions.csv"
    path.write_text(text)
    with pytest.raises(MalformedRow) as whole:
        ingest.parse_transactions_report(io.StringIO(text))
    monkeypatch.setattr(_rows, "_ORDER_CHUNK", 4)  # eight chunks stream before the bad row
    argv = ["compute", "--transactions", str(path), "--out", str(tmp_path / "out"), "--framing", "all"]
    assert main(argv) == EXIT_MALFORMED
    assert capsys.readouterr().err == f"dispomet: error: MalformedRow: {whole.value}\n"
    assert not list(tmp_path.rglob("records_*"))


def test_a_lenient_compute_that_falls_back_warns_once(tmp_path, monkeypatch, caplog, capsys):
    text = _ordered_log(40, bad_line=9) + "I0,A0,B,1,10,2015-01-05 08:00:00\n"  # the last row is out of order
    path = tmp_path / "transactions.csv"
    path.write_text(text)
    sorted_path = tmp_path / "sorted.csv"
    header, *rows = text.splitlines(keepends=True)
    sorted_path.write_text(header + rows[-1] + "".join(rows[:-1]))
    monkeypatch.setattr(_rows, "_ORDER_CHUNK", 4)
    for log in (path, sorted_path):
        caplog.clear()
        argv = ["compute", "--transactions", str(log), "--out", str(tmp_path / log.stem), "--framing", "all",
                "--lenient"]
        assert main(argv) == EXIT_OK
        (warning,) = [r.getMessage() for r in caplog.records]  # none from the streaming attempt
        line = 9 if log == path else 10
        assert warning == f"skipped 1 malformed row(s), the first at line {line}: side must be B or S, got 'X'"
    capsys.readouterr()
    files = sorted(p.name for p in (tmp_path / "sorted").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "transactions").iterdir()) and len(files) == 18
    assert all((tmp_path / "sorted" / f).read_bytes() == (tmp_path / "transactions" / f).read_bytes() for f in files)


def test_report_prints_summary_and_histogram(clean_file, capsys):
    assert main(["report", "--transactions", clean_file]) == EXIT_OK
    out = capsys.readouterr().out
    assert "Descriptive Summary of Investors" in out
    assert "Histogram" in out


@pytest.mark.parametrize("width", ["0", "2.5"])
def test_report_rejects_a_bad_bin_width_before_reading_input(clean_file, capsys, width):
    assert main(["report", "--transactions", clean_file, "--bins", width]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("dispomet: error: InvalidBinWidth: bin width must be in (0, 2]")


@pytest.mark.parametrize(
    "width, first, last",
    [
        ("0.1", "[-1.00, -0.90)", "[+0.90, +1.00]"),
        ("0.004", "[-1.000, -0.996)", "[+0.996, +1.000]"),
        ("0.015", "[-1.000, -0.985)", "[+0.995, +1.000]"),
        ("0.3", "[-1.00, -0.70)", "[+0.80, +1.00]"),
    ],
)
def test_report_labels_every_bin_apart_and_closes_the_last_at_1(clean_file, capsys, width, first, last):
    # Each edge has as many decimals as the width needs, so no two labels read
    # the same, and the last label ends at 1, where histogram closes its bin,
    # whether or not the width tiles [-1, 1].
    assert main(["report", "--transactions", clean_file, "--bins", width]) == EXIT_OK
    out = capsys.readouterr().out
    labels = [line.split("  ")[0] for line in out.split("(method Count)\n")[1].splitlines()]
    assert len(labels) == metrics.bin_count(float(width))
    assert len(set(labels)) == len(labels)
    assert labels[0] == first and labels[-1] == last
    assert all(label.endswith(")") for label in labels[:-1])


@pytest.mark.parametrize("command", ["validate", "report"])
def test_summary_prints_the_same_text_for_the_log_out_of_time_order(command, synth_log, capsys):
    # The parse sorts reversed.csv and renumbers its pairs, which summarize and report count by code.
    texts = []
    for name in ("transactions.csv", "reversed.csv"):
        assert main([command, "--transactions", str(synth_log / name)]) == EXIT_OK
        texts.append(capsys.readouterr().out)
    assert "Median transactions per investor" in texts[0]
    assert texts[0] == texts[1]


@pytest.mark.filterwarnings("error")
def test_tallies_whose_sums_overflow_print_nothing_to_stderr(tmp_path, capsys):
    # Finite tallies whose narrow, pooled and rg + pg sums pass the double
    # range; numpy warned about each sum on stderr.
    rows = ("i2,b,S,3,1.0", "i2,b,B,2,1.5e308", "i2,a,S,1,1e-300", "i1,a,S,3,2.0",
            "i1,b,B,2,1.5e308", "i1,b,S,2,2.0", "i2,a,B,3,2.0")
    path = tmp_path / "transactions.csv"
    path.write_text(HEADER + "".join(f"{row},2015-01-05 09:00:{s:02d}\n" for s, row in enumerate(rows)))
    for level in ("per-asset", "investor-pooled", "investor-mean-of-assets"):
        assert main(["compute", "--transactions", str(path), "--out", str(tmp_path / level),
                     "--framing", "all", "--level", level]) == EXIT_OK
        assert capsys.readouterr().err == ""
    assert main(["report", "--transactions", str(path)]) == EXIT_OK
    assert capsys.readouterr().err == ""


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


@pytest.mark.parametrize("command", ["compute", "report"])
def test_memory_error_is_one_error_line(command, clean_file, tmp_path, monkeypatch, capsys):
    def out_of_memory(*args, **kwargs):
        raise MemoryError()  # as a failed allocation raises it, without text

    # compute feeds a log in time order to the kernel without run_engine: both reach _kernel.stream.
    monkeypatch.setattr(_kernel, "stream", out_of_memory)
    argv = [command, "--transactions", clean_file, *(["--out", str(tmp_path / "out")] if command == "compute" else [])]
    assert main(argv) == EXIT_ERROR
    assert capsys.readouterr().err == "dispomet: error: MemoryError: out of memory\n"
    assert not list(tmp_path.rglob("records_*"))


def test_compute_bad_bin_width_writes_no_records(clean_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["compute", "--transactions", clean_file, "--out", str(out), "--bins", "0"]) == EXIT_ERROR
    assert "InvalidBinWidth" in capsys.readouterr().err
    assert not list(out.glob("records_*.csv"))


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    # Only the block under "## CLI": an example elsewhere, however slow, is not run here.
    section = re.search(r"^## CLI\n(.*?)^## ", README.read_text(encoding="utf-8"), re.S | re.M).group(1)
    (block,) = re.findall(r"```sh\n(.*?)```", section, re.S)
    commands = [
        shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines() if line.startswith("dispomet ")
    ]
    assert {argv[0] for argv in commands} == {"synth", "validate", "compute", "compare", "report"}
    monkeypatch.chdir(tmp_path)  # the README's relative paths land under tmp_path
    for argv in commands:
        assert main(argv) == EXIT_OK, argv


def test_readme_library_block_runs(tmp_path, monkeypatch, capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    # The package exports exactly the names the block imports, plus random_stream.
    imported = set(re.search(r"from dispomet import \((.*?)\)", block, re.S).group(1).replace(",", " ").split())
    assert set(dispomet.__all__) == imported | {"random_stream"}
    monkeypatch.chdir(tmp_path)  # the block's CSVs land under tmp_path
    exec(compile(block, "README.md", "exec"), {})
    median_diff, p_value, stars = capsys.readouterr().out.split()
    assert float(median_diff) > 0 and float(p_value) < 0.01 and stars == "***"


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
        (["synth", "--out", "{out}", "--investors", "3", "--leverages", "5e-309"], CLEAN, REGISTRY, EXIT_ERROR,
         "InvalidProfile: largest leverage magnitude 5e-309 is too small: 0.9 / 5e-309 overflows"),
        (_compare("long-vs-inverse") + ["--decimals", "-1"], CLEAN, REGISTRY, EXIT_ERROR,
         "UsageError: --decimals must be >= 0, got -1"),
        (_compare("long-vs-inverse") + ["--decimals", "3000000000"], CLEAN, REGISTRY, EXIT_ERROR,
         "UsageError: --decimals must be <= 17, got 3000000000"),
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
        "synth-unparseable-leverages", "synth-non-finite-leverage", "synth-leverage-too-small",
        "compare-negative-decimals",
        "compare-decimals-too-large",
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
    assert captured.err.splitlines() == ["dispomet: error: " + first_line.format(**paths)]
    assert not paths["out"].exists()


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
