"""The CLI's column writers against per-record references.

``compute`` writes records and histograms straight from the record columns:
a records row is joined from each id's field text, made once by csv.writer,
and the rows go out in chunks of ``cli._WRITE_CHUNK``.  The references below
are the per-DeRecord csv.writer loop and the Python histogram loop those
writers replaced; the output bytes must not change, whatever the ids hold,
the level or the chunk size.
"""
import csv
import dataclasses
import io
import itertools
import math
import random
import statistics
import tracemalloc
from array import array
from datetime import timedelta, timezone

import numpy as np
import pytest

from dispomet import cli, ingest
from dispomet.cli import EXIT_OK, main
from dispomet.metrics import DeRecords, Framing, Level, Method, aggregate, histogram, run_engine
from dispomet.synth import oracle_replay, random_stream


def _reference_records_csv(records) -> str:
    """One writerow per DeRecord; ``de`` is the repr of a numpy float64."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("investor_id", "asset_id", "context", "method", "de", "defined"))
    for r in records:
        writer.writerow(
            (
                r.investor_id,
                r.asset_id,
                r.context.value if r.context is not None else "all",
                r.method.value,
                "" if math.isnan(r.de) else repr(np.float64(r.de)),
                "true" if r.defined else "false",
            )
        )
    return buf.getvalue()


def _reference_histogram(values, bin_width):
    """Counts per bin from a loop over the values; int() of an infinite quotient raises."""
    n_bins = math.ceil(2.0 / bin_width - 1e-9)
    counts = [0] * n_bins
    for v in values:
        if math.isnan(v):
            continue
        idx = int((v + 1.0) / bin_width)
        if idx < 0:
            idx = 0
        elif idx >= n_bins:
            idx = n_bins - 1
        counts[idx] += 1
    return [(-1.0 + i * bin_width, counts[i]) for i in range(n_bins)]


def _reference_hist_csv(bins) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("bin_edge", "count"))
    for edge, count in bins:
        writer.writerow((repr(edge), count))
    return buf.getvalue()


METHOD_SETS = (list(Method), [Method.VALUE], [Method.TOTAL, Method.COUNT])
WIDTHS = (0.1, 0.3, 0.25, 2 / 3, 0.05)


def test_compute_output_bytes_match_per_record_references(tmp_path):
    path = tmp_path / "transactions.csv"
    out = tmp_path / "out"
    for seed in range(100):
        with open(path, "w", encoding="utf-8") as fh:
            ingest.serialize_transactions(random_stream(seed, max_investors=4, max_assets=5, max_events=60), fh)
        with open(path, encoding="utf-8") as fh:
            store = run_engine(ingest.parse_transactions(fh))
        width = WIDTHS[seed % len(WIDTHS)]
        for level, zero_policy, methods in itertools.product(Level, ("exclude", "zero"), METHOD_SETS):
            argv = [
                "compute", "--transactions", str(path), "--out", str(out), "--framing", "all",
                "--level", level.value, "--zero-denominator", zero_policy,
                "--method", ",".join(m.value for m in methods), "--bins", repr(width),
            ]
            assert main(argv) == EXIT_OK
            for framing in Framing:
                records = aggregate(store, level, framing, methods=methods, zero_policy=zero_policy)
                for method in methods:
                    where = (seed, framing, level, zero_policy, methods, method)
                    selected = [r for r in records if r.method is method]
                    name = f"{framing.value}_{method.value}.csv"
                    assert (out / f"records_{name}").read_bytes() == _reference_records_csv(
                        selected
                    ).encode(), where
                    bins = _reference_histogram([r.de for r in selected if r.defined], width)
                    assert (out / f"hist_{name}").read_bytes() == _reference_hist_csv(bins).encode(), where


@pytest.mark.parametrize("width", [0.1, 0.3, 0.5, 2 / 3, 2.0, 1e-3])
def test_histogram_counts_match_loop_on_and_next_to_edges(width):
    n_bins = math.ceil(2.0 / width - 1e-9)
    edges = np.array([-1.0 + i * width for i in range(n_bins + 1)])
    values = np.concatenate(
        [
            edges,
            np.nextafter(edges, -np.inf),
            np.nextafter(edges, np.inf),
            [-1.0, 1.0, np.nextafter(-1.0, -2.0), -1.5, -1e300, np.nextafter(1.0, 2.0), 1.5, 1e300, np.nan],
        ]
    )
    want = _reference_histogram(values.tolist(), width)
    assert histogram(values, width) == want
    assert histogram(iter(values.tolist()), width) == want
    # Infinite values, and finite ones whose quotient overflows to infinity,
    # land in the end bins; the reference loop's int() cannot take them.
    with pytest.raises(OverflowError):
        _reference_histogram([math.inf], width)
    got = histogram(np.append(values, [-np.inf, np.inf, -1.7e308, 1.7e308]), width)
    assert [count for _, count in got] == [
        count + 2 * (i == 0) + 2 * (i == n_bins - 1) for i, (_, count) in enumerate(want)
    ]


@pytest.mark.parametrize("width", [0.1, 0.3, 0.25, 2 / 3, 0.07, 2.0, 1e-3])
def test_histogram_matches_loop_on_adversarial_values(width):
    rng = random.Random(18)
    n_bins = math.ceil(2.0 / width - 1e-9)
    edges = [-1.0 + i * width for i in range(n_bins + 1)]
    values = [
        0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, -1.0, 1.0, -1.5, 1.5, -1e300, 1e300, math.nan, -math.nan,
        *edges, *(math.nextafter(edge, -2.0) for edge in edges), *(math.nextafter(edge, 2.0) for edge in edges),
        *(rng.uniform(-1.2, 1.2) for _ in range(500)), *(rng.choice(edges) for _ in range(50)),
    ]
    rng.shuffle(values)
    want = _reference_histogram(values, width)
    assert histogram(values, width) == want
    assert histogram(array("d", values), width) == want
    assert histogram(np.array(values), width) == want


def _assert_records_match_reference(path, out, level):
    """compute --framing all at ``level``; every records file equals the reference writer's."""
    argv = ["compute", "--transactions", str(path), "--out", str(out), "--framing", "all", "--level", level.value]
    assert main(argv) == EXIT_OK
    with open(path, encoding="utf-8", newline="") as fh:
        store = run_engine(ingest.parse_transactions(fh))
    files = {}
    for framing in Framing:
        records = aggregate(store, level, framing)
        for method in Method:
            name = f"records_{framing.value}_{method.value}.csv"
            files[name] = (out / name).read_bytes()
            want = _reference_records_csv([r for r in records if r.method is method]).encode()
            assert files[name] == want, (level, name)
    return files


def test_methods_whose_row_sets_differ_match_reference(tmp_path):
    # i1's Value gain tallies overflow to inf, so its per-asset Value DE is
    # undefined and its mean-of-assets Value record is dropped, while its
    # Count and Total records are kept: the methods' files hold different
    # investors.
    rows = [
        "i1,a,B,2,1e-300", "i1,a,S,1,1e300", "i1,a,S,1,1e-301",
        "i2,a,B,2,1.0", "i2,a,S,1,2.0", "i2,a,S,1,0.5",
    ]
    path = tmp_path / "transactions.csv"
    path.write_text(
        "investor_id,asset_id,side,quantity,price,timestamp\n"
        + "".join(f"{row},2024-01-02 10:00:{second:02d}\n" for second, row in enumerate(rows)),
        encoding="utf-8",
    )
    files = _assert_records_match_reference(path, tmp_path / "out", Level.INVESTOR_MEAN_OF_ASSETS)
    investors = {name: {line.split(b",")[0] for line in text.splitlines()[1:]} for name, text in files.items()}
    assert investors["records_narrow_count.csv"] == {b"i1", b"i2"}
    assert investors["records_narrow_value.csv"] == {b"i2"}


QUOTED_INVESTORS = tuple(
    f"{name} {k}" for k in (1, 2) for name in ("inv,", 'say "hi"', "line\nbreak", "cr\r\nlf", "two  inner", "Zoë 投資家")
)
QUOTED_ASSETS = ("A,1", 'B"x"', "C\nD", "E\r\nF", "G H", "ÄÖ-ETF")


@pytest.mark.parametrize("level", list(Level))
def test_ids_that_need_quoting_survive_every_level_and_chunk_size(tmp_path, monkeypatch, level):
    investors = {f"I{i:03d}": name for i, name in enumerate(QUOTED_INVESTORS)}
    assets = {f"A{a:03d}": name for a, name in enumerate(QUOTED_ASSETS)}
    stream = [
        dataclasses.replace(tx, investor_id=investors[tx.investor_id], asset_id=assets[tx.asset_id])
        for tx in random_stream(23, max_investors=12, max_assets=6, max_events=200)
    ]
    assert {tx.investor_id for tx in stream} == set(QUOTED_INVESTORS)
    assert {tx.asset_id for tx in stream} == set(QUOTED_ASSETS)
    path = tmp_path / "transactions.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        ingest.serialize_transactions(stream, fh)
    assert b'"line\nbreak 1"' in path.read_bytes() and b'"cr\r\nlf 2"' in path.read_bytes()
    files = _assert_records_match_reference(path, tmp_path / "out", level)
    # Some file holds more rows than one chunk of 7.
    assert max(len(list(csv.reader(io.StringIO(t.decode(), newline="")))) - 1 for t in files.values()) > 7
    for chunk in (1, 7):
        monkeypatch.setattr(cli, "_WRITE_CHUNK", chunk)
        assert _assert_records_match_reference(path, tmp_path / f"out{chunk}", level) == files


@pytest.mark.parametrize("chunk", [1, 3, 4096])
def test_deduplicating_records_writer_matches_the_per_record_reference(monkeypatch, chunk):
    # 0.0 and -0.0 compare equal but are written differently; 1/3 repeats,
    # and a NaN is an undefined record.
    values = [0.0, -0.0, 1 / 3, math.nan, 1 / 3, -0.0, 0.0, 1 / 3, -0.25, math.nan, 1.0, -1.0]
    n = len(values)
    records = DeRecords(
        list(QUOTED_INVESTORS), list(QUOTED_ASSETS),
        array("i", [k % len(QUOTED_INVESTORS) for k in range(n)]),
        array("i", [(n - 1 - k) % len(QUOTED_ASSETS) for k in range(n)]),
        array("b", [k % 3 for k in range(n)]), array("b", [k // 4 for k in range(n)]),
        array("d", values),
    )
    monkeypatch.setattr(cli, "_WRITE_CHUNK", chunk)
    buf = io.StringIO()
    cli._write_records(records, buf, cli._field_texts(records.investor_ids), cli._field_texts(records.asset_ids))
    assert buf.getvalue() == _reference_records_csv(records)
    assert buf.getvalue().count("np.float64(-0.0),true") == 2
    assert buf.getvalue().count("np.float64(0.0),true") == 2


def _writer_peak(n_records: int) -> int:
    """tracemalloc peak of _write_records over n distinct de values, to a sink that keeps nothing."""
    records = DeRecords(
        ["i0", "i1"], ["A0"], array("i", [k % 2 for k in range(n_records)]), array("i", [0]) * n_records,
        array("b", [0]) * n_records, array("b", [0]) * n_records, array("d", [k / 7.0 for k in range(n_records)]),
    )
    texts = cli._field_texts(records.investor_ids), cli._field_texts(records.asset_ids)
    sink = type("Sink", (), {"write": lambda self, text: None, "writelines": lambda self, lines: None})()
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        cli._write_records(records, sink, *texts)
        return tracemalloc.get_traced_memory()[1] - baseline
    finally:
        tracemalloc.stop()


def test_records_writer_memory_does_not_grow_with_the_file():
    # Distinct values, as Total and Value records mostly are: a writer that
    # formats each distinct value of the whole file at once holds every
    # value's text, about 90 bytes a record.
    small, large = _writer_peak(2 * cli._WRITE_CHUNK), _writer_peak(12 * cli._WRITE_CHUNK)
    assert large <= 1.5 * small, (small, large)


# One bad row per reject reason of a lenient parse: the start of its reason
# and its fields in TRANSACTION_COLUMNS order, or None for a row of too few
# fields.  The last timestamp is naive in an aware log and aware in a naive one.
_BAD_ROWS = (
    ("wrong number of fields", None),
    ("side must be B or S", ("I9", "A9", "X", "1", "10.0", "{ts}")),
    ("quantity must be a whole number", ("I9", "A9", "B", "1.5", "10.0", "{ts}")),
    ("quantity must be positive", ("I9", "A9", "B", "0", "10.0", "{ts}")),
    ("quantity must be at most", ("I9", "A9", "S", str(ingest.INT64_MAX + 1), "10.0", "{ts}")),
    ("unparseable price", ("I9", "A9", "B", "1", "ten", "{ts}")),
    ("price must be positive", ("I9", "A9", "B", "1", "-1.0", "{ts}")),
    ("price must be finite", ("I9", "A9", "B", "1", "inf", "{ts}")),
    ("unparseable timestamp", ("I9", "A9", "B", "1", "10.0", "2015-13-45 25:00:00")),
    ("investor_id and asset_id must be non-empty", (" ", "A9", "B", "1", "10.0", "{ts}")),
    ("timestamp '", ("I9", "A9", "B", "1", "10.0", "{other_ts}")),
)
_ENGINE_CASES = list(itertools.product(Level, ("exclude", "zero"), ("every-event", "sells-only"),
                                       ("exclude-traded-asset", "include-traded-asset")))


def _quoted(text: str) -> str:
    return '"' + text.replace('"', '""') + '"'


def _row_text(names: list[str], values: dict[str, str]) -> str:
    """A row under the header ``names``: the first of its two price columns holds garbage, an unknown one junk."""
    fields = [values.get(name, "junk") for name in names]
    fields[names.index("price")] = "garbage"
    return ",".join(fields)


def _adversarial_csv(seed: int, txs: list) -> tuple[bytes, list[int]]:
    """``txs`` as a BOM-led CRLF CSV with a shuffled header and bad rows interleaved, and each bad row's line.

    The header also holds an unknown column and a first ``price`` column,
    which the last ``price`` column overrides; ids are quoted.  Every bad row
    follows the first good one.
    """
    rng = random.Random(seed)
    names = [*ingest.TRANSACTION_COLUMNS, "note"]
    rng.shuffle(names)
    names.insert(rng.randrange(names.index("price") + 1), "price")
    zone = "+01:00" if txs[0].timestamp.tzinfo is not None else ""
    ts, other_ts = "2015-01-05 09:00:00" + zone, "2015-01-05 09:00:00" + ("" if zone else "+01:00")
    bad_after = {}  # the bad rows after each good row, keyed by its number among the good rows
    for k, (_, row) in zip(sorted(rng.choices(range(1, len(txs) + 1), k=len(_BAD_ROWS))), _BAD_ROWS):
        bad_after.setdefault(k, []).append(row)
    lines, bad_lines = [",".join(names)], []
    for k, tx in enumerate(txs, 1):
        lines.append(_row_text(names, {
            "investor_id": _quoted(tx.investor_id), "asset_id": _quoted(tx.asset_id), "side": tx.side.value,
            "quantity": str(tx.quantity), "price": repr(tx.price), "timestamp": tx.timestamp.isoformat(sep=" "),
        }))
        for row in bad_after.get(k, ()):
            if row is None:
                lines.append(_quoted("I9"))
            else:
                values = dict(zip(ingest.TRANSACTION_COLUMNS, row))
                values["timestamp"] = values["timestamp"].format(ts=ts, other_ts=other_ts)
                values["investor_id"], values["asset_id"] = _quoted(row[0]), _quoted(row[1])
                lines.append(_row_text(names, values))
            bad_lines.append(len(lines))
    return ("\ufeff" + "\r\n".join(lines) + "\r\n").encode("utf-8"), bad_lines


def _naive_summary_lines(txs: list) -> list[str]:
    """validate's summary lines, recounted from the Transactions one at a time."""
    times_of_investor, times_of_pair = {}, {}
    for tx in txs:
        times_of_investor.setdefault(tx.investor_id, []).append(tx.timestamp)
        times_of_pair.setdefault((tx.investor_id, tx.asset_id), []).append(tx.timestamp)
    assets_per_investor = [sum(inv == investor for inv, _ in times_of_pair) for investor in times_of_investor]

    def seconds(times):
        return (max(times) - min(times)).total_seconds()

    rows = ingest.DatasetSummary(
        n_investors=len(times_of_investor),
        n_assets=len({asset for _, asset in times_of_pair}),
        n_transactions=len(txs),
        median_transactions_per_investor=float(statistics.median(map(len, times_of_investor.values()))),
        median_assets_per_investor=float(statistics.median(assets_per_investor)),
        median_account_horizon_years=statistics.median(seconds(t) / (365.25 * 86400.0) for t in times_of_investor.values()),
        median_holding_days_per_asset=statistics.median(seconds(t) / 86400.0 for t in times_of_pair.values()),
    ).rows()
    width = max(len(label) for label, _ in rows)
    return [f"{label.ljust(width)}  {value}" for label, value in rows]


def test_cli_text_path_matches_the_oracle_on_adversarial_csv(tmp_path, capsys):
    # Each seed runs one combination of level, zero policy, eval scope and
    # context rule; odd seeds write a timezone-aware log.
    path, out = tmp_path / "transactions.csv", tmp_path / "out"
    for seed, (level, zero_policy, scope, rule) in enumerate(_ENGINE_CASES):
        where = (seed, level, zero_policy, scope, rule)
        zone = timezone(timedelta(hours=1)) if seed % 2 else None
        txs = [
            dataclasses.replace(tx, investor_id=f'{tx.investor_id} "q",', timestamp=tx.timestamp.replace(tzinfo=zone))
            for tx in random_stream(seed, max_investors=4, max_assets=5, max_events=60)
        ]
        data, bad_lines = _adversarial_csv(seed, txs)
        path.write_bytes(data)
        argv = [
            "compute", "--transactions", str(path), "--out", str(out), "--framing", "all", "--lenient",
            "--level", level.value, "--zero-denominator", zero_policy, "--eval-scope", scope, "--context-rule", rule,
        ]
        assert main(argv) == EXIT_OK, where
        flags = dict(sells_only=scope == "sells-only", include_traded=rule == "include-traded-asset")
        store = run_engine(txs, **flags)
        assert store.to_dict() == oracle_replay(txs, **flags), where
        for framing in Framing:
            records = aggregate(store, level, framing, zero_policy=zero_policy)
            for method in Method:
                name = f"records_{framing.value}_{method.value}.csv"
                want = _reference_records_csv([r for r in records if r.method is method]).encode()
                assert (out / name).read_bytes() == want, (where, name)
        capsys.readouterr()
        assert main(["validate", "--transactions", str(path), "--lenient"]) == EXIT_OK
        text = capsys.readouterr().out.splitlines()
        n_bad = len(_BAD_ROWS)
        assert text[:2] == [f"{len(txs)} rows accepted, {n_bad} rejected", f"{n_bad} rows skipped"], where
        starts = [f"  line {n}: {reason}" for n, (reason, _) in zip(bad_lines, _BAD_ROWS)]
        assert [line[: len(start)] for line, start in zip(text[2 : 2 + n_bad], starts)] == starts, where
        assert text[2 + n_bad :] == _naive_summary_lines(txs), where
