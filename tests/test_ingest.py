import csv
import io
import itertools
import logging
import math
import operator
import random
import statistics
import struct
import tracemalloc
from array import array
from collections import Counter
from datetime import datetime, timedelta, timezone, tzinfo
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from dispomet import ingest
from dispomet.ingest import (
    DuplicateAsset,
    EmptyDataset,
    Instrument,
    MalformedRow,
    PairTable,
    SchemaError,
    Side,
    Transaction,
    TransactionColumns,
    ZeroLeverage,
    median,
    parse_instruments,
    parse_transactions,
    parse_transactions_report,
    serialize_instruments,
    serialize_transactions,
    renumbered,
    summarize,
)
from dispomet.metrics import run_engine, run_engine_on_log
from dispomet.synth import BehaviorProfile, generate_population, oracle_replay

HEADER = "investor_id,asset_id,side,quantity,price,timestamp\n"


def parse(text):
    return parse_transactions(io.StringIO(text))


def test_single_valid_row():
    txs = parse(HEADER + "I1,A1,B,100,10.5,2015-01-05 09:00:00\n")
    assert len(txs) == 1
    tx = txs[0]
    assert tx.seq == 0
    assert tx.side is Side.BUY
    assert tx.quantity == 100
    assert tx.price == 10.5
    assert tx.timestamp == datetime(2015, 1, 5, 9, 0, 0)


def test_identical_timestamps_keep_input_order():
    txs = parse(
        HEADER
        + "I1,A1,B,1,10,2015-01-05 09:00:00\n"
        + "I1,A2,S,2,11,2015-01-05 09:00:00\n"
    )
    assert [tx.asset_id for tx in txs] == ["A1", "A2"]
    assert [tx.seq for tx in txs] == [0, 1]


def test_out_of_order_input_is_sorted():
    txs = parse(
        HEADER
        + "I1,A1,B,1,10,2015-01-05 09:05:00\n"
        + "I1,A1,S,1,11,2015-01-05 09:01:00\n"
    )
    assert [tx.seq for tx in txs] == [1, 0]


@pytest.mark.parametrize(
    "row",
    [
        "I1,A1,B,0,10,2015-01-05 09:00:00",  # zero quantity
        "I1,A1,B,-5,10,2015-01-05 09:00:00",
        "I1,A1,B,1.5,10,2015-01-05 09:00:00",  # fractional units rejected
        "I1,A1,B,9223372036854775808,10,2015-01-05 09:00:00",  # beyond int64
        "I1,A1,B,1,0,2015-01-05 09:00:00",
        "I1,A1,B,1,-1,2015-01-05 09:00:00",
        "I1,A1,B,1,inf,2015-01-05 09:00:00",
        "I1,A1,X,1,10,2015-01-05 09:00:00",
        "I1,A1,B,1,10,not-a-time",
        ",A1,B,1,10,2015-01-05 09:00:00",
        "I1,A1,B,1,10",
    ],
)
def test_malformed_rows_raise(row):
    with pytest.raises(MalformedRow):
        parse(HEADER + row + "\n")


def test_missing_column_is_schema_error():
    with pytest.raises(SchemaError):
        parse("investor_id,asset_id,side,quantity,price\nI1,A1,B,1,10\n")


def test_lenient_mode_counts_rejects():
    text = (
        HEADER
        + "I1,A1,B,1,10,2015-01-05 09:00:00\n"
        + "I1,A1,B,0,10,2015-01-05 09:01:00\n"
        + "I1,A1,S,1,11,2015-01-05 09:02:00\n"
    )
    txs, rejects = parse_transactions_report(io.StringIO(text), lenient=True)
    assert len(txs) == 2
    assert len(rejects) == 1
    assert txs[0].seq == 0 and txs[1].seq == 1  # accepted rows renumbered densely
    assert len(txs) + len(rejects) == 3


def test_quantity_at_int64_maximum_is_accepted():
    (tx,) = parse(HEADER + "I1,A1,B,9223372036854775807,10,2015-01-05 09:00:00\n")
    assert tx.quantity == 2**63 - 1


def test_quantity_beyond_int64_is_row_precise():
    text = (
        HEADER
        + "I1,A1,B,1,10,2015-01-05 09:00:00\n"
        + "I1,A1,B,99999999999999999999,10,2015-01-05 09:01:00\n"
        + "I1,A1,S,1,11,2015-01-05 09:02:00\n"
    )
    with pytest.raises(MalformedRow) as excinfo:
        parse(text)
    assert excinfo.value.line == 3
    assert "99999999999999999999" in excinfo.value.reason
    txs, rejects = parse_transactions_report(io.StringIO(text), lenient=True)
    assert [t.quantity for t in txs] == [1, 1]
    assert [r.line for r in rejects] == [3]


def test_lenient_mode_warns_once_per_parse(caplog):
    text = (
        HEADER
        + "I1,A1,B,0,10,2015-01-05 09:00:00\n"
        + "I1,A1,B,1,10,2015-01-05 09:01:00\n"
        + "I1,A1,X,1,10,2015-01-05 09:02:00\n"
        + "I1,A1,B,1,-1,2015-01-05 09:03:00\n"
    )
    with caplog.at_level(logging.WARNING, logger="dispomet.ingest"):
        txs, rejects = parse_transactions_report(io.StringIO(text), lenient=True)
    assert len(txs) == 1 and len(rejects) == 3
    (record,) = caplog.records
    assert record.levelno == logging.WARNING
    assert "3" in record.getMessage() and "line 2:" in record.getMessage()
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="dispomet.ingest"):
        parse_transactions_report(io.StringIO(HEADER + "I1,A1,B,1,10,2015-01-05 09:00:00\n"), lenient=True)
    assert not caplog.records


def test_columns_are_found_by_header_name():
    # Reordered and extra header columns; the extra field of a row is ignored.
    text = (
        "note,timestamp,price,quantity,side,asset_id,investor_id\n"
        + "x,2015-01-05 09:00:00,10,5,B,A1,I1,surplus\n"
    )
    (tx,) = parse(text)
    assert (tx.investor_id, tx.asset_id, tx.side, tx.quantity, tx.price) == ("I1", "A1", Side.BUY, 5, 10.0)


def test_repeated_header_name_resolves_to_its_last_column():
    (tx,) = parse(
        "investor_id,asset_id,side,quantity,price,timestamp,side\n"
        + "I1,A1,X,5,10,2015-01-05 09:00:00,S\n"
    )
    assert tx.side is Side.SELL
    # A row that stops before the repeated column lacks a required field.
    with pytest.raises(MalformedRow, match="line 2: wrong number of fields"):
        parse("investor_id,asset_id,side,quantity,price,timestamp,side\n" + "I1,A1,B,5,10,2015-01-05 09:00:00\n")


def test_blank_lines_are_skipped_and_line_numbers_count_them():
    text = HEADER + "\n" + "I1,A1,B,1,10,2015-01-05 09:00:00\n" + "\n\n" + "I1,A1,B,1,10\n"
    with pytest.raises(MalformedRow, match="line 6: wrong number of fields"):
        parse(text)
    txs, rejects = parse_transactions_report(io.StringIO(text), lenient=True)
    assert len(txs) == 1 and [r.line for r in rejects] == [6]


def _reference_chunks(text, lenient, table, rejects, chunk):
    """parse_chunks as a row-at-a-time parse gives it: each field stripped before it is read, rules in order."""
    epoch, micro = datetime(1970, 1, 1), timedelta(microseconds=1)
    reader = csv.reader(io.StringIO(text))
    position = {name: i for i, name in enumerate(next(reader))}
    columns = [position[c] for c in ingest.TRANSACTION_COLUMNS]
    rows, first_aware = [], None
    for row in reader:
        if not row:
            continue
        line = reader.line_num
        try:
            if len(row) <= max(columns):
                raise MalformedRow(line, "wrong number of fields")
            investor_id, asset_id, side, qty, price, ts_txt = (row[i] for i in columns)
            side = side.strip()
            if side not in ("B", "S"):
                raise MalformedRow(line, f"side must be B or S, got {side!r}")
            qty = qty.strip()
            try:
                quantity = int(qty)
            except ValueError:
                raise MalformedRow(line, f"quantity must be a whole number of units, got {qty!r}") from None
            if quantity <= 0:
                raise MalformedRow(line, f"quantity must be positive, got {quantity}")
            if quantity > 2**63 - 1:
                raise MalformedRow(line, f"quantity must be at most {2**63 - 1}, got {quantity}")
            try:
                value = float(price)
            except ValueError:
                raise MalformedRow(line, f"unparseable price {price!r}") from None
            if not value > 0:
                raise MalformedRow(line, f"price must be positive, got {value}")
            if not math.isfinite(value):
                raise MalformedRow(line, f"price must be finite, got {value}")
            try:
                ts = datetime.fromisoformat(ts_txt.strip())
            except ValueError:
                raise MalformedRow(line, f"unparseable timestamp {ts_txt!r}") from None
            investor_id, asset_id = investor_id.strip(), asset_id.strip()
            if not investor_id or not asset_id:
                raise MalformedRow(line, "investor_id and asset_id must be non-empty")
            offset = ts.utcoffset()
            if first_aware is None:
                first_aware = offset is not None
            elif (offset is not None) != first_aware:
                kind = "timezone-aware" if offset is not None else "naive"
                raise MalformedRow(line, f"timestamp {ts_txt!r} is {kind}, unlike the first accepted row")
        except MalformedRow as err:
            if not lenient:
                raise
            rejects.append(err)
            continue
        micros = (ts.replace(tzinfo=None) - (offset or timedelta()) - epoch) // micro
        zone = [] if offset is None else [timezone(offset)]
        rows.append((table.code(investor_id, asset_id), 1 if side == "B" else -1, quantity, value, micros, zone))
        if len(rows) == chunk:
            yield _chunk_of(rows)
            rows = []
    if rows:
        yield _chunk_of(rows)


def _chunk_of(rows):
    pair, side, quantity, price, micros, zones = zip(*rows)
    return [*map(list, (pair, side, quantity, price, micros)), [zone for row_zones in zones for zone in row_zones]]


def _drained(chunks):
    """Each chunk's columns as lists, and the (line, reason) of the MalformedRow that stopped them, or None."""
    drained = []
    try:
        for chunk in chunks:
            drained.append([list(column) for column in chunk])
    except MalformedRow as err:
        return drained, (err.line, err.reason)
    return drained, None


# Each field's texts: plain valid ones first, for hypothesis to shrink to,
# then the same padded with whitespace that str.strip() removes, then text
# that a rule rejects or that only some parsers take.
_FIELD_TEXTS = {
    "investor_id": ["I1", "I2", " I1", "I2\t", "\xa0I1　", "", " "],
    "asset_id": ["A1", "A2", "A1 ", " A2", " A1", "", "\t"],
    "side": ["B", "S", " B", "S ", "\tS\x1f", "X", "b", ""],
    "quantity": [
        "1", "5", " 5", "5 ", " 5", "+5", "1_000", "٥", "0", "-3", "1.5", "", " ",
        "9223372036854775807", " 9223372036854775808", "0x10", "five",
    ],
    "price": ["10", "10.5", " 11 ", "1_0.5", "٥", "inf", "-inf", "nan", "-0.0", "0", "1e309", "ten", ""],
    "timestamp": [
        "2015-01-05 09:00:00", "2015-01-05 09:01:00", " 2015-01-05 09:00:00", "2015-01-05 09:01:00\t",
        "2015-01-05T09:00:00+01:00", "2015-01-05 09:00:00Z", "2015-01-05 08:30:00-00:30", "not-a-time", "",
        "2015-13-45 25:00:00",
    ],
}
_ROW = st.tuples(*[
    st.one_of(st.sampled_from(texts[:2]), st.sampled_from(texts)) for texts in _FIELD_TEXTS.values()
])
# How much of a row is written: 6 all of it, 7 one surplus field past the
# header, fewer a short row and 0 a blank line.
_CUT = st.sampled_from((6, 6, 6, 6, 6, 6, 7, 0, 1, 5))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    rows=st.lists(st.tuples(_ROW, _CUT), max_size=25),
    header=st.permutations(ingest.TRANSACTION_COLUMNS),
    chunk=st.sampled_from((1, 3, 4096)),
    lenient=st.booleans(),
)
@example(  # padded ids and fields of a pair already in the table
    rows=[(("I1", "A1", "B", "5", "10", "2015-01-05 09:00:00"), 6),
          ((" I1", "A1\t", " S", " 5 ", " 11 ", " 2015-01-05 09:00:00"), 6)],
    header=ingest.TRANSACTION_COLUMNS, chunk=1, lenient=False,
)
@example(  # an aware row of a pair the table holds, after a naive one
    rows=[(("I1", "A1", "B", "5", "10", "2015-01-05 09:00:00"), 6),
          (("I1", "A1", "S", "5", "11", "2015-01-05T09:00:00+01:00"), 6)],
    header=ingest.TRANSACTION_COLUMNS, chunk=3, lenient=True,
)
def test_parse_chunks_equals_a_row_at_a_time_parse(rows, header, chunk, lenient):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for fields, cut in rows:
        by_name = dict(zip(ingest.TRANSACTION_COLUMNS, fields))
        writer.writerow([*(by_name[name] for name in header), "surplus"][:cut])
    text = buf.getvalue()
    table, rejects = PairTable(), []
    with mock.patch.object(ingest, "_ORDER_CHUNK", chunk):
        got = _drained(ingest.parse_chunks(io.StringIO(text), lenient, table, rejects))
    want_table, want_rejects = PairTable(), []
    want = _drained(_reference_chunks(text, lenient, want_table, want_rejects, chunk))
    assert got == want
    assert table.tables() == want_table.tables() and table.by_investor == want_table.by_investor
    assert [(r.line, r.reason, str(r)) for r in rejects] == [(r.line, r.reason, str(r)) for r in want_rejects]


times = st.integers(0, 10_000).map(lambda m: datetime(2015, 1, 5) + timedelta(minutes=m))
transactions = st.builds(
    Transaction,
    investor_id=st.sampled_from(["I1", "I2", "I3"]),
    asset_id=st.sampled_from(["A1", "A2"]),
    side=st.sampled_from(list(Side)),
    quantity=st.integers(1, 10_000),
    price=st.floats(0.01, 1e5, allow_nan=False).map(lambda p: round(p, 6)),
    timestamp=times,
    seq=st.just(0),
)


@given(st.lists(transactions, max_size=30))
def test_serialize_parse_round_trip(txs):
    first = io.StringIO()
    serialize_transactions(txs, first)
    parsed = parse(first.getvalue())
    # Ordering is a permutation of the input and all fields survive.
    key = lambda t: (t.investor_id, t.asset_id, t.side, t.quantity, t.price, t.timestamp)
    assert sorted(map(key, parsed)) == sorted(map(key, txs))
    # From the serialized form onward the byte stream is a fixpoint.
    second = io.StringIO()
    serialize_transactions(parsed, second)
    third = io.StringIO()
    serialize_transactions(parse(second.getvalue()), third)
    assert third.getvalue() == second.getvalue()


def test_parse_instruments():
    reg = parse_instruments(
        io.StringIO("asset_id,underlying_id,leverage\nETF7L,FTSEMIB,7\nETF1S,FTSEMIB,-1\n")
    )
    assert reg["ETF7L"].leverage == 7
    assert reg["ETF1S"].leverage == -1


def test_leverage_survives_a_write_and_a_read():
    leverages = (1.0000001, 2.1234567, -7.0, 2.5, 1.0)
    registry = {f"A{k}": Instrument(f"A{k}", "IDX", lev) for k, lev in enumerate(leverages)}
    text = io.StringIO()
    serialize_instruments(registry, text)
    assert parse_instruments(io.StringIO(text.getvalue())) == registry
    # The short form where it is exact: whole leverages still write as integers.
    assert [line.rsplit(",", 1)[1] for line in text.getvalue().splitlines()[1:]] == [
        "1.0000001", "2.1234567", "-7", "2.5", "1"
    ]


def test_duplicate_asset_rejected():
    with pytest.raises(DuplicateAsset):
        parse_instruments(io.StringIO("asset_id,underlying_id,leverage\nA,X,1\nA,X,2\n"))


def test_zero_leverage_rejected():
    with pytest.raises(ZeroLeverage):
        parse_instruments(io.StringIO("asset_id,underlying_id,leverage\nA,X,0\n"))


@pytest.mark.parametrize("leverage", ["nan", "inf", "-inf"])
def test_non_finite_leverage_is_row_precise(leverage):
    with pytest.raises(MalformedRow, match=f"line 3: leverage must be finite, got {leverage}"):
        parse_instruments(io.StringIO(f"asset_id,underlying_id,leverage\nA,X,1\nB,X,{leverage}\n"))


def test_utc_designator_timestamp_is_aware():
    (tx,) = parse(HEADER + "I1,A1,B,1,10,2015-01-05T09:00:00Z\n")
    assert tx.timestamp == datetime(2015, 1, 5, 9, 0, 0, tzinfo=timezone.utc)


def _bits(value):
    return type(value), struct.pack("<d", value) if isinstance(value, float) else value


_SIGNED = st.sampled_from([0.0, -0.0, math.inf, -math.inf])


@given(
    st.lists(st.integers(-(2**64), 2**64), min_size=1)
    | st.lists(st.floats(allow_nan=False) | _SIGNED, min_size=1)
    | st.lists(st.integers(-(2**64), 2**64) | st.floats(allow_nan=False) | _SIGNED, min_size=1)
)
@example([3, 1, 2])
@example([4, 1, 3, 2])
@example([0.0, -0.0])
@example([-0.0, 0.0])
@example([-0.0, 0.0, -0.0])
@example([math.inf, -math.inf])
@example([math.inf, 1, math.inf])
def test_median_equals_statistics_median_bit_for_bit(values):
    assert _bits(median(values)) == _bits(statistics.median(values))


def test_median_of_nothing_is_a_value_error():
    with pytest.raises(ValueError):
        median([])


def test_summarize_hand_counted_fixture():
    txs = parse(
        HEADER
        + "I1,A1,B,1,10,2015-01-05 09:00:00\n"
        + "I1,A1,S,1,11,2015-01-10 09:00:00\n"
        + "I1,A2,B,1,10,2015-01-07 09:00:00\n"
        + "I1,A2,S,1,9,2015-01-15 09:00:00\n"
    )
    s = summarize(txs)
    assert s.n_transactions == 4
    assert s.n_investors == 1
    assert s.median_transactions_per_investor == 4
    assert s.median_assets_per_investor == 2
    assert s.median_account_horizon_years == pytest.approx(10 / 365.25)
    assert s.median_holding_days_per_asset == pytest.approx((5 + 8) / 2)


def test_summarize_single_trade_horizon_zero():
    txs = parse(HEADER + "I1,A1,B,1,10,2015-01-05 09:00:00\n")
    s = summarize(txs)
    assert s.median_account_horizon_years == 0.0
    assert s.median_holding_days_per_asset == 0.0


def test_summarize_empty_raises():
    with pytest.raises(EmptyDataset):
        summarize([])


def test_summary_table_rows():
    txs = parse(HEADER + "I1,A1,B,1,10,2015-01-05 09:00:00\n")
    labels = [label for label, _ in summarize(txs).rows()]
    assert "Number of transactions" in labels
    assert "Number of different assets traded" in labels


def _population(n_investors=12):
    """A generated log as a list of Transactions, so TransactionColumns.of takes its list path."""
    txs, _ = generate_population(n_investors, BehaviorProfile(0.6, 0.3, n_assets=6, horizon_events=30, seed=5))
    return list(txs)


def _text(txs):
    buf = io.StringIO()
    serialize_transactions(txs, buf)
    return buf.getvalue()


def _naive_summary(txs):
    """summarize of a list of Transactions, its rows grouped by their id text."""
    investor_times, pair_times = {}, {}
    for tx in txs:
        investor_times.setdefault(tx.investor_id, []).append(tx.timestamp)
        pair_times.setdefault((tx.investor_id, tx.asset_id), []).append(tx.timestamp)

    def spans(groups, unit):
        return [(max(times) - min(times)).total_seconds() / unit for times in groups.values()]

    return ingest.DatasetSummary(
        n_investors=len(investor_times),
        n_assets=len({asset for _, asset in pair_times}),
        n_transactions=len(txs),
        median_transactions_per_investor=float(statistics.median(map(len, investor_times.values()))),
        median_assets_per_investor=float(statistics.median(Counter(inv for inv, _ in pair_times).values())),
        median_account_horizon_years=float(statistics.median(spans(investor_times, 365.25 * 86400.0))),
        median_holding_days_per_asset=float(statistics.median(spans(pair_times, 86400.0))),
    )


def _no_ids(self, field):
    raise AssertionError("an id column was read")


def test_summarize_counts_by_code_and_reads_no_id_text(monkeypatch):
    cols = parse(_text(_population()))
    aware = parse(_text(_population(5)).replace("\n", "+02:00\n").replace("timestamp+02:00", "timestamp"))
    builds = {
        "parsed": cols, "sliced": cols[3:-5:2], "reversed": cols[::-3],
        "of a list": TransactionColumns.of(list(cols[::2])), "aware": aware, "aware sliced": aware[1::4],
    }
    expected = {name: _naive_summary(list(txs)) for name, txs in builds.items()}
    assert len({summary.n_investors for summary in expected.values()}) > 1
    monkeypatch.setattr(TransactionColumns, "_ids", _no_ids)
    assert {name: summarize(txs) for name, txs in builds.items()} == expected


def test_transaction_columns_equal_the_list_of_their_transactions():
    txs = _population()
    for cols in (parse(_text(txs)), TransactionColumns.of(txs)):
        assert isinstance(cols, TransactionColumns)
        assert cols == txs and txs == cols and not cols != txs
        assert cols == tuple(txs) and list(cols) == txs
        assert cols == TransactionColumns.of(txs)
        assert cols != txs[:-1] and cols != txs + txs[:1]


@pytest.mark.parametrize(
    "field, change",
    [
        ("investor_id", lambda v: v + "x"),
        ("asset_id", lambda v: v + "x"),
        ("side", lambda v: Side.SELL if v is Side.BUY else Side.BUY),
        ("quantity", lambda v: v + 1),
        ("price", lambda v: math.nextafter(v, math.inf)),
        ("timestamp", lambda v: v + timedelta(microseconds=1)),
        ("seq", lambda v: v + 1),
    ],
)
def test_transaction_columns_differ_when_one_field_of_one_row_differs(field, change):
    txs = _population()
    cols = parse(_text(txs))
    i = len(txs) // 2
    changed = list(txs)
    changed[i] = txs[i]._replace(**{field: change(getattr(txs[i], field))})
    assert cols != changed and not cols == changed
    assert changed != cols
    # Columns against columns: the parsed seq is a range, the built one an array('q').
    pairs = [(cols, TransactionColumns.of(changed)), (cols, TransactionColumns.of(txs)), (cols, cols)]
    expected = [list(a) == list(b) for a, b in pairs]
    assert expected == [False, True, True]
    assert [a == b for a, b in pairs] == expected
    assert [a != b for a, b in pairs] == [not e for e in expected]


def test_transaction_columns_compare_like_their_transactions():
    rows = ("I1,A,B,1,10.0,2015-01-05 {}:00:00{}\n", "I1,A,S,1,11.0,2015-01-05 {}:00:00{}\n")

    def log(offset, hours=("09", "10")):
        return parse(HEADER + "".join(row.format(h, offset) for row, h in zip(rows, hours)))

    naive, utc, shifted = log(""), log("+00:00"), log("+01:00", hours=("10", "11"))
    tables = naive.pair_investor, naive.pair_asset, naive.investors, naive.assets
    array_seq = TransactionColumns(tables, naive.pair, naive.side, naive.quantity, naive.price, naive.timestamp, array("q", naive.seq))
    nan_price = TransactionColumns(tables, naive.pair, naive.side, naive.quantity, array("d", [math.nan, 11.0]), naive.timestamp, naive.seq)
    pairs = [
        (utc, shifted),  # the same instants in different zones
        (naive, utc),  # naive against aware
        (naive[:0], utc[:0]),  # no rows
        (naive, array_seq),  # a range seq against an array('q') of the same values
        (nan_price, nan_price),
        (naive, naive[::-1]),
    ]
    expected = [list(a) == list(b) for a, b in pairs]
    assert expected == [True, False, True, True, False, False]
    assert [a == b for a, b in pairs] == expected


def test_transaction_columns_index_and_slice_like_a_list():
    txs = _population()
    cols = parse(_text(txs))
    n = len(txs)
    for i in (0, 1, n - 1, -1, -2, -n):
        assert cols[i] == txs[i]
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            cols[i]
    for part in (slice(None), slice(3, 17), slice(-5, None), slice(None, -3), slice(None, None, -2),
                 slice(1, None, 3), slice(5, 2), slice(n, n + 5)):
        assert isinstance(cols[part], TransactionColumns)
        assert cols[part] == txs[part]
    empty = parse(HEADER)
    assert len(empty) == 0 and not empty
    assert empty == [] and list(empty) == [] and empty[0:3] == []
    with pytest.raises(IndexError):
        empty[0]
    with pytest.raises(IndexError):
        empty[-1]


def test_columns_have_one_layout_whoever_built_them():
    txs = _population()
    parsed, built, sorted_back = parse(_text(txs)), TransactionColumns.of(txs), parse(_group_shuffled(_text(txs), 0))
    assert isinstance(parsed.seq, range) and isinstance(built.seq, array) and isinstance(sorted_back.seq, array)
    for cols in (parsed, built, parsed[::-1], built[1::2], sorted_back):
        columns = (cols.pair, cols.side, cols.quantity, cols.price, cols.timestamp)
        assert [c.typecode for c in columns] == ["i", "b", "q", "d", "q"]
        assert cols.pair_investor.typecode == cols.pair_asset.typecode == "i"
        assert isinstance(cols.seq, range) or cols.seq.typecode == "q"


def test_reversed_rows_of_one_timestamp_are_out_of_order():
    cols = parse(HEADER + "I1,A1,B,1,10.0,2015-01-05 09:00:00\n" * 3)
    assert cols[::-1].seq == range(2, -1, -1)
    with pytest.raises(ValueError) as err:
        run_engine(cols[::-1])
    assert str(err.value) == (
        "event 1: (timestamp, seq) (2015-01-05 09:00:00, 1) is lower than event 0's (2015-01-05 09:00:00, 2)"
    )
    run_engine(cols[:1][::-1])  # one row is in order


@pytest.mark.parametrize("shuffled", [False, True], ids=["in-time-order", "shuffled"])
def test_engine_and_summary_read_columns_like_the_list(shuffled):
    text = _text(_population())
    if shuffled:  # the parser sorts, and seq keeps the input positions
        header, *rows = text.splitlines(keepends=True)
        random.Random(3).shuffle(rows)
        text = header + "".join(rows)
    cols = parse(text)
    assert isinstance(cols.seq, range) is not shuffled
    listed = list(cols)
    for sells_only in (False, True):
        for include_traded in (False, True):
            flags = dict(sells_only=sells_only, include_traded=include_traded)
            assert run_engine(cols, **flags).tallies.tobytes() == run_engine(listed, **flags).tallies.tobytes()
    assert summarize(cols) == summarize(listed)


def _numbered_by_first_appearance(txs):
    """investors, assets, pair_investor and pair_asset, counted naively over the rows in (timestamp, seq) order."""
    ids = [(tx.investor_id, tx.asset_id) for tx in txs]
    pairs, investors = [], []
    for i in sorted(range(len(txs)), key=lambda i: (txs.timestamp[i], txs.seq[i])):
        if ids[i] not in pairs:
            pairs.append(ids[i])
            if ids[i][0] not in investors:
                investors.append(ids[i][0])
    assets = sorted({asset for _, asset in pairs})
    return investors, assets, [investors.index(inv) for inv, _ in pairs], [assets.index(a) for _, a in pairs]


def test_engine_numbers_pairs_by_first_appearance_whoever_built_the_columns():
    generated, _ = generate_population(6, BehaviorProfile(0.6, 0.3, n_assets=6, horizon_events=30, seed=5))
    text = _text(generated)
    parsed, shuffled = parse(text), parse(_group_shuffled(text, 1))
    builds = {
        "parsed in time order": parsed,
        "parsed out of time order": shuffled,
        "generated": generated,
        "of a list": TransactionColumns.of(list(parsed)),
        "slice": parsed[5:],
    }
    assert isinstance(shuffled.seq, array) and shuffled.pair == parsed.pair  # renumbered after the sort
    for name, cols in builds.items():
        store = run_engine(cols)
        numbering = store.investors, store.assets, list(store.pair_investor), list(store.pair_asset)
        assert numbering == _numbered_by_first_appearance(cols), name
        assert store.to_dict() == oracle_replay(cols), name
    # The generator numbers pairs as it emits them, investor by investor:
    # other codes for the same rows, which still compare equal.
    assert generated.pair != parsed.pair
    assert generated == parsed and parsed == generated and not generated != parsed
    assert [(t.investor_id, t.asset_id) for t in parsed] == [(t.investor_id, t.asset_id) for t in generated]
    padded = parse(HEADER + " I1 , A1 ,B,1,10.0,2015-01-05 09:00:00\nI1,A1,S,1,11.0,2015-01-05 09:01:00\n")
    assert [(t.investor_id, t.asset_id) for t in padded] == [("I1", "A1"), ("I1", "A1")]
    assert padded.pair == array("i", [0, 0]) and padded[0].investor_id == "I1"


def _naive_pair_tables(ids):
    """pair_investor, pair_asset, investors and assets of the rows' (investor_id, asset_id) ``ids``, counted naively.

    The pairs are numbered by first appearance, their investors too, and
    their assets by asset_id.
    """
    pairs = list(dict.fromkeys(ids))
    investors = {}
    pair_investor = [investors.setdefault(investor_id, len(investors)) for investor_id, _ in pairs]
    assets = sorted({asset_id for _, asset_id in pairs})
    asset_code = {asset_id: code for code, asset_id in enumerate(assets)}
    pair_asset = [asset_code[asset_id] for _, asset_id in pairs]
    return pair_investor, pair_asset, list(investors), assets


def _assert_naive_pair_tables(tables, pair, ids):
    pair_investor, pair_asset, investors, assets = tables
    assert (list(pair_investor), list(pair_asset), investors, assets) == _naive_pair_tables(ids)
    pairs = list(dict.fromkeys(ids))
    assert list(pair) == [pairs.index(key) for key in ids]


# Investors and assets draw from one set of ids, so an investor_id can equal
# an asset_id, even in one row.
_PAIR_ROWS = st.lists(st.tuples(*[st.sampled_from(["A", "B", "C", "I1", "I10"])] * 2), min_size=1, max_size=30)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(ids=_PAIR_ROWS, chunk=st.sampled_from((1, 2, 3, 4096)), seed=st.integers(0, 2**16))
@example(ids=[("C", "B"), ("A", "C"), ("C", "A"), ("B", "B"), ("A", "B")], chunk=1, seed=0)  # assets B, C, A
def test_every_pair_table_equals_the_naive_tables(ids, chunk, seed):
    # Two rows a second: ties in time, which the sort of the shuffled rows
    # breaks by input position.
    txs = [
        Transaction(investor_id, asset_id, Side.BUY, 1, 10.0, datetime(2015, 1, 5) + timedelta(seconds=k // 2), k)
        for k, (investor_id, asset_id) in enumerate(ids)
    ]
    header, *rows = _text(txs).splitlines(keepends=True)
    random.Random(seed).shuffle(rows)
    with mock.patch.object(ingest, "_ORDER_CHUNK", chunk):
        table = PairTable()
        chunks = list(ingest.parse_chunks(io.StringIO(_text(txs)), False, table, []))
        store = run_engine_on_log(io.StringIO(_text(txs)))
        parsed, resorted = parse(_text(txs)), parse(header + "".join(rows))
    assert all(0 < len(part[0]) <= chunk for part in chunks)
    _assert_naive_pair_tables(table.tables(), array("i", b"".join(part[0].tobytes() for part in chunks)), ids)
    assert (list(store.pair_investor), list(store.pair_asset), store.investors, store.assets) == _naive_pair_tables(ids)
    listed = TransactionColumns.of(txs)
    # A slice keeps its source's tables; renumbered numbers its own rows.
    builds = {"parsed": parsed, "parsed out of order": resorted, "of a list": listed, "renumbered": renumbered(listed[::-1])}
    for cols in builds.values():
        tables = cols.pair_investor, cols.pair_asset, cols.investors, cols.assets
        _assert_naive_pair_tables(tables, cols.pair, [(tx.investor_id, tx.asset_id) for tx in cols])


def test_parse_retains_at_most_160_bytes_per_row(tmp_path):
    # A Transaction per row kept about 300 bytes; the columns keep under 120.
    txs, _ = generate_population(450, BehaviorProfile(0.6, 0.3, n_assets=8, horizon_events=60, seed=3))
    assert len(txs) >= 20_000
    path = tmp_path / "transactions.csv"
    path.write_text(_text(txs), encoding="utf-8")
    del txs
    with open(path, encoding="utf-8", newline="") as fh:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cols, _ = parse_transactions_report(fh)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
    assert retained / len(cols) <= 160, f"{retained / len(cols):.0f} bytes per row"


def test_parse_retains_at_most_48_bytes_per_row(tmp_path):
    # Timestamps as an array('q') of microseconds instead of a list of
    # datetimes: about 44 bytes per row of a naive log in time order.
    txs, _ = generate_population(450, BehaviorProfile(0.6, 0.3, n_assets=8, horizon_events=60, seed=3))
    assert len(txs) >= 20_000
    path = tmp_path / "transactions.csv"
    path.write_text(_text(txs), encoding="utf-8")
    del txs
    with open(path, encoding="utf-8", newline="") as fh:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cols, _ = parse_transactions_report(fh)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
    assert cols.tz is None
    assert retained / len(cols) <= 48, f"{retained / len(cols):.0f} bytes per row"


def test_parse_retains_at_most_34_bytes_per_row(tmp_path):
    # A row kept its investor_id and asset_id as two list entries, 16
    # bytes: about 43 bytes per row.  A pair code in an array('i') is 4.
    path = tmp_path / "transactions.csv"
    path.write_text(_generated_log(), encoding="utf-8")
    cols, retained, _ = _parse_traced(path)
    assert cols.tz is None and len(cols) >= 20_000
    assert retained / len(cols) <= 34, f"{retained / len(cols):.1f} bytes per row"


def _traced(build):
    """build()'s result, and the bytes it retained and its peak above what was allocated before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = build()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, retained - before, peak - before


def _group_shuffled(text, seed):
    """A log's rows shuffled by whole runs of equal timestamp text, each run kept in its order."""
    header, *rows = text.splitlines(keepends=True)
    groups = [list(group) for _, group in itertools.groupby(rows, key=lambda row: row.rsplit(",", 1)[1])]
    random.Random(seed).shuffle(groups)
    return header + "".join(itertools.chain.from_iterable(groups))


def _parse_traced(path):
    with open(path, encoding="utf-8", newline="") as fh:
        (cols, _), retained, peak = _traced(lambda: parse_transactions_report(fh))
    return cols, retained, peak


def _generated_log():
    """The text of a generated log of 20,697 rows, in time order."""
    txs, _ = generate_population(450, BehaviorProfile(0.6, 0.3, n_assets=8, horizon_events=60, seed=3))
    return _text(txs)


def test_order_check_of_a_parse_holds_at_most_24_bytes_per_row(tmp_path):
    # The order check sorted() 65,537 timestamps at a time, as Python ints:
    # a parse in time order peaked about 49 bytes per row above what it kept.
    path = tmp_path / "transactions.csv"
    path.write_text(_generated_log(), encoding="utf-8")
    cols, retained, peak = _parse_traced(path)
    assert isinstance(cols.seq, range) and len(cols) >= 20_000
    assert (peak - retained) / len(cols) <= 24, f"{(peak - retained) / len(cols):.0f} bytes per row"


def test_parse_out_of_time_order_peaks_at_most_1_3_times_the_sorted_parse(tmp_path):
    # sorted(range(n)) with its keys, and a list per column taken, peaked
    # about 1.8 times the parse of the same rows in time order.
    text = _generated_log()
    peaks = {}
    for name, log in (("sorted", text), ("shuffled", _group_shuffled(text, 0))):
        path = tmp_path / f"{name}.csv"
        path.write_text(log, encoding="utf-8")
        cols, _, peaks[name] = _parse_traced(path)
        assert isinstance(cols.seq, range) is (name == "sorted")
        del cols
    assert peaks["shuffled"] <= 1.3 * peaks["sorted"], f"{peaks['shuffled'] / peaks['sorted']:.2f} times"


def test_generate_population_peaks_at_most_1_5_times_its_columns():
    # The sort's .tolist() and a list per column taken peaked about 2.5
    # times the columns it returns.
    (txs, _), retained, peak = _traced(
        lambda: generate_population(450, BehaviorProfile(0.6, 0.3, n_assets=8, horizon_events=60, seed=3))
    )
    assert len(txs) >= 20_000
    assert peak <= 1.5 * retained, f"{peak / retained:.2f} times"


# One bad row per reject reason a field can give, each made from a valid row.
_BAD_ROWS = (
    "I1,A1,B,1,10.0", "I1,A1,X,1,10.0,2015-01-05 09:00:00", "I1,A1,B,1.5,10.0,2015-01-05 09:00:00",
    "I1,A1,B,0,10.0,2015-01-05 09:00:00", "I1,A1,B,99999999999999999999,10.0,2015-01-05 09:00:00",
    "I1,A1,B,1,n/a,2015-01-05 09:00:00", "I1,A1,B,1,-1.0,2015-01-05 09:00:00", "I1,A1,B,1,inf,2015-01-05 09:00:00",
    "I1,A1,B,1,10.0,not-a-time", ",A1,B,1,10.0,2015-01-05 09:00:00", "I1,A1,B,1,10.0,2015-01-05T09:00:00+01:00",
)


def test_lenient_parse_keeps_at_most_600_bytes_per_reject(caplog):
    # A reject kept its traceback, and the error it was raised from with
    # that one's: the frames and the row they held, about 1.3 kB a reject.
    rows = [_BAD_ROWS[i % len(_BAD_ROWS)] for i in range(11_000)]
    text = HEADER + "I1,A1,B,1,10.0,2015-01-05 09:00:00\n" + "".join(row + "\n" for row in rows)
    with caplog.at_level(logging.ERROR):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            txs, rejects = parse_transactions_report(io.StringIO(text), lenient=True)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
    assert len(txs) == 1 and len(rejects) == len(rows)
    assert kept / len(rejects) <= 600, f"{kept / len(rejects):.0f} bytes per reject"


def test_lenient_parse_keeps_at_most_300_bytes_per_reject(caplog):
    # A reject kept a __dict__ for its line and reason and, in its args, a
    # message made from them: about 540 bytes a reject.
    rows = [_BAD_ROWS[i % len(_BAD_ROWS)] for i in range(11_000)]
    text = HEADER + "I1,A1,B,1,10.0,2015-01-05 09:00:00\n" + "".join(row + "\n" for row in rows)
    with caplog.at_level(logging.ERROR):
        (txs, rejects), kept, _ = _traced(lambda: parse_transactions_report(io.StringIO(text), lenient=True))
    assert len(txs) == 1 and len(rejects) == len(rows)
    assert kept / len(rejects) <= 300, f"{kept / len(rejects):.0f} bytes per reject"
    assert str(rejects[0]) == "line 3: wrong number of fields"


NAIVE_TIMES = [
    "2015-01-05 09:00:00", "2015-01-05T09:00:00.000001", "2015-01-05 09:00", "1970-01-01",
    "1969-12-31 23:59:59.999999", "0001-01-01 00:00:00", "9999-12-31 23:59:59.999999",
    "2015-01-05 09:00:00",
]
AWARE_TIMES = [
    "2015-01-05T09:00:00+01:00", "2015-01-05T09:00:00+02:00", "2015-01-05T09:00:00+01:00:00.000001",
    "2015-01-05 08:00:00.5+00:00", "2015-01-05T09:00:00Z", "2015-01-05T08:30:00-00:30",
    "0001-01-01T00:00:00+01:00", "9999-12-31 23:59:59-01:00", "2015-01-05T09:00:00+01:00",
]


def _rows(times):
    return HEADER + "".join(f"I{i % 2},A{i % 3},B,1,10,{t}\n" for i, t in enumerate(times))


def _exactly(ts):
    """A datetime's wall time and offset: equal only for the same datetime."""
    return ts.replace(tzinfo=None), ts.utcoffset()


@pytest.mark.parametrize("times", [NAIVE_TIMES, AWARE_TIMES], ids=["naive", "aware"])
def test_timestamps_read_back_as_fromisoformat_gives_them(times):
    parsed = parse(_rows(times))
    assert isinstance(parsed.timestamp, array) and parsed.timestamp.typecode == "q"
    assert (parsed.tz is None) == (times is NAIVE_TIMES)
    # In time order by the instant, input order breaking ties.
    instants = [datetime.fromisoformat(times[s]) for s in parsed.seq]
    assert instants == sorted(datetime.fromisoformat(t) for t in times)
    assert list(parsed.timestamp) == sorted(parsed.timestamp)
    listed = list(parsed)
    for cols in (parsed, TransactionColumns.of(listed)):
        reads = (list(cols), [cols[i] for i in range(len(cols))], list(cols[::-1])[::-1])
        for read in reads:
            for tx in read:
                assert _exactly(tx.timestamp) == _exactly(datetime.fromisoformat(times[tx.seq]))
                assert tx.timestamp == datetime.fromisoformat(times[tx.seq])


@pytest.mark.parametrize("times", [NAIVE_TIMES, AWARE_TIMES], ids=["naive", "aware"])
def test_serialize_writes_each_timestamp_with_its_own_offset(times):
    # Equal instants in different zones sort next to each other, and a run
    # of equal timestamps is formatted once: each row keeps its own text.
    parsed = parse(_rows(times))
    want = [datetime.fromisoformat(times[s]).isoformat(sep=" ") for s in parsed.seq]
    for txs in (parsed, list(parsed)):
        assert [line.rsplit(",", 1)[1] for line in _text(txs).splitlines()[1:]] == want


@pytest.mark.parametrize(
    "first, last",
    [
        ("0001-01-01 00:00:00", "9999-12-31 23:59:59.999999"),
        ("0001-01-01T00:00:00+01:00", "9999-12-31 23:59:59-01:00"),
        ("2015-01-05T09:00:00+01:00:00.000001", "2015-03-05T09:00:00.5-00:00:30.25"),
    ],
)
def test_summary_spans_are_the_timedelta_total_seconds(first, last):
    s = summarize(parse(HEADER + f"I1,A1,B,1,10,{first}\nI1,A1,S,1,10,{last}\n"))
    span = (datetime.fromisoformat(last) - datetime.fromisoformat(first)).total_seconds()
    assert s.median_account_horizon_years == span / (365.25 * 86400.0)
    assert s.median_holding_days_per_asset == span / 86400.0


def test_equal_instants_with_different_offsets_keep_input_order():
    txs = parse(
        HEADER
        + "I1,A1,B,1,10,2015-01-05T10:00:00+01:00\n"
        + "I1,A2,B,1,10,2015-01-05T09:00:00+00:00\n"
        + "I1,A3,B,1,10,2015-01-05T11:00:00+02:00\n"
        + "I1,A4,B,1,10,2015-01-05T08:59:59.999999Z\n"
    )
    assert [tx.asset_id for tx in txs] == ["A4", "A1", "A2", "A3"]
    assert list(txs.seq) == [3, 0, 1, 2]
    hours = [0, 1, 0, 2]
    assert [tx.timestamp.utcoffset() for tx in txs] == [timedelta(hours=h) for h in hours]
    assert [tx.timestamp.hour for tx in txs] == [8, 10, 9, 11]


@pytest.mark.parametrize("aware", [False, True], ids=["naive", "mixed-offsets"])
def test_equal_timestamps_across_sort_chunks_keep_input_order(aware):
    # Runs of equal instants, written out of time order, straddle the
    # parser's sort chunks; an aware log writes each instant in one of
    # several offsets.  The reference is one stable sorted() over all rows.
    from dispomet.ingest import _ORDER_CHUNK

    rng = random.Random(11)
    run, n = 700, 3 * _ORDER_CHUNK + 500
    minutes = [rng.randrange(6) for _ in range(n // run + 1)]
    offsets = [timezone(timedelta(minutes=m)) for m in (0, 60, -30, 345)]
    rows, instants = [], []
    for i in range(n):
        stray = i % 13 == 6 and (i + 1) % _ORDER_CHUNK > 1  # never beside a chunk edge
        instant = datetime(2015, 1, 5, 9, rng.randrange(6) if stray else minutes[i // run])
        if aware:
            instant = instant.replace(tzinfo=timezone.utc).astimezone(rng.choice(offsets))
        instants.append(instant)
        side = "BS"[rng.randrange(2)]
        rows.append(f"I{rng.randrange(3)},A{rng.randrange(4)},{side},{rng.randint(1, 9)},{rng.randint(10, 20)},")
    assert all(instants[edge - 1] == instants[edge] for edge in range(_ORDER_CHUNK, n, _ORDER_CHUNK))
    parsed = parse(HEADER + "".join(row + ts.isoformat(sep=" ") + "\n" for row, ts in zip(rows, instants)))
    order = sorted(range(n), key=instants.__getitem__)
    assert order != list(range(n)) and list(parsed.seq) == order
    expected = TransactionColumns.of([
        Transaction(inv, asset, Side(side), int(qty), float(price), instants[i], i)
        for i in order
        for inv, asset, side, qty, price, _ in [rows[i].split(",")]
    ])
    fields = ("side", "quantity", "price", "timestamp", "seq")
    assert all(getattr(parsed, field) == getattr(expected, field) for field in fields)
    assert [(t.investor_id, t.asset_id) for t in parsed] == [(t.investor_id, t.asset_id) for t in expected]
    assert parsed.tz == expected.tz and (parsed.tz is None) is not aware
    assert run_engine(parsed).to_dict() == run_engine(expected).to_dict()


@pytest.mark.parametrize("aware_first", [False, True], ids=["naive-first", "aware-first"])
def test_columns_of_a_list_reject_mixed_timezone_awareness(aware_first):
    naive = datetime(2015, 1, 5, 9, 0, 0)
    aware = naive.replace(tzinfo=timezone.utc)
    first, other = (aware, naive) if aware_first else (naive, aware)
    txs = [
        Transaction("I1", "A1", Side.BUY, 1, 10.0, first, 0),
        Transaction("I1", "A1", Side.BUY, 1, 10.0, first + timedelta(minutes=1), 1),
        Transaction("I1", "A1", Side.SELL, 1, 11.0, other + timedelta(minutes=2), 2),
    ]
    kind = "naive" if aware_first else "timezone-aware"
    message = f"event 2: timestamp {txs[2].timestamp} is {kind}, unlike event 0's"
    for build in (TransactionColumns.of, run_engine, summarize):
        with pytest.raises(ValueError) as err:
            build(txs)
        assert str(err.value) == message


class _NinetyMinutesAhead(tzinfo):
    """A tzinfo that is not a datetime.timezone."""

    def utcoffset(self, dt):
        return timedelta(minutes=90)


def test_columns_of_a_list_keep_any_tzinfo_as_its_fixed_offset():
    ts = datetime(2015, 1, 5, 9, 0, 0, tzinfo=_NinetyMinutesAhead())
    (tx,) = TransactionColumns.of([Transaction("I1", "A1", Side.BUY, 1, 10.0, ts, 0)])
    assert tx.timestamp == ts and _exactly(tx.timestamp) == _exactly(ts)
    assert tx.timestamp.tzinfo == timezone(timedelta(minutes=90))


@pytest.mark.parametrize("shuffled", [False, True], ids=["in-order", "out-of-order"])
def test_a_parsed_log_is_order_checked_once(shuffled, monkeypatch):
    from dispomet import _kernel, ingest

    rows = [f"I{i % 3},A{i % 2},{'BS'[i % 2]},1,10.0,2015-01-05 09:{i:02d}:00\n" for i in range(8)]
    calls = []
    check = ingest.first_out_of_order

    def counted(timestamp, seq):
        calls.append(len(timestamp))
        return check(timestamp, seq)

    monkeypatch.setattr(ingest, "first_out_of_order", counted)
    monkeypatch.setattr(_kernel, "first_out_of_order", counted)
    txs = parse(HEADER + "".join(rows[::-1] if shuffled else rows))
    assert calls == [8]  # the parser's, which sorts a log out of order
    store = run_engine(txs)
    assert calls == [8]  # encode does not check the parser's columns again
    assert run_engine(txs[2:]).to_dict() == run_engine(list(txs[2:])).to_dict()
    assert calls == [8, 6, 6]  # a slice, and a list, are checked
    assert store.to_dict() == run_engine(list(txs)).to_dict()


def _unreadable(*_):
    raise AssertionError("a parsed column was read")


@pytest.mark.parametrize("shuffled", [False, True], ids=["in-order", "out-of-order"])
def test_encode_returns_parsed_columns_without_reading_their_values(shuffled):
    from dispomet import _kernel

    rows = [f"I{i % 3},A{i % 2},{'BS'[i % 2]},1,10.0,2015-01-05 09:{i:02d}:00\n" for i in range(8)]
    txs = parse(HEADER + "".join(rows[::-1] if shuffled else rows))
    # The parser has checked every price and quantity: encode reads neither.
    txs.price = txs.quantity = type("Unreadable", (), {"__len__": _unreadable, "__iter__": _unreadable,
                                                        "__getitem__": _unreadable})()
    assert _kernel.encode(txs) is txs


def test_hand_built_columns_out_of_order_still_raise():
    ordered = parse(HEADER + "I1,A,B,1,10.0,2015-01-05 09:00:00\nI1,A,S,1,11.0,2015-01-05 09:01:00\n")
    columns = TransactionColumns(
        (ordered.pair_investor, ordered.pair_asset, ordered.investors, ordered.assets), ordered.pair,
        ordered.side, ordered.quantity, ordered.price, array("q", ordered.timestamp[::-1]), ordered.seq,
    )
    message = (
        r"event 1: \(timestamp, seq\) \(2015-01-05 09:00:00, 1\) is lower than "
        r"event 0's \(2015-01-05 09:01:00, 0\)"
    )
    with pytest.raises(ValueError, match=message):
        run_engine(columns)
    with pytest.raises(ValueError, match=message):
        run_engine(list(columns))
