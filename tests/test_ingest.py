import dataclasses
import io
import logging
import math
import random
import tracemalloc
from array import array
from datetime import datetime, timedelta, timezone, tzinfo

import pytest
from hypothesis import given, strategies as st

from dispomet.ingest import (
    DuplicateAsset,
    EmptyDataset,
    MalformedRow,
    SchemaError,
    Side,
    Transaction,
    TransactionColumns,
    ZeroLeverage,
    parse_instruments,
    parse_transactions,
    parse_transactions_report,
    serialize_transactions,
    summarize,
)
from dispomet.metrics import run_engine
from dispomet.synth import BehaviorProfile, generate_population

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
    txs, _ = generate_population(n_investors, BehaviorProfile(0.6, 0.3, n_assets=6, horizon_events=30, seed=5))
    return txs


def _text(txs):
    buf = io.StringIO()
    serialize_transactions(txs, buf)
    return buf.getvalue()


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
    changed[i] = dataclasses.replace(txs[i], **{field: change(getattr(txs[i], field))})
    assert cols != changed and not cols == changed
    assert changed != cols


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
    parsed, built = parse(_text(txs)), TransactionColumns.of(txs)
    assert isinstance(parsed.seq, range) and isinstance(built.seq, array)
    for cols in (parsed, built, parsed[::-1], built[1::2]):
        assert [c.typecode for c in (cols.side, cols.quantity, cols.price, cols.timestamp)] == ["b", "q", "d", "q"]
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
            assert run_engine(cols, **flags).array.tobytes() == run_engine(listed, **flags).array.tobytes()
    assert summarize(cols) == summarize(listed)


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
