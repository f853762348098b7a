import io
import logging
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, strategies as st

from dispomet.ingest import (
    DuplicateAsset,
    EmptyDataset,
    MalformedRow,
    SchemaError,
    Side,
    Transaction,
    ZeroLeverage,
    parse_instruments,
    parse_transactions,
    parse_transactions_report,
    serialize_transactions,
    summarize,
)

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
    assert reg["ETF7L"].long_exposure
    assert reg["ETF1S"].leverage == -1
    assert not reg["ETF1S"].long_exposure


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
