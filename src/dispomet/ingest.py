"""Parsing and validation of transaction logs and the instrument registry.

Input files are comma-separated UTF-8 text with a header row.  Transactions
carry six fields (investor_id, asset_id, side, quantity, price, timestamp);
the registry carries asset_id, underlying_id, leverage.  Parsed transactions
are assigned a ``seq`` index in input order and then stably sorted by
(timestamp, seq), so same-second events keep their input ordering.

The parser fills columns, not objects: it returns a TransactionColumns, a
read-only sequence of Transactions over typed columns, whose ``seq`` is
``range(n)`` when the input was already in time order.  A row keeps one
pair code for its (investor_id, asset_id), interned as the row is read in
a PairTable: per investor_id, a dict of its asset_ids' pair codes, and
per pair, an investor code and an asset code in ``array('i')`` columns.
Timestamps are microseconds since 1970-01-01: the wall time in a naive log,
the UTC instant in a timezone-aware one, which also keeps a ``tz`` column
of each row's fixed-offset zone.  The parser converts each timestamp once,
as it reads the row, and sorts, checks order and measures spans on those
integers.  A Transaction, its ids and its ``datetime`` are built only when
read.  The row loop, parse_chunks, lives in _rows with the error classes
and PairTable, and is re-exported here.  It yields chunks of columns:
parse_transactions_report collects them, and ``compute`` holds one chunk
of the rows of a log in time order at a time.  No row-scale step holds a
whole column as Python objects: parse_chunks checks the order as it reads,
comparing each accepted row's timestamp with the one before it, the sort
of a log out of time order boxes one chunk of keys at a time, and a column
is reordered straight into a new column, its source released as soon as it
is taken.
TransactionColumns.of builds the same columns from a list of Transactions,
so the engine, summarize and serialize_transactions read one layout
whichever the source; the synth generators build it directly.  Every one
of them numbers pairs with a PairTable, and pair codes and its tables are
the one form of the ids: no column of id strings, and no (investor_id,
asset_id) key, is kept or built.
"""
from __future__ import annotations

import csv
import math
import operator
from array import array
from datetime import datetime, timedelta, timezone
from enum import Enum
from itertools import compress, count, islice, repeat
from typing import Iterable, Iterator, NamedTuple, Sequence, TextIO

from . import _rows
# The row parser, re-exported: its errors, columns, pair table and parse_chunks are ingest's names too.
from ._rows import (
    INT64_MAX, TRANSACTION_COLUMNS, DuplicateAsset, EmptyDataset, IngestError, MalformedRow, PairTable, SchemaError,
    ZeroLeverage, _EPOCH, _check_header, _instant, _new_columns, _unreadable, parse_chunks,
)

REGISTRY_COLUMNS = ("asset_id", "underlying_id", "leverage")


class Side(str, Enum):
    BUY = "B"
    SELL = "S"


class Transaction(NamedTuple):
    """One trading order, the atomic input event."""

    investor_id: str
    asset_id: str
    side: Side
    quantity: int
    price: float
    timestamp: datetime
    seq: int = 0


_SIDE_OF_SIGN = {1: Side.BUY, -1: Side.SELL}
_SIDE_TEXT = {sign: side.value for sign, side in _SIDE_OF_SIGN.items()}

_MICROSECOND = timedelta(microseconds=1)


def _datetime(micros: int, tz: timezone | None) -> datetime:
    """The datetime that _instant turned into ``(micros, tz)``."""
    if tz is None:
        return _EPOCH + _MICROSECOND * micros
    return (_EPOCH + (_MICROSECOND * micros + tz.utcoffset(None))).replace(tzinfo=tz)


def first_out_of_order(timestamp: array, seq: range | array) -> int | None:
    """Index of the first event whose (timestamp, seq) is lower than its predecessor's.

    An equal (timestamp, seq) pair is in order; a ``range`` seq is ordered
    like its step, so a descending one puts every equal timestamp out of order.
    Each event is compared with its predecessor as the columns are read: the
    timestamps alone for a ``range`` seq, else (timestamp, seq) tuples.  So
    the check holds no keys as Python objects but the pair it compares.
    """
    later = islice(timestamp, 1, None)
    if isinstance(seq, range):
        descents = map(operator.gt if seq.step > 0 else operator.ge, timestamp, later)
    else:
        descents = map(operator.gt, zip(timestamp, seq), zip(later, islice(seq, 1, None)))
    return next(compress(count(1), descents), None)


class TransactionColumns(Sequence[Transaction]):
    """Read-only Transactions held as columns; a Transaction is built on access.

    Whoever builds it, ``pair`` is an ``array('i')`` of each row's pair
    code; pair p is ``investors[pair_investor[p]]`` and
    ``assets[pair_asset[p]]``, each id held once and assets numbered in
    asset_id order; a row's ids are read through its Transaction.  ``side``
    is an ``array('b')`` of +1 for a buy and -1 for a sell, ``quantity`` an
    ``array('q')``, ``price`` an ``array('d')``, ``seq`` a ``range`` or an
    ``array('q')`` and ``timestamp`` an ``array('q')`` of the microseconds
    since 1970-01-01 of the wall time (naive) or of the UTC instant (aware).
    ``tz`` is None for naive timestamps; for aware ones it holds each row's
    fixed-offset zone, so a row reads back as the datetime it was made
    from, with the same utcoffset().  An integer index gives one
    Transaction, a slice a TransactionColumns over the selected rows and
    the same tables.  It equals any sequence of equal Transactions, another
    TransactionColumns included, field by field, in order.  ``_in_order`` is
    true only on the columns parse_transactions_report returns: it has
    checked their (timestamp, seq) order, and they number pairs and
    investors by first appearance in it and hold no id their rows lack, as
    _kernel.encode numbers them.
    """

    __slots__ = (
        "pair", "pair_investor", "pair_asset", "investors", "assets",
        "side", "quantity", "price", "timestamp", "seq", "tz", "_in_order",
    )

    def __init__(self, tables: tuple, pair: array, *columns: Sequence, tz: Sequence[timezone] | None = None) -> None:
        """Columns over pair codes, ``tables`` as PairTable.tables gives them, then side, quantity, price, timestamp, seq."""
        self.pair_investor, self.pair_asset, self.investors, self.assets = tables
        self.pair, self.tz = pair, tz
        self.side, self.quantity, self.price, self.timestamp, self.seq = columns
        self._in_order = False
        lengths = {len(column) for column in (pair, *columns)}
        if len(lengths) > 1 or (tz is not None and len(tz) not in lengths):
            raise ValueError("transaction columns differ in length")

    @classmethod
    def of(cls, transactions: Sequence[Transaction]) -> "TransactionColumns":
        """``transactions`` as columns, reading each Transaction once.

        A TransactionColumns is returned as it is.  The columns have the
        parser's types, prices going through float() and seq, which must fit
        in int64, into an ``array('q')``.  Raises ValueError naming the first
        event whose quantity lies outside int64 or whose timestamp is naive
        where event 0's is aware, or the other way round.
        """
        if isinstance(transactions, cls):
            return transactions
        columns = pair, side, quantity, price, timestamp, seq = (*_new_columns(), array("q"))
        pairs = PairTable()
        tz: list[timezone] = []
        zones: dict[timezone, timezone] = {}  # one object per distinct offset
        aware: bool | None = None
        buy = Side.BUY
        for i, tx in enumerate(transactions):
            micros, zone = _instant(tx.timestamp)
            if aware is None:
                aware = zone is not None
            elif (zone is not None) != aware:
                kind = "timezone-aware" if zone is not None else "naive"
                raise ValueError(f"event {i}: timestamp {tx.timestamp} is {kind}, unlike event 0's")
            pair.append(pairs.code(tx.investor_id, tx.asset_id))
            side.append(1 if tx.side is buy else -1)
            try:
                quantity.append(tx.quantity)
            except OverflowError:
                problem = "is not positive" if tx.quantity < 0 else f"exceeds the int64 maximum {INT64_MAX}"
                raise ValueError(f"event {i}: quantity {tx.quantity} {problem}") from None
            price.append(float(tx.price))
            timestamp.append(micros)
            if aware:
                tz.append(zones.setdefault(zone, zone))
            seq.append(tx.seq)
        return cls(pairs.tables(), *columns, tz=tz if aware else None)

    def _numbers(self) -> tuple[Sequence, ...]:
        return self.side, self.quantity, self.price, self.timestamp, self.seq

    def _ids(self, field: int) -> Iterator[str]:
        """Each row's investor_id (``field`` 0) or asset_id (1), looked up through its pair code."""
        ids, codes = (self.investors, self.pair_investor) if field == 0 else (self.assets, self.pair_asset)
        return map([ids[code] for code in codes].__getitem__, self.pair)

    def __len__(self) -> int:
        return len(self.seq)

    def __getitem__(self, index):
        if isinstance(index, slice):
            tz = None if self.tz is None else self.tz[index]
            columns = (column[index] for column in (self.pair, *self._numbers()))
            tables = self.pair_investor, self.pair_asset, self.investors, self.assets
            return TransactionColumns(tables, *columns, tz=tz)
        i = operator.index(index)
        p = self.pair[i]
        return Transaction(
            self.investors[self.pair_investor[p]], self.assets[self.pair_asset[p]], _SIDE_OF_SIGN[self.side[i]],
            self.quantity[i], self.price[i], _datetime(self.timestamp[i], None if self.tz is None else self.tz[i]),
            self.seq[i],
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))


class Instrument(NamedTuple):
    """Asset metadata: underlying index and signed leverage factor.

    Positive leverage is a long-exposure instrument, negative is an
    inverse (short-exposure) instrument.
    """

    asset_id: str
    underlying_id: str
    leverage: float


class DatasetSummary(NamedTuple):
    n_investors: int
    n_assets: int
    n_transactions: int
    median_transactions_per_investor: float
    median_assets_per_investor: float
    median_account_horizon_years: float
    median_holding_days_per_asset: float

    def rows(self) -> list[tuple[str, str]]:
        """Label/value pairs for the descriptive summary table."""
        return [
            ("Number of investors", f"{self.n_investors}"),
            ("Number of assets", f"{self.n_assets}"),
            ("Number of transactions", f"{self.n_transactions}"),
            ("Median transactions per investor", number_text(self.median_transactions_per_investor)),
            ("Number of different assets traded", f"{number_text(self.median_assets_per_investor)} per investor"),
            ("Client account time horizon (years)", f"{self.median_account_horizon_years:.2f}"),
            ("Holding time horizon per asset (days)", f"{self.median_holding_days_per_asset:.1f}"),
        ]


def parse_transactions(stream: TextIO, lenient: bool = False) -> TransactionColumns:
    """Parse a transaction log into a chronologically ordered TransactionColumns.

    Raises MalformedRow on the first bad row unless ``lenient`` is set, in
    which case bad rows are skipped.  Raises SchemaError if a required
    column is missing.
    """
    return parse_transactions_report(stream, lenient=lenient)[0]


def _stable_order(timestamp: array) -> array:
    """The indices of ``timestamp`` in stable sorted order, as an ``array('i')``: like pair codes, they fit in int32.

    Each chunk of _ORDER_CHUNK indices is sorted on its own into an
    ``array('i')`` run, so no more than one chunk is held as Python objects.
    heapq.merge then merges the runs; it puts equal keys from an earlier run
    first, so equal timestamps keep their index order.
    """
    import heapq  # loaded only by a log out of time order

    key = timestamp.__getitem__
    n = len(timestamp)
    chunks = (range(start, min(start + _rows._ORDER_CHUNK, n)) for start in range(0, n, _rows._ORDER_CHUNK))
    runs = [array("i", sorted(chunk, key=key)) for chunk in chunks]
    return array("i", heapq.merge(*runs, key=key))


def _take_each(columns: list, order: Sequence[int]) -> None:
    """Replace each column of ``columns`` but None by its elements at ``order``, freeing it unless held elsewhere.

    A list gives a list of the same objects.  An ``array`` is made at its
    full size, then filled a chunk at a time: grown by realloc, the taken
    arrays left holes in the heap, about 6 MB of peak RSS in a parse of a
    million rows out of order.
    """
    for i, column in enumerate(columns):
        if not isinstance(column, array):
            columns[i] = None if column is None else list(map(column.__getitem__, order))
            continue
        taken = array(column.typecode, [0]) * len(order)
        for start in range(0, len(order), _rows._ORDER_CHUNK):
            chunk = slice(start, start + _rows._ORDER_CHUNK)
            taken[chunk] = array(column.typecode, map(column.__getitem__, order[chunk]))
        columns[i] = taken


def renumbered(txs: TransactionColumns) -> TransactionColumns:
    """``txs`` over the same columns, its pairs renumbered by first appearance and its tables cut to its rows' ids."""
    pairs, new = PairTable(), dict.fromkeys(txs.pair)  # each old code, by first appearance
    for old in new:
        new[old] = pairs.code(txs.investors[txs.pair_investor[old]], txs.assets[txs.pair_asset[old]])
    pair = array("i", map(new.__getitem__, txs.pair))
    return TransactionColumns(pairs.tables(), pair, *txs._numbers(), tz=txs.tz)


def parse_transactions_report(
    stream: TextIO, lenient: bool = False
) -> tuple[TransactionColumns, list[MalformedRow]]:
    """Like parse_transactions, also returning the rejected-row errors.

    In strict mode the first reject raises; in lenient mode every reject is
    recorded so accepted + rejected equals the input row count, and one
    warning gives the reject count and the first reject.  Timestamps must
    all be timezone-aware or all naive, as the first accepted row sets; a
    row that differs is a reject.

    Columns are found by header name; a name given twice resolves to its
    last column, blank lines are skipped, fields past the header are
    ignored and a row too short to hold every required column is a reject.
    Text that is not UTF-8 or a field longer than the csv module's limit
    raises MalformedRow at that line, lenient or not.  The rows are those of
    parse_chunks, collected.
    """
    pairs = PairTable()
    rejects: list[MalformedRow] = []
    columns = [*_new_columns(), []]
    in_order = True  # as a log without rows is
    for chunk, in_order in parse_chunks(stream, lenient, pairs, rejects):
        for column, part in zip(columns, chunk):
            column += part
    pair, sides, quantities, prices, timestamps, tzs = columns
    seq, tables = range(len(timestamps)), pairs.tables()
    del pairs  # and its dicts, before the sort
    columns[-1] = tzs or None  # an aware log has a zone per row, a naive one none
    if not in_order:  # as the last chunk reports for every row
        seq = _stable_order(timestamps)  # stable: the input position breaks ties
        del pair, sides, quantities, prices, timestamps, tzs  # columns holds the last references
        _take_each(columns, seq)
        seq = array("q", seq)  # the int32 order as the int64 input positions
    *columns, tz = columns
    txs = TransactionColumns(tables, *columns, seq, tz=tz)
    if isinstance(seq, array):
        txs = renumbered(txs)  # the sorted rows' first appearances
    txs._in_order = True  # checked, or sorted and renumbered, above
    return txs, rejects


def _timestamp_texts(timestamp: array, tz: Sequence[timezone] | None) -> Iterator[str]:
    """Each row's timestamp as isoformat text, formatted once per run of equal values."""
    last = text = None
    for key in zip(timestamp, repeat(None) if tz is None else tz):
        if key != last:
            last = key
            text = _datetime(*key).isoformat(sep=" ")
        yield text


def serialize_transactions(transactions: Iterable[Transaction], stream: TextIO) -> None:
    """Write transactions in the same delimited format parse_transactions reads.

    The rows are written from the columns of TransactionColumns.of, which
    raises its ValueError for a list it cannot turn into columns.
    """
    txs = TransactionColumns.of(transactions)
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(TRANSACTION_COLUMNS)
    sides = map(_SIDE_TEXT.__getitem__, txs.side)
    texts = _timestamp_texts(txs.timestamp, txs.tz)
    writer.writerows(zip(txs._ids(0), txs._ids(1), sides, txs.quantity, map(repr, txs.price), texts))


def parse_instruments(stream: TextIO) -> dict[str, Instrument]:
    """Parse the instrument registry into a mapping asset_id -> Instrument.

    Text that is not UTF-8 or a field longer than the csv module's limit
    raises MalformedRow at that line, like any other bad row.
    """
    reader = csv.DictReader(stream)
    registry: dict[str, Instrument] = {}
    try:
        _check_header(reader.fieldnames, REGISTRY_COLUMNS)
        for row in reader:
            line = reader.line_num
            asset_id = (row["asset_id"] or "").strip()
            if not asset_id:
                raise MalformedRow(line, "asset_id must be non-empty")
            if asset_id in registry:
                raise DuplicateAsset(asset_id)
            try:
                leverage = float(row["leverage"])
            except (TypeError, ValueError):
                raise MalformedRow(line, f"unparseable leverage {row['leverage']!r}") from None
            if not math.isfinite(leverage):
                raise MalformedRow(line, f"leverage must be finite, got {leverage}")
            if leverage == 0:
                raise ZeroLeverage(asset_id)
            registry[asset_id] = Instrument(asset_id, (row["underlying_id"] or "").strip(), leverage)
    except (UnicodeDecodeError, csv.Error) as err:
        raise _unreadable(reader.reader, err) from None
    return registry


def serialize_instruments(registry: dict[str, Instrument], stream: TextIO) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(REGISTRY_COLUMNS)
    writer.writerows((inst.asset_id, inst.underlying_id, number_text(inst.leverage)) for inst in registry.values())


def number_text(value: float) -> str:
    """``value`` in its short form where its 6 significant digits are exact, else as repr, which is exact."""
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


_SECONDS_PER_YEAR = 365.25 * 86400.0
_SECONDS_PER_DAY = 86400.0


def median(values: Iterable[float]) -> float:
    """The middle of the sorted values, or the mean of the two middle ones, as statistics.median."""
    data = sorted(values)
    n = len(data)
    if not n:
        raise ValueError("median of no values")
    return data[n // 2] if n % 2 else (data[n // 2 - 1] + data[n // 2]) / 2


def summarize(transactions: Sequence[Transaction]) -> DatasetSummary:
    """Descriptive summary: medians over per-investor and per-asset groups, from one pass over the rows."""
    txs = TransactionColumns.of(transactions)
    if not txs:
        raise EmptyDataset("summarize requires at least one transaction")
    pairs: dict[int, list[int]] = {}  # [rows, first, last] per pair code
    for p, ts in zip(txs.pair, txs.timestamp):
        pair = pairs.setdefault(p, [0, ts, ts])
        pair[0] += 1
        pair[1] = min(pair[1], ts)
        pair[2] = max(pair[2], ts)
    investors: dict[int, list[int]] = {}  # [rows, pairs, first, last] per investor code: no id is read
    for p, (rows, first, last) in pairs.items():
        investor = investors.setdefault(txs.pair_investor[p], [0, 0, first, last])
        investor[0] += rows
        investor[1] += 1
        investor[2] = min(investor[2], first)
        investor[3] = max(investor[3], last)
    # A span in microseconds over the int 10**6 is exactly the span's
    # timedelta.total_seconds().
    horizons = [(last - first) / 10**6 / _SECONDS_PER_YEAR for _, _, first, last in investors.values()]
    holding_days = [(last - first) / 10**6 / _SECONDS_PER_DAY for _, first, last in pairs.values()]
    return DatasetSummary(
        n_investors=len(investors),
        n_assets=len({txs.pair_asset[p] for p in pairs}),
        n_transactions=len(txs),
        median_transactions_per_investor=float(median(rows for rows, _, _, _ in investors.values())),
        median_assets_per_investor=float(median(n_pairs for _, n_pairs, _, _ in investors.values())),
        median_account_horizon_years=float(median(horizons)),
        median_holding_days_per_asset=float(median(holding_days)),
    )
