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
read.  The row loop, parse_chunks, yields chunks of columns:
parse_transactions_report collects them, and ``compute`` holds one chunk
of the rows of a log in time order at a time.  No row-scale step holds a
whole column as Python objects: the order check compares each row with the
one before it, the sort of a log out of time order boxes one chunk of keys
at a time, and a column is reordered straight into a new column, its source
released as soon as it is taken.
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
import re
from array import array
from collections import Counter
from datetime import datetime, timedelta, timezone
from enum import Enum
from itertools import compress, count, islice, repeat
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence, TextIO

TRANSACTION_COLUMNS = ("investor_id", "asset_id", "side", "quantity", "price", "timestamp")
REGISTRY_COLUMNS = ("asset_id", "underlying_id", "leverage")


class IngestError(Exception):
    """Base class for ingest failures."""


class SchemaError(IngestError):
    """A required column is missing from the header row."""


class MalformedRow(IngestError):
    """A data row could not be parsed into a valid record.

    A lenient parse keeps one per rejected row, so it holds its two fields
    in slots and formats its message only when it is printed.
    """

    __slots__ = ("line", "reason")

    def __init__(self, line: int, reason: str) -> None:
        self.line = line
        self.reason = reason

    def __str__(self) -> str:
        return f"line {self.line}: {self.reason}"


class DuplicateAsset(IngestError):
    def __init__(self, asset_id: str) -> None:
        self.asset_id = asset_id
        super().__init__(f"duplicate asset_id {asset_id!r} in registry")


class ZeroLeverage(IngestError):
    def __init__(self, asset_id: str) -> None:
        self.asset_id = asset_id
        super().__init__(f"asset_id {asset_id!r} has leverage 0")


class EmptyDataset(IngestError):
    """Summary statistics require at least one transaction."""


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

INT64_MAX = 2**63 - 1  # the largest quantity: the int64 range of exported trade logs

_EPOCH = datetime(1970, 1, 1)
_MICROSECOND = timedelta(microseconds=1)
# Rows per chunk of parse_chunks, and keys per sorted() call of _stable_order,
# which holds its keys as Python objects: this bounds what the sort of a log
# out of time order adds to a parse however long the log.
_ORDER_CHUNK = 1 << 12


def _instant(ts: datetime) -> tuple[int, timezone | None]:
    """``ts`` as (microseconds since 1970-01-01, zone).

    A naive ``ts`` counts its wall time and has no zone.  An aware one
    counts its UTC instant, and its zone is a fixed-offset ``timezone``: its
    own tzinfo when that is one, else the offset it gave.
    """
    offset = ts.utcoffset()
    if offset is None:
        span, tz = ts - _EPOCH, None
    else:
        # The offset is taken from the timedelta, not from the datetime,
        # whose UTC instant can fall outside years 1-9999.
        span = ts.replace(tzinfo=None) - _EPOCH - offset
        tz = ts.tzinfo if type(ts.tzinfo) is timezone else timezone(offset)
    # span // _MICROSECOND, without its slower timedelta division
    return (span.days * 86_400 + span.seconds) * 1_000_000 + span.microseconds, tz


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


class PairTable:
    """The (investor_id, asset_id) pairs of a log, each interned once and numbered in order of first appearance.

    ``by_investor`` maps each investor_id, in order of first appearance, to
    its {asset_id: pair code}; an asset_id key is the one str of
    ``asset_ids`` for it.  Pair p's investor code, its investor's index in
    ``by_investor``, is ``pair_investor[p]``, and its asset code, the index
    in ``asset_ids`` of its asset_id by first appearance, ``pair_asset[p]``.
    tables() gives them as TransactionColumns holds them.
    """

    __slots__ = ("by_investor", "pair_investor", "pair_asset", "asset_ids", "_asset_code")

    def __init__(self) -> None:
        self.by_investor: dict[str, dict[str, int]] = {}
        self.pair_investor, self.pair_asset = array("i"), array("i")
        self.asset_ids: list[str] = []
        self._asset_code: dict[str, int] = {}

    def code(self, investor_id: str, asset_id: str) -> int:
        """The pair's code, the next one if the pair is new."""
        assets = self.by_investor.get(investor_id)
        if assets is None:
            assets = self.by_investor[investor_id] = {}
            investor = len(self.by_investor) - 1
        else:
            code = assets.get(asset_id)
            if code is not None:
                return code
            investor = self.pair_investor[next(iter(assets.values()))]  # that of the investor's first pair
        asset = self._asset_code.setdefault(asset_id, len(self.asset_ids))
        if asset == len(self.asset_ids):
            self.asset_ids.append(asset_id)
        code = assets[self.asset_ids[asset]] = len(self.pair_investor)
        self.pair_investor.append(investor)
        self.pair_asset.append(asset)
        return code

    def tables(self) -> tuple[array, array, list[str], list[str]]:
        """(pair_investor, pair_asset, investors, assets): investors by first appearance, assets by asset_id."""
        assets = sorted(self.asset_ids)
        rank = array("i", [0]) * len(assets)  # each asset code's index in asset_id order
        for code, asset_id in enumerate(assets):
            rank[self._asset_code[asset_id]] = code
        return self.pair_investor, array("i", map(rank.__getitem__, self.pair_asset)), list(self.by_investor), assets


def _new_columns() -> list[array]:
    """Empty pair, side, quantity, price and timestamp columns, of the types TransactionColumns holds."""
    return [array(typecode) for typecode in "ibqdq"]


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
            ("Median transactions per investor", f"{self.median_transactions_per_investor:g}"),
            ("Number of different assets traded", f"{self.median_assets_per_investor:g} per investor"),
            ("Client account time horizon (years)", f"{self.median_account_horizon_years:.2f}"),
            ("Holding time horizon per asset (days)", f"{self.median_holding_days_per_asset:.1f}"),
        ]


def _check_header(fieldnames: Iterable[str] | None, required: tuple[str, ...]) -> None:
    seen = set(fieldnames or ())
    missing = [c for c in required if c not in seen]
    if missing:
        raise SchemaError(f"missing column(s): {', '.join(missing)}")


_SIDES = {"B": 1, "S": -1}


def _unreadable(reader, err: UnicodeDecodeError | csv.Error) -> MalformedRow:
    """The MalformedRow for input the csv reader could not take.

    A csv.Error belongs to the line the reader last took.  A text stream
    decodes ahead of the reader in chunks that start inside the line being
    read, so an undecodable byte lies on that line plus the line breaks
    that precede it in its chunk.
    """
    if isinstance(err, csv.Error):
        return MalformedRow(reader.line_num, str(err))
    line = reader.line_num + 1 + len(re.findall(rb"\r\n|\r|\n", err.object[: err.start]))
    return MalformedRow(line, f"not UTF-8 text: byte {err.object[err.start]:#04x} cannot be decoded")


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
    chunks = (range(start, min(start + _ORDER_CHUNK, n)) for start in range(0, n, _ORDER_CHUNK))
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
        for start in range(0, len(order), _ORDER_CHUNK):
            chunk = slice(start, start + _ORDER_CHUNK)
            taken[chunk] = array(column.typecode, map(column.__getitem__, order[chunk]))
        columns[i] = taken


def renumbered(txs: TransactionColumns) -> TransactionColumns:
    """``txs`` over the same columns, its pairs renumbered by first appearance and its tables cut to its rows' ids."""
    pairs, new = PairTable(), dict.fromkeys(txs.pair)  # each old code, by first appearance
    for old in new:
        new[old] = pairs.code(txs.investors[txs.pair_investor[old]], txs.assets[txs.pair_asset[old]])
    pair = array("i", map(new.__getitem__, txs.pair))
    return TransactionColumns(pairs.tables(), pair, *txs._numbers(), tz=txs.tz)


def parse_chunks(
    stream: TextIO, lenient: bool, pairs: PairTable, rejects: list[MalformedRow] | None
) -> Iterator[tuple[array, array, array, array, array, list[timezone]]]:
    """The accepted rows of a transaction log, in input order, as chunks of _ORDER_CHUNK rows or fewer.

    A chunk is the columns (pair, side, quantity, price, timestamp, tz) of
    TransactionColumns, ``tz`` empty in a naive log; no chunk is empty.
    Across chunks, ``pairs`` gains each (investor_id, asset_id) pair as it
    first appears, and ``rejects``, unless it is None, each rejected row's
    MalformedRow.  Once the last chunk is taken, one warning gives the
    reject count and the first reject, the only ones kept when ``rejects``
    is None.  The rules for rows are parse_transactions_report's.

    ``pairs`` must hold only stripped, non-empty ids, as a fresh PairTable
    does: a row whose ids it holds as read takes their pair code unstripped.
    """
    reader = csv.reader(stream)
    by_investor, code = pairs.by_investor, pairs.code
    zones: dict[timezone, timezone] = {}  # one object per distinct offset
    # The last timestamp field converted and its conversion: aware is None
    # if the text did not parse, else whether it carries an offset.
    last_text = micros = zone = aware = None
    first_aware: bool | None = None
    n_rejected, first_reject = 0, None
    inf = math.inf
    try:
        header = next(reader, None)
        _check_header(header, TRANSACTION_COLUMNS)
        position = {name: i for i, name in enumerate(header)}
        fields = itemgetter(*[position[c] for c in TRANSACTION_COLUMNS])
        chunk = pair, sides, quantities, prices, timestamps, tzs = (*_new_columns(), [])
        for row in reader:
            try:
                try:
                    investor_id, asset_id, side_txt, qty_txt, price_txt, ts_txt = fields(row)
                except IndexError:  # the row stops before a required column
                    if not row:
                        continue  # a blank line
                    raise MalformedRow(reader.line_num, "wrong number of fields") from None
                side = _SIDES.get(side_txt)
                if side is None:
                    side = _SIDES.get(side_txt.strip())
                    if side is None:
                        raise MalformedRow(reader.line_num, f"side must be B or S, got {side_txt.strip()!r}")
                # int() and float() skip the same whitespace as str.strip().
                try:
                    quantity = int(qty_txt)
                except ValueError:
                    raise MalformedRow(
                        reader.line_num, f"quantity must be a whole number of units, got {qty_txt.strip()!r}"
                    ) from None
                if not 0 < quantity <= INT64_MAX:
                    bound = "positive" if quantity <= 0 else f"at most {INT64_MAX}"
                    raise MalformedRow(reader.line_num, f"quantity must be {bound}, got {quantity}")
                try:
                    price = float(price_txt)
                except ValueError:
                    raise MalformedRow(reader.line_num, f"unparseable price {price_txt!r}") from None
                if not 0.0 < price < inf:  # NaN fails too
                    bound = "finite" if price > 0 else "positive"
                    raise MalformedRow(reader.line_num, f"price must be {bound}, got {price}")
                # Logs repeat a timestamp over consecutive rows: convert it
                # once per run of equal text.
                if ts_txt != last_text:
                    last_text = ts_txt
                    try:
                        ts = datetime.fromisoformat(ts_txt.strip())
                    except ValueError:
                        aware = None
                    else:
                        micros, zone = _instant(ts)
                        aware = zone is not None
                        zone = zones.setdefault(zone, zone)
                if aware is None:
                    raise MalformedRow(reader.line_num, f"unparseable timestamp {ts_txt!r}")
                # by_investor holds stripped, non-empty ids only: ids found
                # as read need neither stripping nor checking.
                try:
                    p = by_investor[investor_id][asset_id]
                except KeyError:
                    p = None
                    investor_id, asset_id = investor_id.strip(), asset_id.strip()
                    if not investor_id or not asset_id:
                        raise MalformedRow(reader.line_num, "investor_id and asset_id must be non-empty") from None
                if aware is not first_aware:
                    if first_aware is not None:
                        kind = "timezone-aware" if aware else "naive"
                        raise MalformedRow(
                            reader.line_num, f"timestamp {ts_txt!r} is {kind}, unlike the first accepted row"
                        )
                    first_aware = aware
            except MalformedRow as err:
                if not lenient:
                    raise
                err.__context__ = err.__traceback__ = None  # a kept reject holds no error it was raised from, no frames
                n_rejected += 1
                first_reject = first_reject or err
                if rejects is not None:
                    rejects.append(err)
                continue
            pair.append(code(investor_id, asset_id) if p is None else p)
            sides.append(side)
            quantities.append(quantity)
            prices.append(price)
            timestamps.append(micros)
            if aware:
                tzs.append(zone)
            if len(pair) == _ORDER_CHUNK:
                yield chunk
                chunk = pair, sides, quantities, prices, timestamps, tzs = (*_new_columns(), [])
    except (UnicodeDecodeError, csv.Error) as err:
        raise _unreadable(reader, err) from None
    if pair:
        yield chunk
    if n_rejected:
        import logging  # loaded only by a parse that has rejects to report

        log = logging.getLogger(__name__)
        log.warning("skipped %d malformed row(s), the first at %s", n_rejected, first_reject)


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
    for chunk in parse_chunks(stream, lenient, pairs, rejects):
        for column, part in zip(columns, chunk):
            column += part
    pair, sides, quantities, prices, timestamps, tzs = columns
    seq, tables = range(len(timestamps)), pairs.tables()
    del pairs  # and its dicts, before the order check
    columns[-1] = tzs or None  # an aware log has a zone per row, a naive one none
    if first_out_of_order(timestamps, seq) is not None:
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
    writer.writerows((inst.asset_id, inst.underlying_id, leverage_text(inst.leverage)) for inst in registry.values())


def leverage_text(leverage: float) -> str:
    """``leverage`` in its short form where its 6 significant digits are exact, else as repr, which is exact."""
    text = f"{leverage:g}"
    return text if float(text) == leverage else repr(leverage)


_SECONDS_PER_YEAR = 365.25 * 86400.0
_SECONDS_PER_DAY = 86400.0


def _spans(keys: Iterable, timestamps: Sequence[int]) -> dict:
    """(first, last) timestamp per key."""
    spans: dict = {}
    for key, ts in zip(keys, timestamps):
        span = spans.get(key)
        spans[key] = (ts, ts) if span is None else (min(span[0], ts), max(span[1], ts))
    return spans


def median(values: Iterable[float]) -> float:
    """The middle of the sorted values, or the mean of the two middle ones, as statistics.median."""
    data = sorted(values)
    n = len(data)
    if not n:
        raise ValueError("median of no values")
    return data[n // 2] if n % 2 else (data[n // 2 - 1] + data[n // 2]) / 2


def summarize(transactions: Sequence[Transaction]) -> DatasetSummary:
    """Descriptive summary: medians over per-investor and per-asset groups."""
    txs = TransactionColumns.of(transactions)
    if not txs:
        raise EmptyDataset("summarize requires at least one transaction")
    investor_of = txs.pair_investor.__getitem__  # investors are counted by code: no id is read
    per_investor_count = Counter(map(investor_of, txs.pair))
    investor_spans = _spans(map(investor_of, txs.pair), txs.timestamp)
    pair_spans = _spans(txs.pair, txs.timestamp)
    assets_per_investor = Counter(map(investor_of, pair_spans))
    # A span in microseconds over the int 10**6 is exactly the span's
    # timedelta.total_seconds().
    horizons = [(last - first) / 10**6 / _SECONDS_PER_YEAR for first, last in investor_spans.values()]
    holding_days = [(last - first) / 10**6 / _SECONDS_PER_DAY for first, last in pair_spans.values()]
    return DatasetSummary(
        n_investors=len(per_investor_count),
        n_assets=len({txs.pair_asset[p] for p in pair_spans}),
        n_transactions=len(txs),
        median_transactions_per_investor=float(median(per_investor_count.values())),
        median_assets_per_investor=float(median(assets_per_investor.values())),
        median_account_horizon_years=float(median(horizons)),
        median_holding_days_per_asset=float(median(holding_days)),
    )
