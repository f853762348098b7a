"""The row parser of transaction logs: each accepted row of a log as pair codes and typed columns.

parse_chunks reads a log a row at a time and yields chunks of columns,
interning each (investor_id, asset_id) pair in a PairTable as the row is
read.  The error classes of every parse live here too, with the header
check, the int64 bound and the chunk size.  This is all ``compute`` needs
to stream a log in time order, so it loads no more than this module;
ingest re-exports every public name here, and adds the whole-log parse,
its sort, the columns type, serialization and the registry.
"""
from __future__ import annotations

import csv
import math
import re
from array import array
from datetime import datetime, timezone
from operator import itemgetter
from typing import Iterable, Iterator, TextIO

TRANSACTION_COLUMNS = ("investor_id", "asset_id", "side", "quantity", "price", "timestamp")


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


INT64_MAX = 2**63 - 1  # the largest quantity: the int64 range of exported trade logs

_EPOCH = datetime(1970, 1, 1)
# Rows per chunk of parse_chunks, and keys per sorted() call of ingest._stable_order,
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


def parse_chunks(
    stream: TextIO, lenient: bool, pairs: PairTable, rejects: list[MalformedRow] | None
) -> Iterator[tuple[tuple[array, array, array, array, array, list[timezone]], bool]]:
    """The accepted rows of a transaction log, in input order, as chunks of _ORDER_CHUNK rows or fewer.

    A chunk is the columns (pair, side, quantity, price, timestamp, tz) of
    TransactionColumns, ``tz`` empty in a naive log; no chunk is empty.
    Each comes with whether every row accepted so far, its own included, is
    in time order: no timestamp lower than the accepted row's before it, an
    equal one being in order by its later input position.  A rejected row
    is not compared.
    Across chunks, ``pairs`` gains each (investor_id, asset_id) pair as it
    first appears, and ``rejects``, unless it is None, each rejected row's
    MalformedRow.  Once the last chunk is taken, one warning gives the
    reject count and the first reject, the only ones kept when ``rejects``
    is None.  The rules for rows are ingest.parse_transactions_report's.

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
    last_micros, in_order = -inf, True  # the last accepted row's timestamp, and the order so far
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
            # Runs of equal timestamps are in order: compare only where the timestamp changes.
            if micros != last_micros:
                if micros < last_micros:
                    in_order = False
                last_micros = micros
            if len(pair) == _ORDER_CHUNK:
                yield chunk, in_order
                chunk = pair, sides, quantities, prices, timestamps, tzs = (*_new_columns(), [])
    except (UnicodeDecodeError, csv.Error) as err:
        raise _unreadable(reader, err) from None
    if pair:
        yield chunk, in_order
    if n_rejected:
        import logging  # loaded only by a parse that has rejects to report

        # The library's parse warnings have one logger, ingest's, whichever module logs them.
        log = logging.getLogger("dispomet.ingest")
        log.warning("skipped %d malformed row(s), the first at %s", n_rejected, first_reject)
