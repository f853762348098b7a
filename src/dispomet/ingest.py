"""Parsing and validation of transaction logs and the instrument registry.

Input files are comma-separated UTF-8 text with a header row.  Transactions
carry six fields (investor_id, asset_id, side, quantity, price, timestamp);
the registry carries asset_id, underlying_id, leverage.  Parsed transactions
are assigned a ``seq`` index in input order and then stably sorted by
(timestamp, seq), so same-second events keep their input ordering.
"""
from __future__ import annotations

import csv
import logging
import math
import re
from dataclasses import dataclass
from datetime import datetime
from enum import Enum
from operator import attrgetter, itemgetter
from statistics import median
from typing import Iterable, TextIO

log = logging.getLogger(__name__)

TRANSACTION_COLUMNS = ("investor_id", "asset_id", "side", "quantity", "price", "timestamp")
REGISTRY_COLUMNS = ("asset_id", "underlying_id", "leverage")


class IngestError(Exception):
    """Base class for ingest failures."""


class SchemaError(IngestError):
    """A required column is missing from the header row."""


class MalformedRow(IngestError):
    """A data row could not be parsed into a valid record."""

    def __init__(self, line: int, reason: str) -> None:
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


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


@dataclass(frozen=True, slots=True)
class Transaction:
    """One trading order, the atomic input event."""

    investor_id: str
    asset_id: str
    side: Side
    quantity: int
    price: float
    timestamp: datetime
    seq: int = 0


@dataclass(frozen=True, slots=True)
class Instrument:
    """Asset metadata: underlying index and signed leverage factor.

    Positive leverage is a long-exposure instrument, negative is an
    inverse (short-exposure) instrument.
    """

    asset_id: str
    underlying_id: str
    leverage: float


@dataclass(frozen=True, slots=True)
class DatasetSummary:
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


_SIDES = {"B": Side.BUY, "S": Side.SELL}
_QUANTITY_MAX = 2**63 - 1  # the int64 range of exported trade logs; encode checks it too


def _parse_row(fields: tuple[str, ...], line: int, seq: int) -> Transaction:
    investor_id, asset_id, side_txt, qty_txt, price_txt, ts_txt = fields
    side_txt = side_txt.strip()
    side = _SIDES.get(side_txt)
    if side is None:
        raise MalformedRow(line, f"side must be B or S, got {side_txt!r}")
    qty_txt = qty_txt.strip()
    try:
        quantity = int(qty_txt)
    except ValueError:
        raise MalformedRow(line, f"quantity must be a whole number of units, got {qty_txt!r}") from None
    if quantity <= 0:
        raise MalformedRow(line, f"quantity must be positive, got {quantity}")
    if quantity > _QUANTITY_MAX:
        raise MalformedRow(line, f"quantity must be at most {_QUANTITY_MAX}, got {quantity}")
    try:
        price = float(price_txt)
    except ValueError:
        raise MalformedRow(line, f"unparseable price {price_txt!r}") from None
    if not price > 0:
        raise MalformedRow(line, f"price must be positive, got {price}")
    if not math.isfinite(price):
        raise MalformedRow(line, f"price must be finite, got {price}")
    try:
        timestamp = datetime.fromisoformat(ts_txt.strip())
    except ValueError:
        raise MalformedRow(line, f"unparseable timestamp {ts_txt!r}") from None
    investor_id = investor_id.strip()
    asset_id = asset_id.strip()
    if not investor_id or not asset_id:
        raise MalformedRow(line, "investor_id and asset_id must be non-empty")
    return Transaction(investor_id, asset_id, side, quantity, price, timestamp, seq)


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


def parse_transactions(stream: TextIO, lenient: bool = False) -> list[Transaction]:
    """Parse a transaction log into a chronologically ordered list.

    Raises MalformedRow on the first bad row unless ``lenient`` is set, in
    which case bad rows are skipped.  Raises SchemaError if a required
    column is missing.
    """
    txs, _ = parse_transactions_report(stream, lenient=lenient)
    return txs


def parse_transactions_report(
    stream: TextIO, lenient: bool = False
) -> tuple[list[Transaction], list[MalformedRow]]:
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
    raises MalformedRow at that line, lenient or not.
    """
    reader = csv.reader(stream)
    records: list[Transaction] = []
    rejects: list[MalformedRow] = []
    try:
        header = next(reader, None)
        _check_header(header, TRANSACTION_COLUMNS)
        position = {name: i for i, name in enumerate(header)}
        columns = [position[c] for c in TRANSACTION_COLUMNS]
        fields = itemgetter(*columns)
        min_len = max(columns) + 1
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            try:
                if len(row) < min_len:
                    raise MalformedRow(line, "wrong number of fields")
                tx = _parse_row(fields(row), line, len(records))
                aware = tx.timestamp.tzinfo is not None
                if records and aware != (records[0].timestamp.tzinfo is not None):
                    kind = "timezone-aware" if aware else "naive"
                    raise MalformedRow(
                        line,
                        f"timestamp {row[position['timestamp']]!r} is {kind}, unlike the first accepted row",
                    )
            except MalformedRow as err:
                if not lenient:
                    raise
                rejects.append(err)
                continue
            records.append(tx)
    except (UnicodeDecodeError, csv.Error) as err:
        raise _unreadable(reader, err) from None
    if rejects:
        log.warning("skipped %d malformed row(s), the first at %s", len(rejects), rejects[0])
    records.sort(key=attrgetter("timestamp"))  # stable: seq breaks ties
    return records, rejects


def serialize_transactions(transactions: Iterable[Transaction], stream: TextIO) -> None:
    """Write transactions in the same delimited format parse_transactions reads."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(TRANSACTION_COLUMNS)
    for tx in transactions:
        writer.writerow(
            (tx.investor_id, tx.asset_id, tx.side.value, tx.quantity,
             repr(tx.price), tx.timestamp.isoformat(sep=" "))
        )


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
    for inst in registry.values():
        writer.writerow((inst.asset_id, inst.underlying_id, f"{inst.leverage:g}"))


_SECONDS_PER_YEAR = 365.25 * 86400.0
_SECONDS_PER_DAY = 86400.0


def summarize(transactions: list[Transaction]) -> DatasetSummary:
    """Descriptive summary: medians over per-investor and per-asset groups."""
    if not transactions:
        raise EmptyDataset("summarize requires at least one transaction")
    per_investor_count: dict[str, int] = {}
    per_investor_assets: dict[str, set[str]] = {}
    first_last: dict[str, tuple[datetime, datetime]] = {}
    asset_first_last: dict[tuple[str, str], tuple[datetime, datetime]] = {}
    assets: set[str] = set()
    for tx in transactions:
        inv = tx.investor_id
        per_investor_count[inv] = per_investor_count.get(inv, 0) + 1
        per_investor_assets.setdefault(inv, set()).add(tx.asset_id)
        assets.add(tx.asset_id)
        span = first_last.get(inv)
        if span is None:
            first_last[inv] = (tx.timestamp, tx.timestamp)
        else:
            first_last[inv] = (min(span[0], tx.timestamp), max(span[1], tx.timestamp))
        key = (inv, tx.asset_id)
        aspan = asset_first_last.get(key)
        if aspan is None:
            asset_first_last[key] = (tx.timestamp, tx.timestamp)
        else:
            asset_first_last[key] = (min(aspan[0], tx.timestamp), max(aspan[1], tx.timestamp))
    horizons = [
        (last - first).total_seconds() / _SECONDS_PER_YEAR for first, last in first_last.values()
    ]
    holding_days = [
        (last - first).total_seconds() / _SECONDS_PER_DAY
        for first, last in asset_first_last.values()
    ]
    return DatasetSummary(
        n_investors=len(per_investor_count),
        n_assets=len(assets),
        n_transactions=len(transactions),
        median_transactions_per_investor=float(median(per_investor_count.values())),
        median_assets_per_investor=float(median(len(s) for s in per_investor_assets.values())),
        median_account_horizon_years=float(median(horizons)),
        median_holding_days_per_asset=float(median(holding_days)),
    )
