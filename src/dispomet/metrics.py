"""Realized/paper gain-loss accrual and disposition-effect statistics.

At every transaction the owning investor's event produces at most one
realization leg plus a paper evaluation of each still-open position at the
current market price.  Increments accrue, per method, into a tally keyed by
(investor, asset, portfolio context):

* Count: one event per asset,
* Total: the traded or held quantity,
* Value: the absolute fractional return.

The disposition effect of a tally is RG/(RG+PG) - RL/(RL+PL); it lies in
[-1, 1] and is undefined when either denominator is zero or, under either
zero-denominator policy, when it is not finite (inf/inf from an overflowed
tally).

Portfolio context is the sign of the summed monetary unrealized P&L of the
investor's other open positions after the trade (Neutral when there are no
other positions or the balance is exactly zero).  Narrow framing merges
contexts before the ratio; wide framing pools tallies at the investor level
per context; integrated framing keeps per-asset, per-context tallies.

``run_engine`` streams the events through _kernel into a TallyStore: its
``tallies`` are the kernel's dense ``array('d')``, laid out in the order of
Context and Method, with each pair's investor and asset and no event
column.  ``aggregate`` reads that buffer in plain Python and returns its
records as a sequence of DeRecords backed by stdlib ``array`` columns
(``array('i')`` investor and asset indices, as wide as the pair tables,
context and method codes and ``de``), ordered by (investor_id, asset_id,
context, method) as text.  It reads each group with a nonzero tally once,
computes every requested method from it, and builds the records in that
order rather than sorting them.  ``histogram`` is plain Python too, so
nothing here loads numpy.

The same semantics, one object at a time, are the reference in synth
(``classify_context``, ``accrue_event``, ``compute_de``, ``oracle_replay``).
"""
from __future__ import annotations

import math
import operator
import struct
from array import array
from dataclasses import dataclass
from enum import Enum
from itertools import compress, filterfalse
from typing import Iterable, Sequence

from . import _kernel
from .ingest import Transaction


class Method(Enum):
    COUNT = "count"
    TOTAL = "total"
    VALUE = "value"


class Context(Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    NEUTRAL = "neutral"


class Framing(Enum):
    NARROW = "narrow"
    WIDE = "wide"
    INTEGRATED = "integrated"


class Level(Enum):
    PER_ASSET = "per-asset"
    INVESTOR_POOLED = "investor-pooled"
    INVESTOR_MEAN_OF_ASSETS = "investor-mean-of-assets"


#: asset_id marker used on investor-level (pooled or averaged) records.
POOLED_ASSET = "*"

#: Context of a record per context code.  A code is also the rank of the
#: context's text in record order: "all" (contexts merged, narrow framing)
#: sorts before "negative" and "positive".
RECORD_CONTEXTS: tuple[Context | None, ...] = (None, Context.NEGATIVE, Context.POSITIVE)
#: Method of a record per method code: its index in the tally layout, which
#: is also the rank of its text.
RECORD_METHODS: tuple[Method, ...] = tuple(Method)


class InvalidBinWidth(Exception):
    pass


MAX_BINS = 10**6  # bounds the count list and each hist_*.csv to a million rows

_NAN = math.nan  # the de of an undefined record

# A pair's 36 tallies, or one context's 12, from a byte offset into a
# store's buffer, as a tuple of floats.
_unpack_pair = struct.Struct("36d").unpack_from
_unpack_context = struct.Struct("12d").unpack_from


@dataclass(slots=True)
class Tally:
    """RG/RL/PG/PL accumulators for one (investor, asset, context, method)."""

    rg: float = 0.0
    rl: float = 0.0
    pg: float = 0.0
    pl: float = 0.0


TallyKey = tuple[str, str, Context, Method]


@dataclass(frozen=True, slots=True)
class DeRecord:
    """One disposition-effect observation, the unit fed to statistics."""

    investor_id: str
    asset_id: str
    context: Context | None  # None = contexts merged (narrow framing)
    method: Method
    de: float
    defined: bool


class DeRecords(Sequence[DeRecord]):
    """Read-only DeRecords held as columns; a DeRecord is built on access.

    ``investor`` and ``asset`` are ``array('i')`` indices into
    ``investor_ids`` and ``asset_ids``, ``context`` and ``method`` are
    ``array('b')`` codes into RECORD_CONTEXTS and RECORD_METHODS, and ``de``
    is an ``array('d')`` that is NaN exactly where a record is undefined,
    under either zero-denominator policy; ``defined`` is read off it.  An
    integer index gives one DeRecord, a slice the selected records as
    DeRecords.
    """

    __slots__ = ("investor_ids", "asset_ids", "investor", "asset", "context", "method", "de")

    def __init__(self, investor_ids, asset_ids, investor, asset, context, method, de) -> None:
        self.investor_ids: Sequence[str] = investor_ids
        self.asset_ids: Sequence[str] = asset_ids
        self.investor: array = investor
        self.asset: array = asset
        self.context: array = context
        self.method: array = method
        self.de: array = de

    def _columns(self) -> tuple[array, ...]:
        return self.investor, self.asset, self.context, self.method, self.de

    @property
    def defined(self) -> array:
        """An ``array('b')``: 1 where a record is defined, 0 where its ``de`` is NaN."""
        return array("b", map(float.__eq__, self.de, self.de))

    def __len__(self) -> int:
        return len(self.de)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return DeRecords(self.investor_ids, self.asset_ids, *(col[index] for col in self._columns()))
        i = operator.index(index)
        de = self.de[i]
        return DeRecord(
            self.investor_ids[self.investor[i]],
            self.asset_ids[self.asset[i]],
            RECORD_CONTEXTS[self.context[i]],
            RECORD_METHODS[self.method[i]],
            de,
            de == de,
        )

    def of_method(self, method: Method) -> "DeRecords":
        """The records of ``method``, in order.

        A key's records are consecutive, one per method in code order.
        Where every key has the same n methods, as at every level but
        investor-mean-of-assets, a method's records are every n-th record,
        a slice; otherwise they are picked one by one.
        """
        code = RECORD_METHODS.index(method)
        n = 1
        while n < len(self) and self.method[n] > self.method[n - 1]:
            n += 1
        first = self.method[:n]
        if code in first and self.method == first * (len(self) // n):
            return self[first.index(code)::n]
        return self._compress(list(map(code.__eq__, self.method)))

    def _compress(self, selectors: Sequence) -> "DeRecords":
        """The records whose selector is true, in order."""
        return DeRecords(
            self.investor_ids, self.asset_ids, *(array(col.typecode, compress(col, selectors)) for col in self._columns())
        )


# ---------------------------------------------------------------------------
# Streaming engine
# ---------------------------------------------------------------------------

class TallyStore:
    """Dense tally storage produced by the streaming engine.

    ``tallies`` is the kernel's ``array('d')``, laid out flat as (pair,
    context, method*4 + component): contexts in Context order, methods in
    Method order and components rg, rl, pg, pl.  ``aggregate`` and
    ``to_dict`` read it as it is.  Pair p belongs to
    ``investors[pair_investor[p]]`` and ``assets[pair_asset[p]]``; investors
    are numbered in order of first appearance, assets in asset_id order.
    """

    def __init__(self, investors, assets, pair_investor, pair_asset, tallies) -> None:
        self.investors, self.assets, self.pair_investor, self.pair_asset = investors, assets, pair_investor, pair_asset
        self.tallies: array = tallies

    def to_dict(self) -> dict[TallyKey, Tally]:
        """Sparse view in oracle_replay's layout: only tallies with a nonzero component."""
        out: dict[TallyKey, Tally] = {}
        for pid, (ii, ai) in enumerate(zip(self.pair_investor, self.pair_asset)):
            inv, asset = self.investors[ii], self.assets[ai]
            row = _unpack_pair(self.tallies, 288 * pid)
            for ci, ctx in enumerate(Context):
                for mi, method in enumerate(Method):
                    j = ci * 12 + mi * 4
                    tally = row[j : j + 4]
                    if any(tally):
                        out[(inv, asset, ctx, method)] = Tally(*tally)
        return out


def run_engine(
    transactions: Sequence[Transaction], *, sells_only: bool = False, include_traded: bool = False
) -> TallyStore:
    """Single-pass accrual over chronologically ordered transactions.

    A TransactionColumns is read as it is; a list of Transactions is turned
    into one first.  ``sells_only`` evaluates sells only (buys still move
    positions and prices); ``include_traded`` counts the traded asset's own
    position in the portfolio context.  The accrual kernel is sequential and
    deterministic.  Raises ValueError for an event that _kernel.encode
    rejects.
    """
    enc = _kernel.encode(transactions)
    tallies = _kernel.stream(enc, sells_only, include_traded)
    # The store keeps the per-pair tables of enc, not its event columns.
    return TallyStore(enc.investors, enc.assets, enc.pair_investor, enc.pair_asset, tallies)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def _merge_contexts(r: tuple[float, ...]) -> list[float]:
    """A pair's 36 tallies as one context's 12: positive + negative, then + neutral."""
    return [
        r[0] + r[12] + r[24], r[1] + r[13] + r[25], r[2] + r[14] + r[26], r[3] + r[15] + r[27],
        r[4] + r[16] + r[28], r[5] + r[17] + r[29], r[6] + r[18] + r[30], r[7] + r[19] + r[31],
        r[8] + r[20] + r[32], r[9] + r[21] + r[33], r[10] + r[22] + r[34], r[11] + r[23] + r[35],
    ]


def _de_values(tallies: Iterable[Sequence[float]], m: int, zero_policy: str) -> list[float]:
    """synth.compute_de of each tally's components m..m+3, NaN where undefined.

    Where both denominators are positive the two policies agree; the other
    tallies, among them the zero denominators Python would raise on, take
    compute_de's branches.  Adding +0.0 makes a zero DE +0.0, as the
    reference's sums from +0.0 do; a -0.0 component changes no other value.
    """
    zero = zero_policy == "zero"
    values = []
    m1, m2, m3 = m + 1, m + 2, m + 3
    for tally in tallies:
        rg = tally[m]
        rl = tally[m1]
        pg = tally[m2]
        pl = tally[m3]
        gd = rg + pg
        ld = rl + pl
        if gd > 0.0 < ld:
            de = rg / gd - rl / ld + 0.0
        elif zero:
            de = (rg / gd if gd > 0.0 else 0.0) - (rl / ld if ld > 0.0 else 0.0) + 0.0
        elif gd == 0.0 or ld == 0.0:
            values.append(_NAN)
            continue
        else:
            de = rg / gd - rl / ld + 0.0
        values.append(de if de - de == 0.0 else _NAN)  # inf - inf and NaN - NaN are NaN
    return values


def _interleave(columns: list[array]) -> array:
    """One array holding element j of ``columns[k]`` at j * len(columns) + k."""
    if len(columns) == 1:
        return columns[0]
    out = columns[0] * len(columns)
    for k, column in enumerate(columns):
        out[k :: len(columns)] = column
    return out


def aggregate(
    store: TallyStore,
    level: Level,
    framing: Framing,
    *,
    methods: Sequence[Method] = tuple(Method),
    zero_policy: str = "exclude",
) -> DeRecords:
    """Compute DeRecords at the requested framing and aggregation level.

    Narrow framing sums the context-partitioned tallies before the ratio;
    wide and integrated framing keep Positive/Negative contexts separate
    (Neutral is excluded).  INVESTOR_POOLED sums tallies across assets
    before the ratio; INVESTOR_MEAN_OF_ASSETS averages the defined
    per-asset values.  A record exists only for a (pair, context) group
    with a nonzero tally, or an investor with at least one such group.

    One pass visits investors by name and each investor's pairs, by asset
    at PER_ASSET and in pair order otherwise, reading the groups that exist
    from the store's buffer once; each group or investor cell gives a
    record of every requested method.  So the records come out in their
    order, (investor_id, asset_id, context, method) as text, and are never
    sorted.  Every sum adds in the reference's order: a narrow group's
    positive, negative and neutral tallies, an investor's groups and its
    defined per-asset values in pair order.
    """
    if level not in tuple(Level):
        raise ValueError(f"unknown aggregation level {level!r}")
    if zero_policy not in ("exclude", "zero"):
        raise ValueError(f"unknown zero-denominator policy {zero_policy!r}")
    if framing not in tuple(Framing):
        raise ValueError(f"unknown framing {framing!r}")
    if not methods or any(m not in tuple(Method) for m in methods):
        raise ValueError(f"methods must be a non-empty sequence of Method, got {methods!r}")
    offsets = [4 * code for code, m in enumerate(RECORD_METHODS) if m in methods]
    narrow = framing is Framing.NARROW
    tal, pair_asset = store.tallies, store.pair_asset
    pairs_of: list[list[int]] = [[] for _ in store.investors]  # each investor's pairs, in pair order
    for p, i in enumerate(store.pair_investor):
        pairs_of[i].append(p)
    investor, asset, context = array("i"), array("i"), array("b")
    de = [array("d") for _ in offsets]  # per method, a value per key
    for i in sorted(range(len(pairs_of)), key=store.investors.__getitem__):
        pairs = pairs_of[i]
        if level is Level.PER_ASSET:
            pairs.sort(key=pair_asset.__getitem__)
        # Each present group's context code, asset and 12 components; the
        # codes of a pair's groups ascend.
        codes, group_assets, tallies = [], [], []
        for p in pairs:
            offset = 288 * p
            if narrow:
                row = _unpack_pair(tal, offset)
                if any(row):
                    codes.append(0)
                    group_assets.append(pair_asset[p])
                    tallies.append(_merge_contexts(row))
                continue
            negative = _unpack_context(tal, offset + 96)
            if any(negative):
                codes.append(1)
                group_assets.append(pair_asset[p])
                tallies.append(negative)
            positive = _unpack_context(tal, offset)
            if any(positive):
                codes.append(2)
                group_assets.append(pair_asset[p])
                tallies.append(positive)
        if level is Level.PER_ASSET:  # a key per group
            asset.fromlist(group_assets)
            for m, column in zip(offsets, de):
                column.fromlist(_de_values(tallies, m, zero_policy))
        else:  # a key per context code, or cell, of the investor's groups
            cells = sorted(set(codes))
            if level is Level.INVESTOR_POOLED:
                summed = dict.fromkeys(cells)
                for code, tally in zip(codes, tallies):
                    total = summed[code]
                    summed[code] = tally if total is None else list(map(operator.add, total, tally))
                for m, column in zip(offsets, de):
                    column.fromlist(_de_values(summed.values(), m, zero_policy))
            else:
                for m, column in zip(offsets, de):
                    values = _de_values(tallies, m, zero_policy)
                    for cell in cells:
                        total, count = 0.0, 0
                        for code, value in zip(codes, values):
                            if code == cell and value == value:
                                total += value
                                count += 1
                        column.append(total / count if count else _NAN)
            codes = cells
            asset.fromlist([0] * len(cells))
        investor.fromlist([i] * len(codes))
        context.fromlist(codes)
    n = len(offsets)
    records = DeRecords(
        store.investors,
        store.assets if level is Level.PER_ASSET else [POOLED_ASSET],
        *(_interleave([column] * n) for column in (investor, asset, context)),
        array("b", [m // 4 for m in offsets]) * len(investor),
        _interleave(de),
    )
    # Each (key, method) is a record, except a mean of no defined value.
    return records._compress(records.defined) if level is Level.INVESTOR_MEAN_OF_ASSETS else records


def bin_count(bin_width: float) -> int:
    """The number of bins of width ``bin_width`` that tile [-1, 1].

    Raises InvalidBinWidth for a width outside (0, 2] or one that gives more
    than MAX_BINS bins.
    """
    if not bin_width > 0 or bin_width > 2:
        raise InvalidBinWidth(f"bin width must be in (0, 2], got {bin_width}")
    if 2.0 / bin_width > MAX_BINS:
        raise InvalidBinWidth(f"bin width {bin_width} gives more than {MAX_BINS} bins")
    return math.ceil(2.0 / bin_width - 1e-9)


def histogram(values: Iterable[float], bin_width: float) -> list[tuple[float, int]]:
    """Counts per half-open bin [edge, edge + width) tiling [-1, 1].

    A value v falls in bin int((v + 1) / width), the quotient clipped to the
    first and the last bin before the cast: values below -1 (and -inf) count
    in the first bin, values at or above 1 (and +inf) in the last, so the
    top bin is closed at 1.  NaN inputs (undefined records) are ignored.
    Each value is read as a Python float, numpy scalars included.  Raises
    InvalidBinWidth as bin_count does.
    """
    n_bins = bin_count(bin_width)
    counts = [0] * n_bins
    top = n_bins - 1
    for v in filterfalse(math.isnan, values):
        quotient = (float(v) + 1.0) / bin_width
        if quotient > 0.0:
            counts[int(quotient) if quotient < top else top] += 1
        else:
            counts[0] += 1
    return [(-1.0 + i * bin_width, counts[i]) for i in range(n_bins)]
