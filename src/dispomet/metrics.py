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

``run_engine`` streams the events through _kernel into a TallyStore, the
dense tally array with each pair's investor and asset and no event column.
``aggregate`` reads its public fields and returns its records as a sequence
of DeRecords backed by columns (investor and asset indices, context and
method codes, ``de`` and ``defined``), ordered by (investor_id, asset_id,
context, method) as text.  It computes only the requested methods, one at a
time, over the groups with a nonzero tally, and builds the records in that
order rather than sorting them.

The same semantics, one object at a time, are the reference in synth
(``classify_context``, ``accrue_event``, ``compute_de``, ``oracle_replay``).
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

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

_CTX_INDEX = {Context.POSITIVE: 0, Context.NEGATIVE: 1, Context.NEUTRAL: 2}
_METHOD_INDEX = {Method.COUNT: 0, Method.TOTAL: 1, Method.VALUE: 2}

#: Context of a record per context code.  A code is also the rank of the
#: context's text in record order: "all" (contexts merged, narrow framing)
#: sorts before "negative" and "positive".
RECORD_CONTEXTS: tuple[Context | None, ...] = (None, Context.NEGATIVE, Context.POSITIVE)
#: Method of a record per method code: its index in the tally layout, which
#: is also the rank of its text.
RECORD_METHODS: tuple[Method, ...] = tuple(_METHOD_INDEX)


class InvalidBinWidth(Exception):
    pass


MAX_BINS = 10**6  # bounds the count list and each hist_*.csv to a million rows


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

    ``investor`` and ``asset`` index ``investor_ids`` and ``asset_ids``,
    ``context`` and ``method`` are codes into RECORD_CONTEXTS and
    RECORD_METHODS, and ``de`` is NaN exactly where ``defined`` is false,
    under either zero-denominator policy.  An integer index gives one
    DeRecord; a slice or an index or boolean array gives the selected
    records as DeRecords.
    """

    __slots__ = ("investor_ids", "asset_ids", "investor", "asset", "context", "method", "de", "defined")

    def __init__(self, investor_ids, asset_ids, investor, asset, context, method, de, defined) -> None:
        self.investor_ids: Sequence[str] = investor_ids
        self.asset_ids: Sequence[str] = asset_ids
        self.investor, self.asset, self.context = investor, asset, context
        self.method, self.de, self.defined = method, de, defined
        for column in self._columns():
            column.flags.writeable = False

    def _columns(self) -> tuple[np.ndarray, ...]:
        return self.investor, self.asset, self.context, self.method, self.de, self.defined

    def __len__(self) -> int:
        return len(self.de)

    def __getitem__(self, index):
        if isinstance(index, slice) or getattr(index, "ndim", 0):  # a slice, an index or a boolean array
            return DeRecords(self.investor_ids, self.asset_ids, *(col[index] for col in self._columns()))
        i = operator.index(index)
        return DeRecord(
            self.investor_ids[self.investor[i]],
            self.asset_ids[self.asset[i]],
            RECORD_CONTEXTS[self.context[i]],
            RECORD_METHODS[self.method[i]],
            float(self.de[i]),
            bool(self.defined[i]),
        )

    def __iter__(self) -> Iterator[DeRecord]:
        investor_ids, asset_ids = self.investor_ids, self.asset_ids
        for inv, asset, ctx, method, de, ok in zip(*(col.tolist() for col in self._columns())):
            yield DeRecord(investor_ids[inv], asset_ids[asset], RECORD_CONTEXTS[ctx], RECORD_METHODS[method], de, ok)


# ---------------------------------------------------------------------------
# Streaming engine
# ---------------------------------------------------------------------------

class TallyStore:
    """Dense tally storage produced by the streaming engine.

    ``array`` has shape (pair, context, method*4 + component) with
    components rg, rl, pg, pl and contexts positive, negative, neutral; it
    is a float64 view, made on read, of the buffer the store was built from.
    Pair p belongs to ``investors[pair_investor[p]]`` and
    ``assets[pair_asset[p]]``; investors are numbered in order of first
    appearance, assets in asset_id order.
    """

    def __init__(self, investors, assets, pair_investor, pair_asset, array) -> None:
        self.investors, self.assets, self.pair_investor, self.pair_asset = investors, assets, pair_investor, pair_asset
        self._tallies = array

    @property
    def array(self) -> np.ndarray:
        import numpy as np

        return np.frombuffer(self._tallies, np.float64).reshape(len(self.pair_investor), 3, 12)

    def to_dict(self) -> dict[TallyKey, Tally]:
        """Sparse view in oracle_replay's layout: only tallies with a nonzero component."""
        out: dict[TallyKey, Tally] = {}
        tallies = self.array.tolist()  # Python floats, as Tally's fields are
        for pid, (ii, ai) in enumerate(zip(self.pair_investor, self.pair_asset)):
            inv, asset = self.investors[ii], self.assets[ai]
            for ctx, ci in _CTX_INDEX.items():
                row = tallies[pid][ci]
                for method, mi in _METHOD_INDEX.items():
                    m = mi * 4
                    if row[m] or row[m + 1] or row[m + 2] or row[m + 3]:
                        out[(inv, asset, ctx, method)] = Tally(
                            row[m], row[m + 1], row[m + 2], row[m + 3]
                        )
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
    # The event columns go with enc; the store keeps the per-pair ones.
    return TallyStore(enc.investors, enc.assets, enc.pair_investor, enc.pair_asset, tallies)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def _de(rg, rl, pg, pl, zero_policy: str) -> tuple[np.ndarray, np.ndarray]:
    """synth.compute_de over groups, in place: returns rg, now the DE, and where it is defined."""
    import numpy as np

    # A sum past the double range is inf, and the record undefined.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        pg += rg  # the denominators
        pl += rl
        rg /= pg
        rl /= pl
        if zero_policy == "zero":  # a side without a denominator counts as 0
            rg[~(pg > 0.0)] = 0.0
            rl[~(pl > 0.0)] = 0.0
        rg -= rl
    defined = np.isfinite(rg)
    if zero_policy == "exclude":
        defined &= (pg != 0.0) & (pl != 0.0)
    rg[~defined] = np.nan
    return rg, defined


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

    Only the requested methods are computed, one at a time, and only over
    the groups that exist, whose components are gathered from
    ``store.array``.  The records come out in their order, (investor_id,
    asset_id, context, method) as text, because investors and assets are
    visited by name and contexts and methods by code; they are never sorted.
    """
    import numpy as np

    if level not in tuple(Level):
        raise ValueError(f"unknown aggregation level {level!r}")
    if zero_policy not in ("exclude", "zero"):
        raise ValueError(f"unknown zero-denominator policy {zero_policy!r}")
    tal = store.array
    owner = np.asarray(store.pair_investor, np.int64)
    by_name = np.array(sorted(range(len(store.investors)), key=store.investors.__getitem__), np.int64)
    # A method's four nonzero flags read as one uint32, ORed over the
    # methods: nonzero where the (pair, context) tally is.
    nonzero = (tal != 0).view(np.uint32)
    nonzero = nonzero[..., 0] | nonzero[..., 1] | nonzero[..., 2]
    if framing is Framing.NARROW:
        # One group per pair, whose tally is positive plus negative, then
        # plus neutral, as the reference adds them.  Tallies are
        # non-negative, so that sum is nonzero where any context's tally is.
        first_code, n_ctx, offsets = 0, 1, (0, 12, 24)
        present, view = (nonzero[:, 0] | nonzero[:, 1] | nonzero[:, 2]) != 0, tal.reshape(len(tal), 36)
    else:
        # Groups (pair, negative) and (pair, positive): tally contexts 1
        # and 0, in the order of their record codes.
        first_code, n_ctx, offsets = 1, 2, (0,)
        present, view = nonzero[:, 1::-1].ravel() != 0, tal.reshape(-1, 12)
    del nonzero
    # Group pair * n_ctx + c is the pair's c-th context, and cell
    # investor * n_ctx + c the investor's.  A record's key is its group or
    # its cell; keys run in record order.
    if level is Level.PER_ASSET:
        rank = np.argsort(by_name)  # each investor's place in name order
        asset = np.asarray(store.pair_asset, np.int64)
        # Assets are numbered in asset_id order, so an asset index is its
        # rank, and no two pairs have the same key.
        pairs = np.argsort(rank[owner] * len(store.assets) + asset)
        groups = (pairs[:, None] * n_ctx + np.arange(n_ctx)).ravel()
        groups = keys = groups[present[groups]]
        del pairs
    else:
        groups = np.flatnonzero(present)  # in pair order, the order the reference sums pairs in
        cell = owner[groups // n_ctx] * n_ctx + groups % n_ctx
        n_cells = len(by_name) * n_ctx
        keys = (by_name[:, None] * n_ctx + np.arange(n_ctx)).ravel()
        if level is Level.INVESTOR_POOLED:
            keys = keys[np.bincount(cell, minlength=n_cells)[keys] > 0]
    rows = groups if n_ctx == 1 else groups // 2 * 3 + 1 - groups % 2  # each group's row of view
    requested = sorted({_METHOD_INDEX[m] for m in methods})
    de = np.empty((len(keys), len(requested)))
    defined = np.empty(de.shape, bool)
    for k, mi in enumerate(requested):
        tally = []  # rg, rl, pg, pl per group, or per cell when pooled
        for column in range(4 * mi, 4 * mi + 4):
            part = view[rows, column]
            with np.errstate(over="ignore"):  # an inf sum is undefined, as in _de
                for offset in offsets[1:]:
                    part += view[rows, offset + column]
            if level is Level.INVESTOR_POOLED:
                # np.bincount adds the groups one after another, in pair
                # order; it counts in int64 when there are none.
                part = np.bincount(cell, part, n_cells)[keys].astype(float)
            tally.append(part)
        values, ok = _de(*tally, zero_policy)
        del tally
        if level is Level.INVESTOR_MEAN_OF_ASSETS:
            counts = np.bincount(cell[ok], minlength=n_cells)[keys]
            with np.errstate(invalid="ignore"):
                values = np.bincount(cell[ok], values[ok], n_cells)[keys] / counts
            ok = counts > 0
        de[:, k], defined[:, k] = values, ok
    del rows
    index = keys // n_ctx  # the pair or the investor
    if level is Level.PER_ASSET:
        investor, asset, asset_ids = owner[index], asset[index], store.assets
    else:
        investor, asset, asset_ids = index, np.zeros(len(keys), np.int64), [POOLED_ASSET]
    context = (keys % n_ctx + first_code).astype(np.int8)
    del index
    n = len(requested)
    records = DeRecords(
        store.investors, asset_ids, *(c if n == 1 else np.repeat(c, n) for c in (investor, asset, context)),
        np.tile(np.array(requested, np.int8), len(keys)), de.ravel(), defined.ravel(),
    )
    # Each (key, method) is a record, except a mean of no defined value.
    return records[records.defined] if level is Level.INVESTOR_MEAN_OF_ASSETS else records


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
    Raises InvalidBinWidth as bin_count does.
    """
    n_bins = bin_count(bin_width)
    import numpy as np

    if isinstance(values, np.ndarray):
        values = np.asarray(values, np.float64)
    else:
        values = np.fromiter(values, np.float64)
    values = values[~np.isnan(values)]
    with np.errstate(over="ignore"):
        quotient = (values + 1.0) / bin_width
    index = np.clip(quotient, 0.0, n_bins - 1).astype(np.int64)
    counts = np.bincount(index, minlength=n_bins).tolist()
    return [(-1.0 + i * bin_width, counts[i]) for i in range(n_bins)]
