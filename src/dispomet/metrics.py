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
context, method) as text.

The same semantics, one object at a time, are the reference in synth
(``classify_context``, ``accrue_event``, ``compute_de``, ``oracle_replay``).
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

import numpy as np

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
    RECORD_METHODS, and ``de`` is NaN where ``defined`` is false under the
    "exclude" policy.  An integer index gives one DeRecord; a slice or an
    index or boolean array gives the selected records as DeRecords.
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
        if isinstance(index, (slice, np.ndarray)):
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

@dataclass(slots=True)
class TallyStore:
    """Dense tally storage produced by the streaming engine.

    ``array`` has shape (pair, context, method*4 + component) with
    components rg, rl, pg, pl and contexts positive, negative, neutral.
    Pair p belongs to ``investors[pair_investor[p]]`` and
    ``assets[pair_asset[p]]``; investors are numbered in order of first
    appearance, assets in asset_id order.
    """

    investors: list[str]
    assets: list[str]
    pair_investor: list[int]
    pair_asset: list[int]
    array: np.ndarray

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

def _de_columns(tallies: np.ndarray, zero_policy: str) -> tuple[np.ndarray, np.ndarray]:
    """synth.compute_de over the last axis of ``tallies`` (rg, rl, pg, pl)."""
    rg, rl, pg, pl = np.moveaxis(tallies, -1, 0)
    gd = rg + pg
    ld = rl + pl
    with np.errstate(divide="ignore", invalid="ignore"):
        g = rg / gd
        l = rl / ld
    if zero_policy == "exclude":
        de = g - l
        defined = (gd != 0.0) & (ld != 0.0)
    elif zero_policy == "zero":
        de = np.where(gd > 0.0, g, 0.0) - np.where(ld > 0.0, l, 0.0)
        defined = np.ones(de.shape, bool)
    else:
        raise ValueError(f"unknown zero-denominator policy {zero_policy!r}")
    defined &= np.isfinite(de)
    return np.where(defined, de, np.nan), defined


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
    The records come back as columns, ordered by (investor_id, asset_id,
    context, method) as text.
    """
    tal = store.array
    if framing is Framing.NARROW:
        contexts: tuple[Context | None, ...] = (None,)
        groups = (tal[:, 0] + tal[:, 1] + tal[:, 2])[:, None]
        present = (tal != 0.0).any(axis=(1, 2))[:, None]
    else:
        contexts = (Context.POSITIVE, Context.NEGATIVE)  # tally contexts 0 and 1
        groups = tal[:, :2]
        present = (groups != 0.0).any(axis=2)
    context_codes = np.array([RECORD_CONTEXTS.index(c) for c in contexts], np.int8)
    # (pair, context, method, component), a view for wide and integrated
    # framing; unrequested methods are dropped from emit, not copied out.
    groups = groups.reshape(*groups.shape[:2], 3, 4)
    requested = np.zeros(3, bool)
    requested[[_METHOD_INDEX[m] for m in methods]] = True
    owner = np.asarray(store.pair_investor, np.int64)
    n_investors = len(store.investors)
    # np.add.at adds pairs one after another in pair order, the summation
    # order of the reference implementations.
    if level is Level.PER_ASSET:
        asset_ids = store.assets
        row_investor = owner
        row_asset = np.asarray(store.pair_asset, np.int64)
        de, defined = _de_columns(groups, zero_policy)
        emit = present[:, :, None] & requested
    else:
        asset_ids = [POOLED_ASSET]
        row_investor = np.arange(n_investors)
        row_asset = np.zeros(n_investors, np.int64)
        if level is Level.INVESTOR_POOLED:
            pooled = np.zeros((n_investors, *groups.shape[1:]))
            np.add.at(pooled, owner, groups)
            de, defined = _de_columns(pooled, zero_policy)
            pooled_present = np.zeros((n_investors, len(context_codes)), bool)
            np.logical_or.at(pooled_present, owner, present)
            emit = pooled_present[:, :, None] & requested
        elif level is Level.INVESTOR_MEAN_OF_ASSETS:
            per_asset, per_asset_defined = _de_columns(groups, zero_policy)
            per_asset_defined &= present[:, :, None]
            sums = np.zeros((n_investors, *per_asset.shape[1:]))
            np.add.at(sums, owner, np.where(per_asset_defined, per_asset, 0.0))
            counts = np.zeros(sums.shape, np.int64)
            np.add.at(counts, owner, per_asset_defined)
            defined = counts > 0
            emit = defined & requested
            with np.errstate(invalid="ignore"):
                de = sums / counts
        else:
            raise ValueError(f"unknown aggregation level {level!r}")
    rows, ctxs, meths = np.nonzero(emit)
    investor = row_investor[rows]
    asset = row_asset[rows]
    context = context_codes[ctxs]
    method = meths.astype(np.int8)  # a method's code is its index in the tally layout
    # Sort keys are name ranks: investors are numbered in order of first
    # appearance, assets in asset_id order (so an asset index is its rank),
    # and the context and method codes are the ranks of their text.
    investor_rank = np.empty(n_investors, np.int64)
    investor_rank[sorted(range(n_investors), key=store.investors.__getitem__)] = np.arange(n_investors)
    order = np.lexsort((method, context, asset, investor_rank[investor]))
    return DeRecords(
        store.investors, asset_ids,
        investor[order], asset[order], context[order], method[order],
        de[emit][order], defined[emit][order],
    )


def histogram(values: Iterable[float], bin_width: float) -> list[tuple[float, int]]:
    """Counts per half-open bin [edge, edge + width) tiling [-1, 1].

    A value v falls in bin int((v + 1) / width), the quotient clipped to the
    first and the last bin before the cast: values below -1 (and -inf) count
    in the first bin, values at or above 1 (and +inf) in the last, so the
    top bin is closed at 1.  NaN inputs (undefined records) are ignored.
    Raises InvalidBinWidth for a width outside (0, 2] or one that gives more
    than MAX_BINS bins.
    """
    if not bin_width > 0 or bin_width > 2:
        raise InvalidBinWidth(f"bin width must be in (0, 2], got {bin_width}")
    if 2.0 / bin_width > MAX_BINS:
        raise InvalidBinWidth(f"bin width {bin_width} gives more than {MAX_BINS} bins")
    n_bins = math.ceil(2.0 / bin_width - 1e-9)
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
