"""Realized/paper gain-loss accrual and disposition-effect statistics.

At every transaction the owning investor's event produces at most one
realization leg plus a paper evaluation of each still-open position at the
current market price.  Increments accrue, per method, into a tally keyed by
(investor, asset, portfolio context):

* Count: one event per asset,
* Total: the traded or held quantity,
* Value: the absolute fractional return.

The disposition effect of a tally is RG/(RG+PG) - RL/(RL+PL); it lies in
[-1, 1] and is undefined when either denominator is zero.

Portfolio context is the sign of the summed monetary unrealized P&L of the
investor's other open positions after the trade (Neutral when there are no
other positions or the balance is exactly zero).  Narrow framing merges
contexts before the ratio; wide framing pools tallies at the investor level
per context; integrated framing keeps per-asset, per-context tallies.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, MutableMapping, Sequence

import numpy as np

from . import _kernel
from .ingest import Side, Transaction
from .ledger import Direction, Position, RealizationLeg


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


class MissingPrice(Exception):
    """An open position has no market observation; indicates an upstream bug."""

    def __init__(self, asset_id: str) -> None:
        self.asset_id = asset_id
        super().__init__(f"no market price for open position in {asset_id!r}")


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
TallyMap = MutableMapping[TallyKey, Tally]


@dataclass(frozen=True, slots=True)
class DeRecord:
    """One disposition-effect observation, the unit fed to statistics."""

    investor_id: str
    asset_id: str
    context: Context | None  # None = contexts merged (narrow framing)
    method: Method
    de: float
    defined: bool


def signed_return(reference_price: float, evaluation_price: float, long_exposure: bool) -> float:
    """Fractional return with the exposure sign folded in.

    Positive for a profitable position regardless of side: (p - r)/r for
    long exposure, (r - p)/r for short.
    """
    if long_exposure:
        return (evaluation_price - reference_price) / reference_price
    return (reference_price - evaluation_price) / reference_price


def leg_return(leg: RealizationLeg) -> float:
    return signed_return(
        leg.reference_price, leg.execution_price, leg.direction is Direction.CLOSED_LONG
    )


def classify_context(
    open_positions: Sequence[Position],
    traded_asset_id: str,
    market_prices: Mapping[str, float],
    include_traded: bool = False,
) -> Context:
    """Sign of the summed unrealized P&L of the other open positions.

    Positions must be ordered by asset_id; the summation order is part of
    the deterministic contract shared with the streaming engine.
    """
    balance = 0.0
    seen = False
    for pos in open_positions:
        if not include_traded and pos.asset_id == traded_asset_id:
            continue
        price = market_prices.get(pos.asset_id)
        if price is None:
            raise MissingPrice(pos.asset_id)
        balance += (price - pos.reference_price) * pos.signed_quantity
        seen = True
    if not seen or balance == 0.0:
        return Context.NEUTRAL
    return Context.POSITIVE if balance > 0.0 else Context.NEGATIVE


def _tally(tallies: TallyMap, key: TallyKey) -> Tally:
    t = tallies.get(key)
    if t is None:
        t = tallies[key] = Tally()
    return t


def accrue_event(
    tallies: TallyMap,
    investor_id: str,
    leg: RealizationLeg | None,
    open_positions: Sequence[Position],
    market_prices: Mapping[str, float],
    context: Context,
) -> None:
    """Accrue one investor event into the tallies under all three methods.

    ``open_positions`` is the post-trade portfolio (including the remainder
    of a partially closed position).  Zero-return realizations and paper
    positions accrue to neither gains nor losses.  Paper increments for an
    asset are keyed by that asset but by the context of the triggering event.
    """
    if leg is not None:
        ret = leg_return(leg)
        if ret != 0.0:
            gain = ret > 0.0
            for method, amount in (
                (Method.COUNT, 1.0),
                (Method.TOTAL, float(leg.quantity_closed)),
                (Method.VALUE, abs(ret)),
            ):
                t = _tally(tallies, (investor_id, leg.asset_id, context, method))
                if gain:
                    t.rg += amount
                else:
                    t.rl += amount
    for pos in open_positions:
        price = market_prices.get(pos.asset_id)
        if price is None:
            raise MissingPrice(pos.asset_id)
        ret = signed_return(pos.reference_price, price, pos.signed_quantity > 0)
        if ret == 0.0:
            continue
        gain = ret > 0.0
        for method, amount in (
            (Method.COUNT, 1.0),
            (Method.TOTAL, float(abs(pos.signed_quantity))),
            (Method.VALUE, abs(ret)),
        ):
            t = _tally(tallies, (investor_id, pos.asset_id, context, method))
            if gain:
                t.pg += amount
            else:
                t.pl += amount


def compute_de(tally: Tally, zero_policy: str = "exclude") -> tuple[float, bool]:
    """Disposition effect of one tally: RG/(RG+PG) - RL/(RL+PL).

    Returns (value, defined).  With zero_policy="exclude" a zero denominator
    makes the record undefined (value NaN); with "zero" the undefined side's
    ratio is mapped to 0 and the record stays defined.
    """
    gd = tally.rg + tally.pg
    ld = tally.rl + tally.pl
    if zero_policy == "exclude":
        if gd == 0.0 or ld == 0.0:
            return math.nan, False
        return tally.rg / gd - tally.rl / ld, True
    if zero_policy == "zero":
        g = tally.rg / gd if gd > 0.0 else 0.0
        l = tally.rl / ld if ld > 0.0 else 0.0
        return g - l, True
    raise ValueError(f"unknown zero-denominator policy {zero_policy!r}")


# ---------------------------------------------------------------------------
# Streaming engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class EngineOptions:
    eval_scope: str = "every-event"  # or "sells-only"
    context_rule: str = "exclude-traded-asset"  # or "include-traded-asset"

    def __post_init__(self) -> None:
        if self.eval_scope not in ("every-event", "sells-only"):
            raise ValueError(f"unknown eval scope {self.eval_scope!r}")
        if self.context_rule not in ("exclude-traded-asset", "include-traded-asset"):
            raise ValueError(f"unknown context rule {self.context_rule!r}")


class TallyStore:
    """Dense tally storage produced by the streaming engine.

    Array layout: (pair, context, method*4 + component) with components
    rg, rl, pg, pl and contexts positive, negative, neutral.
    """

    def __init__(self, encoded: "_kernel.EncodedStream", array) -> None:
        self._enc = encoded
        self.array = array

    @property
    def investors(self) -> list[str]:
        return self._enc.investors

    @property
    def assets(self) -> list[str]:
        return self._enc.assets

    def pairs(self) -> Iterable[tuple[str, str, int]]:
        enc = self._enc
        for pid in range(len(enc.pair_investor)):
            yield enc.investors[enc.pair_investor[pid]], enc.assets[enc.pair_asset[pid]], pid

    def tally(self, investor_id: str, asset_id: str, context: Context, method: Method) -> Tally:
        pid = self._enc.pair_index.get((investor_id, asset_id))
        if pid is None:
            return Tally()
        row = self.array[pid, _CTX_INDEX[context]]
        m = _METHOD_INDEX[method] * 4
        return Tally(row[m], row[m + 1], row[m + 2], row[m + 3])

    def to_dict(self) -> dict[TallyKey, Tally]:
        """Sparse view in oracle_replay's layout: only tallies with a nonzero component."""
        out: dict[TallyKey, Tally] = {}
        for inv, asset, pid in self.pairs():
            for ctx, ci in _CTX_INDEX.items():
                row = self.array[pid, ci]
                for method, mi in _METHOD_INDEX.items():
                    m = mi * 4
                    if row[m] or row[m + 1] or row[m + 2] or row[m + 3]:
                        out[(inv, asset, ctx, method)] = Tally(
                            row[m], row[m + 1], row[m + 2], row[m + 3]
                        )
        return out


def run_engine(transactions: Sequence[Transaction], options: EngineOptions | None = None) -> TallyStore:
    """Single-pass accrual over a chronologically ordered transaction list.

    The accrual kernel is sequential and deterministic.
    """
    opts = options or EngineOptions()
    enc = _kernel.encode(transactions)
    tal = _kernel.stream(
        enc,
        sells_only=opts.eval_scope == "sells-only",
        include_traded=opts.context_rule == "include-traded-asset",
    )
    return TallyStore(enc, tal)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def _de_columns(tallies: np.ndarray, zero_policy: str) -> tuple[np.ndarray, np.ndarray]:
    """compute_de over the last axis of ``tallies`` (rg, rl, pg, pl)."""
    rg, rl, pg, pl = np.moveaxis(tallies, -1, 0)
    gd = rg + pg
    ld = rl + pl
    with np.errstate(divide="ignore", invalid="ignore"):
        g = rg / gd
        l = rl / ld
    if zero_policy == "exclude":
        defined = (gd != 0.0) & (ld != 0.0)
        return np.where(defined, g - l, np.nan), defined
    if zero_policy == "zero":
        de = np.where(gd > 0.0, g, 0.0) - np.where(ld > 0.0, l, 0.0)
        return de, np.ones(de.shape, bool)
    raise ValueError(f"unknown zero-denominator policy {zero_policy!r}")


def aggregate(
    store: TallyStore,
    level: Level,
    framing: Framing,
    *,
    methods: Sequence[Method] = tuple(Method),
    zero_policy: str = "exclude",
) -> list[DeRecord]:
    """Compute DeRecords at the requested framing and aggregation level.

    Narrow framing sums the context-partitioned tallies before the ratio;
    wide and integrated framing keep Positive/Negative contexts separate
    (Neutral is excluded).  INVESTOR_POOLED sums tallies across assets
    before the ratio; INVESTOR_MEAN_OF_ASSETS averages the defined
    per-asset values.  A record exists only for a (pair, context) group
    with a nonzero tally, or an investor with at least one such group.
    """
    tal = store.array
    if framing is Framing.NARROW:
        contexts: tuple[Context | None, ...] = (None,)
        groups = (tal[:, 0] + tal[:, 1] + tal[:, 2])[:, None]
        present = (tal != 0.0).any(axis=(1, 2))[:, None]
    else:
        contexts = (Context.POSITIVE, Context.NEGATIVE)
        groups = tal[:, :2]
        present = (groups != 0.0).any(axis=2)
    # (pair, context, method, component) for the requested methods.
    groups = groups.reshape(*groups.shape[:2], 3, 4)[:, :, [_METHOD_INDEX[m] for m in methods]]
    owner = np.asarray(store._enc.pair_investor, np.int64)
    n_investors = len(store.investors)
    # np.add.at adds pairs one after another in pair order, the summation
    # order of the reference implementations.
    if level is Level.PER_ASSET:
        keys = [(inv, asset) for inv, asset, _ in store.pairs()]
        de, defined = _de_columns(groups, zero_policy)
        emit = np.broadcast_to(present[:, :, None], de.shape)
    elif level is Level.INVESTOR_POOLED:
        keys = [(inv, POOLED_ASSET) for inv in store.investors]
        pooled = np.zeros((n_investors, *groups.shape[1:]))
        np.add.at(pooled, owner, groups)
        de, defined = _de_columns(pooled, zero_policy)
        pooled_present = np.zeros((n_investors, len(contexts)), bool)
        np.logical_or.at(pooled_present, owner, present)
        emit = np.broadcast_to(pooled_present[:, :, None], de.shape)
    elif level is Level.INVESTOR_MEAN_OF_ASSETS:
        keys = [(inv, POOLED_ASSET) for inv in store.investors]
        per_asset, per_asset_defined = _de_columns(groups, zero_policy)
        per_asset_defined &= present[:, :, None]
        sums = np.zeros((n_investors, *per_asset.shape[1:]))
        np.add.at(sums, owner, np.where(per_asset_defined, per_asset, 0.0))
        counts = np.zeros(sums.shape, np.int64)
        np.add.at(counts, owner, per_asset_defined)
        emit = defined = counts > 0
        with np.errstate(invalid="ignore"):
            de = sums / counts
    else:
        raise ValueError(f"unknown aggregation level {level!r}")
    rows, ctxs, meths = (ix.tolist() for ix in np.nonzero(emit))
    records = [
        DeRecord(*keys[r], contexts[c], methods[m], value, ok)
        for r, c, m, value, ok in zip(rows, ctxs, meths, de[emit], defined[emit].tolist())
    ]
    records.sort(
        key=lambda r: (
            r.investor_id,
            r.asset_id,
            r.context.value if r.context else "",
            r.method.value,
        )
    )
    return records


def histogram(values: Iterable[float], bin_width: float) -> list[tuple[float, int]]:
    """Counts per half-open bin [edge, edge + width) tiling [-1, 1].

    The top bin is closed at 1 so the boundary value lands in it.  NaN
    inputs (undefined records) are ignored.  Raises InvalidBinWidth for a
    width outside (0, 2] or one that gives more than MAX_BINS bins.
    """
    if not bin_width > 0 or bin_width > 2:
        raise InvalidBinWidth(f"bin width must be in (0, 2], got {bin_width}")
    if 2.0 / bin_width > MAX_BINS:
        raise InvalidBinWidth(f"bin width {bin_width} gives more than {MAX_BINS} bins")
    n_bins = math.ceil(2.0 / bin_width - 1e-9)
    counts = [0] * n_bins
    for v in values:
        if math.isnan(v):
            continue
        idx = int((v + 1.0) / bin_width)
        if idx < 0:
            idx = 0
        elif idx >= n_bins:
            idx = n_bins - 1
        counts[idx] += 1
    return [(-1.0 + i * bin_width, counts[i]) for i in range(n_bins)]
