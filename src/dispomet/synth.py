"""Synthetic transaction datasets with known realization behavior.

The generator simulates a bounded random walk for the underlying index;
each instrument's price is initial * (1 + leverage * cumulative index
return), kept above zero by bounding the walk.  Every investor opens a
position and then, at each subsequent step, sells winners with probability
p_realize_gain and losers with p_realize_loss, occasionally adding new
positions.  All randomness comes from PCG64 streams keyed explicitly by
(seed, investor index), so generation is reproducible across runs,
platforms, and parallel schedules.  Both generators return a
TransactionColumns, the parser's layout: each event is appended straight
into its typed columns, and a Transaction is built only when one is read.

The second half of the module is the reference semantics that the
streaming engine (metrics.run_engine) must reproduce bit for bit, written
one object at a time: the PortfolioState ledger, classify_context,
accrue_event and compute_de.  oracle_replay is the brute-force reference
built from them: at every event it rebuilds the investor's portfolio and
the market prices by replaying the whole prefix from scratch, then accrues
that single event.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from datetime import datetime
from enum import Enum
from typing import Mapping, MutableMapping, Sequence

import numpy as np

from .ingest import Instrument, Side, Transaction, TransactionColumns, _instant, _pair_tables, _take_each
from .metrics import Context, Method, Tally, TallyKey

_MARKET_STREAM = 0xFFFFFFFF  # per-investor streams use the investor index
_BASE_MICROS = _instant(datetime(2015, 1, 5, 9, 0, 0))[0]  # microseconds, the timestamp column's unit
_MINUTE = 60 * 10**6


class InvalidProfile(Exception):
    pass


@dataclass(frozen=True, slots=True)
class BehaviorProfile:
    """Injected realization behavior for one synthetic population."""

    p_realize_gain: float
    p_realize_loss: float
    n_assets: int = 8
    leverages: tuple[float, ...] = (1, 2, 3, 7, -1, -2, -3, -7)
    horizon_events: int = 60
    seed: int = 0
    p_new_position: float = 0.4
    max_assets_per_investor: int = 4
    max_quantity: int = 100

    def validate(self) -> None:
        if not (0.0 <= self.p_realize_gain <= 1.0 and 0.0 <= self.p_realize_loss <= 1.0):
            raise InvalidProfile("realization probabilities must be in [0, 1]")
        if not (0.0 <= self.p_new_position <= 1.0):
            raise InvalidProfile("p_new_position must be in [0, 1]")
        if self.n_assets < 1:
            raise InvalidProfile("n_assets must be >= 1")
        if self.horizon_events < 1:
            raise InvalidProfile("horizon_events must be >= 1")
        if not self.leverages or not all(0 < abs(l) < math.inf for l in self.leverages):
            raise InvalidProfile("leverage menu must be non-empty with nonzero finite entries")
        if self.max_quantity < 1 or self.max_assets_per_investor < 1:
            raise InvalidProfile("max_quantity and max_assets_per_investor must be >= 1")


def _instrument_universe(profile: BehaviorProfile) -> dict[str, Instrument]:
    registry: dict[str, Instrument] = {}
    for k in range(profile.n_assets):
        lev = float(profile.leverages[k % len(profile.leverages)])
        side = "L" if lev > 0 else "S"
        asset_id = f"ETF{k:03d}{side}{abs(lev):g}"
        registry[asset_id] = Instrument(asset_id, "IDX", lev)
    return registry


def _price_grid(profile: BehaviorProfile) -> np.ndarray:
    """Per-step instrument prices, shape (horizon_events, n_assets)."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([profile.seed, _MARKET_STREAM])))
    levs = np.array(
        [float(profile.leverages[k % len(profile.leverages)]) for k in range(profile.n_assets)]
    )
    bound = 0.9 / float(np.max(np.abs(levs)))
    steps = rng.uniform(-bound / 6.0, bound / 6.0, size=profile.horizon_events)
    cum = np.empty(profile.horizon_events)
    level = 0.0
    for t in range(profile.horizon_events):
        level = min(bound, max(-bound, level + steps[t]))
        cum[t] = level
    grid = 100.0 * (1.0 + np.outer(cum, levs))
    return np.round(grid, 4)


def generate_population(
    n_investors: int, profile: BehaviorProfile
) -> tuple[TransactionColumns, dict[str, Instrument]]:
    """Deterministic synthetic log, stably sorted by timestamp, plus its instrument registry."""
    profile.validate()
    if n_investors < 1:
        raise InvalidProfile("n_investors must be >= 1")
    registry = _instrument_universe(profile)
    asset_ids = list(registry)
    prices = _price_grid(profile).tolist()  # the floats float(grid[t, k]) gives
    step_micros = [_BASE_MICROS + t * _MINUTE for t in range(profile.horizon_events)]
    columns = [array("i"), array("b"), array("q"), array("d"), array("q")]
    pair, side, quantity, price, timestamp = columns
    codes: dict[tuple[str, str], int] = {}  # each (investor_id, asset_id)'s pair code
    for i in range(n_investors):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([profile.seed, i])))
        menu_size = min(profile.n_assets, profile.max_assets_per_investor)
        menu = sorted(rng.choice(profile.n_assets, size=menu_size, replace=False).tolist())
        investor = f"I{i:05d}"
        offset = int(rng.integers(0, 50)) * 10**6  # whole seconds
        positions: dict[int, list[float]] = {}  # asset index -> [qty, vwap ref]

        def emit(t: int, k: int, sign: int, qty: int) -> None:  # sign: +1 buy, -1 sell
            pair.append(codes.setdefault((investor, asset_ids[k]), len(codes)))
            side.append(sign)
            quantity.append(qty)
            price.append(prices[t][k])
            timestamp.append(step_micros[t] + offset)

        def buy(t: int, k: int, qty: int) -> None:
            emit(t, k, 1, qty)
            p = prices[t][k]
            pos = positions.get(k)
            if pos is None:
                positions[k] = [float(qty), p]
            else:
                pos[1] = (pos[0] * pos[1] + qty * p) / (pos[0] + qty)
                pos[0] += qty

        first = menu[int(rng.integers(len(menu)))]
        buy(0, first, int(rng.integers(1, profile.max_quantity + 1)))
        for t in range(1, profile.horizon_events):
            for k in sorted(positions):
                qty, ref = positions[k]
                p = prices[t][k]
                roll = rng.random()
                if (p > ref and roll < profile.p_realize_gain) or (p < ref and roll < profile.p_realize_loss):
                    emit(t, k, -1, int(qty))
                    del positions[k]
            if rng.random() < profile.p_new_position:
                k = menu[int(rng.integers(len(menu)))]
                buy(t, k, int(rng.integers(1, profile.max_quantity + 1)))
    tables = _pair_tables(codes)
    del codes  # and its key tuples, before the sort's int32 row indices, half the bytes of int64 ones
    order = memoryview(np.argsort(np.frombuffer(timestamp, np.int64), kind="stable").astype(np.int32))
    del pair, side, quantity, price, timestamp  # columns holds the last references
    _take_each(columns, order)
    return TransactionColumns(tables, *columns, range(len(order))), registry


def random_stream(
    seed: int,
    max_investors: int = 3,
    max_assets: int = 4,
    max_events: int = 50,
) -> TransactionColumns:
    """Unstructured random stream for oracle-equivalence checks.

    Sides, quantities, and investors are uniform; each asset's price follows
    an independent positive multiplicative walk; one event a minute.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0x5EED])))
    n_inv = int(rng.integers(1, max_investors + 1))
    n_assets = int(rng.integers(1, max_assets + 1))
    n_events = int(rng.integers(1, max_events + 1))
    prices = rng.uniform(20.0, 80.0, size=n_assets)
    pair, side, quantity, price, timestamp = array("i"), array("b"), array("q"), array("d"), array("q")
    codes: dict[tuple[str, str], int] = {}  # each (investor_id, asset_id)'s pair code
    for e in range(n_events):
        a = int(rng.integers(n_assets))
        prices[a] *= 1.0 + float(rng.uniform(-0.05, 0.05))
        pair.append(codes.setdefault((f"I{int(rng.integers(n_inv)):03d}", f"A{a:03d}"), len(codes)))
        side.append(1 if rng.random() < 0.5 else -1)
        quantity.append(int(rng.integers(1, 21)))
        price.append(round(float(prices[a]), 4))
        timestamp.append(_BASE_MICROS + e * _MINUTE)
    return TransactionColumns(_pair_tables(codes), pair, side, quantity, price, timestamp, range(n_events))


# ---------------------------------------------------------------------------
# Reference semantics
# ---------------------------------------------------------------------------

class Direction(Enum):
    CLOSED_LONG = "closed_long"
    CLOSED_SHORT = "closed_short"


@dataclass(slots=True)
class Position:
    asset_id: str
    signed_quantity: int
    reference_price: float


@dataclass(frozen=True, slots=True)
class RealizationLeg:
    asset_id: str
    quantity_closed: int
    reference_price: float
    execution_price: float
    direction: Direction


class PortfolioState:
    """Holdings of one investor, advanced one transaction at a time.

    Positions are signed (positive = long holding, negative = native short)
    and carry a volume-weighted average reference price.  Position-increasing
    trades update the reference price; position-reducing trades leave it
    unchanged and emit a realization leg.  A trade that crosses through flat
    (a flip) closes the held amount and reopens the remainder at the trade
    price.

    Flat positions are kept internally as zero-quantity placeholders so that
    iteration order stays deterministic; they never appear in open_positions().
    """

    __slots__ = ("_positions",)

    def __init__(self) -> None:
        self._positions: dict[str, Position] = {}

    def apply(self, tx: Transaction) -> RealizationLeg | None:
        delta = tx.quantity if tx.side is Side.BUY else -tx.quantity
        pos = self._positions.get(tx.asset_id)
        if pos is None:
            pos = self._positions[tx.asset_id] = Position(tx.asset_id, 0, 0.0)
        old = pos.signed_quantity
        if old == 0:
            pos.signed_quantity = delta
            pos.reference_price = tx.price
            return None
        if (old > 0) == (delta > 0):
            # Same-side increase: volume-weighted average entry price.
            new = old + delta
            pos.reference_price = (abs(old) * pos.reference_price + tx.quantity * tx.price) / abs(new)
            pos.signed_quantity = new
            return None
        closed = min(abs(old), tx.quantity)
        leg = RealizationLeg(
            asset_id=tx.asset_id,
            quantity_closed=closed,
            reference_price=pos.reference_price,
            execution_price=tx.price,
            direction=Direction.CLOSED_LONG if old > 0 else Direction.CLOSED_SHORT,
        )
        new = old + delta
        pos.signed_quantity = new
        if new != 0 and (new > 0) != (old > 0):
            # Flip: the excess reopens on the other side at the trade price.
            pos.reference_price = tx.price
        return leg

    def open_positions(self) -> list[Position]:
        """Non-flat positions, ordered by asset_id."""
        return sorted(
            (p for p in self._positions.values() if p.signed_quantity != 0),
            key=lambda p: p.asset_id,
        )

    def position(self, asset_id: str) -> Position | None:
        pos = self._positions.get(asset_id)
        if pos is None or pos.signed_quantity == 0:
            return None
        return pos


def signed_return(reference_price: float, evaluation_price: float, long_exposure: bool) -> float:
    """Fractional return with the exposure sign folded in.

    Positive for a profitable position regardless of side: (p - r)/r for
    long exposure, (r - p)/r for short.
    """
    if long_exposure:
        return (evaluation_price - reference_price) / reference_price
    return (reference_price - evaluation_price) / reference_price


def classify_context(
    open_positions: Sequence[Position],
    traded_asset_id: str,
    market_prices: Mapping[str, float],
    include_traded: bool = False,
) -> Context:
    """Sign of the summed unrealized P&L of the other open positions.

    Positions must be ordered by asset_id; the summation order is part of
    the deterministic contract shared with the streaming engine.  Every
    position's asset must have a market price.
    """
    balance = 0.0
    seen = False
    for pos in open_positions:
        if not include_traded and pos.asset_id == traded_asset_id:
            continue
        balance += (market_prices[pos.asset_id] - pos.reference_price) * pos.signed_quantity
        seen = True
    if not seen or balance == 0.0:
        return Context.NEUTRAL
    return Context.POSITIVE if balance > 0.0 else Context.NEGATIVE


def _tally(tallies: MutableMapping[TallyKey, Tally], key: TallyKey) -> Tally:
    t = tallies.get(key)
    if t is None:
        t = tallies[key] = Tally()
    return t


def accrue_event(
    tallies: MutableMapping[TallyKey, Tally],
    investor_id: str,
    leg: RealizationLeg | None,
    open_positions: Sequence[Position],
    market_prices: Mapping[str, float],
    context: Context,
) -> None:
    """Accrue one investor event into the tallies under all three methods.

    ``open_positions`` is the post-trade portfolio (including the remainder
    of a partially closed position), each with a market price.  Zero-return
    realizations and paper positions accrue to neither gains nor losses.
    Paper increments for an asset are keyed by that asset but by the context
    of the triggering event.
    """
    if leg is not None:
        ret = signed_return(
            leg.reference_price, leg.execution_price, leg.direction is Direction.CLOSED_LONG
        )
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
        ret = signed_return(pos.reference_price, market_prices[pos.asset_id], pos.signed_quantity > 0)
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
    ratio is mapped to 0 and the record stays defined.  Under either policy
    a value that is not finite, such as inf/inf from a tally that overflowed,
    is undefined.
    """
    gd = tally.rg + tally.pg
    ld = tally.rl + tally.pl
    if zero_policy == "exclude":
        if gd == 0.0 or ld == 0.0:
            return math.nan, False
        de = tally.rg / gd - tally.rl / ld
    elif zero_policy == "zero":
        g = tally.rg / gd if gd > 0.0 else 0.0
        l = tally.rl / ld if ld > 0.0 else 0.0
        de = g - l
    else:
        raise ValueError(f"unknown zero-denominator policy {zero_policy!r}")
    return (de, True) if math.isfinite(de) else (math.nan, False)


def oracle_replay(
    transactions: Sequence[Transaction], *, sells_only: bool = False, include_traded: bool = False
) -> dict[TallyKey, Tally]:
    """Brute-force tally computation by full prefix replay at every event.

    The flags mean what they mean to metrics.run_engine.  The input is read
    into a list of Transactions once, at the top.  Quadratic in the number
    of events; intended for small inputs only.
    """
    transactions = list(transactions)
    tallies: dict[TallyKey, Tally] = {}
    for i, tx in enumerate(transactions):
        prefix = transactions[: i + 1]
        state = PortfolioState()
        leg = None
        for t in prefix:
            if t.investor_id == tx.investor_id:
                leg = state.apply(t)
        last_price: dict[str, float] = {}
        for t in prefix:
            last_price[t.asset_id] = t.price
        if sells_only and tx.side is Side.BUY:
            continue
        positions = state.open_positions()
        ctx = classify_context(positions, tx.asset_id, last_price, include_traded=include_traded)
        accrue_event(tallies, tx.investor_id, leg, positions, last_price, ctx)
    return tallies
