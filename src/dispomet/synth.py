"""Synthetic transaction datasets with known realization behavior.

The generator simulates a bounded random walk for the underlying index;
each instrument's price is initial * (1 + leverage * cumulative index
return), kept above zero by bounding the walk.  Every investor opens a
position and then, at each subsequent step, sells winners with probability
p_realize_gain and losers with p_realize_loss, occasionally adding new
positions.  All randomness comes from PCG64 streams keyed explicitly by
(seed, investor index), so generation is reproducible across runs,
platforms, and parallel schedules.

oracle_replay is the brute-force reference for the streaming engine: at
every event it rebuilds the investor's portfolio and the market prices by
replaying the whole prefix from scratch, then accrues that single event.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

from .ingest import Instrument, Side, Transaction
from .ledger import PortfolioState
from .metrics import Context, Tally, TallyKey, accrue_event, classify_context

_MARKET_STREAM = 0xFFFFFFFF  # per-investor streams use the investor index
_BASE_TIME = datetime(2015, 1, 5, 9, 0, 0)


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
) -> tuple[list[Transaction], dict[str, Instrument]]:
    """Deterministic synthetic transaction list plus its instrument registry."""
    profile.validate()
    if n_investors < 1:
        raise InvalidProfile("n_investors must be >= 1")
    registry = _instrument_universe(profile)
    asset_ids = list(registry)
    grid = _price_grid(profile)
    step_times = [_BASE_TIME + timedelta(minutes=t) for t in range(profile.horizon_events)]
    raw: list[Transaction] = []
    for i in range(n_investors):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([profile.seed, i])))
        menu_size = min(profile.n_assets, profile.max_assets_per_investor)
        menu = sorted(rng.choice(profile.n_assets, size=menu_size, replace=False).tolist())
        offset = timedelta(seconds=int(rng.integers(0, 50)))
        positions: dict[int, list[float]] = {}  # asset index -> [qty, vwap ref]

        def emit(t: int, k: int, side: Side, qty: int) -> None:
            raw.append(
                Transaction(
                    investor_id=f"I{i:05d}",
                    asset_id=asset_ids[k],
                    side=side,
                    quantity=qty,
                    price=float(grid[t, k]),
                    timestamp=step_times[t] + offset,
                )
            )

        def buy(t: int, k: int, qty: int) -> None:
            emit(t, k, Side.BUY, qty)
            price = float(grid[t, k])
            pos = positions.get(k)
            if pos is None:
                positions[k] = [float(qty), price]
            else:
                pos[1] = (pos[0] * pos[1] + qty * price) / (pos[0] + qty)
                pos[0] += qty

        first = menu[int(rng.integers(len(menu)))]
        buy(0, first, int(rng.integers(1, profile.max_quantity + 1)))
        for t in range(1, profile.horizon_events):
            for k in sorted(positions):
                qty, ref = positions[k]
                price = float(grid[t, k])
                roll = rng.random()
                if price > ref and roll < profile.p_realize_gain:
                    emit(t, k, Side.SELL, int(qty))
                    del positions[k]
                elif price < ref and roll < profile.p_realize_loss:
                    emit(t, k, Side.SELL, int(qty))
                    del positions[k]
            if rng.random() < profile.p_new_position:
                k = menu[int(rng.integers(len(menu)))]
                buy(t, k, int(rng.integers(1, profile.max_quantity + 1)))
    raw.sort(key=lambda tx: tx.timestamp)  # stable: generation order breaks ties
    return [
        Transaction(tx.investor_id, tx.asset_id, tx.side, tx.quantity, tx.price, tx.timestamp, seq)
        for seq, tx in enumerate(raw)
    ], registry


def random_stream(
    seed: int,
    max_investors: int = 3,
    max_assets: int = 4,
    max_events: int = 50,
) -> list[Transaction]:
    """Unstructured random stream for oracle-equivalence checks.

    Sides, quantities, and investors are uniform; each asset's price follows
    an independent positive multiplicative walk.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0x5EED])))
    n_inv = int(rng.integers(1, max_investors + 1))
    n_assets = int(rng.integers(1, max_assets + 1))
    n_events = int(rng.integers(1, max_events + 1))
    prices = rng.uniform(20.0, 80.0, size=n_assets)
    txs: list[Transaction] = []
    for e in range(n_events):
        a = int(rng.integers(n_assets))
        prices[a] *= 1.0 + float(rng.uniform(-0.05, 0.05))
        txs.append(
            Transaction(
                investor_id=f"I{int(rng.integers(n_inv)):03d}",
                asset_id=f"A{a:03d}",
                side=Side.BUY if rng.random() < 0.5 else Side.SELL,
                quantity=int(rng.integers(1, 21)),
                price=round(float(prices[a]), 4),
                timestamp=_BASE_TIME + timedelta(minutes=e),
                seq=e,
            )
        )
    return txs


def oracle_replay(
    transactions: list[Transaction],
    eval_scope: str = "every-event",
    context_rule: str = "exclude-traded-asset",
) -> dict[TallyKey, Tally]:
    """Brute-force tally computation by full prefix replay at every event.

    Quadratic in the number of events; intended for small inputs only.
    """
    include_traded = context_rule == "include-traded-asset"
    sells_only = eval_scope == "sells-only"
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
