"""Synthetic transaction datasets with known realization behavior.

The generator simulates a bounded random walk for the underlying index;
each instrument's price is initial * (1 + leverage * cumulative index
return), kept above zero by bounding the walk.  Every investor opens a
position and then, at each subsequent step, sells winners with probability
p_realize_gain and losers with p_realize_loss, occasionally adding new
positions.  All randomness comes from PCG64 streams keyed explicitly by
(seed, investor index), so generation is reproducible across runs,
platforms, and parallel schedules.  _PCG64 draws them in plain Python, each
draw bit for bit the one numpy's Generator gives for the same seed.  Both
generators return a TransactionColumns, the parser's layout, appending each
event straight into typed columns; a Transaction is built only when one is
read.

The second half of the module is the reference semantics that the
streaming engine (metrics.run_engine) must reproduce bit for bit, written
one object at a time: the PortfolioState ledger, classify_context,
accrue_event and compute_de.  oracle_replay is the reference built from
them: one pass that applies each event once to its investor's
PortfolioState, keeps each asset's last price, and accrues the event.
"""
from __future__ import annotations

import math
from array import array
from collections import defaultdict
from dataclasses import dataclass
from datetime import datetime
from enum import Enum
from itertools import accumulate
from typing import Iterable, Mapping, MutableMapping, Sequence

from .ingest import Instrument, PairTable, Side, Transaction, TransactionColumns, _instant, _new_columns, _take_each
from .metrics import Context, Method, Tally, TallyKey

_MARKET_STREAM = 0xFFFFFFFF  # per-investor streams use the investor index
_BASE_MICROS = _instant(datetime(2015, 1, 5, 9, 0, 0))[0]  # microseconds, the timestamp column's unit
_SECOND = 10**6
_MINUTE = 60 * _SECOND
_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(const: int, multiplier: int):
    """SeedSequence's 32-bit hash, whose constant steps by ``multiplier`` at each call."""

    def hash32(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * multiplier & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    return hash32


def _seed_state(entropy: tuple[int, ...]) -> tuple[int, int]:
    """The 128-bit initial state and sequence numpy's PCG64 takes from ``SeedSequence(list(entropy))``.

    Each int is split into its 32-bit words, least significant first, and
    the words are mixed into a pool of four, then hashed out of it into
    eight words: two uint64s apiece, read little-endian, and two 128-bit
    numbers of those, the first one high.
    """
    if min(entropy) < 0:
        raise ValueError(f"expected non-negative integers, got {entropy}")
    words = [n >> shift & _MASK32 for n in entropy for shift in range(0, max(n.bit_length(), 1), 32)]
    hash_in = _hasher(0x43B0D7E5, 0x931E8875)

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ result >> 16

    pool = [hash_in(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hash_in(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hash_in(word))
    hash_out = _hasher(0x8B51F9DD, 0x58F38DED)
    state = [hash_out(pool[i % 4]) for i in range(8)]
    a, b, c, d = (state[i] | state[i + 1] << 32 for i in range(0, 8, 2))
    return a << 64 | b, c << 64 | d


class _PCG64:
    """numpy's ``Generator(PCG64(SeedSequence(list(entropy))))``, for the draws synth makes, bit for bit.

    The state advances by the 128-bit LCG step and each 64-bit output is
    its XSL-RR permutation.  A bounded integer is Lemire's method over
    32-bit halves of one output, the spare half kept for the next, when the
    span fits in 32 bits, and over whole outputs otherwise.
    """

    __slots__ = ("_state", "_increment", "_half")

    def __init__(self, *entropy: int) -> None:
        initstate, initseq = _seed_state(entropy)
        self._increment = increment = (initseq << 1 | 1) & _MASK128
        self._state = ((increment + initstate) * _PCG64_MULTIPLIER + increment) & _MASK128
        self._half: int | None = None

    def _next64(self) -> int:
        self._state = state = (self._state * _PCG64_MULTIPLIER + self._increment) & _MASK128
        word, rotation = (state >> 64) ^ (state & _MASK64), state >> 122
        return (word >> rotation | word << (64 - rotation)) & _MASK64

    def _next32(self) -> int:
        half = self._half
        if half is None:
            word = self._next64()
            self._half = word >> 32
            return word & _MASK32
        self._half = None
        return half

    def _bounded(self, top: int) -> int:
        """An int in [0, top]; none is drawn when top is 0."""
        if top == 0:
            return 0
        bits, draw = (32, self._next32) if top <= _MASK32 else (64, self._next64)
        span = top + 1
        threshold = (1 << bits) % span
        while True:
            product = draw() * span
            if product & ((1 << bits) - 1) >= threshold:
                return product >> bits

    def random(self) -> float:
        return (self._next64() >> 11) * (1.0 / (1 << 53))

    def uniform(self, low: float, high: float) -> float:
        """One draw; numpy draws ``uniform(low, high, size)`` as ``size`` of them."""
        return low + (high - low) * self.random()

    def integers(self, low: int, high: int) -> int:
        return low + self._bounded(high - 1 - low)

    def choice(self, n: int, size: int) -> list[int]:
        """``size`` distinct ints of range(n), as ``choice(n, size, replace=False)`` draws them.

        Floyd's algorithm, then a shuffle; a tail shuffle of all of range(n)
        instead when n exceeds 10,000 and size n // 50.
        """
        if n > 10_000 and size > n // 50:
            chosen = list(range(n))
            self._shuffle(chosen, max(n - size, 1))
            return chosen[n - size:]
        chosen, seen = [], set()
        for top in range(n - size, n):
            value = self._bounded(top)
            if value in seen:
                value = top
            seen.add(value)
            chosen.append(value)
        self._shuffle(chosen, 1)
        return chosen

    def _shuffle(self, items: list[int], first: int) -> None:
        """Fisher-Yates from the last item down to ``first``."""
        for i in reversed(range(first, len(items))):
            j = self._bounded(i)
            items[i], items[j] = items[j], items[i]


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
        largest = max(abs(l) for l in self.leverages[: self.n_assets])  # over the leverages that assets take
        if not math.isfinite(0.9 / largest):  # _price_grid's walk bound
            raise InvalidProfile(f"largest leverage magnitude {largest!r} is too small: 0.9 / {largest!r} overflows")
        if self.max_quantity < 1 or self.max_assets_per_investor < 1:
            raise InvalidProfile("max_quantity and max_assets_per_investor must be >= 1")
        if self.seed < 0:
            raise InvalidProfile("seed must be >= 0")


def _instrument_universe(profile: BehaviorProfile) -> dict[str, Instrument]:
    registry: dict[str, Instrument] = {}
    for k in range(profile.n_assets):
        lev = float(profile.leverages[k % len(profile.leverages)])
        side = "L" if lev > 0 else "S"
        asset_id = f"ETF{k:03d}{side}{abs(lev):g}"
        registry[asset_id] = Instrument(asset_id, "IDX", lev)
    return registry


def _round4(prices: list[float]) -> list[float]:
    """Each price rounded to 4 decimals as ``numpy.round`` rounds it, which ``round(x, 4)`` does not always do."""
    return [round(x * 10000.0) / 10000.0 for x in prices]


def _price_grid(profile: BehaviorProfile) -> array:
    """Per-step instrument prices, flat: asset k's price at step t is at ``t * n_assets + k``."""
    rng = _PCG64(profile.seed, _MARKET_STREAM)
    levs = [float(profile.leverages[k % len(profile.leverages)]) for k in range(profile.n_assets)]
    bound = 0.9 / max(map(abs, levs))
    grid = array("d")
    level = 0.0
    for _ in range(profile.horizon_events):
        level = min(bound, max(-bound, level + rng.uniform(-bound / 6.0, bound / 6.0)))
        grid.extend(_round4([100.0 * (1.0 + level * lev) for lev in levs]))
    return grid


def generate_population(
    n_investors: int, profile: BehaviorProfile
) -> tuple[TransactionColumns, dict[str, Instrument]]:
    """Deterministic synthetic log, stably sorted by timestamp, plus its instrument registry."""
    profile.validate()
    if n_investors < 1:
        raise InvalidProfile("n_investors must be >= 1")
    registry = _instrument_universe(profile)
    asset_ids = list(registry)
    prices, n_assets = _price_grid(profile), profile.n_assets
    pair, side, quantity, price = _new_columns()[:4]
    seconds = array("i")  # each row's timestamp, in whole seconds after _BASE_MICROS
    firsts, offsets = array("i"), []  # each investor's first row, and its offset in seconds
    pairs = PairTable()
    for i in range(n_investors):
        rng = _PCG64(profile.seed, i)
        menu = sorted(rng.choice(profile.n_assets, min(profile.n_assets, profile.max_assets_per_investor)))
        investor = f"I{i:05d}"
        offset = rng.integers(0, 50)
        firsts.append(len(seconds))
        offsets.append(offset)
        positions: dict[int, list] = {}  # asset index -> [qty, vwap ref]

        def emit(t: int, k: int, sign: int, qty: int) -> None:  # sign: +1 buy, -1 sell
            pair.append(pairs.code(investor, asset_ids[k]))
            side.append(sign)
            quantity.append(qty)
            price.append(prices[t * n_assets + k])
            seconds.append(60 * t + offset)

        def buy(t: int, k: int, qty: int) -> None:
            emit(t, k, 1, qty)
            p = prices[t * n_assets + k]
            pos = positions.get(k)
            if pos is None:
                positions[k] = [qty, p]
            else:
                pos[1] = (pos[0] * pos[1] + qty * p) / (pos[0] + qty)
                pos[0] += qty

        first = menu[rng.integers(0, len(menu))]
        buy(0, first, rng.integers(1, profile.max_quantity + 1))
        for t in range(1, profile.horizon_events):
            for k in sorted(positions):
                qty, ref = positions[k]
                p = prices[t * n_assets + k]
                roll = rng.random()
                if (p > ref and roll < profile.p_realize_gain) or (p < ref and roll < profile.p_realize_loss):
                    emit(t, k, -1, qty)
                    del positions[k]
            if rng.random() < profile.p_new_position:
                k = menu[rng.integers(0, len(menu))]
                buy(t, k, rng.integers(1, profile.max_quantity + 1))
    tables = pairs.tables()
    del pairs, prices  # and their objects, before the sort
    # A row's second is its step's minute plus its investor's offset, under
    # a minute.  So a stable counting sort on the step, fed the investors'
    # rows in (offset, investor) order, orders the rows by time.
    counts = array("i", [0]) * profile.horizon_events
    for second in seconds:
        counts[second // 60] += 1
    starts = array("i", accumulate(counts, initial=0))
    order = array("i", [0]) * len(seconds)  # row indices fit in int32, as pair codes do
    firsts.append(len(seconds))
    for i in sorted(range(n_investors), key=offsets.__getitem__):
        for row in range(firsts[i], firsts[i + 1]):
            step = seconds[row] // 60
            order[starts[step]] = row
            starts[step] += 1
    columns = [pair, side, quantity, price, seconds]
    del pair, side, quantity, price, seconds, counts, starts  # columns holds the last references
    _take_each(columns, order)
    timestamp = array("q", (_BASE_MICROS + second * _SECOND for second in columns.pop()))
    return TransactionColumns(tables, *columns, timestamp, range(len(order))), registry


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
    rng = _PCG64(seed, 0x5EED)
    n_inv = rng.integers(1, max_investors + 1)
    n_assets = rng.integers(1, max_assets + 1)
    n_events = rng.integers(1, max_events + 1)
    prices = [rng.uniform(20.0, 80.0) for _ in range(n_assets)]
    pair, side, quantity, price, timestamp = _new_columns()
    pairs = PairTable()
    for e in range(n_events):
        a = rng.integers(0, n_assets)
        prices[a] *= 1.0 + rng.uniform(-0.05, 0.05)
        pair.append(pairs.code(f"I{rng.integers(0, n_inv):03d}", f"A{a:03d}"))
        side.append(1 if rng.random() < 0.5 else -1)
        quantity.append(rng.integers(1, 21))
        price.append(round(prices[a], 4))
        timestamp.append(_BASE_MICROS + e * _MINUTE)
    return TransactionColumns(pairs.tables(), pair, side, quantity, price, timestamp, range(n_events))


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
    transactions: Iterable[Transaction], *, sells_only: bool = False, include_traded: bool = False
) -> dict[TallyKey, Tally]:
    """Reference tallies: each event applied once to its investor's PortfolioState, then accrued.

    The flags mean what they mean to metrics.run_engine.  The input is read
    once, in order, as any iterable of Transactions; what is kept grows with
    the investors, assets and tallies, not the rows.
    """
    tallies: dict[TallyKey, Tally] = {}
    states: dict[str, PortfolioState] = defaultdict(PortfolioState)
    last_price: dict[str, float] = {}
    for tx in transactions:
        state = states[tx.investor_id]
        leg = state.apply(tx)
        last_price[tx.asset_id] = tx.price
        if sells_only and tx.side is Side.BUY:
            continue
        positions = state.open_positions()
        ctx = classify_context(positions, tx.asset_id, last_price, include_traded=include_traded)
        accrue_event(tallies, tx.investor_id, leg, positions, last_price, ctx)
    return tallies
