from datetime import datetime, timedelta

import pytest
from hypothesis import given, strategies as st

from dispomet.ingest import Side, Transaction
from dispomet.ledger import Direction, PortfolioState


def tx(side, qty, price, asset="A", minute=0):
    return Transaction("I1", asset, side, qty, price, datetime(2015, 1, 5, 9, minute), minute)


def test_opening_buy():
    state = PortfolioState()
    leg = state.apply(tx(Side.BUY, 100, 10.0))
    assert leg is None
    pos = state.position("A")
    assert pos.signed_quantity == 100
    assert pos.reference_price == 10.0


def test_buy_updates_volume_weighted_reference():
    state = PortfolioState()
    state.apply(tx(Side.BUY, 100, 10.0))
    leg = state.apply(tx(Side.BUY, 100, 14.0, minute=1))
    assert leg is None
    pos = state.position("A")
    assert pos.signed_quantity == 200
    assert pos.reference_price == (10.0 * 100 + 14.0 * 100) / 200  # 12


def test_partial_sell_leaves_reference_unchanged():
    state = PortfolioState()
    state.apply(tx(Side.BUY, 100, 10.0))
    leg = state.apply(tx(Side.SELL, 40, 8.0, minute=1))
    assert leg.direction is Direction.CLOSED_LONG
    assert leg.quantity_closed == 40
    assert leg.per_unit_profit == -2.0
    pos = state.position("A")
    assert pos.signed_quantity == 60
    assert pos.reference_price == 10.0


def test_sell_exceeding_long_flips_to_short():
    state = PortfolioState()
    state.apply(tx(Side.BUY, 100, 10.0))
    leg = state.apply(tx(Side.SELL, 150, 11.0, minute=1))
    assert leg.direction is Direction.CLOSED_LONG
    assert leg.quantity_closed == 100
    assert leg.per_unit_profit == 1.0
    pos = state.position("A")
    assert pos.signed_quantity == -50
    assert pos.reference_price == 11.0


def test_buy_covers_short_at_profit():
    state = PortfolioState()
    state.apply(tx(Side.SELL, 50, 11.0))
    leg = state.apply(tx(Side.BUY, 50, 9.0, minute=1))
    assert leg.direction is Direction.CLOSED_SHORT
    assert leg.quantity_closed == 50
    assert leg.per_unit_profit == 2.0
    assert state.position("A") is None


def test_open_positions_drop_flat_and_sort():
    state = PortfolioState()
    state.apply(tx(Side.BUY, 10, 10.0, asset="B"))
    state.apply(tx(Side.BUY, 10, 10.0, asset="A", minute=1))
    state.apply(tx(Side.SELL, 10, 11.0, asset="B", minute=2))
    assert [p.asset_id for p in state.open_positions()] == ["A"]
    state.apply(tx(Side.SELL, 4, 11.0, asset="A", minute=3))
    assert [(p.asset_id, p.signed_quantity) for p in state.open_positions()] == [("A", 6)]


def test_fresh_state_has_no_positions():
    assert PortfolioState().open_positions() == []


sides = st.sampled_from(list(Side))
trades = st.lists(
    st.tuples(sides, st.integers(1, 50), st.floats(1.0, 100.0, allow_nan=False)),
    min_size=1,
    max_size=40,
)


@given(trades)
def test_quantity_conservation(seq):
    state = PortfolioState()
    bought = sold = 0
    for minute, (side, qty, price) in enumerate(seq):
        leg = state.apply(tx(side, qty, round(price, 4), minute=minute))
        if side is Side.BUY:
            bought += qty
        else:
            sold += qty
        if leg is not None:
            # A closing leg can never exceed the flow on its own side.
            assert 0 < leg.quantity_closed <= qty
        pos = state.position("A")
        held = pos.signed_quantity if pos else 0
        assert held == bought - sold


@given(trades)
def test_side_swap_negates_quantities_and_profits(seq):
    state = PortfolioState()
    mirrored = PortfolioState()
    for minute, (side, qty, price) in enumerate(seq):
        other = Side.SELL if side is Side.BUY else Side.BUY
        leg = state.apply(tx(side, qty, round(price, 4), minute=minute))
        mleg = mirrored.apply(tx(other, qty, round(price, 4), minute=minute))
        assert (leg is None) == (mleg is None)
        if leg is not None:
            assert mleg.quantity_closed == leg.quantity_closed
            assert mleg.per_unit_profit == -leg.per_unit_profit
        pos, mpos = state.position("A"), mirrored.position("A")
        assert (pos.signed_quantity if pos else 0) == -(mpos.signed_quantity if mpos else 0)


@given(st.lists(st.tuples(st.integers(1, 50), st.floats(1.0, 100.0, allow_nan=False)), min_size=1, max_size=20))
def test_long_reference_within_purchase_price_range(buys):
    state = PortfolioState()
    prices = []
    for minute, (qty, price) in enumerate(buys):
        price = round(price, 4)
        prices.append(price)
        state.apply(tx(Side.BUY, qty, price, minute=minute))
    ref = state.position("A").reference_price
    # Up to float rounding, the weighted average stays within the price range.
    slop = 1e-9 * max(prices)
    assert min(prices) - slop <= ref <= max(prices) + slop


def test_apply_is_deterministic():
    def run():
        state = PortfolioState()
        legs = []
        for minute, (side, qty, price) in enumerate(
            [(Side.BUY, 100, 10.0), (Side.SELL, 150, 11.0), (Side.BUY, 70, 9.5)]
        ):
            legs.append(state.apply(tx(side, qty, price, minute=minute)))
        return legs, state.open_positions()
    first, second = run(), run()
    assert first[0] == second[0]
    assert [(p.asset_id, p.signed_quantity, p.reference_price) for p in first[1]] == [
        (p.asset_id, p.signed_quantity, p.reference_price) for p in second[1]
    ]
