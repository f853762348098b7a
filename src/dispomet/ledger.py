"""Per-investor portfolio state machine.

Positions are signed (positive = long holding, negative = native short) and
carry a volume-weighted average reference price.  Position-increasing trades
update the reference price; position-reducing trades leave it unchanged and
emit a realization leg.  A trade that crosses through flat (a flip) closes
the held amount and reopens the remainder at the trade price.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .ingest import Side, Transaction


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

    @property
    def per_unit_profit(self) -> float:
        if self.direction is Direction.CLOSED_LONG:
            return self.execution_price - self.reference_price
        return self.reference_price - self.execution_price


class PortfolioState:
    """Holdings of one investor, advanced one transaction at a time.

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

