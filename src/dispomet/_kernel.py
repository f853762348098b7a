"""Integer-encoded streaming kernel behind metrics.run_engine.

``encode`` reads an ingest.TransactionColumns, the one layout the parser
and TransactionColumns.of both build, the latter from a list of
Transactions.  In one numpy pass over views of its columns it checks the
(timestamp, seq) order, that quantities are positive and that prices are
positive and finite.  It interns the (investor_id, asset_id) column pair
into pair indices, numbering assets in asset_id order, and passes the side,
quantity and price arrays on without a copy.  ``stream`` then makes one
sequential pass over those columns in plain Python, keeping per-pair
positions in lists and the tallies in an ``array('d')`` buffer that is
returned without a copy through ``np.frombuffer``.

Each investor's open positions are kept in one list of pair ids, ordered by
asset: a position that opens is inserted with ``bisect.insort`` and one that
closes is removed.  An evaluation visits only that list, so the
floating-point summation order of the context balance is identical to the
reference implementations, synth.oracle_replay and the per-object
semantics beside it.
"""
from __future__ import annotations

import math
from array import array
from bisect import insort
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ingest import Transaction, TransactionColumns, first_out_of_order

njit = None  # the benchmark's env line reads this to name the backend


@dataclass(slots=True)
class EncodedStream:
    investors: list[str]
    assets: list[str]
    pair_investor: list[int]  # (n_pairs,)
    pair_asset: list[int]  # (n_pairs,)
    ev_pair: list[int]  # (n,)
    ev_side: array  # (n,) 'b', +1 buy / -1 sell
    ev_qty: array  # (n,) 'q', positive
    ev_price: array  # (n,) 'd', positive and finite


def encode(transactions: Sequence[Transaction]) -> EncodedStream:
    """Intern ids into pair indices and split the events into columns.

    Raises ValueError naming the first event whose (timestamp, seq) is lower
    than its predecessor's, whose quantity is not positive or whose price is
    not a positive finite number, or, for a list, whose quantity lies
    outside int64 or whose timestamp is naive where event 0's is aware or
    the other way round.
    """
    txs = TransactionColumns.of(transactions)
    i = first_out_of_order(txs.timestamp, txs.seq)
    if i is not None:
        tx, before = txs[i], txs[i - 1]
        raise ValueError(
            f"event {i}: (timestamp, seq) ({tx.timestamp}, {tx.seq}) is lower than "
            f"event {i - 1}'s ({before.timestamp}, {before.seq})"
        )
    qty_ok = np.frombuffer(txs.quantity, np.int64) > 0
    if not qty_ok.all():
        i = int(qty_ok.argmin())
        raise ValueError(f"event {i}: quantity {txs.quantity[i]} is not positive")
    # NaN fails both comparisons, so it is rejected too.
    prices = np.frombuffer(txs.price, np.float64)
    price_ok = (prices > 0.0) & (prices < math.inf)
    if not price_ok.all():
        i = int(price_ok.argmin())
        raise ValueError(f"event {i}: price {txs.price[i]} is not a positive finite number")
    # Pairs and investors are numbered in order of first appearance.
    pair_index: dict[tuple[str, str], int] = {}
    ev_pair = [pair_index.setdefault(key, len(pair_index)) for key in zip(txs.investor_id, txs.asset_id)]
    inv_idx: dict[str, int] = {}
    pair_investor = [inv_idx.setdefault(inv, len(inv_idx)) for inv, _ in pair_index]
    investors = list(inv_idx)
    assets = sorted({asset for _, asset in pair_index})
    asset_idx = {asset: ai for ai, asset in enumerate(assets)}
    return EncodedStream(
        investors=investors,
        assets=assets,
        pair_investor=pair_investor,
        pair_asset=[asset_idx[asset] for _, asset in pair_index],
        ev_pair=ev_pair,
        ev_side=txs.side,
        ev_qty=txs.quantity,
        ev_price=txs.price,
    )


def stream(enc: EncodedStream, sells_only: bool, include_traded: bool):
    """Run the accrual loop; returns the tally array, shape (n_pairs, 3, 12)."""
    pair_asset = enc.pair_asset
    n_pairs = len(pair_asset)
    pair_qty = [0] * n_pairs
    pair_ref = [0.0] * n_pairs
    last_price = [0.0] * len(enc.assets)
    # Each investor's open pair ids in asset order; pair_open[pid] is the
    # list of the investor who holds pair pid.
    open_lists = [[] for _ in enc.investors]
    pair_open = [open_lists[inv] for inv in enc.pair_investor]
    # Tally layout, flat: pair*36 + context*12 + method*4 + component
    # contexts: 0 positive, 1 negative, 2 neutral (ctx_off is context*12)
    # components: 0 rg, 1 rl, 2 pg, 3 pl; methods: count, total, value
    tal = array("d", [0.0]) * (n_pairs * 36)
    # encode admits only positive finite prices, so every reference price
    # and market price read below is positive.
    for pid, side, qty, price in zip(enc.ev_pair, enc.ev_side, enc.ev_qty, enc.ev_price):
        buy = side > 0
        last_price[pair_asset[pid]] = price
        opened = pair_open[pid]

        # Ledger step: volume-weighted reference on increases, realization
        # leg on reductions, close-and-reopen on flips.  Opening and closing
        # a position inserts it into or removes it from the open list.
        old = pair_qty[pid]
        leg_closed = 0
        leg_ret = 0.0
        if old == 0:
            pair_qty[pid] = qty if buy else -qty
            pair_ref[pid] = price
            insort(opened, pid, key=pair_asset.__getitem__)
        elif (old > 0) == buy:
            new = old + qty if buy else old - qty
            pair_ref[pid] = (abs(old) * pair_ref[pid] + qty * price) / abs(new)
            pair_qty[pid] = new
        else:
            leg_closed = min(abs(old), qty)
            ref = pair_ref[pid]
            if old > 0:
                leg_ret = (price - ref) / ref
            else:
                leg_ret = (ref - price) / ref
            new = old + qty if buy else old - qty
            pair_qty[pid] = new
            if new == 0:
                opened.remove(pid)
            elif (new > 0) != (old > 0):
                pair_ref[pid] = price

        if sells_only and buy:
            continue

        # Post-trade portfolio context from the other open positions, summed
        # in asset_id order like the reference implementations.
        balance = 0.0
        seen = False
        for pp in opened:
            if pp == pid and not include_traded:
                continue
            balance += (last_price[pair_asset[pp]] - pair_ref[pp]) * pair_qty[pp]
            seen = True
        if not seen or balance == 0.0:
            ctx_off = 24
        elif balance > 0.0:
            ctx_off = 0
        else:
            ctx_off = 12

        if leg_closed > 0 and leg_ret != 0.0:
            j = pid * 36 + ctx_off + (0 if leg_ret > 0.0 else 1)
            tal[j] += 1.0
            tal[j + 4] += leg_closed
            tal[j + 8] += abs(leg_ret)

        for pp in opened:
            mp = last_price[pair_asset[pp]]
            ref = pair_ref[pp]
            qn = pair_qty[pp]
            if qn > 0:
                ret = (mp - ref) / ref
            else:
                ret = (ref - mp) / ref
            if ret == 0.0:
                continue
            j = pp * 36 + ctx_off + (2 if ret > 0.0 else 3)
            tal[j] += 1.0
            tal[j + 4] += abs(qn)
            tal[j + 8] += abs(ret)
    return np.frombuffer(tal, np.float64).reshape(n_pairs, 3, 12)
