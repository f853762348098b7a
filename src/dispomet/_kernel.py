"""Integer-encoded streaming kernel behind metrics.run_engine.

Transactions are encoded once into flat columns of Python ints and floats;
the accrual loop then runs over primitive types only, so the same function
body is JIT-compiled by numba where it is installed and runs as plain Python
otherwise.  ``stream`` allocates every container the loop indexes:

* numba backend: numpy arrays, the event columns converted with ``np.array``;
* Python backend: the encoded lists as they are, plain lists for the
  per-pair state and an ``array('d')`` tally buffer that is returned without
  a copy through ``np.frombuffer``.

Assets are numbered in asset_id order.  Open-slot layout: each investor owns
the slot range ``open_pairs[inv_pair_ptr[inv] : inv_pair_ptr[inv + 1]]`` (one
slot per pair the investor ever trades), of which the first
``open_count[inv]`` hold the investor's open positions in asset order.  A position that opens is
inserted by shifting the later slots right; one that closes is removed by
shifting them left.  An evaluation visits only the open slots, in asset_id
order, which keeps the floating-point summation order of the context balance
identical to the reference implementations.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from .ingest import Side, Transaction

try:
    from numba import njit
except ImportError:  # numba is the optional "jit" extra
    njit = None

INT64_MAX = 2**63 - 1


@dataclass(slots=True)
class EncodedStream:
    investors: list[str]
    assets: list[str]
    pair_index: dict[tuple[str, str], int]
    pair_investor: list[int]  # (n_pairs,)
    pair_asset: list[int]  # (n_pairs,)
    inv_pair_ptr: list[int]  # (n_investors + 1,) CSR offsets of each investor's slots
    ev_pair: list[int]  # (n,)
    ev_side: list[int]  # (n,) +1 buy / -1 sell
    ev_qty: list[int]  # (n,) at most INT64_MAX
    ev_price: list[float]  # (n,)


def encode(transactions: Sequence[Transaction]) -> EncodedStream:
    """Intern ids into pair indices and split the events into columns.

    Raises ValueError naming the first event whose quantity exceeds int64 or
    whose price is not a positive finite number.
    """
    inv_idx: dict[str, int] = {}
    pair_index: dict[tuple[str, str], int] = {}
    pair_investor: list[int] = []
    ev_pair: list[int] = []
    for tx in transactions:
        key = (tx.investor_id, tx.asset_id)
        pid = pair_index.get(key)
        if pid is None:
            pid = pair_index[key] = len(pair_index)
            pair_investor.append(inv_idx.setdefault(key[0], len(inv_idx)))
        ev_pair.append(pid)
    ev_qty = [tx.quantity for tx in transactions]
    if ev_qty and max(ev_qty) > INT64_MAX:
        i = next(i for i, q in enumerate(ev_qty) if q > INT64_MAX)
        raise ValueError(f"event {i}: quantity {ev_qty[i]} exceeds the int64 maximum {INT64_MAX}")
    buy = Side.BUY
    ev_side = [1 if tx.side is buy else -1 for tx in transactions]
    ev_price = [float(tx.price) for tx in transactions]
    # A comparison chain, because min and max are unreliable with NaN present.
    if not all(0.0 < p < math.inf for p in ev_price):
        i = next(i for i, p in enumerate(ev_price) if not 0.0 < p < math.inf)
        raise ValueError(f"event {i}: price {ev_price[i]} is not a positive finite number")
    investors = list(inv_idx)
    assets = sorted({asset for _, asset in pair_index})
    asset_idx = {asset: ai for ai, asset in enumerate(assets)}
    slots = [0] * len(investors)
    for ii in pair_investor:
        slots[ii] += 1
    return EncodedStream(
        investors=investors,
        assets=assets,
        pair_index=pair_index,
        pair_investor=pair_investor,
        pair_asset=[asset_idx[asset] for _, asset in pair_index],
        inv_pair_ptr=[0, *accumulate(slots)],
        ev_pair=ev_pair,
        ev_side=ev_side,
        ev_qty=ev_qty,
        ev_price=ev_price,
    )


def _stream_loop(
    ev_pair,
    ev_side,
    ev_qty,
    ev_price,
    pair_investor,
    pair_asset,
    inv_pair_ptr,
    pair_qty,
    pair_ref,
    last_price,
    open_pairs,
    open_count,
    tal,
    sells_only,
    include_traded,
):
    # Tally layout, flat: pair*36 + context*12 + method*4 + component
    # contexts: 0 positive, 1 negative, 2 neutral (ctx_off is context*12)
    # components: 0 rg, 1 rl, 2 pg, 3 pl; methods: count, total, value
    # encode admits only positive finite prices, so every reference price
    # and market price read below is positive.
    for i in range(len(ev_pair)):
        pid = ev_pair[i]
        inv = pair_investor[pid]
        asset = pair_asset[pid]
        qty = ev_qty[i]
        price = ev_price[i]
        buy = ev_side[i] > 0
        last_price[asset] = price
        lo = inv_pair_ptr[inv]
        hi = lo + open_count[inv]

        # Ledger step: volume-weighted reference on increases, realization
        # leg on reductions, close-and-reopen on flips.  Opening and closing
        # a position inserts it into or removes it from the open slots.
        old = pair_qty[pid]
        leg_closed = 0
        leg_ret = 0.0
        if old == 0:
            pair_qty[pid] = qty if buy else -qty
            pair_ref[pid] = price
            k = hi
            while k > lo and pair_asset[open_pairs[k - 1]] > asset:
                open_pairs[k] = open_pairs[k - 1]
                k -= 1
            open_pairs[k] = pid
            hi += 1
            open_count[inv] = hi - lo
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
                k = lo
                while open_pairs[k] != pid:
                    k += 1
                hi -= 1
                while k < hi:
                    open_pairs[k] = open_pairs[k + 1]
                    k += 1
                open_count[inv] = hi - lo
            elif (new > 0) != (old > 0):
                pair_ref[pid] = price

        if sells_only and buy:
            continue

        # Post-trade portfolio context from the other open positions.
        balance = 0.0
        seen = False
        for k in range(lo, hi):
            pp = open_pairs[k]
            if pp == pid and not include_traded:
                continue
            mp = last_price[pair_asset[pp]]
            balance += (mp - pair_ref[pp]) * pair_qty[pp]
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

        for k in range(lo, hi):
            pp = open_pairs[k]
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


if njit is not None:
    _stream_jit = njit(cache=True)(_stream_loop)


def stream(enc: EncodedStream, sells_only: bool, include_traded: bool):
    """Run the accrual loop; returns the tally array, shape (n_pairs, 3, 12)."""
    n_pairs = len(enc.pair_investor)
    n_investors = len(enc.investors)
    n_assets = len(enc.assets)
    if njit is None:
        tal = array("d", [0.0]) * (n_pairs * 36)
        _stream_loop(
            enc.ev_pair,
            enc.ev_side,
            enc.ev_qty,
            enc.ev_price,
            enc.pair_investor,
            enc.pair_asset,
            enc.inv_pair_ptr,
            [0] * n_pairs,
            [0.0] * n_pairs,
            [0.0] * n_assets,
            [0] * n_pairs,
            [0] * n_investors,
            tal,
            sells_only,
            include_traded,
        )
        return np.frombuffer(tal, np.float64).reshape(n_pairs, 3, 12)
    tal = np.zeros(n_pairs * 36, np.float64)
    _stream_jit(
        np.array(enc.ev_pair, np.int64),
        np.array(enc.ev_side, np.int8),
        np.array(enc.ev_qty, np.int64),
        np.array(enc.ev_price, np.float64),
        np.array(enc.pair_investor, np.int64),
        np.array(enc.pair_asset, np.int64),
        np.array(enc.inv_pair_ptr, np.int64),
        np.zeros(n_pairs, np.int64),
        np.zeros(n_pairs, np.float64),
        np.zeros(n_assets, np.float64),
        np.zeros(n_pairs, np.int64),
        np.zeros(n_investors, np.int64),
        tal,
        sells_only,
        include_traded,
    )
    return tal.reshape(n_pairs, 3, 12)
