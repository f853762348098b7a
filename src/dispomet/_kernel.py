"""Integer-encoded streaming kernel behind metrics.run_engine.

``encode`` reads an ingest.TransactionColumns, the one layout the parser
and TransactionColumns.of both build, the latter from a list of
Transactions.  A parsed log's columns are returned as they are: the
parser has rejected each bad quantity and price, sorted the rows by
(timestamp, seq) and numbered the pairs by first appearance, the kernel's
pair indices.  Other columns are checked for that order, positive
quantities and positive finite prices, then renumbered, each in one pass
of plain Python.  ``stream`` then makes one sequential pass over a chunk of
columns in plain Python.  Its state, an Accrual of per-pair quantities in
a list of ints (a position can outgrow int64), reference prices and the
tallies in ``array('d')`` columns, outlives the call: run_engine feeds a
whole log as one chunk, and ``compute`` holds one chunk of 4,096 rows at a
time of a log in time order, the pairs numbered by the parser's
ingest.PairTable.

Each investor's open positions are kept in one list of pair ids, ordered by
asset_id: a position that opens is inserted with ``bisect.insort`` and one
that closes is removed.  An evaluation visits only that list, so the
floating-point summation order of the context balance is identical to the
reference implementations, synth.oracle_replay and the per-object
semantics beside it.
"""
from __future__ import annotations

import math
from array import array
from bisect import insort
from collections import defaultdict
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from .ingest import Transaction, TransactionColumns

njit = None  # the benchmark's env line reads this to name the backend


def encode(transactions: Sequence[Transaction]) -> TransactionColumns:
    """The events as columns whose tables hold only their rows' ids, pairs numbered by first appearance.

    The parser's columns are returned unchecked: it has rejected or sorted
    every row that a check below refuses.  Other columns raise ValueError
    naming the first event whose (timestamp, seq) is lower than its
    predecessor's, whose quantity is not positive or whose price is not a
    positive finite number, or, for a list, whose quantity lies outside
    int64 or whose timestamp is naive where event 0's is aware or vice versa.
    """
    # ingest is loaded here, not with this module: a streamed compute never calls encode.
    from .ingest import TransactionColumns, first_out_of_order, renumbered

    txs = TransactionColumns.of(transactions)
    if txs._in_order:
        return txs
    i = first_out_of_order(txs.timestamp, txs.seq)
    if i is not None:
        tx, before = txs[i], txs[i - 1]
        raise ValueError(
            f"event {i}: (timestamp, seq) ({tx.timestamp}, {tx.seq}) is lower than "
            f"event {i - 1}'s ({before.timestamp}, {before.seq})"
        )
    if txs and min(txs.quantity) <= 0:
        i = next(i for i, q in enumerate(txs.quantity) if q <= 0)
        raise ValueError(f"event {i}: quantity {txs.quantity[i]} is not positive")
    inf = math.inf
    for price in txs.price:
        if not 0.0 < price < inf:  # NaN fails both comparisons, so it is rejected too
            i = next(i for i, p in enumerate(txs.price) if not 0.0 < p < inf)
            raise ValueError(f"event {i}: price {txs.price[i]} is not a positive finite number")
    return renumbered(txs)


class Accrual:
    """The kernel's state between chunks of one log: positions, open lists and tallies per pair.

    ``add_pairs`` makes room for pairs before ``stream`` reads their
    events, each pair numbered on from the last.  The per-pair columns are
    indexed by pair: ``pair_qty`` a list of ints, ``pair_ref`` an
    ``array('d')``.  ``open_lists`` and ``assets`` are keyed by the investor
    and asset codes of the tables add_pairs reads.  Each investor's open
    pair ids are kept ordered by asset_id text, the order of TallyStore's
    asset codes, which are known only once the whole log is read: a pair's
    ``pair_asset`` entry is its asset's [asset_id, last trade price] list,
    and one investor's pairs differ in asset_id, so the lists compare by it
    alone.
    """

    def __init__(self, sells_only: bool, include_traded: bool) -> None:
        self.sells_only, self.include_traded = sells_only, include_traded
        self.open_lists: defaultdict[int, list[int]] = defaultdict(list)
        self.assets: dict[int, list] = {}  # each asset code's [asset_id, last trade price]
        self.pair_open: list[list[int]] = []  # the open list of the pair's investor
        self.pair_asset: list[list] = []  # the pair's entry of assets
        self.pair_qty: list[int] = []
        self.pair_ref = array("d")
        # Tally layout, flat: pair*36 + context*12 + method*4 + component
        # contexts: 0 positive, 1 negative, 2 neutral (ctx_off is context*12)
        # components: 0 rg, 1 rl, 2 pg, 3 pl; methods: count, total, value
        self.tallies = array("d")

    def add_pairs(self, pair_investor: Sequence[int], pair_asset: Sequence[int], asset_ids: Sequence[str]) -> None:
        """Append the pairs past the last one added, with no position and zero tallies.

        Pair p's investor is code ``pair_investor[p]`` and its asset
        ``asset_ids[pair_asset[p]]``.
        """
        start = len(self.pair_qty)
        for investor, asset in zip(pair_investor[start:], pair_asset[start:]):
            self.pair_open.append(self.open_lists[investor])
            entry = self.assets.get(asset)
            if entry is None:
                entry = self.assets[asset] = [asset_ids[asset], 0.0]
            self.pair_asset.append(entry)
        new = len(self.pair_asset) - start
        self.pair_qty += [0] * new
        # zeros straight from calloc, not via a second array
        self.pair_ref.frombytes(bytes(8 * new))
        self.tallies.frombytes(bytes(288 * new))


def stream(
    acc: Accrual, pairs: Sequence[int], sides: Sequence[int], quantities: Sequence[int], prices: Sequence[float]
) -> None:
    """Run the accrual loop over one chunk of events, given as columns, whose pairs ``acc`` already has."""
    sells_only, include_traded = acc.sells_only, acc.include_traded
    pair_asset, pair_qty, pair_ref, pair_open = acc.pair_asset, acc.pair_qty, acc.pair_ref, acc.pair_open
    tal = acc.tallies
    # encode and the parser admit only positive finite prices, so every
    # reference price and market price read below is positive.
    for pid, side, qty, price in zip(pairs, sides, quantities, prices):
        buy = side > 0
        pair_asset[pid][1] = price
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
            balance += (pair_asset[pp][1] - pair_ref[pp]) * pair_qty[pp]
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
            mp = pair_asset[pp][1]
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
