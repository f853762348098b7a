import contextlib
import io
import itertools
import math
import random
import re
import struct
import tempfile
import tracemalloc
from array import array
from datetime import datetime, timedelta, timezone
from functools import reduce
from operator import add
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dispomet import _rows, cli, ingest, metrics
from dispomet.ingest import INT64_MAX, Side, Transaction, TransactionColumns
from dispomet.metrics import (
    Context,
    Framing,
    InvalidBinWidth,
    Level,
    Method,
    Tally,
    TallyStore,
    aggregate,
    histogram,
    run_engine,
    run_engine_on_log,
)
from dispomet.synth import (
    BehaviorProfile,
    Direction,
    PortfolioState,
    Position,
    RealizationLeg,
    accrue_event,
    classify_context,
    compute_de,
    generate_population,
    oracle_replay,
    random_stream,
    signed_return,
)


def tx(investor, asset, side, qty, price, minute, seq):
    return Transaction(investor, asset, side, qty, price, datetime(2015, 1, 5, 9, minute), seq)


def test_signed_return_long():
    assert signed_return(10.0, 12.0, long_exposure=True) == pytest.approx(0.20)


def test_signed_return_short():
    assert signed_return(11.0, 9.0, long_exposure=False) == pytest.approx(2.0 / 11.0)


def test_signed_return_zero():
    assert signed_return(10.0, 10.0, long_exposure=True) == 0.0
    assert signed_return(10.0, 10.0, long_exposure=False) == 0.0


def test_classify_context_sign_of_other_balance():
    positions = [Position("A", 10, 10.0), Position("B", 5, 10.0), Position("C", -2, 10.0)]
    prices = {"A": 10.0, "B": 20.0, "C": 20.0}  # B: +50, C: -20
    assert classify_context(positions, "A", prices) is Context.POSITIVE


def test_classify_context_no_other_positions_is_neutral():
    assert classify_context([Position("A", 10, 10.0)], "A", {"A": 12.0}) is Context.NEUTRAL


def test_classify_context_exact_zero_is_neutral():
    positions = [Position("B", 10, 10.0), Position("C", -10, 10.0)]
    prices = {"B": 13.0, "C": 13.0}  # +30 and -30
    assert classify_context(positions, "A", prices) is Context.NEUTRAL


def test_classify_context_include_traded_flag():
    positions = [Position("A", 10, 10.0)]
    assert classify_context(positions, "A", {"A": 12.0}, include_traded=True) is Context.POSITIVE


@pytest.mark.parametrize(
    "qty,ref,market,expected",
    [(100, 10.0, 12.0, 200.0), (-50, 11.0, 9.0, 100.0), (30, 7.0, 7.0, 0.0)],
)
def test_classify_context_sums_monetary_pnl(qty, ref, market, expected):
    # A position's share of the balance is (market - reference) * signed quantity:
    # a short unit of B priced 1 + expected over a reference of 1 offsets it exactly.
    held = Position("A", qty, ref)
    prices = {"A": market, "B": 1.0 + expected}
    alone = Context.POSITIVE if expected > 0 else Context.NEUTRAL
    assert classify_context([held], "X", prices) is alone
    assert classify_context([held, Position("B", -1, 1.0)], "X", prices) is Context.NEUTRAL


def test_reference_needs_a_price_for_every_open_position():
    positions = [Position("A", 10, 10.0), Position("B", 5, 10.0)]
    with pytest.raises(KeyError, match="'B'"):
        classify_context(positions, "A", {"A": 12.0})
    with pytest.raises(KeyError, match="'B'"):
        accrue_event({}, "I1", None, positions, {"A": 12.0}, Context.NEUTRAL)


def closed_long(asset, qty, ref, price):
    return RealizationLeg(asset, qty, ref, price, Direction.CLOSED_LONG)


def test_accrue_single_closed_gain():
    tallies = {}
    accrue_event(tallies, "I1", closed_long("A", 100, 10.0, 12.0), [], {"A": 12.0}, Context.NEUTRAL)
    assert tallies[("I1", "A", Context.NEUTRAL, Method.COUNT)] == Tally(rg=1.0)
    assert tallies[("I1", "A", Context.NEUTRAL, Method.TOTAL)] == Tally(rg=100.0)
    assert tallies[("I1", "A", Context.NEUTRAL, Method.VALUE)] == Tally(rg=pytest.approx(0.20))
    for tally in tallies.values():
        assert tally.rl == tally.pg == tally.pl == 0.0


def test_accrue_partial_close_books_loss_and_remainder():
    tallies = {}
    accrue_event(
        tallies,
        "I1",
        closed_long("A", 40, 10.0, 8.0),
        [Position("A", 60, 10.0)],
        {"A": 8.0},
        Context.NEUTRAL,
    )
    key = lambda m: ("I1", "A", Context.NEUTRAL, m)
    assert tallies[key(Method.COUNT)] == Tally(rl=1.0, pl=1.0)
    assert tallies[key(Method.TOTAL)] == Tally(rl=40.0, pl=60.0)
    assert tallies[key(Method.VALUE)].rl == pytest.approx(0.20)
    assert tallies[key(Method.VALUE)].pl == pytest.approx(0.20)


def test_accrue_zero_return_excluded():
    tallies = {}
    # ref 12 after buys 100@10 and 100@14; sell 50@12 and hold 150 at market 12.
    accrue_event(
        tallies,
        "I1",
        closed_long("A", 50, 12.0, 12.0),
        [Position("A", 150, 12.0)],
        {"A": 12.0},
        Context.NEUTRAL,
    )
    assert tallies == {}


def test_accrue_paper_keyed_by_asset_with_trigger_context():
    tallies = {}
    accrue_event(
        tallies,
        "I1",
        None,
        [Position("A", 10, 10.0), Position("B", 10, 10.0)],
        {"A": 12.0, "B": 9.0},
        Context.NEGATIVE,
    )
    assert tallies[("I1", "A", Context.NEGATIVE, Method.COUNT)] == Tally(pg=1.0)
    assert tallies[("I1", "B", Context.NEGATIVE, Method.COUNT)] == Tally(pl=1.0)


@pytest.mark.parametrize(
    "rg,pg,rl,pl,expected",
    [
        (1, 1, 0, 1, 0.5),
        (1, 0, 0, 1, 1.0),
        (0, 1, 1, 0, -1.0),
        (5, 5, 3, 9, 0.25),
    ],
)
def test_compute_de_examples(rg, pg, rl, pl, expected):
    de, defined = compute_de(Tally(rg=rg, rl=rl, pg=pg, pl=pl))
    assert defined
    assert de == pytest.approx(expected)


def test_tally_keeps_the_repr_equality_and_unhashability_of_the_dataclass_it_was():
    # Each value below is what the former @dataclass(slots=True) Tally gave.
    assert repr(Tally()) == "Tally(rg=0.0, rl=0.0, pg=0.0, pl=0.0)"
    assert repr(Tally(1, pl=-0.0)) == "Tally(rg=1, rl=0.0, pg=0.0, pl=-0.0)"
    assert repr(Tally(math.inf, 2.5, float("nan"), -1e-300)) == "Tally(rg=inf, rl=2.5, pg=nan, pl=-1e-300)"
    tally = Tally(rg=float("nan"))
    assert tally == tally  # the components compare as a tuple, identity first
    assert Tally(rg=float("nan")) != Tally(rg=float("nan"))
    assert Tally(rg=1) == Tally(rg=1.0) and Tally(pl=1.0) != Tally(pg=1.0)
    assert Tally() != (0.0, 0.0, 0.0, 0.0) and Tally.__eq__(Tally(), (0.0, 0.0, 0.0, 0.0)) is NotImplemented
    assert Tally.__hash__ is None
    with pytest.raises(TypeError, match="unhashable type: 'Tally'"):
        hash(Tally())
    with pytest.raises(AttributeError):
        tally.other = 1.0
    tally.rg = 2.0
    assert tally == Tally(2.0)


def test_compute_de_zero_denominator_undefined():
    de, defined = compute_de(Tally(rg=2.0))
    assert not defined
    assert math.isnan(de)


def test_compute_de_zero_policy_maps_missing_side_to_zero():
    de, defined = compute_de(Tally(rg=2.0, pg=2.0), zero_policy="zero")
    assert defined
    assert de == 0.5


def _store(tallies):
    """A TallyStore holding the given {(investor, asset, context, method): Tally} numbers."""
    pairs = sorted({(inv, asset) for inv, asset, _, _ in tallies})
    store = run_engine([tx(inv, asset, Side.BUY, 1, 10.0, 0, i) for i, (inv, asset) in enumerate(pairs)])
    pid = {pair: p for p, pair in enumerate(pairs)}  # pair ids follow first appearance
    store.tallies = array("d", [0.0]) * len(store.tallies)
    for (inv, asset, ctx, method), t in tallies.items():
        start = 36 * pid[inv, asset] + 12 * list(Context).index(ctx) + 4 * list(Method).index(method)
        store.tallies[start : start + 4] = array("d", (t.rg, t.rl, t.pg, t.pl))
    assert store.to_dict() == tallies
    return store


# Aggregation fixtures: two assets with (rg, pg, rl, pl) tallies
# (1, 1, 0, 1) and (1, 3, 2, 2).  Asset-level values are 0.5 and -0.25;
# pooled components (2, 4, 2, 3) give 2/6 - 2/5.
def _two_asset_tallies():
    tallies = {}
    for asset, (rg, pg, rl, pl) in (("A", (1, 1, 0, 1)), ("B", (1, 3, 2, 2))):
        for method in Method:
            tallies[("I1", asset, Context.NEUTRAL, method)] = Tally(rg=rg, rl=rl, pg=pg, pl=pl)
    return _store(tallies)


def test_aggregate_investor_pooled():
    records = aggregate(_two_asset_tallies(), Level.INVESTOR_POOLED, Framing.NARROW, methods=[Method.COUNT])
    (record,) = records
    assert record.asset_id == "*"
    assert record.defined
    assert record.de == pytest.approx(2 / 6 - 2 / 5)


def test_aggregate_mean_of_assets():
    records = aggregate(
        _two_asset_tallies(), Level.INVESTOR_MEAN_OF_ASSETS, Framing.NARROW, methods=[Method.COUNT]
    )
    (record,) = records
    assert record.de == pytest.approx((0.5 - 0.25) / 2)  # mean(0.5, -0.25) = 0.125


def test_single_asset_single_context_framings_coincide():
    tallies = _store({
        ("I1", "A", Context.POSITIVE, Method.COUNT): Tally(rg=2, rl=1, pg=3, pl=4),
    })
    values = set()
    for framing in Framing:
        for level in Level:
            records = aggregate(tallies, level, framing, methods=[Method.COUNT])
            assert len(records) == 1
            values.add(round(records[0].de, 15))
    assert len(values) == 1


def test_aggregate_neutral_excluded_from_context_framings():
    tallies = _store({
        ("I1", "A", Context.NEUTRAL, Method.COUNT): Tally(rg=1, rl=1, pg=1, pl=1),
        ("I1", "A", Context.POSITIVE, Method.COUNT): Tally(rg=1, rl=1, pg=1, pl=1),
    })
    integrated = aggregate(tallies, Level.PER_ASSET, Framing.INTEGRATED, methods=[Method.COUNT])
    assert [r.context for r in integrated] == [Context.POSITIVE]
    narrow = aggregate(tallies, Level.PER_ASSET, Framing.NARROW, methods=[Method.COUNT])
    assert len(narrow) == 1 and narrow[0].context is None


@pytest.mark.parametrize("framing", ["narrow", None, Level.PER_ASSET])
def test_aggregate_rejects_an_unknown_framing(framing):
    store = run_engine(random_stream(3))
    with pytest.raises(ValueError, match=re.escape(f"unknown framing {framing!r}")):
        aggregate(store, Level.PER_ASSET, framing)


@pytest.mark.parametrize(
    "methods", [[], (), ["count"], [Method.COUNT, "total"]], ids=["empty-list", "empty-tuple", "text", "mixed"]
)
def test_aggregate_rejects_an_empty_or_unknown_method_list(methods):
    store = run_engine(random_stream(3))
    with pytest.raises(ValueError, match=re.escape(f"got {methods!r}")):
        aggregate(store, Level.PER_ASSET, Framing.NARROW, methods=methods)


def test_histogram_example():
    bins = dict(histogram([0.5, 0.5, -0.2], 0.5))
    assert bins[0.5] == 2
    assert bins[-0.5] == 1
    assert bins[0.0] == 0


def test_histogram_empty():
    assert all(count == 0 for _, count in histogram([], 0.5))


def test_histogram_top_boundary_closed():
    bins = histogram([1.0], 0.5)
    assert bins[-1] == (0.5, 1)


def test_histogram_invalid_width():
    with pytest.raises(InvalidBinWidth):
        histogram([0.0], 0.0)


def _stream_gain_and_paper():
    # I1 buys two assets; selling A at a gain leaves B as paper context.
    return [
        tx("I1", "A", Side.BUY, 10, 10.0, 0, 0),
        tx("I1", "B", Side.BUY, 10, 20.0, 1, 1),
        tx("I2", "B", Side.BUY, 1, 25.0, 2, 2),  # lifts B's market price
        tx("I1", "A", Side.SELL, 10, 12.0, 3, 3),
    ]


def test_engine_realized_gain_in_positive_context():
    tallies = run_engine(_stream_gain_and_paper()).to_dict()
    tally = tallies[("I1", "A", Context.POSITIVE, Method.COUNT)]
    assert tally.rg == 1.0
    # B's paper gain is keyed by B with the context of the triggering event.
    tally_b = tallies[("I1", "B", Context.POSITIVE, Method.COUNT)]
    assert tally_b.pg >= 1.0


def test_narrow_tallies_are_context_partition_sums():
    store = run_engine(_stream_gain_and_paper())
    tallies = store.to_dict()
    for inv, asset, _, method in tallies:
        parts = [tallies.get((inv, asset, ctx, method), Tally()) for ctx in Context]
        merged = Tally(*(sum(getattr(p, f) for p in parts) for f in ("rg", "rl", "pg", "pl")))
        narrow = aggregate(store, Level.PER_ASSET, Framing.NARROW, methods=[method])
        for record in narrow:
            if record.investor_id == inv and record.asset_id == asset:
                assert record.de == compute_de(merged)[0] or not record.defined


def test_sells_only_scope_skips_buy_events():
    txs = [
        tx("I1", "A", Side.BUY, 10, 10.0, 0, 0),
        tx("I2", "A", Side.BUY, 1, 12.0, 1, 1),  # moves the market to 12
        tx("I1", "B", Side.BUY, 1, 5.0, 2, 2),  # I1 evaluation: A shows a paper gain
    ]
    every = run_engine(txs)
    sells = run_engine(txs, sells_only=True)
    assert every.to_dict()[("I1", "A", Context.POSITIVE, Method.COUNT)].pg == 1.0
    assert sells.to_dict() == {}


def test_investor_isolation():
    base = _stream_gain_and_paper()
    alone = [t for t in base if t.investor_id == "I1" or t.investor_id == "I2"]
    extra = base + [tx("I3", "C", Side.BUY, 5, 50.0, 4, 4)]
    d1 = run_engine(alone).to_dict()
    d2 = {k: v for k, v in run_engine(extra).to_dict().items() if k[0] != "I3"}
    assert d1 == d2


def _naive_aggregate(store, level, framing, methods, zero_policy):
    """Reference records: regroup store.to_dict() and apply compute_de per tally."""
    per_asset = {}  # (investor, asset, context-or-None) -> {method: [rg, rl, pg, pl]}
    for (inv, asset, ctx, method), t in store.to_dict().items():
        if framing is Framing.NARROW:
            ctx = None
        elif ctx is Context.NEUTRAL:
            continue
        sums = per_asset.setdefault((inv, asset, ctx), {}).setdefault(method, [0.0] * 4)
        for i, v in enumerate((t.rg, t.rl, t.pg, t.pl)):
            sums[i] += v

    def de(per_method, method):
        return compute_de(Tally(*per_method.get(method, [0.0] * 4)), zero_policy)

    rows = []
    if level is Level.PER_ASSET:
        for (inv, asset, ctx), per_method in per_asset.items():
            rows += [(inv, asset, ctx, m, *de(per_method, m)) for m in methods]
    elif level is Level.INVESTOR_POOLED:
        pooled = {}
        for (inv, _asset, ctx), per_method in per_asset.items():
            slot = pooled.setdefault((inv, ctx), {})
            for method, sums in per_method.items():
                acc = slot.setdefault(method, [0.0] * 4)
                for i, v in enumerate(sums):
                    acc[i] += v
        for (inv, ctx), per_method in pooled.items():
            rows += [(inv, "*", ctx, m, *de(per_method, m)) for m in methods]
    else:
        values = {}
        for (inv, _asset, ctx), per_method in per_asset.items():
            for m in methods:
                value, defined = de(per_method, m)
                if defined:
                    values.setdefault((inv, ctx, m), []).append(value)
        # Added one after another from +0.0, in pair order: sum() compensates from Python 3.12 on.
        rows = [(inv, "*", ctx, m, reduce(add, v, 0.0) / len(v), True) for (inv, ctx, m), v in values.items()]
    rows.sort(key=lambda r: (r[0], r[1], r[2].value if r[2] else "", r[3].value))
    return rows


def _assert_matches_naive(store):
    for framing in Framing:
        for level in Level:
            for zero_policy in ("exclude", "zero"):
                for methods in (list(Method), [Method.VALUE], [Method.TOTAL, Method.COUNT]):
                    got = aggregate(store, level, framing, methods=methods, zero_policy=zero_policy)
                    want = _naive_aggregate(store, level, framing, methods, zero_policy)
                    where = (framing, level, zero_policy, methods)
                    assert [(r.investor_id, r.asset_id, r.context, r.method, r.defined) for r in got] == [
                        (inv, asset, ctx, m, defined) for inv, asset, ctx, m, _, defined in want
                    ], where
                    for r, w in zip(got, want):
                        assert r.de == w[4] if r.defined else math.isnan(r.de), (where, r, w)


#: A log whose tallies are finite but whose sums pass the double range: the
#: narrow context sum, the investor-pooled sum and rg + pg or rl + pl.  One
#: row a second, as (investor, asset, side, quantity, price).
SUMS_OVERFLOW = (
    ("i2", "b", Side.SELL, 3, 1.0),
    ("i2", "b", Side.BUY, 2, 1.5e308),
    ("i2", "a", Side.SELL, 1, 1e-300),
    ("i1", "a", Side.SELL, 3, 2.0),
    ("i1", "b", Side.BUY, 2, 1.5e308),
    ("i1", "b", Side.SELL, 2, 2.0),
    ("i2", "a", Side.BUY, 3, 2.0),
)


def test_de_that_is_not_finite_is_undefined():
    # Each sale of A1 realizes a gain return of 1e300/1e-300, which overflows
    # to inf, and so does the paper gain of the unit still held: the pooled
    # Value tally of the context in which A2's losses fall is inf/(inf+inf).
    txs = [
        tx("I1", "A1", Side.BUY, 2, 1e-300, 0, 0),
        tx("I1", "A2", Side.BUY, 2, 10.0, 1, 1),
        tx("I1", "A1", Side.SELL, 1, 1e300, 2, 2),
        tx("I1", "A2", Side.SELL, 1, 5.0, 3, 3),
        tx("I1", "A1", Side.SELL, 1, 1e300, 4, 4),
        tx("I1", "A2", Side.SELL, 1, 4.0, 5, 5),
    ]
    sums_overflow = [
        Transaction(*row, datetime(2015, 1, 5, 9, 0, second), second) for second, row in enumerate(SUMS_OVERFLOW)
    ]
    overflowed = run_engine(txs)
    for zero_policy in ("exclude", "zero"):
        assert compute_de(Tally(math.inf, 1.0, math.inf, 1.0), zero_policy)[1] is False
        pooled = aggregate(overflowed, Level.INVESTOR_POOLED, Framing.WIDE, methods=[Method.VALUE], zero_policy=zero_policy)
        (negative,) = [r for r in pooled if r.context is Context.NEGATIVE]
        assert not negative.defined and math.isnan(negative.de)
    # An overflowing sum would warn, which this suite turns into an error.
    for store in (overflowed, run_engine(sums_overflow)):
        _assert_matches_naive(store)
        for zero_policy in ("exclude", "zero"):
            for framing in Framing:
                for level in Level:
                    records = aggregate(store, level, framing, zero_policy=zero_policy)
                    assert all(math.isfinite(r.de) for r in records if r.defined), (framing, level, zero_policy)


#: Tally components that stress the DE's arithmetic: signed zeros,
#: subnormals, sums that overflow, infinite tallies (inf/inf) and values
#: whose sums round differently in another order.
ADVERSARIAL_COMPONENTS = (
    0.0, -0.0, 5e-324, 1e-310, 0.1, 0.2, 0.3, 1.0, 3.0, 2.0**53, 1e300, 1.5e308, math.inf,
)


def _adversarial_store(rng):
    """A hand-made TallyStore: some tallies all zero (+0.0 or -0.0), the rest drawn from ADVERSARIAL_COMPONENTS."""
    n_investors, n_assets = rng.randint(1, 3), rng.randint(1, 3)
    pairs = [(i, a) for i in range(n_investors) for a in range(n_assets) if rng.random() < 0.8] or [(0, 0)]
    rng.shuffle(pairs)
    investors = sorted({p[0] for p in pairs}, key=[p[0] for p in pairs].index)  # numbered by first appearance
    pairs = [(investors.index(i), a) for i, a in pairs]
    tallies = array("d")
    for _ in range(len(pairs) * 9):  # (context, method) tallies of each pair
        kind = rng.random()
        if kind < 0.35:
            tallies.extend([0.0] * 4)  # a group without it, or a present group whose method is all zero
        elif kind < 0.45:
            tallies.extend(rng.choice((0.0, -0.0)) for _ in range(4))
        else:
            tallies.extend(rng.choice(ADVERSARIAL_COMPONENTS) for _ in range(4))
    return TallyStore(
        investors=[f"inv-{k}" for k in rng.sample(range(10), len(investors))],  # name order is not number order
        assets=[f"A{a}" for a in range(n_assets)],
        pair_investor=[i for i, _ in pairs],
        pair_asset=[a for _, a in pairs],
        tallies=tallies,
    )


def _bitwise(record):
    """A DeRecord's fields with its de as bits, so NaN equals NaN and -0.0 differs from 0.0."""
    return (record.investor_id, record.asset_id, record.context, record.method, struct.pack("<d", record.de), record.defined)


def test_aggregate_is_bit_identical_to_naive_reference_on_adversarial_tallies():
    rng = random.Random(18)
    method_sets = (list(Method), [Method.VALUE], [Method.TOTAL, Method.COUNT], [Method.COUNT, Method.VALUE])
    # Random fractions in every context of four assets: their sums round
    # differently in any other order than the reference's.
    in_order = _store({
        (investor, asset, ctx, method): Tally(*(rng.random() for _ in range(4)))
        for investor in ("I1", "I2") for asset in "ABCD" for ctx in Context for method in Method
    })
    for store in [in_order, *(_adversarial_store(rng) for _ in range(60))]:
        for framing, level, zero_policy, methods in itertools.product(Framing, Level, ("exclude", "zero"), method_sets):
            got = aggregate(store, level, framing, methods=methods, zero_policy=zero_policy)
            want = _naive_aggregate(store, level, framing, methods, zero_policy)
            where = (framing, level, zero_policy, methods, store.to_dict())
            assert [(r.investor_id, r.asset_id, r.context, r.method, r.defined) for r in got] == [
                (inv, asset, ctx, m, defined) for inv, asset, ctx, m, _, defined in want
            ], where
            assert [struct.pack("<d", r.de) for r in got] == [struct.pack("<d", w[4]) for w in want], where
            for method in methods:
                assert [_bitwise(r) for r in got.of_method(method)] == [
                    _bitwise(r) for r in got if r.method is method
                ], where


def test_aggregate_matches_naive_reference_on_random_streams():
    for seed in range(200):
        _assert_matches_naive(
            run_engine(random_stream(seed, max_investors=4, max_assets=5, max_events=80))
        )


def test_aggregate_matches_naive_reference_on_population():
    txs, _ = generate_population(12, BehaviorProfile(0.6, 0.3, n_assets=6, horizon_events=30, seed=5))
    _assert_matches_naive(run_engine(txs))


def _many_pair_store(n_investors=1250, per_investor=8, n_assets=40, seed=0):
    """A TallyStore of 10,000 pairs in shuffled first-appearance order; a tenth of the groups are zero."""
    rng = np.random.default_rng(seed)
    pairs = [(i, int(a)) for i in range(n_investors) for a in rng.choice(n_assets, per_investor, replace=False)]
    pairs = [pairs[k] for k in rng.permutation(len(pairs))]
    tallies = rng.random((len(pairs), 3, 12)) * (rng.random((len(pairs), 3, 1)) < 0.9)
    return TallyStore(
        investors=[f"inv-{k}" for k in rng.permutation(n_investors)],
        assets=[f"A{a:02d}" for a in range(n_assets)],
        pair_investor=[i for i, _ in pairs],
        pair_asset=[a for _, a in pairs],
        tallies=array("d", tallies.tobytes()),
    )


def test_one_method_aggregate_peaks_below_six_tenths_of_the_tallies():
    store = _many_pair_store()
    assert len(store.pair_investor) >= 10_000
    nbytes = store.tallies.itemsize * len(store.tallies)  # 288 bytes a pair
    tracemalloc.start()
    try:
        for framing in Framing:
            for level in Level:
                for method in Method:
                    tracemalloc.reset_peak()
                    baseline = tracemalloc.get_traced_memory()[0]
                    records = aggregate(store, level, framing, methods=[method])
                    peak = tracemalloc.get_traced_memory()[1] - baseline
                    assert len(records) > 0
                    del records
                    assert peak <= 0.6 * nbytes, (framing, level, method, peak / nbytes)
    finally:
        tracemalloc.stop()


def test_encode_rejects_quantity_beyond_int64():
    txs = [
        tx("I1", "A", Side.BUY, 2**63 - 1, 10.0, 0, 0),
        tx("I1", "A", Side.SELL, 2**63, 11.0, 1, 1),
    ]
    with pytest.raises(ValueError) as err:
        run_engine(txs)
    assert str(err.value) == "event 1: quantity 9223372036854775808 exceeds the int64 maximum 9223372036854775807"


@pytest.mark.parametrize("quantity", [-2, 0, -(2**63) - 1])
@pytest.mark.parametrize("side", [Side.BUY, Side.SELL])
def test_engine_rejects_quantity_that_is_not_positive(side, quantity):
    # A BUY of -2 ended in a ZeroDivisionError from the reference price
    # update, and a SELL of 0 in tallies unlike oracle_replay's.
    txs = [tx("I1", "A", Side.BUY, 2, 10.0, 0, 0), tx("I1", "A", side, quantity, 11.0, 1, 1)]
    with pytest.raises(ValueError) as err:
        run_engine(txs)
    assert str(err.value) == f"event 1: quantity {quantity} is not positive"


def _open_slot_stream():
    """I1 opens D, C, B, A (reverse asset_id order), closes and reopens the
    middle position B and flips C from long to short through zero; I2 trades
    the same assets in between and moves their market prices; I3's context
    depends on the order in which its open positions are summed."""
    events = [
        ("I1", "D", Side.BUY, 3, 40.1),
        ("I2", "B", Side.BUY, 2, 19.7),
        ("I1", "C", Side.BUY, 5, 30.3),
        ("I1", "B", Side.BUY, 4, 20.2),
        ("I2", "A", Side.SELL, 1, 10.9),
        ("I1", "A", Side.BUY, 7, 10.1),
        ("I2", "D", Side.BUY, 1, 41.3),
        ("I1", "B", Side.SELL, 4, 21.7),  # closes the middle position
        ("I2", "C", Side.BUY, 3, 29.1),
        ("I1", "D", Side.SELL, 1, 39.9),
        ("I1", "B", Side.BUY, 2, 18.6),  # reopens it between A and C
        ("I2", "B", Side.SELL, 2, 22.4),
        ("I1", "C", Side.SELL, 8, 28.7),  # long 5 -> short 3
        ("I2", "A", Side.BUY, 1, 11.3),
        ("I1", "A", Side.SELL, 3, 11.6),
        ("I1", "C", Side.BUY, 1, 31.9),
        ("I2", "C", Side.SELL, 3, 30.6),
        ("I1", "D", Side.SELL, 2, 42.2),  # closes the first slot
        ("I1", "B", Side.SELL, 1, 17.4),
        # I3's balance at its last event is 0.5 + 1e17 - 1e17: zero (neutral)
        # when summed in asset_id order A, B, C, positive in opening order.
        ("I3", "C", Side.BUY, 10**17, 30.0),
        ("I3", "B", Side.BUY, 10**17, 20.0),
        ("I3", "A", Side.BUY, 1, 10.0),
        ("I2", "B", Side.BUY, 1, 21.0),
        ("I2", "C", Side.BUY, 1, 29.0),
        ("I2", "A", Side.BUY, 1, 10.5),
        ("I3", "D", Side.SELL, 1, 40.0),
    ]
    return [tx(inv, asset, side, qty, price, minute, minute)
            for minute, (inv, asset, side, qty, price) in enumerate(events)]


@pytest.mark.parametrize("scope", ["every-event", "sells-only"])
@pytest.mark.parametrize("rule", ["exclude-traded-asset", "include-traded-asset"])
def test_open_slot_bookkeeping_matches_oracle(scope, rule):
    txs = _open_slot_stream()
    flags = dict(sells_only=scope == "sells-only", include_traded=rule == "include-traded-asset")
    got = run_engine(txs, **flags).to_dict()
    assert got == oracle_replay(txs, **flags)
    assert {Context.POSITIVE, Context.NEGATIVE} <= {ctx for _, _, ctx, _ in got}


def test_encode_rejects_events_out_of_timestamp_seq_order():
    events = _open_slot_stream()[:4]
    with pytest.raises(ValueError, match=r"event 2: \(timestamp, seq\) \(2015-01-05 09:01:00, 1\) is lower than event 1's"):
        run_engine([events[0], events[2], events[1], events[3]])
    same_minute = [tx("I1", "A", Side.BUY, 1, 10.0, 0, 1), tx("I1", "A", Side.SELL, 1, 11.0, 0, 0)]
    with pytest.raises(ValueError, match=r"event 1: \(timestamp, seq\) \(2015-01-05 09:00:00, 0\)"):
        run_engine(same_minute)
    # seq orders only events of the same timestamp, and an equal pair is in order.
    run_engine([tx("I1", "A", Side.BUY, 1, 10.0, 0, 5), tx("I1", "A", Side.SELL, 1, 11.0, 1, 0)])
    run_engine([tx("I1", "A", Side.BUY, 1, 10.0, 0, 0), tx("I1", "A", Side.SELL, 1, 11.0, 0, 0)])


@pytest.mark.parametrize(
    "offsets, message",
    [
        ((None, None), "event 1: (timestamp, seq) (2015-01-05 09:00:00, 1) is lower than "
                       "event 0's (2015-01-05 09:30:00, 0)"),
        # 09:00+01:00 is 08:00 UTC: aware events are ordered by their instant.
        ((0, 1), "event 1: (timestamp, seq) (2015-01-05 09:00:00+01:00, 1) is lower than "
                 "event 0's (2015-01-05 09:30:00+00:00, 0)"),
    ],
    ids=["naive", "aware"],
)
def test_encode_names_the_out_of_order_events_as_datetimes(offsets, message):
    zones = [None if h is None else timezone(timedelta(hours=h)) for h in offsets]
    events = [
        Transaction("I1", "A", Side.BUY, 1, 10.0, datetime(2015, 1, 5, 9, 30, tzinfo=zones[0]), 0),
        Transaction("I1", "A", Side.SELL, 1, 11.0, datetime(2015, 1, 5, 9, 0, tzinfo=zones[1]), 1),
    ]
    with pytest.raises(ValueError) as err:
        run_engine(events)
    assert str(err.value) == message


@pytest.mark.parametrize("price", [0.0, math.nan, math.inf])
def test_encode_rejects_price_that_is_not_positive_and_finite(price):
    txs = _open_slot_stream()[:4] + [
        tx("I1", "Z", Side.BUY, 1, price, 30, 30),
        tx("I1", "A", Side.SELL, 1, 10.0, 31, 31),
    ]
    for sells_only in (False, True):
        with pytest.raises(ValueError, match=f"event 4: price {price} is not a positive finite number"):
            run_engine(txs, sells_only=sells_only)


# Prices and quantities on both sides of encode's checks, the valid ones
# drawn more often, so that whole streams pass as well as fail.
_BAD_PRICES = (math.nan, math.inf, -math.inf, 0.0, -0.0)
_CHECK_PRICES = (10.0, 12.5, 5e-324, 1e-300, 1.5e308) * 8 + _BAD_PRICES
_CHECK_QUANTITIES = (1, 2, INT64_MAX) * 4 + (0, -1)
_checked_events = st.lists(
    st.tuples(
        st.sampled_from(("I1", "I2")), st.sampled_from(("A", "B", "C")), st.sampled_from(tuple(Side)),
        st.sampled_from(_CHECK_QUANTITIES), st.sampled_from(_CHECK_PRICES),
        st.sampled_from((0, 1) * 6 + (-1,)),  # minutes after the previous event: equal instants are common
        st.sampled_from((True,) * 12 + (False,)),  # seq is the event's index, or 0 instead
    ),
    max_size=8,
)


def _checked_stream(events):
    """The Transactions of _checked_events' tuples."""
    minutes = [sum(e[5] for e in events[: i + 1]) + 10 for i in range(len(events))]
    return [tx(inv, asset, side, qty, price, minute, i if keep else 0)
            for i, ((inv, asset, side, qty, price, _, keep), minute) in enumerate(zip(events, minutes))]


def _first_rejected(txs):
    """encode's ValueError text for ``txs``, found one event at a time; None when every event passes."""
    for i in range(1, len(txs)):
        tx, before = txs[i], txs[i - 1]
        if (tx.timestamp, tx.seq) < (before.timestamp, before.seq):
            return (f"event {i}: (timestamp, seq) ({tx.timestamp}, {tx.seq}) is lower than "
                    f"event {i - 1}'s ({before.timestamp}, {before.seq})")
    for i, tx in enumerate(txs):
        if tx.quantity <= 0:
            return f"event {i}: quantity {tx.quantity} is not positive"
    for i, tx in enumerate(txs):
        if not (tx.price > 0.0 and tx.price < math.inf):
            return f"event {i}: price {tx.price} is not a positive finite number"
    return None


# Valid streams whose arithmetic is extreme: prices from 1e-300 and a
# subnormal to 1.5e308, quantities up to INT64_MAX, flips through zero, many
# events at one instant, and pairs whose first appearance is out of
# investor and asset order.
_ADVERSARIAL_PRICES = (1e-300, 5e-324, 1.0, 2.0, 1e300, 1.5e308)
_adversarial_events = st.lists(
    st.tuples(
        st.sampled_from(("I2", "I1", "I0")), st.sampled_from(("C", "B", "A")), st.sampled_from(tuple(Side)),
        st.one_of(st.integers(1, 3), st.sampled_from((2**62, INT64_MAX))), st.sampled_from(_ADVERSARIAL_PRICES),
        st.sampled_from((0, 0, 0, 1)),  # minutes after the previous event
    ),
    max_size=14,
)
# I2 holds C long and B short from 1.0; both trade at 2.0, so when I2
# trades A the other positions' balance is 1.0 - 1.0, exactly 0.0: neutral.
_CANCELLING = [
    ("I2", "C", Side.BUY, 1, 1.0, 0), ("I2", "B", Side.SELL, 1, 1.0, 0), ("I1", "C", Side.BUY, 2, 2.0, 1),
    ("I1", "B", Side.SELL, 3, 2.0, 0), ("I2", "A", Side.BUY, 1, 1.0, 0), ("I2", "C", Side.SELL, 2, 2.0, 1),
]


def _adversarial_stream(events):
    """The Transactions of _adversarial_events' tuples, seq their index."""
    minutes = itertools.accumulate(event[5] for event in events)
    return [tx(*event[:5], minute, i) for i, (event, minute) in enumerate(zip(events, minutes))]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(events=_adversarial_events)
@example(events=_CANCELLING)
def test_engine_equals_oracle_on_adversarial_numerics(events):
    txs = _adversarial_stream(events)
    for sells_only in (False, True):
        for include_traded in (False, True):
            flags = dict(sells_only=sells_only, include_traded=include_traded)
            store = run_engine(txs, **flags)
            got = {key: repr(t) for key, t in store.to_dict().items()}  # repr: NaN equals NaN
            assert got == {key: repr(t) for key, t in oracle_replay(txs, **flags).items()}, flags
            _assert_matches_naive(store)


def _fed_in_chunks(txs, chunk, **flags):
    """run_engine_on_log over ``txs`` written as CSV, the kernel fed ``chunk`` rows per call."""
    text = io.StringIO()
    ingest.serialize_transactions(txs, text)
    text.seek(0)
    with mock.patch.object(_rows, "_ORDER_CHUNK", chunk):
        return run_engine_on_log(text, **flags)


def _assert_chunked_feeds_match(txs):
    """Chunks of 1, 2, 3 and 4,096 rows give the tallies and tables of one whole feed, and the oracle's tallies."""
    for sells_only, include_traded in itertools.product((False, True), repeat=2):
        flags = dict(sells_only=sells_only, include_traded=include_traded)
        whole = run_engine(txs, **flags)
        oracle = {key: repr(t) for key, t in oracle_replay(txs, **flags).items()}  # repr: NaN equals NaN
        tables = whole.investors, whole.assets, list(whole.pair_investor), list(whole.pair_asset)
        for chunk in (1, 2, 3, 4096):
            fed = _fed_in_chunks(txs, chunk, **flags)
            assert (fed.investors, fed.assets, list(fed.pair_investor), list(fed.pair_asset)) == tables
            assert fed.tallies.tobytes() == whole.tallies.tobytes(), (chunk, flags)
            assert {key: repr(t) for key, t in fed.to_dict().items()} == oracle


# I2 opens A, then C, then B, with P&Ls of far apart magnitudes: summed in
# the order of first appearance, I2's context balance has other bits than
# summed in asset order.
_OUT_OF_ASSET_ORDER = [
    ("I2", "A", Side.SELL, 3, 1e300, 1), ("I2", "C", Side.BUY, 1, 2.0, 0), ("I0", "C", Side.SELL, 3, 2.0, 0),
    ("I2", "C", Side.BUY, INT64_MAX, 5e-324, 0), ("I2", "B", Side.BUY, 3, 1e300, 0),
    ("I0", "B", Side.BUY, 2**62, 1e-300, 0), ("I1", "A", Side.BUY, INT64_MAX, 5e-324, 0),
    ("I2", "C", Side.SELL, 2, 1e-300, 0),
]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(events=_adversarial_events)
@example(events=_CANCELLING)
@example(events=_OUT_OF_ASSET_ORDER)
def test_chunked_feeds_equal_one_feed_and_the_oracle_on_adversarial_numerics(events):
    # The asset codes are known only once the whole log is read, so a fed
    # chunk orders each open list by asset_id text.
    _assert_chunked_feeds_match(_adversarial_stream(events))


@pytest.mark.parametrize("seed", range(6))
def test_chunked_feeds_equal_one_feed_and_the_oracle_on_random_streams(seed):
    _assert_chunked_feeds_match(list(random_stream(seed, max_investors=4, max_assets=6, max_events=120)))


def _prefix_replay(transactions, *, sells_only=False, include_traded=False):
    """oracle_replay's definition: at every event, the investor's portfolio and the market prices
    rebuilt by replaying the whole prefix from scratch, then that one event accrued.  Quadratic."""
    transactions = list(transactions)
    tallies = {}
    for i, tx in enumerate(transactions):
        prefix = transactions[: i + 1]
        state = PortfolioState()
        leg = None
        for t in prefix:
            if t.investor_id == tx.investor_id:
                leg = state.apply(t)
        last_price = {t.asset_id: t.price for t in prefix}
        if sells_only and tx.side is Side.BUY:
            continue
        positions = state.open_positions()
        ctx = classify_context(positions, tx.asset_id, last_price, include_traded=include_traded)
        accrue_event(tallies, tx.investor_id, leg, positions, last_price, ctx)
    return tallies


def _assert_oracle_is_the_prefix_replay(txs):
    for sells_only, include_traded in itertools.product((False, True), repeat=2):
        flags = dict(sells_only=sells_only, include_traded=include_traded)
        want = {key: repr(t) for key, t in _prefix_replay(txs, **flags).items()}  # repr: NaN equals NaN
        assert {key: repr(t) for key, t in oracle_replay(txs, **flags).items()} == want, flags


def test_oracle_equals_its_prefix_replay_definition_on_random_streams():
    for seed in range(200):
        _assert_oracle_is_the_prefix_replay(random_stream(seed, max_investors=4, max_assets=5, max_events=80))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(events=_adversarial_events)
@example(events=_CANCELLING)
@example(events=_OUT_OF_ASSET_ORDER)
def test_oracle_equals_its_prefix_replay_definition_on_adversarial_numerics(events):
    _assert_oracle_is_the_prefix_replay(_adversarial_stream(events))


def test_a_log_out_of_order_in_a_later_chunk_is_not_fed():
    txs = _adversarial_stream(_CANCELLING)
    for chunk in (2, 5):  # the disorder inside a chunk, then across two
        assert _fed_in_chunks([*txs[:4], txs[5], txs[4]], chunk) is None  # event 4 is a minute before event 5
    assert _fed_in_chunks(txs, 2).tallies == run_engine(txs).tallies


# The benchmark's three workload shapes at their default seeds (perfbench/run.py's WORKLOADS):
# investors and profile.
_BENCHMARK_SHAPES = {
    "deep": (40, dict(p_realize_gain=0.5, p_realize_loss=0.5, n_assets=20, horizon_events=1400,
                      max_assets_per_investor=6, seed=7)),
    "wide": (2000, dict(p_realize_gain=0.5, p_realize_loss=0.5, n_assets=200, horizon_events=12,
                        max_assets_per_investor=12, p_new_position=1.0, seed=3)),
    "compare": (400, dict(p_realize_gain=0.6, p_realize_loss=0.3, n_assets=40, horizon_events=120,
                          max_assets_per_investor=8, seed=11)),
}


@pytest.mark.parametrize("shape", list(_BENCHMARK_SHAPES))
def test_engine_equals_oracle_on_whole_benchmark_shaped_logs(shape):
    # Every event of the log, streamed in time order and fallen back from
    # its runs of equal timestamp shuffled, as CI shuffles them; compare's
    # log also with one row in 100 broken, as the benchmark feeds it.
    n_investors, profile = _BENCHMARK_SHAPES[shape]
    generated, _ = generate_population(n_investors, BehaviorProfile(**profile))
    want = {key: repr(t) for key, t in oracle_replay(generated).items()}  # repr: NaN equals NaN
    buf = io.StringIO()
    ingest.serialize_transactions(generated, buf)
    header, *rows = buf.getvalue().splitlines(keepends=True)
    logs = [(rows, False)]
    if shape == "compare":
        broken = []
        for i, row in enumerate(rows):
            if i % 99 == 0:
                investor, asset, _, rest = row.split(",", 3)
                broken.append(f"{investor},{asset},X,{rest}")
            broken.append(row)
        logs.append((broken, True))
    for log_rows, lenient in logs:
        streamed = run_engine_on_log(io.StringIO(header + "".join(log_rows)), lenient=lenient)
        assert {key: repr(t) for key, t in streamed.to_dict().items()} == want, lenient
        runs = [list(run) for _, run in itertools.groupby(log_rows, key=lambda row: row.rsplit(",", 1)[1])]
        random.Random(0).shuffle(runs)
        shuffled = header + "".join(itertools.chain(*runs))
        assert run_engine_on_log(io.StringIO(shuffled), lenient=lenient) is None
        fallen_back = run_engine(ingest.parse_transactions(io.StringIO(shuffled), lenient=lenient))
        assert {key: repr(t) for key, t in fallen_back.to_dict().items()} == want, lenient


_OFFSETS = [timezone(timedelta(minutes=m)) for m in (0, 60, -30, 345)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    events=_adversarial_events, seed=st.integers(0, 2**16), chunk=st.sampled_from((1, 2, 3)),
    sells_only=st.booleans(), include_traded=st.booleans(),
)
@example(events=_CANCELLING, seed=0, chunk=2, sells_only=False, include_traded=False)
@example(events=_OUT_OF_ASSET_ORDER, seed=1, chunk=3, sells_only=False, include_traded=True)
def test_cli_compute_streamed_and_fallen_back_writes_the_files_of_run_engine(
    events, seed, chunk, sells_only, include_traded
):
    # Each event's instant is written in one of several UTC offsets, so a run
    # of equal instants mixes texts; chunks of 1-3 rows put such runs across
    # chunk edges.  The log in time order streams; its runs of equal instants
    # shuffled make compute fall back to the whole-log parse and sort.
    rng = random.Random(seed)
    txs = [
        t._replace(timestamp=t.timestamp.replace(tzinfo=timezone.utc).astimezone(rng.choice(_OFFSETS)))
        for t in _adversarial_stream(events)
    ]
    buf = io.StringIO()
    ingest.serialize_transactions(txs, buf)
    header, *rows = buf.getvalue().splitlines(keepends=True)
    runs = [list(run) for _, run in itertools.groupby(zip(txs, rows), key=lambda pair: pair[0].timestamp)]
    rng.shuffle(runs)
    shuffled = [pair for run in runs for pair in run]
    out_of_order = any(a.timestamp > b.timestamp for (a, _), (b, _) in zip(shuffled, shuffled[1:]))
    flags = ["--eval-scope", "sells-only" if sells_only else "every-event",
             "--context-rule", "include-traded-asset" if include_traded else "exclude-traded-asset"]
    streamed = []

    def recorded(*args, **kwargs):
        store = run_engine_on_log(*args, **kwargs)
        streamed.append(store is not None)
        return store

    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(_rows, "_ORDER_CHUNK", chunk), \
            mock.patch.object(metrics, "run_engine_on_log", recorded):
        tmp = Path(tmp)
        args = cli.build_parser().parse_args(["compute", "--transactions", "", "--out", "", *flags])
        args.methods = list(Method)
        store = run_engine(txs, sells_only=sells_only, include_traded=include_traded)
        for framing in Framing:
            cli._write_framing(store, framing, args, tmp)
        want = {path.name: path.read_bytes() for path in tmp.iterdir()}
        for name, log_rows in (("in-order", rows), ("shuffled", [row for _, row in shuffled])):
            (tmp / f"{name}.csv").write_text(header + "".join(log_rows), encoding="utf-8")
            argv = ["compute", "--transactions", str(tmp / f"{name}.csv"), "--out", str(tmp / name),
                    "--framing", "all", *flags]
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0
            assert {path.name: path.read_bytes() for path in (tmp / name).iterdir()} == want, name
    assert len(want) == 18 and streamed == [True, not out_of_order]


def test_streaming_an_ordered_log_peaks_with_its_pairs_not_its_rows(tmp_path):
    # The whole-log parse held every row's columns, about 30 bytes a row:
    # ten times the rows peaked 3.8 times as high (0.44 against 1.70 MB).
    peaks = {}
    for n in (4_000, 40_000):
        path = tmp_path / f"{n}.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(ingest.TRANSACTION_COLUMNS) + "\n")
            for i in range(n):  # 200 pairs, each flipping between long and short
                side = "BS"[i // 200 % 2]
                when = datetime(2015, 1, 5) + timedelta(seconds=i)
                fh.write(f"I{i % 50},A{i // 50 % 4},{side},{1 + i % 3},{10 + i % 7}.5,{when}\n")
        with open(path, encoding="utf-8", newline="") as fh:
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                store = run_engine_on_log(fh)
                peaks[n] = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
        assert len(store.pair_investor) == 200
    assert peaks[40_000] <= 1.2 * peaks[4_000], f"{peaks[40_000] / peaks[4_000]:.2f} times"


def test_streaming_keeps_at_most_540_bytes_a_pair(tmp_path):
    # 20,000 pairs of 2,000 investors, each pair bought, sold and bought
    # again.  Keyed by (investor_id, asset_id) tuples, with a list of boxed
    # reference prices, the pair state peaked at 582 bytes a pair; keyed per
    # investor, with an array('d'), at 516.  The tallies alone are 288.
    n_investors, n_assets = 2_000, 10
    n_pairs = n_investors * n_assets
    path = tmp_path / "log.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(ingest.TRANSACTION_COLUMNS) + "\n")
        for r in range(3 * n_pairs):
            side = "BS"[r // n_pairs % 2]
            when = datetime(2015, 1, 5) + timedelta(seconds=r)
            fh.write(f"I{r % n_investors},A{r // n_investors % n_assets},{side},{1 + r % 3},{10 + r % 7}.5,{when}\n")
    with open(path, encoding="utf-8", newline="") as fh:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            store = run_engine_on_log(fh)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    assert len(store.pair_investor) == n_pairs
    assert peak <= 540 * n_pairs, f"{peak / n_pairs:.0f} bytes a pair"


def test_a_lenient_stream_keeps_no_reject(tmp_path, caplog):
    # The streamed parse kept every reject until the log ended, only to log
    # one warning: 1,052 bad rows peaked at 1.7 times the clean log's peak.
    peaks = {}
    for bad in (False, True):
        path = tmp_path / f"{bad}.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(ingest.TRANSACTION_COLUMNS) + "\n")
            for i in range(20_000):  # 200 pairs, and after every 19th row a bad one: 5% of the log
                when = datetime(2015, 1, 5) + timedelta(seconds=i)
                fh.write(f"I{i % 50},A{i // 50 % 4},{'BS'[i // 200 % 2]},{1 + i % 3},{10 + i % 7}.5,{when}\n")
                if bad and i % 19 == 18:
                    fh.write(f"I{i % 50},A{i // 50 % 4},X,1,10.5,{when}\n")
        caplog.clear()
        with open(path, encoding="utf-8", newline="") as fh:
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                store = run_engine_on_log(fh, lenient=True)
                peaks[bad] = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
        assert len(store.pair_investor) == 200
        messages = [record.getMessage() for record in caplog.records]
        assert messages == (
            ["skipped 1052 malformed row(s), the first at line 21: side must be B or S, got 'X'"] if bad else []
        )
    assert peaks[True] <= 1.05 * peaks[False], f"{peaks[True] / peaks[False]:.2f} times"


def test_a_balance_that_cancels_to_zero_is_neutral():
    txs = _adversarial_stream(_CANCELLING)
    key = ("I2", "C", Context.NEUTRAL, Method.COUNT)
    assert key not in run_engine(txs[:4]).to_dict()
    assert run_engine(txs[:5]).to_dict()[key] == Tally(pg=1.0)  # C's paper gain, at I2's trade of A


@settings(max_examples=300, deadline=None, derandomize=True)
@given(events=_checked_events, seq_is_range=st.booleans(), chunk=st.sampled_from((1, 2, 3, 1 << 16)))
def test_encode_checks_name_the_first_rejected_event(events, seq_is_range, chunk):
    # encode's checks read no chunk size: each chunk size gives the same message.
    listed = _checked_stream(events)
    columns = TransactionColumns.of(listed)
    built = TransactionColumns(
        (columns.pair_investor, columns.pair_asset, columns.investors, columns.assets), columns.pair,
        columns.side, columns.quantity, columns.price, columns.timestamp, range(len(listed)) if seq_is_range else columns.seq,
    )
    with mock.patch.object(_rows, "_ORDER_CHUNK", chunk):
        for txs in (listed, built):
            message = _first_rejected(list(txs))
            if message is None:
                got = {key: repr(t) for key, t in run_engine(txs).to_dict().items()}  # repr: NaN equals NaN
                assert got == {key: repr(t) for key, t in oracle_replay(txs).items()}
            else:
                with pytest.raises(ValueError) as err:
                    run_engine(txs)
                assert str(err.value) == message
