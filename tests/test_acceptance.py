"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines and timings.
"""
import itertools
import math
import resource
import time
from datetime import datetime, timedelta
from fractions import Fraction
from statistics import median

import numpy as np
import pytest

from dispomet.ingest import Side, Transaction
from dispomet.metrics import (
    Context,
    Framing,
    Level,
    Method,
    Tally,
    aggregate,
    run_engine,
)
from dispomet.stats import (
    STAR_LEGEND,
    TestResult,
    exact_cdf,
    format_cell,
    mann_whitney,
    render_table,
    stars_for,
)
from dispomet.synth import (
    BehaviorProfile,
    PortfolioState,
    compute_de,
    generate_population,
    oracle_replay,
    random_stream,
)
from dispomet import cli


def _report(name, detail=""):
    print(f"PASS {name}" + (f" ({detail})" if detail else ""))


def _tally_tuple(t):
    return (t.rg, t.rl, t.pg, t.pl)


def _dicts_equal(d1, d2):
    if d1.keys() != d2.keys():
        return False
    return all(_tally_tuple(d1[k]) == _tally_tuple(d2[k]) for k in d1)


def test_criterion_1_bounds_and_formula():
    """10,000 randomized tallies stay in [-1, 1]; hand-formula examples exact."""
    rng = np.random.default_rng(1)
    comps = rng.uniform(0.0, 1000.0, size=(10_000, 4))
    comps[rng.random(size=(10_000, 4)) < 0.1] = 0.0  # exercise the zero-denominator edge
    for rg, rl, pg, pl in comps:
        de, defined = compute_de(Tally(rg=rg, rl=rl, pg=pg, pl=pl))
        if defined:
            assert -1.0 <= de <= 1.0
        else:
            assert rg + pg == 0.0 or rl + pl == 0.0
    assert compute_de(Tally(rg=1, pg=1, rl=0, pl=1)) == (0.5, True)
    assert compute_de(Tally(rg=1, pg=0, rl=0, pl=1)) == (1.0, True)
    assert compute_de(Tally(rg=0, pg=1, rl=1, pl=0)) == (-1.0, True)
    assert compute_de(Tally(rg=5, pg=5, rl=3, pl=9)) == (0.25, True)
    de, defined = compute_de(Tally(rg=2))
    assert not defined and math.isnan(de)
    _report("criterion 1: bounds & formula")


def test_criterion_2_oracle_equivalence():
    """1,000 random streams: streaming tallies equal brute-force replay exactly."""
    start = time.perf_counter()
    for seed in range(1000):
        txs = random_stream(seed, max_investors=3, max_assets=4, max_events=50)
        assert _dicts_equal(run_engine(txs).to_dict(), oracle_replay(txs)), f"seed {seed}"
    # Non-default engine options agree with the oracle too.
    for seed in range(50):
        txs = random_stream(seed)
        for sells_only, include_traded in ((True, False), (False, True)):
            got = run_engine(txs, sells_only=sells_only, include_traded=include_traded).to_dict()
            want = oracle_replay(txs, sells_only=sells_only, include_traded=include_traded)
            assert _dicts_equal(got, want), f"seed {seed} sells_only={sells_only} include_traded={include_traded}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"oracle equivalence took {elapsed:.1f}s"
    _report("criterion 2: oracle equivalence", f"{elapsed:.1f}s")


def _single_asset_stream_without_zero_returns(seed):
    txs = random_stream(seed, max_investors=1, max_assets=1, max_events=50)
    state = PortfolioState()
    for tx in txs:
        pre = state.position(tx.asset_id)
        leg = state.apply(tx)
        if leg is not None and leg.execution_price == leg.reference_price:
            return None
        post = state.position(tx.asset_id)
        if post is not None and post.reference_price == tx.price and pre is not None:
            return None  # paper return of the remainder would be exactly zero
    return txs


def _swap_sides(txs):
    return [
        Transaction(
            t.investor_id,
            t.asset_id,
            Side.SELL if t.side is Side.BUY else Side.BUY,
            t.quantity,
            t.price,
            t.timestamp,
            t.seq,
        )
        for t in txs
    ]


def _scale_prices(txs, k):
    return [
        Transaction(t.investor_id, t.asset_id, t.side, t.quantity, t.price * k, t.timestamp, t.seq)
        for t in txs
    ]


def test_criterion_3_antisymmetry_and_scale_invariance():
    streams = []
    seed = 0
    while len(streams) < 200:
        txs = _single_asset_stream_without_zero_returns(seed)
        seed += 1
        if txs:
            streams.append(txs)
    for txs in streams:
        base_store = run_engine(txs)
        swapped_store = run_engine(_swap_sides(txs))
        base = base_store.to_dict()
        swapped = swapped_store.to_dict()
        assert base.keys() == swapped.keys()
        for key, t in base.items():
            s = swapped[key]
            assert (s.rg, s.rl, s.pg, s.pl) == (t.rl, t.rg, t.pl, t.pg), key
        for a, b in zip(
            aggregate(base_store, Level.PER_ASSET, Framing.NARROW),
            aggregate(swapped_store, Level.PER_ASSET, Framing.NARROW),
        ):
            assert a.defined == b.defined
            if a.defined:
                assert b.de == -a.de  # exact negation
    # Uniform price scaling leaves tallies and context labels unchanged.
    for seed in range(30):
        txs = random_stream(seed)
        base = run_engine(txs).to_dict()
        for k in (0.5, 3.0, 100.0):
            scaled = run_engine(_scale_prices(txs, k)).to_dict()
            assert base.keys() == scaled.keys()  # same (investor, asset, context) labels
            for key, t in base.items():
                s = scaled[key]
                if key[3] in (Method.COUNT, Method.TOTAL):
                    assert _tally_tuple(s) == _tally_tuple(t), (key, k)
                else:
                    assert np.allclose(_tally_tuple(s), _tally_tuple(t), rtol=1e-12, atol=0.0)
    _report("criterion 3: antisymmetry & scale invariance")


def _unit_quantity_stream(seed):
    """Random stream where every quantity is 1 and positions never exceed 1 unit."""
    rng = np.random.default_rng(seed)
    n_inv = int(rng.integers(1, 4))
    n_assets = int(rng.integers(1, 5))
    open_state = {}
    prices = rng.uniform(10.0, 50.0, size=n_assets)
    txs = []
    for e in range(int(rng.integers(2, 50))):
        inv = int(rng.integers(n_inv))
        a = int(rng.integers(n_assets))
        prices[a] *= 1.0 + float(rng.uniform(-0.04, 0.04))
        side = Side.SELL if open_state.get((inv, a)) else Side.BUY
        open_state[(inv, a)] = side is Side.BUY
        txs.append(
            Transaction(
                f"I{inv}", f"A{a}", side, 1, round(float(prices[a]), 4),
                datetime(2015, 1, 5, 9, 0) + timedelta(minutes=e), e,
            )
        )
    return txs


def test_criterion_4_count_total_degeneracy():
    for seed in range(200):
        store = run_engine(_unit_quantity_stream(seed))
        count = store.array[:, :, 0:4]
        total = store.array[:, :, 4:8]
        assert np.array_equal(count, total), f"seed {seed}"
    _report("criterion 4: count/total degeneracy")


def _median_narrow_count(transactions):
    store = run_engine(transactions)
    records = aggregate(store, Level.INVESTOR_POOLED, Framing.NARROW, methods=[Method.COUNT])
    return [r.de for r in records if r.defined]


def test_criterion_5_measurement_recovery():
    start = time.perf_counter()
    biased, _ = generate_population(
        500, BehaviorProfile(p_realize_gain=0.6, p_realize_loss=0.3, seed=11)
    )
    symmetric, _ = generate_population(
        500, BehaviorProfile(p_realize_gain=0.45, p_realize_loss=0.45, seed=12)
    )
    biased_values = _median_narrow_count(biased)
    symmetric_values = _median_narrow_count(symmetric)
    biased_median = median(biased_values)
    symmetric_median = median(symmetric_values)
    assert biased_median > 0.0, f"biased median {biased_median}"
    assert abs(symmetric_median) < 0.02, f"symmetric median {symmetric_median}"
    result = mann_whitney(biased_values, symmetric_values)
    assert result.p_value < 0.01, f"p = {result.p_value}"
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(
        "criterion 5: measurement recovery",
        f"medians {biased_median:.3f} vs {symmetric_median:.3f}, p={result.p_value:.2e}, {elapsed:.1f}s",
    )


def _full_enumeration_cdf(u, n1, n2):
    n = n1 + n2
    total = at_most = 0
    for ranks in itertools.combinations(range(1, n + 1), n1):
        u1 = n1 * n2 + n1 * (n1 + 1) / 2 - sum(ranks)
        total += 1
        if u1 <= u:
            at_most += 1
    return Fraction(at_most, total)


def test_criterion_6_exact_u_test():
    # Exact distribution equals full enumeration for all sizes up to 8x8.
    for n1 in range(1, 9):
        for n2 in range(1, 9):
            for u in range(n1 * n2 + 1):
                assert exact_cdf(u, n1, n2) == _full_enumeration_cdf(u, n1, n2), (n1, n2, u)
    result = mann_whitney([1, 2, 3, 4], [5, 6, 7, 8])
    assert result.p_value == pytest.approx(float(Fraction(2, 70)))
    # Normal approximation within 0.01 of a 100,000-draw permutation estimate.
    rng = np.random.default_rng(6)
    x = rng.normal(0.0, 1.0, size=30)
    y = rng.normal(0.4, 1.0, size=30)
    approx = mann_whitney(list(x), list(y))
    assert approx.mode == "normal"
    combined = np.concatenate([x, y])
    ranks = np.argsort(np.argsort(combined)) + 1.0  # tie-free by construction
    mu = 30 * 30 / 2.0
    observed = abs(approx.u_statistic - mu)
    draws = 100_000
    perm = np.empty(draws)
    for i in range(draws):
        rng.shuffle(ranks)
        u1 = 900 + 30 * 31 / 2.0 - ranks[:30].sum()
        perm[i] = abs(u1 - mu)
    p_perm = float(np.mean(perm >= observed))
    assert abs(approx.p_value - p_perm) < 0.01, (approx.p_value, p_perm)
    _report("criterion 6: exact U-test", f"normal {approx.p_value:.4f} vs permutation {p_perm:.4f}")


def test_criterion_7_throughput():
    profile = BehaviorProfile(
        p_realize_gain=0.5,
        p_realize_loss=0.5,
        n_assets=20,
        horizon_events=1400,
        seed=7,
        max_assets_per_investor=6,
    )
    transactions, _ = generate_population(1000, profile)
    assert len(transactions) >= 1_000_000, f"only generated {len(transactions)}"
    transactions = transactions[:1_000_000]
    run_engine(transactions[:1000])  # warm up imports and caches before timing

    def timed(txs):
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            store = run_engine(txs)
            aggregate(store, Level.PER_ASSET, Framing.INTEGRATED)
            best = min(best, time.perf_counter() - t0)
        return best

    t_small = timed(transactions[:100_000])
    t_full = timed(transactions)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    assert t_full < 60.0, f"1M events took {t_full:.1f}s"
    assert peak_mb < 1024.0, f"peak RSS {peak_mb:.0f} MB"
    ratio = t_full / t_small
    assert ratio <= 12.0, f"scaling ratio {ratio:.1f}"
    _report(
        "criterion 7: throughput",
        f"1M events in {t_full:.2f}s, 100k in {t_small:.2f}s (ratio {ratio:.1f}), peak {peak_mb:.0f} MB",
    )


def test_criterion_8_report_fidelity():
    strong = TestResult(-0.075, 0.1, -0.175, 12.0, 0.004, stars_for(0.004), "normal")
    weak = TestResult(0.129, 0.15, -0.021, 44.0, 0.35, stars_for(0.35), "normal")
    assert format_cell(strong, 3) == "-0.175***"
    assert format_cell(weak, 3) == "-0.021"
    assert STAR_LEGEND == "* p<0.1, ** p<0.05, *** p<0.01"
    table = render_table(
        [("Negative Portfolio", [("-1x = -7x", [strong, strong, strong])])],
        ["Count", "Total", "Value"],
        row_header="Short ETF",
    )
    assert "-0.175***" in table
    assert table.splitlines()[-1] == "* p<0.1, ** p<0.05, *** p<0.01"
    _report("criterion 8: report fidelity")


def test_criterion_9_end_to_end_determinism(tmp_path):
    data = tmp_path / "data"
    assert cli.main(
        ["synth", "--out", str(data), "--investors", "50", "--seed", "42",
         "--pg", "0.55", "--pl", "0.35", "--assets", "8", "--horizon", "60"]
    ) == 0
    outputs = []
    for run in ("1", "2"):
        out = tmp_path / f"out{run}"
        assert cli.main(
            ["compute", "--transactions", str(data / "transactions.csv"),
             "--out", str(out), "--framing", "all"]
        ) == 0
        outputs.append(sorted(out.iterdir()))
    names1 = [p.name for p in outputs[0]]
    names2 = [p.name for p in outputs[1]]
    assert names1 == names2 and names1
    for p1, p2 in zip(*outputs):
        assert p1.read_bytes() == p2.read_bytes(), p1.name
    _report("criterion 9: end-to-end determinism", f"{len(names1)} files byte-identical")
