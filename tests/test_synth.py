import hashlib
import io
import random

import numpy as np
import pytest

from dispomet.ingest import TransactionColumns, parse_transactions, serialize_transactions
from dispomet.metrics import Context, Method, run_engine
from dispomet.synth import (
    _PCG64,
    BehaviorProfile,
    InvalidProfile,
    _round4,
    generate_population,
    oracle_replay,
    random_stream,
)


def small_profile(**overrides):
    base = dict(p_realize_gain=0.5, p_realize_loss=0.5, n_assets=4, horizon_events=20, seed=5)
    base.update(overrides)
    return BehaviorProfile(**base)


def test_same_seed_same_output():
    a, _ = generate_population(5, small_profile())
    b, _ = generate_population(5, small_profile())
    assert a == b


def test_different_seed_differs():
    a, _ = generate_population(5, small_profile())
    b, _ = generate_population(5, small_profile(seed=6))
    assert a != b


def test_generated_data_passes_ingest():
    txs, registry = generate_population(5, small_profile())
    assert txs, "generator produced no transactions"
    buf = io.StringIO()
    serialize_transactions(txs, buf)
    parsed = parse_transactions(io.StringIO(buf.getvalue()))
    assert parsed == txs
    assert all(tx.asset_id in registry for tx in txs)
    assert all(registry[a].leverage != 0 for a in registry)


def test_registry_covers_leverage_menu():
    _, registry = generate_population(1, small_profile(n_assets=8))
    assert sorted({inst.leverage for inst in registry.values()}) == [-7, -3, -2, -1, 1, 2, 3, 7]


@pytest.mark.parametrize(
    "overrides",
    [
        {"p_realize_gain": 1.5},
        {"p_realize_loss": -0.1},
        {"n_assets": 0},
        {"horizon_events": 0},
        {"leverages": (0,)},
        {"seed": -1},
        {"leverages": (5e-309, -4e-309)},  # 0.9 / 5e-309, the price walk's bound, overflows
    ],
)
def test_invalid_profiles(overrides):
    with pytest.raises(InvalidProfile):
        generate_population(1, small_profile(**overrides))


def test_oracle_single_gain_matches_metrics_example():
    from datetime import datetime

    from dispomet.ingest import Side, Transaction

    txs = [
        Transaction("I1", "A", Side.BUY, 100, 10.0, datetime(2015, 1, 5, 9, 0), 0),
        Transaction("I1", "A", Side.SELL, 100, 12.0, datetime(2015, 1, 5, 9, 5), 1),
    ]
    tallies = oracle_replay(txs)
    count = tallies[("I1", "A", Context.NEUTRAL, Method.COUNT)]
    total = tallies[("I1", "A", Context.NEUTRAL, Method.TOTAL)]
    value = tallies[("I1", "A", Context.NEUTRAL, Method.VALUE)]
    # The opening buy has zero paper return at its own price, so only the
    # realized gain accrues: RG Count 1, Total 100, Value 0.20.
    assert (count.rg, count.rl, count.pg, count.pl) == (1.0, 0.0, 0.0, 0.0)
    assert (total.rg, total.rl, total.pg, total.pl) == (100.0, 0.0, 0.0, 0.0)
    assert value.rg == pytest.approx(0.20)
    assert (value.rl, value.pg, value.pl) == (0.0, 0.0, 0.0)


def test_oracle_empty_stream():
    assert oracle_replay([]) == {}


def test_oracle_matches_engine_on_random_stream():
    txs = random_stream(42)
    assert run_engine(txs).to_dict() == oracle_replay(txs)


def test_oracle_reads_its_input_once():
    # A generator can be read once: the oracle keeps no copy of its input to read again.
    txs, _ = generate_population(12, small_profile(n_assets=6, horizon_events=40))
    for flags in (dict(), dict(sells_only=True, include_traded=True)):
        read = (tx for tx in txs)
        assert repr(oracle_replay(read, **flags)) == repr(oracle_replay(txs, **flags))
        assert next(read, None) is None


def test_random_stream_deterministic():
    assert random_stream(7) == random_stream(7)


# sha256 of each generated log as serialize_transactions writes it, recorded
# while the generators still built a list of Transactions.  The wide profile
# is tie-heavy: each step's events of 300 investors share 50 second offsets.
POPULATION_SHA256 = [
    (40, dict(p_realize_gain=0.5, p_realize_loss=0.5, n_assets=4, horizon_events=20, seed=5),
     601, "9641d992025cc6357b9092133d738d7deb8eef8f74e580dfaba9adb1df3591dd"),
    (30, dict(p_realize_gain=0.6, p_realize_loss=0.3, n_assets=40, horizon_events=120,
              max_assets_per_investor=8, seed=11),
     2880, "4ed18c1e8c4930d5b7102678e4137735540198d747ec8b2aa4ab7c1c95a6bdd3"),
    (300, dict(p_realize_gain=0.5, p_realize_loss=0.5, n_assets=200, horizon_events=12,
               max_assets_per_investor=12, p_new_position=1.0, seed=3),
     6429, "353a95c3edde0fec3ed5defa978dd7a988307a9f72490094cba8b32e7d823f26"),
    (3, dict(p_realize_gain=0.9, p_realize_loss=0.1, n_assets=20, horizon_events=400,
             max_assets_per_investor=6, seed=7),
     893, "24133311e02efc1c8bfa5a7414e5cf33bcede0e25d0790e4ae43a21c7213decc"),
]
STREAM_SHA256 = [
    (0, {}, 29, "d3cfd5e656fce71c5f50a872447c22523758cd921283f53a234484f2b708eeb6"),
    (1, {}, 41, "41c612984aecafe46c20132a9488da9b25138eb7b6eddcb20dafb1db93651690"),
    (7, {}, 19, "3f550ad4b4470cad5cd9324b29edfc9994665c992f08031a101abf8e787dc48a"),
    (42, {}, 19, "18ff5f5081470825a04a668383ae339e33e91c6fd9c36a7088f426056567cd96"),
    (23, dict(max_investors=12, max_assets=6, max_events=200), 151,
     "31369071c0dcd32533b25dedda1590c5f4461c4af52bdf6667bc8aa2c3aca185"),
]


def _checked_sha256(txs):
    """The sha256 of the serialized log, after checking its columns and round trip."""
    assert isinstance(txs, TransactionColumns) and txs.seq == range(len(txs))
    assert [c.typecode for c in (txs.side, txs.quantity, txs.price, txs.timestamp)] == ["b", "q", "d", "q"]
    assert txs.tz is None
    buf = io.StringIO()
    serialize_transactions(txs, buf)
    assert parse_transactions(io.StringIO(buf.getvalue())) == txs  # seq included
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("n_investors, profile, n_events, sha256", POPULATION_SHA256)
def test_generated_population_is_the_known_log(n_investors, profile, n_events, sha256):
    txs, _ = generate_population(n_investors, BehaviorProfile(**profile))
    assert len(txs) == n_events
    assert _checked_sha256(txs) == sha256


@pytest.mark.parametrize("seed, sizes, n_events, sha256", STREAM_SHA256)
def test_random_stream_is_the_known_log(seed, sizes, n_events, sha256):
    txs = random_stream(seed, **sizes)
    assert len(txs) == n_events
    assert _checked_sha256(txs) == sha256


# numpy is the oracle for the stdlib PCG64: the generators drew from
# numpy.random.Generator(PCG64(SeedSequence([seed, key]))) when the logs
# above were recorded.
_SPANS = (1, 2, 3, 50, 2**32 - 1, 2**32, 2**32 + 1, 2**40 + 7, 2**63 - 1)


def _mixed_call(plan):
    """One random draw call of synth's: (method, args), choice meaning choice(*args, replace=False)."""
    kind = plan.randrange(6)
    if kind == 0:
        return "random", ()
    if kind == 1:
        return "uniform", (plan.uniform(-100.0, 0.0), plan.uniform(0.0, 100.0))
    if kind == 2:  # several draws of one sized call
        return "uniform", (-0.05, 0.05, plan.randrange(5))
    if kind == 3:
        span = plan.choice(_SPANS + (plan.randrange(1, 2**32), plan.randrange(1, 2**63)))
        low = plan.choice((0, -3, -(2**62))) if span < 2**62 else 0
        return "integers", (low, low + span)
    if kind == 4:  # Floyd's algorithm, then a shuffle
        n = plan.randrange(1, 300)
        return "choice", (n, plan.randrange(n + 1))
    # Over 10,000 items: Floyd's algorithm up to n // 50 chosen, a tail shuffle above.
    n = plan.randrange(10_001, 10_200)
    return "choice", (n, n if plan.random() < 0.02 else n // 50 + plan.randrange(-5, 20))


def _bits(value):
    """``value`` with each float as its exact hex text."""
    if isinstance(value, list):
        return [_bits(v) for v in value]
    return value.hex() if isinstance(value, float) else value


def test_pcg64_draws_what_numpy_draws_bit_for_bit():
    plan = random.Random(20150105)
    keys = [0, 1, 0xFFFFFFFF, 2**32, 2**64 - 1, 2**64, 2**64 + 1, 2**100 + 12345]
    keys += [plan.getrandbits(plan.choice((16, 48, 80, 160))) for _ in range(60)]
    for seed in (0, 7, 2**70 + 3):
        for key in keys:
            ours = _PCG64(seed, key)
            theirs = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, key])))
            for _ in range(40):
                method, args = _mixed_call(plan)
                if method == "uniform" and len(args) == 3:
                    got = [ours.uniform(*args[:2]) for _ in range(args[2])]
                else:
                    got = getattr(ours, method)(*args)
                expected = getattr(theirs, method)(*args, **({"replace": False} if method == "choice" else {}))
                assert _bits(got) == _bits(np.asarray(expected).tolist()), (seed, key, method, args)


def test_round4_rounds_half_way_prices_as_numpy_does():
    # Ties to even on the price times 10**4, whether or not that product is exactly half way.
    halves = [(k + 0.5) / 10000.0 for k in range(20_000)] + [k + 0.00005 for k in range(1, 2000)]
    ours = _round4(halves)
    assert _bits(ours) == _bits(np.round(np.array(halves), 4).tolist())
    assert ours != [round(x, 4) for x in halves]  # round(x, 4) rounds some of them the other way
