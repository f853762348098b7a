"""Disposition-effect analytics for intraday transaction logs.

Pipeline: parse transaction logs (ingest), stream the events once through a
kernel that keeps each investor's positions and accrues realized/paper
gains and losses under the Count, Total, and Value methods into a dense
tally array, valuing open positions at the last trade price of each asset
pooled over all investors (metrics and its streaming kernel), aggregate
that array into disposition-effect records across narrow, wide, and
integrated framing (metrics), and compare groups with Mann-Whitney tests
(stats).  A seeded synthetic-trader generator, together with the
object-at-a-time reference semantics and their brute-force replay oracle
(synth), provides ground truth for validation.

The names below are the library surface the README uses; everything else
is imported from its module (``dispomet.synth.oracle_replay``, ...).  The
synth and stats names resolve on first use, so ``import dispomet`` loads
neither module until a caller asks for one of them.  Every module is
plain Python, synth's seeded draws included: nothing loads numpy.
"""
import importlib

from .ingest import parse_transactions, serialize_transactions
from .metrics import Framing, Level, Method, aggregate, run_engine

#: Exported names imported from their module on first access.
_LAZY = {
    "BehaviorProfile": "synth",
    "generate_population": "synth",
    "random_stream": "synth",
    "mann_whitney": "stats",
}

__version__ = "0.1.0"

__all__ = [
    "BehaviorProfile",
    "Framing",
    "Level",
    "Method",
    "aggregate",
    "generate_population",
    "mann_whitney",
    "parse_transactions",
    "random_stream",
    "run_engine",
    "serialize_transactions",
]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value  # later lookups find it without this hook
    return value
