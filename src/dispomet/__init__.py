"""Disposition-effect analytics for intraday transaction logs.

Pipeline: parse transaction logs (ingest), stream the events once through a
kernel that keeps each investor's positions and accrues realized/paper
gains and losses under the Count, Total, and Value methods into a dense
tally array, valuing open positions at the last trade price of each asset
pooled over all investors (metrics and its streaming kernel), aggregate
that array into disposition-effect records across narrow, wide, and
integrated framing (metrics), and compare groups with Mann-Whitney tests
(stats).  A seeded synthetic-trader generator, together with the
object-at-a-time reference semantics and the oracle that applies them to
each event once (synth), provides ground truth for validation.

The names below are the library surface the README uses; everything else
is imported from its module (``dispomet.synth.oracle_replay``, ...).  The
ingest, synth and stats names resolve on first use, so ``import dispomet``
loads only metrics, _kernel and _rows (the row parser); each of the other
three loads when a caller first reads one of its names.  Every module is
plain Python, synth's seeded draws included: nothing loads numpy.
"""
import importlib

from .metrics import Framing, Level, Method, aggregate, run_engine

#: Exported names imported from their module on first access.
_LAZY = {
    "parse_transactions": "ingest",
    "serialize_transactions": "ingest",
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
