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
is imported from its module (``dispomet.synth.oracle_replay``, ...).
"""

from .ingest import parse_transactions, serialize_transactions
from .metrics import Framing, Level, Method, aggregate, run_engine
from .stats import mann_whitney
from .synth import BehaviorProfile, generate_population, random_stream

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
