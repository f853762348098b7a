"""Disposition-effect analytics for intraday transaction logs.

Pipeline: parse transaction logs (ingest), reconstruct per-investor
portfolios event by event (ledger), accrue realized/paper gains and losses
under the Count, Total, and Value methods into a dense tally array, valuing
open positions at the last trade price of each asset pooled over all
investors (metrics and its streaming kernel), aggregate that array into
disposition-effect records across narrow, wide, and integrated framing
(metrics), and compare groups with Mann-Whitney tests (stats).  A seeded
synthetic-trader generator with a brute-force replay oracle (synth)
provides ground truth for validation.
"""

from .ingest import (
    DatasetSummary,
    Instrument,
    Side,
    Transaction,
    parse_instruments,
    parse_transactions,
    summarize,
)
from .ledger import Direction, PortfolioState, Position, RealizationLeg
from .metrics import (
    Context,
    DeRecord,
    EngineOptions,
    Framing,
    Level,
    Method,
    Tally,
    TallyStore,
    aggregate,
    classify_context,
    compute_de,
    histogram,
    run_engine,
    signed_return,
)
from .stats import TestResult, compare_groups, format_cell, mann_whitney
from .synth import BehaviorProfile, generate_population, oracle_replay, random_stream

__version__ = "0.1.0"

__all__ = [
    "BehaviorProfile",
    "Context",
    "DatasetSummary",
    "DeRecord",
    "Direction",
    "EngineOptions",
    "Framing",
    "Instrument",
    "Level",
    "Method",
    "PortfolioState",
    "Position",
    "RealizationLeg",
    "Side",
    "Tally",
    "TallyStore",
    "TestResult",
    "Transaction",
    "aggregate",
    "classify_context",
    "compare_groups",
    "compute_de",
    "format_cell",
    "generate_population",
    "histogram",
    "mann_whitney",
    "oracle_replay",
    "parse_instruments",
    "parse_transactions",
    "random_stream",
    "run_engine",
    "signed_return",
    "summarize",
]
