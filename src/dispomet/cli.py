"""Command-line surface: validate | compute | compare | synth | report.

Outputs are deterministic delimited text; identical inputs and flags give
byte-identical files.
"""
from __future__ import annotations

import argparse
import csv
import gc
import os
import sys
from itertools import count, repeat
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, Sequence, TextIO

from . import metrics
from ._rows import DuplicateAsset, EmptyDataset, IngestError, MalformedRow, SchemaError, ZeroLeverage
from .metrics import RECORD_CONTEXTS, RECORD_METHODS, DeRecords, Framing, Level, Method

if TYPE_CHECKING:
    from .ingest import Instrument, TransactionColumns

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_SCHEMA = 2
EXIT_MALFORMED = 3
EXIT_EMPTY_GROUP = 4
EXIT_IO = 5

#: Largest --decimals.  A median difference lies in [-2, 2], where 17
#: places already exceed a double's precision; far larger values fail in
#: format() or build strings of gigabytes.
MAX_DECIMALS = 17

_FRAMING_LEVEL_DEFAULTS = {
    Framing.NARROW: Level.PER_ASSET,
    Framing.WIDE: Level.INVESTOR_POOLED,
    Framing.INTEGRATED: Level.PER_ASSET,
}


class UsageError(Exception):
    """A flag value the parser's own checks cannot reject."""


class EmptyGroup(Exception):
    """A comparison sample that selects no defined values."""

    def __init__(self, label: str) -> None:
        self.label = label
        super().__init__(f"group filter {label!r} selected no defined values")


class _ArgumentParser(argparse.ArgumentParser):
    """Exits with EXIT_ERROR on a usage error; argparse's own 2 is EXIT_SCHEMA here."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _diag(message: str) -> None:
    print(f"dispomet: error: {message}", file=sys.stderr)


def _parse_methods(text: str) -> list[Method]:
    """The --method list, each of count,total,value at most once."""
    names = text.split(",")
    known = [m.value for m in Method]
    for name in names:
        if name not in known:
            raise UsageError(f"--method: unknown method {name!r}, choose from {','.join(known)}")
        if names.count(name) > 1:
            raise UsageError(f"--method: {name!r} is given more than once")
    return [Method(name) for name in names]


def _open_input(path: str) -> TextIO:
    """An input file as the parsers read it: UTF-8 text, a leading byte-order mark dropped, newlines untranslated."""
    return open(path, "r", encoding="utf-8-sig", newline="")


# ingest is loaded by the functions that read a whole log or a registry, not
# with this module: a streamed compute runs on _rows alone.


def _load_transactions(path: str, lenient: bool = False) -> tuple[TransactionColumns, list[MalformedRow]]:
    from . import ingest

    with _open_input(path) as fh:
        return ingest.parse_transactions_report(fh, lenient=lenient)


def _load_registry(path: str) -> dict[str, Instrument]:
    from . import ingest

    with _open_input(path) as fh:
        return ingest.parse_instruments(fh)


# The context and method fields of a record, each followed by its
# delimiter, at index context * len(RECORD_METHODS) + method; merged
# contexts read "all".
_LABEL_TEXT = [f"{'all' if c is None else c.value},{m.value}," for c in RECORD_CONTEXTS for m in RECORD_METHODS]

#: Rows per write call of _write_records, so no file's whole text is held at once.
_WRITE_CHUNK = 4096


def _field_texts(values: Sequence[str]) -> list[str]:
    """Each value as csv.writer writes it in a row, followed by the delimiter.

    Every value is its own row, so one holding a delimiter, a quote or a
    newline is quoted exactly as in a whole records row.  The empty second
    field keeps csv.writer from quoting a lone empty value.
    """
    rows: list[str] = []
    csv.writer(SimpleNamespace(write=rows.append), lineterminator="\n").writerows(zip(values, repeat("")))
    return [row[:-1] for row in rows]


def _write_records(records: DeRecords, stream: TextIO, investor_text: list[str], asset_text: list[str]) -> None:
    """Write records as CSV rows, _WRITE_CHUNK rows per write call.

    A row joins the _field_texts of its ``records.investor_ids`` and
    ``records.asset_ids`` entries, its context and method text and the text
    of its ``de``, made for each row: few values repeat, so a cache of them
    would save little.  A NaN ``de`` (an undefined record) is an empty
    field.  This is the one place ``de`` is formatted, as
    repr(np.float64(de)) reads, which no CSV reader parses; repr(de) waits
    for a change that also re-records the known-answer hashes in
    perfbench/expected.json.
    """
    stream.write("investor_id,asset_id,context,method,de,defined\n")
    n_methods = len(RECORD_METHODS)
    for start in range(0, len(records), _WRITE_CHUNK):
        part = slice(start, start + _WRITE_CHUNK)
        rows = []
        for inv, asset, ctx, method, de in zip(
            records.investor[part], records.asset[part], records.context[part], records.method[part], records.de[part]
        ):
            text = f"np.float64({de!r}),true\n" if de == de else ",false\n"
            rows.append(f"{investor_text[inv]}{asset_text[asset]}{_LABEL_TEXT[ctx * n_methods + method]}{text}")
        stream.write("".join(rows))


def _write_histogram(bins: Sequence[tuple[float, int]], stream: TextIO) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(("bin_edge", "count"))
    writer.writerows((repr(edge), n) for edge, n in bins)


def _engine_flags(args: argparse.Namespace) -> dict[str, bool]:
    """The --eval-scope and --context-rule flags as run_engine's booleans."""
    return {
        "sells_only": args.eval_scope == "sells-only",
        "include_traded": args.context_rule == "include-traded-asset",
    }


def _log_tallies(args: argparse.Namespace) -> metrics.TallyStore:
    """The tallies of the --transactions log, fed a chunk of rows at a time while it is in time order.

    At its first row out of order the file is read again, parsed whole and
    sorted, as a file that cannot be read twice, such as a pipe, is at once.
    """
    with _open_input(args.transactions) as fh:
        if fh.seekable():
            store = metrics.run_engine_on_log(fh, lenient=args.lenient, **_engine_flags(args))
            if store is not None:
                return store
            fh.seek(0)
        from . import ingest

        transactions = ingest.parse_transactions_report(fh, lenient=args.lenient)[0]
    return metrics.run_engine(transactions, **_engine_flags(args))


def _print_summary(transactions: TransactionColumns) -> None:
    from . import ingest

    rows = ingest.summarize(transactions).rows()
    width = max(len(label) for label, _ in rows)
    for label, value in rows:
        print(f"{label.ljust(width)}  {value}")


def cmd_validate(args: argparse.Namespace) -> int:
    transactions, rejects = _load_transactions(args.transactions, lenient=args.lenient)
    if args.registry:
        _load_registry(args.registry)
    print(f"{len(transactions)} rows accepted, {len(rejects)} rejected")
    if rejects:
        print(f"{len(rejects)} row{'s' if len(rejects) != 1 else ''} skipped")
        for err in rejects:
            print(f"  {err}")
    if transactions:
        _print_summary(transactions)
    return EXIT_OK


def _write_framing(store: metrics.TallyStore, framing: Framing, args: argparse.Namespace, out_dir: Path) -> int:
    """Write one framing's records_* and hist_* files; returns its record count.

    The framing is aggregated once, for every method, and each method's
    records_* and hist_* files are written from its share of the records,
    which is dropped before the next method's is taken.
    """
    level = Level(args.level) if args.level else _FRAMING_LEVEL_DEFAULTS[framing]
    records = metrics.aggregate(store, level, framing, methods=args.methods, zero_policy=args.zero_denominator)
    id_texts = _field_texts(records.investor_ids), _field_texts(records.asset_ids)
    for method in args.methods:
        own = records.of_method(method)
        with open(out_dir / f"records_{framing.value}_{method.value}.csv", "w", encoding="utf-8") as fh:
            _write_records(own, fh, *id_texts)
        bins = metrics.histogram(own.de, args.bins)  # NaN, an undefined record, is not counted
        with open(out_dir / f"hist_{framing.value}_{method.value}.csv", "w", encoding="utf-8") as fh:
            _write_histogram(bins, fh)
        del own, bins  # before the next method's are taken
    return len(records)


def cmd_compute(args: argparse.Namespace) -> int:
    store = _log_tallies(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    framings = list(Framing) if args.framing == "all" else [Framing(args.framing)]
    n_records = sum(_write_framing(store, framing, args, out_dir) for framing in framings)
    print(f"wrote {n_records} records to {out_dir}")
    return EXIT_OK


#: Each --spec's framing, row header and plan: the stats function that builds its sections from the registry's
#: sorted leverages, named here so that the parser's choices load no stats.
_COMPARE_SPECS = {
    "volatility-long": (Framing.INTEGRATED, "Long ETF", "volatility_long_sections"),
    "volatility-short": (Framing.INTEGRATED, "Short ETF", "volatility_short_sections"),
    "long-vs-inverse": (Framing.NARROW, "ETF", "long_vs_inverse_sections"),
    "context-split": (Framing.INTEGRATED, "", "context_split_sections"),
}


def cmd_compare(args: argparse.Namespace) -> int:
    from . import stats

    transactions = _load_transactions(args.transactions, lenient=args.lenient)[0]
    registry = _load_registry(args.registry)
    framing, row_header, plan = _COMPARE_SPECS[args.spec]
    store = metrics.run_engine(transactions, **_engine_flags(args))
    del transactions
    methods = args.methods
    records = metrics.aggregate(store, Level.PER_ASSET, framing, methods=methods, zero_policy=args.zero_denominator)
    # The defined values of each (method, leverage, context) code group, in
    # record order; an asset the registry lacks is in no sample.
    asset_leverage = [registry[a].leverage if a in registry else None for a in records.asset_ids]
    defined_values: dict[tuple[int, float | None, int], list[float]] = {}
    for asset, ctx, method, de in zip(records.asset, records.context, records.method, records.de):
        if de == de:  # not NaN: a defined record
            defined_values.setdefault((method, asset_leverage[asset], ctx), []).append(de)

    sections = []
    for title, rows in getattr(stats, plan)(sorted({inst.leverage for inst in registry.values()})):
        tested = []
        for label, samples in rows:
            results = []
            for method in map(RECORD_METHODS.index, methods):
                pair = []
                for leverage, context, group in samples:
                    values = defined_values.get((method, leverage, RECORD_CONTEXTS.index(context)))
                    if values is None:
                        raise EmptyGroup(group)
                    pair.append(values)
                results.append(stats.mann_whitney(*pair))
            tested.append((label, results))
        sections.append((title, tested))
    table = stats.render_table(
        sections, [m.value.capitalize() for m in methods], row_header=row_header, decimals=args.decimals
    )
    if args.out:
        path = Path(args.out) / f"compare_{args.spec}.txt"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(table + "\n", encoding="utf-8")
        print(f"wrote comparison table to {path}")
    else:
        print(table)
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    from . import ingest, synth

    try:
        leverages = tuple(float(l) for l in args.leverages.split(","))
    except ValueError:
        raise UsageError(f"--leverages: expected comma-separated numbers, got {args.leverages!r}") from None
    profile = synth.BehaviorProfile(
        p_realize_gain=args.pg,
        p_realize_loss=args.pl,
        n_assets=args.assets,
        leverages=leverages,
        horizon_events=args.horizon,
        seed=args.seed,
    )
    transactions, registry = synth.generate_population(args.investors, profile)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "transactions.csv", "w", encoding="utf-8") as fh:
        ingest.serialize_transactions(transactions, fh)
    with open(out_dir / "instruments.csv", "w", encoding="utf-8") as fh:
        ingest.serialize_instruments(registry, fh)
    print(f"wrote {len(transactions)} transactions for {args.investors} investors to {out_dir}")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    transactions = _load_transactions(args.transactions, lenient=args.lenient)[0]
    if not transactions:
        raise EmptyDataset("no transactions")
    print("Descriptive Summary of Investors")
    _print_summary(transactions)
    print()
    store = metrics.run_engine(transactions, **_engine_flags(args))
    del transactions
    records = metrics.aggregate(
        store,
        Level.INVESTOR_POOLED,
        Framing.NARROW,
        methods=[Method.COUNT],
        zero_policy=args.zero_denominator,
    )
    bins = metrics.histogram(records.de, args.bins)  # NaN, an undefined record, is not counted
    print("Histogram of the investor-level disposition effect (method Count)")
    peak = max((c for _, c in bins), default=0)
    places = next(d for d in count(2) if round(args.bins, d) == args.bins)  # as many as the width needs, at least 2
    for i, (edge, n) in enumerate(bins, 1):
        bar = "#" * (0 if peak == 0 else round(40 * n / peak))
        end = f"{edge + args.bins:+.{places}f})" if i < len(bins) else f"{1:+.{places}f}]"  # histogram closes it at 1
        print(f"[{edge:+.{places}f}, {end}  {str(n).rjust(6)}  {bar}")
    return EXIT_OK


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--eval-scope", choices=("every-event", "sells-only"), default="every-event")
    parser.add_argument(
        "--context-rule",
        choices=("exclude-traded-asset", "include-traded-asset"),
        default="exclude-traded-asset",
    )
    parser.add_argument("--zero-denominator", choices=("exclude", "zero"), default="exclude")
    parser.add_argument("--lenient", action="store_true", help="skip malformed rows instead of aborting")


def _add_method_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--method", default="count,total,value", help="comma-separated subset of count,total,value")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="dispomet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse inputs and print a descriptive summary")
    p.add_argument("--transactions", required=True)
    p.add_argument("--registry")
    p.add_argument("--lenient", action="store_true")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("compute", help="write disposition-effect records and histograms")
    p.add_argument("--transactions", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--framing", choices=("narrow", "wide", "integrated", "all"), default="integrated")
    p.add_argument("--level", choices=tuple(l.value for l in Level), default=None)
    p.add_argument("--bins", type=float, default=0.1, help="histogram bin width")
    _add_engine_flags(p)
    _add_method_flag(p)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("compare", help="emit Mann-Whitney comparison tables")
    p.add_argument("--transactions", required=True)
    p.add_argument("--registry", required=True)
    p.add_argument("--spec", choices=tuple(_COMPARE_SPECS), required=True)
    p.add_argument("--out")
    p.add_argument("--decimals", type=int, default=3)
    _add_engine_flags(p)
    _add_method_flag(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("synth", help="generate a synthetic transaction dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--investors", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pg", type=float, default=0.5, help="probability of realizing a winner per evaluation")
    p.add_argument("--pl", type=float, default=0.5, help="probability of realizing a loser per evaluation")
    p.add_argument("--assets", type=int, default=8)
    p.add_argument("--horizon", type=int, default=60)
    p.add_argument("--leverages", default="1,2,3,7,-1,-2,-3,-7")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("report", help="print summary and histogram for a transaction log")
    p.add_argument("--transactions", required=True)
    p.add_argument("--bins", type=float, default=0.1)
    _add_engine_flags(p)
    p.set_defaults(func=cmd_report)

    return parser


def _exit_codes() -> dict[type[Exception], int]:
    """Exit code per error type; an error takes the code of the nearest class in its MRO.

    synth's InvalidProfile is mapped only when synth, which alone raises it,
    is loaded: importing it here would compile synth, and load dataclasses,
    in every failed run.
    """
    codes = {
        SchemaError: EXIT_SCHEMA,
        MalformedRow: EXIT_MALFORMED,
        DuplicateAsset: EXIT_MALFORMED,
        ZeroLeverage: EXIT_MALFORMED,
        EmptyGroup: EXIT_EMPTY_GROUP,
        OSError: EXIT_IO,
        UnicodeEncodeError: EXIT_IO,  # stdout's encoding cannot take a character
        IngestError: EXIT_ERROR,
        metrics.InvalidBinWidth: EXIT_ERROR,
        UsageError: EXIT_ERROR,
        MemoryError: EXIT_ERROR,
    }
    synth = sys.modules.get("dispomet.synth")
    if synth is not None:
        codes[synth.InvalidProfile] = EXIT_ERROR
    return codes


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "method" in args:
            args.methods = _parse_methods(args.method)
        if "bins" in args:
            metrics.bin_count(args.bins)  # rejects a bad width before any input is read
        if "decimals" in args and args.decimals < 0:
            raise UsageError(f"--decimals must be >= 0, got {args.decimals}")
        if "decimals" in args and args.decimals > MAX_DECIMALS:
            raise UsageError(f"--decimals must be <= {MAX_DECIMALS}, got {args.decimals}")
        code = args.func(args)
        if sys.stdout is not None:  # None when the process started without a stdout
            sys.stdout.flush()  # a write that fails here is an I/O error, not one at exit
        return code
    except Exception as err:
        codes = _exit_codes()
        code = next((codes[cls] for cls in type(err).__mro__ if cls in codes), None)
        if code is None:
            raise
        name = "IOError" if isinstance(err, OSError) else type(err).__name__
        message = str(err)
        if not message and isinstance(err, MemoryError):
            message = "out of memory"  # a failed allocation raises MemoryError without text
        _diag(f"{name}: {message}")
        return code


def run() -> None:
    """The ``dispomet`` console script and ``python -m dispomet.cli``: main() in its own process.

    The modules are loaded by now and their objects live until exit, so
    gc.freeze() leaves them out of every later collection, the ones at
    interpreter shutdown included.  The few that are garbage (functions and
    classes an import built and dropped) are frozen too, rather than paid
    for with a full collection.  What main() loads later (stats, or synth and
    dataclasses) is frozen once more before exit.  Text that stdout could not take,
    argparse's help included, is one I/O error; it goes to the null
    device, so the exit flush cannot fail again.
    """
    gc.freeze()
    try:
        code = main()
    except SystemExit as stop:  # argparse's help and usage errors
        code = stop.code
    if sys.stdout is not None:
        try:
            sys.stdout.flush()
        except OSError as err:
            if code != EXIT_IO:  # not yet reported by main
                _diag(f"IOError: {err}")
                code = EXIT_IO
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
