"""Run ``dispomet.cli.main`` in-process with a span around each layer call.

    python3 perfbench/tracer.py SPANS_JSON CLI_ARG...

The pipeline reaches every layer through a module or class attribute, so the
spans are installed from outside by replacing those attributes; no program
file is edited.  A span records its name, start, end, parent span, the
process's peak RSS at start and end, and counts taken from the call's
arguments and result.  Spans stay in memory and are written to SPANS_JSON
when the CLI returns.  The exit code is the CLI's.
"""
from __future__ import annotations

import functools
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dispomet import _kernel, cli, ingest, metrics, stats  # noqa: E402


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, name: str, counts=None) -> None:
        """Replace ``owner.attr`` by a function that records a span per call."""
        fn = getattr(owner, attr, None)
        if fn is None:  # the layer no longer exists; its metrics read 0
            return

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else -1,
                    "rss_start": _maxrss_kb(), "start": time.perf_counter()}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["rss_end"] = _maxrss_kb()
                self._stack.pop()
            if counts is not None:
                span["counts"] = counts(args, result)
            return result

        setattr(owner, attr, traced)


def _parse_counts(args, result):
    accepted, rejects = result
    return {"rows_accepted": len(accepted), "rows_rejected": len(rejects)}


def _encode_counts(args, enc):
    return {"events": len(args[0]), "pairs": len(enc.pair_investor),
            "investors": len(enc.investors), "assets": len(enc.assets)}


def _aggregate_counts(args, records):
    return {"records_out": len(records), "records_defined": sum(r.defined for r in records)}


def install(tracer: Tracer) -> None:
    tracer.wrap(ingest, "parse_transactions_report", "ingest.parse_transactions_report",
                _parse_counts)
    tracer.wrap(metrics, "run_engine", "metrics.run_engine")
    tracer.wrap(_kernel, "encode", "_kernel.encode", _encode_counts)
    tracer.wrap(_kernel, "stream", "_kernel.stream")
    tracer.wrap(metrics.TallyStore, "to_dict", "metrics.TallyStore.to_dict",
                lambda args, d: {"tallies_nonzero": len(d)})
    tracer.wrap(metrics, "aggregate", "metrics.aggregate", _aggregate_counts)
    tracer.wrap(metrics, "histogram", "metrics.histogram")
    tracer.wrap(stats, "mann_whitney", "stats.mann_whitney",
                lambda args, r: {"sample_n": max(len(args[0]), len(args[1]))})
    tracer.wrap(stats, "render_table", "stats.render_table")
    tracer.wrap(cli, "main", "cli.main")


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    try:
        return cli.main(argv)
    finally:
        Path(spans_path).write_text(json.dumps({"spans": tracer.spans}))


if __name__ == "__main__":
    sys.exit(main())
