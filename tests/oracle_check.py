"""Check the engine against the oracle on whole logs, at any size: engine = oracle, tally for tally.

    PYTHONPATH=src python tests/oracle_check.py LOG [LOG ...]

Each log is parsed whole and sorted, and ``run_engine(...).to_dict()`` must
equal ``synth.oracle_replay`` over the same rows.  A log in time order is
also streamed through ``run_engine_on_log``, which must give the same
tallies.  Tallies are compared by ``repr``, so NaN equals NaN.  For each log
it prints the rows, the tally keys, each side's seconds and the peak RSS of
the process so far.  Exits 1 at the first log that differs, naming the first
key that differs, and 0 when every log agrees.

pytest does not collect this file (its name is not ``test_*.py``): at the
paper's 8,970,617 rows the oracle alone takes over a minute.
"""
import resource
import sys
import time

from dispomet import ingest, metrics, synth


def _reprs(tallies: dict) -> dict:
    return {key: repr(t) for key, t in tallies.items()}


def _first_difference(got: dict, want: dict):
    """The first key, in ``got``'s order and then ``want``'s, whose tally differs or is missing on one side."""
    return next(key for key in [*got, *want] if got.get(key) != want.get(key))


def _timed(call, *args):
    start = time.perf_counter()
    result = call(*args)
    return result, time.perf_counter() - start


def check(path: str) -> bool:
    with open(path, encoding="utf-8", newline="") as fh:
        streamed, stream_s = _timed(metrics.run_engine_on_log, fh)
    if streamed is not None:
        streamed = _reprs(streamed.to_dict())
    with open(path, encoding="utf-8", newline="") as fh:
        transactions, parse_s = _timed(ingest.parse_transactions, fh)
    store, engine_s = _timed(metrics.run_engine, transactions)
    engine = _reprs(store.to_dict())
    del store
    oracle, oracle_s = _timed(synth.oracle_replay, transactions)
    oracle = _reprs(oracle)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    stream_text = f"streamed {stream_s:.2f} s" if streamed is not None else "not in time order, not streamed"
    print(f"{path}: {len(transactions)} rows, {len(oracle)} tally keys; {stream_text}, parse {parse_s:.2f} s, "
          f"engine {engine_s:.2f} s, oracle {oracle_s:.2f} s; peak RSS {peak_mb:.1f} MB")
    for name, got in (("run_engine", engine), ("run_engine_on_log", streamed)):
        if got is not None and got != oracle:
            key = _first_difference(got, oracle)
            print(f"{path}: {name} differs from oracle_replay at {key}: {got.get(key)} against {oracle.get(key)}")
            return False
    return True


def main(paths: list[str]) -> int:
    if not paths:
        print("usage: python tests/oracle_check.py LOG [LOG ...]", file=sys.stderr)
        return 2
    return 0 if all(check(path) for path in paths) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
