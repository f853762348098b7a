"""Benchmark for the dispomet CLI on seeded synthetic trade logs.

    python3 perfbench/run.py --workload deep|wide|compare|all \
        --seed N --seconds S --trace 0|1

Each workload is generated from ``--seed`` with ``dispomet.synth`` and written
to CSV; the CLI (``python -m dispomet.cli``) then runs on it in a fresh process,
one invocation at a time (a closed loop with a single client, default flags),
for ``--seconds`` seconds.  With ``--trace 0`` the last line of standard output
is a JSON object carrying the end-to-end metrics; with ``--trace 1`` it carries
the per-layer metrics from ``tracer.py``, which runs ``cli.main`` in-process
with spans around the pipeline's layer calls.  ``--workload all`` runs every
workload and ends with one JSON object keyed by workload name.

Before timing, every run regenerates the default-seed input and checks it
against ``expected.json``, so a change to the generator cannot silently change
the workload.  Output correctness is checked by:

* a known-answer run of the CLI on the default-seed input, whose output bytes
  must match ``expected.json``;
* an in-process parse of the run's own input, which must accept exactly the
  generated transactions and reject exactly the rows the benchmark injected;
* exact tally equality between ``run_engine`` and ``synth.oracle_replay`` on a
  short prefix of the run's stream;
* every timed invocation exiting 0 with output bytes identical to an untimed
  warm-up invocation on the same input.

``wall_s`` is the mean wall time of the run's invocations, ``events_per_s``
the accepted rows divided by it, and ``peak_rss_mb`` and ``setup_s`` are
medians.  On a shared machine whose speed drifts in phases of tens of seconds,
the mean of a run varies less from run to run than its median, because it
weighs the slow share of the run linearly instead of flipping with it.

``python3 perfbench/run.py --record`` rewrites ``expected.json`` from the
current code; do that only for a deliberate change of generator or outputs.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import logging
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
EXPECTED_FILE = BENCH_DIR / "expected.json"
TRACER = BENCH_DIR / "tracer.py"
LAUNCHER = BENCH_DIR / "launcher.py"

DEFAULT_SEED = 0
MIN_SAMPLES = 3
ORACLE_PREFIX = 400  # oracle_replay is quadratic; 400 events take well under a second
INVOCATION_TIMEOUT_S = 60.0
MB = 1024.0  # ru_maxrss is in KiB on Linux


@dataclass(frozen=True)
class Workload:
    name: str
    investors: int  # sized so one CLI invocation takes 1.5-3 s on 2 cores
    toy_investors: int
    profile: dict
    command: tuple[str, ...]
    reject_share: float = 0.0


# Shapes: `deep` has few pairs and long histories, so parse and the kernel do
# the work; `wide` has many pairs and short histories, so tally conversion,
# aggregation and CSV writes dominate; `compare` runs the Mann-Whitney path on
# a lenient parse with injected bad rows.  The profile seed is the workload's
# base seed plus --seed, so seed 0 gives the shapes' reference populations.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="deep",
            investors=40,
            toy_investors=2,
            profile=dict(
                p_realize_gain=0.5, p_realize_loss=0.5, n_assets=20,
                horizon_events=1400, max_assets_per_investor=6, seed=7,
            ),
            command=("compute", "--framing", "all"),
        ),
        Workload(
            name="wide",
            investors=2000,
            toy_investors=50,
            profile=dict(
                p_realize_gain=0.5, p_realize_loss=0.5, n_assets=200,
                horizon_events=12, max_assets_per_investor=12,
                p_new_position=1.0, seed=3,
            ),
            command=("compute", "--framing", "all"),
        ),
        Workload(
            name="compare",
            investors=400,
            toy_investors=40,
            profile=dict(
                p_realize_gain=0.6, p_realize_loss=0.3, n_assets=40,
                horizon_events=120, max_assets_per_investor=8, seed=11,
            ),
            command=("compare", "--lenient", "--spec", "volatility-long"),
            reject_share=0.01,
        ),
    )
}

# One bad row per documented reject reason of ingest.parse_transactions_report,
# each made from a valid row (investor_id, asset_id, side, quantity, price,
# timestamp) by breaking one field.
_BREAKERS = (
    lambda f: f[:5],  # wrong number of fields
    lambda f: [f[0], f[1], "X", *f[3:]],  # side must be B or S
    lambda f: [*f[:3], "1.5", *f[4:]],  # quantity not a whole number
    lambda f: [*f[:3], "0", *f[4:]],  # quantity not positive
    lambda f: [*f[:4], "n/a", f[5]],  # unparseable price
    lambda f: [*f[:4], "-1.0", f[5]],  # price not positive
    lambda f: [*f[:5], "not-a-time"],  # unparseable timestamp
    lambda f: ["", *f[1:]],  # empty investor_id
)

SETUP_PROBE = """
import time
t0 = time.perf_counter()
import dispomet
t1 = time.perf_counter()
stream = dispomet.random_stream(1)
t2 = time.perf_counter()
dispomet.run_engine(stream)
t3 = time.perf_counter()
print(repr((t1 - t0) + (t3 - t2)))
"""


class BenchError(Exception):
    """The benchmark cannot run here; nothing is timed."""


def _require_source() -> None:
    if not (SRC / "dispomet" / "__init__.py").is_file():
        raise BenchError(f"no dispomet source under {SRC}; run from a checkout of the repository")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

@dataclass
class Input:
    transactions: list  # the accepted rows, as dispomet Transactions
    tx_path: Path
    registry_path: Path
    fingerprint: dict[str, str]
    rows_in: int
    injected: int
    generate_s: float


def _inject(rows: list[str], count: int, seed: int, name: str) -> list[str]:
    """Insert ``count`` malformed rows at seeded positions, cycling reasons."""
    import numpy as np

    tag = int.from_bytes(name.encode(), "little")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, tag])))
    at = set(rng.choice(len(rows), size=count, replace=False).tolist())
    out: list[str] = []
    k = 0
    for i, row in enumerate(rows):
        if i in at:
            out.append(",".join(_BREAKERS[k % len(_BREAKERS)](row.rstrip("\n").split(","))) + "\n")
            k += 1
        out.append(row)
    return out


def make_input(wl: Workload, seed: int, toy: bool, workdir: Path) -> Input:
    from dispomet import ingest, synth

    n = wl.toy_investors if toy else wl.investors
    profile = synth.BehaviorProfile(**{**wl.profile, "seed": wl.profile["seed"] + seed})
    t0 = time.perf_counter()
    transactions, registry = synth.generate_population(n, profile)
    generate_s = time.perf_counter() - t0
    buf = io.StringIO()
    ingest.serialize_transactions(transactions, buf)
    header, *rows = buf.getvalue().splitlines(keepends=True)
    injected = round(len(rows) * wl.reject_share)
    text = header + "".join(_inject(rows, injected, seed, wl.name))
    reg = io.StringIO()
    ingest.serialize_instruments(registry, reg)
    workdir.mkdir(parents=True, exist_ok=True)
    tx_bytes, reg_bytes = text.encode(), reg.getvalue().encode()
    tx_path, registry_path = workdir / "transactions.csv", workdir / "instruments.csv"
    tx_path.write_bytes(tx_bytes)
    registry_path.write_bytes(reg_bytes)
    return Input(
        transactions=transactions,
        tx_path=tx_path,
        registry_path=registry_path,
        fingerprint={"transactions.csv": _sha256(tx_bytes), "instruments.csv": _sha256(reg_bytes)},
        rows_in=len(rows) + injected,
        injected=injected,
        generate_s=generate_s,
    )


def cli_argv(wl: Workload, inp: Input, out_dir: Path) -> list[str]:
    argv = [*wl.command, "--transactions", str(inp.tx_path)]
    if wl.command[0] == "compare":
        return argv + ["--registry", str(inp.registry_path)]
    return argv + ["--out", str(out_dir)]


# ---------------------------------------------------------------------------
# Running the CLI
# ---------------------------------------------------------------------------

@dataclass
class Invocation:
    wall_s: float
    peak_rss_mb: float
    returncode: int
    outputs: dict[str, str]  # output name -> sha256
    bytes_written: int


class Launcher:
    """Client of launcher.py, which starts, times and reaps each child."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.out_dir = workdir / "out"
        self._proc = subprocess.Popen(
            [sys.executable, str(LAUNCHER)], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=INVOCATION_TIMEOUT_S)

    def run(self, cmd: list[str]) -> Invocation:
        """Run one child to completion; outputs are hashed from out_dir or stdout."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        stdout_path = self.workdir / "stdout.txt"
        request = {
            "cmd": cmd, "cwd": str(self.workdir), "env": _child_env(),
            "stdout": str(stdout_path), "stderr": str(self.workdir / "stderr.txt"),
            "timeout": INVOCATION_TIMEOUT_S,
        }
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise BenchError("launcher.py exited unexpectedly")
        reply = json.loads(line)
        outputs: dict[str, str] = {}
        written = 0
        # compute writes files to out_dir; compare prints its table.
        paths = sorted(self.out_dir.iterdir()) if self.out_dir.is_dir() else [stdout_path]
        for path in paths:
            data = path.read_bytes()
            outputs["stdout" if path == stdout_path else path.name] = _sha256(data)
            written += len(data)
        return Invocation(
            reply["wall_s"], reply["maxrss_kb"] / MB, reply["returncode"], outputs, written
        )

    def cli(self, argv: list[str]) -> Invocation:
        return self.run([sys.executable, "-m", "dispomet.cli", *argv])

    def traced(self, argv: list[str]) -> tuple[Invocation, list[dict]]:
        spans_path = self.workdir / "spans.json"
        spans_path.unlink(missing_ok=True)
        inv = self.run([sys.executable, str(TRACER), str(spans_path), *argv])
        spans = json.loads(spans_path.read_text())["spans"] if spans_path.is_file() else []
        return inv, spans


def measure_setup(workdir: Path) -> float:
    """Import plus first run_engine on a tiny stream, in a fresh process."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE], env=_child_env(), cwd=workdir,
        capture_output=True, text=True, timeout=INVOCATION_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise BenchError(f"setup probe failed:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def load_expected() -> dict:
    if not EXPECTED_FILE.is_file():
        raise BenchError(f"missing {EXPECTED_FILE.name}; create it with --record")
    return json.loads(EXPECTED_FILE.read_text())


def check_parse(inp: Input) -> list[str]:
    """Parse the input in-process: accepted rows and reject count must be exact."""
    from dispomet import ingest

    logging.disable(logging.WARNING)  # lenient parse logs one warning per reject
    try:
        with open(inp.tx_path, encoding="utf-8", newline="") as fh:
            accepted, rejects = ingest.parse_transactions_report(fh, lenient=inp.injected > 0)
    finally:
        logging.disable(logging.NOTSET)
    problems = []
    if len(rejects) != inp.injected:
        problems.append(f"parse rejected {len(rejects)} rows, {inp.injected} were injected")
    if accepted != inp.transactions:
        problems.append("parsed transactions differ from the generated ones")
    return problems


def check_oracle(inp: Input) -> list[str]:
    from dispomet import run_engine, synth

    prefix = inp.transactions[:ORACLE_PREFIX]
    if run_engine(prefix).to_dict() != synth.oracle_replay(prefix):
        return [f"run_engine and oracle_replay disagree on the first {len(prefix)} events"]
    return []


def open_share(transactions) -> float:
    """Mean over events of open positions / pair slots of the trading investor.

    A pair slot is an asset the investor trades anywhere in the stream; the
    kernel visits every slot at every evaluated event (all events here).
    """
    slots = Counter()
    seen = set()
    for tx in transactions:
        key = (tx.investor_id, tx.asset_id)
        if key not in seen:
            seen.add(key)
            slots[tx.investor_id] += 1
    qty: dict[tuple[str, str], int] = {}
    open_now = Counter()
    total = 0.0
    for tx in transactions:
        key = (tx.investor_id, tx.asset_id)
        old = qty.get(key, 0)
        new = old + (tx.quantity if tx.side.value == "B" else -tx.quantity)
        qty[key] = new
        open_now[tx.investor_id] += (new != 0) - (old != 0)
        total += open_now[tx.investor_id] / slots[tx.investor_id]
    return total / len(transactions) if transactions else 0.0


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------

LAYER_TIME = {
    "ingest.parse_s": ("ingest.parse_transactions_report",),
    "kernel.encode_s": ("_kernel.encode",),
    "kernel.stream_s": ("_kernel.stream",),
    "metrics.run_engine_s": ("metrics.run_engine",),
    "metrics.to_dict_s": ("metrics.TallyStore.to_dict",),
    "metrics.aggregate_s": ("metrics.aggregate",),
    "metrics.histogram_s": ("metrics.histogram",),
    "stats.mann_whitney_s": ("stats.mann_whitney",),
    "stats.render_table_s": ("stats.render_table",),
    "cli.self_s": ("cli.main",),
}
METRICS_SPANS = (
    "metrics.run_engine", "metrics.TallyStore.to_dict", "metrics.aggregate", "metrics.histogram",
)


def layer_metrics(spans: list[dict], inv: Invocation, rows_in: int) -> dict[str, float]:
    """Self time and self peak-RSS growth per layer, plus boundary counts."""
    child_s = [0.0] * len(spans)
    child_rss = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_s[s["parent"]] += s["end"] - s["start"]
            child_rss[s["parent"]] += s["rss_end"] - s["rss_start"]
    self_s: Counter = Counter()
    self_rss: Counter = Counter()
    calls: Counter = Counter()
    counts: Counter = Counter()
    sample_n_max = 0
    for i, s in enumerate(spans):
        name = s["name"]
        self_s[name] += s["end"] - s["start"] - child_s[i]
        self_rss[name] += (s["rss_end"] - s["rss_start"] - child_rss[i]) / MB
        calls[name] += 1
        c = s.get("counts", {})
        sample_n_max = max(sample_n_max, c.pop("sample_n", 0))
        counts.update(c)
    out = {metric: sum(self_s[n] for n in names) for metric, names in LAYER_TIME.items()}
    accepted = counts["rows_accepted"]
    events = counts["events"]
    out.update({
        "ingest.rows_in": rows_in,
        "ingest.rows_accepted": accepted,
        "ingest.rows_rejected": counts["rows_rejected"],
        "ingest.accept_ratio": accepted / rows_in if rows_in else 0.0,
        "ingest.rss_growth_mb": self_rss["ingest.parse_transactions_report"],
        "kernel.events": events,
        "kernel.pairs": counts["pairs"],
        "kernel.investors": counts["investors"],
        "kernel.assets": counts["assets"],
        "metrics.aggregate_calls": calls["metrics.aggregate"],
        "metrics.tallies_nonzero": counts["tallies_nonzero"],
        "metrics.records_out": counts["records_out"],
        "metrics.records_defined": counts["records_defined"],
        "metrics.rss_growth_mb": sum(self_rss[n] for n in METRICS_SPANS),
        "stats.mann_whitney_calls": calls["stats.mann_whitney"],
        "stats.sample_n_max": sample_n_max,
        "cli.bytes_written": inv.bytes_written,
        "workload.records_per_event": counts["records_out"] / events if events else 0.0,
    })
    return out


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def _median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def _timed_loop(seconds: float, step) -> list:
    results = []
    deadline = time.perf_counter() + seconds
    while len(results) < MIN_SAMPLES or time.perf_counter() < deadline:
        results.append(step())
    return results


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, toy: bool = False) -> dict:
    """Check, then time one workload; returns the result object."""
    size = "toy" if toy else "full"
    expected = load_expected()[wl.name][size]
    workdir = WORK_ROOT / f"{wl.name}-{size}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    launcher = Launcher(workdir)
    problems: list[str] = []
    try:
        known = make_input(wl, DEFAULT_SEED, toy, workdir / "known")
        if known.fingerprint != expected["input"]:
            raise BenchError(
                f"{wl.name}: synth output for seed {DEFAULT_SEED} differs from expected.json; "
                "the workload has changed, refusing to time it"
            )
        ka = launcher.cli(cli_argv(wl, known, launcher.out_dir))
        if ka.returncode != 0 or ka.outputs != expected["outputs"]:
            problems.append(f"known-answer run on seed {DEFAULT_SEED}: exit {ka.returncode}, "
                            f"outputs {'match' if ka.outputs == expected['outputs'] else 'differ'}")
        inp = known if seed == DEFAULT_SEED else make_input(wl, seed, toy, workdir / "input")
        problems += check_parse(inp)
        problems += check_oracle(inp)
        argv = cli_argv(wl, inp, launcher.out_dir)
        reference = launcher.cli(argv)  # warm-up; its outputs are the reference
        if reference.returncode != 0:
            problems.append(f"warm-up run exited {reference.returncode}")
        if trace:
            # Alternate untraced and traced invocations so both see the same
            # machine conditions; their difference is the tracing overhead.
            pairs = _timed_loop(seconds, lambda: (launcher.cli(argv), launcher.traced(argv)))
            untraced = [plain for plain, _ in pairs]
            traced = [t for _, t in pairs]
            runs = untraced + [inv for inv, _ in traced]
            per_run = [layer_metrics(spans, inv, inp.rows_in) for inv, spans in traced]
            metrics = _median_metrics(per_run)
            metrics.update({
                "kernel.open_share": open_share(inp.transactions),
                "synth.generate_s": inp.generate_s,
                "synth.events": len(inp.transactions),
                "workload.reject_share": inp.injected / inp.rows_in,
                "trace.overhead_s": statistics.fmean(inv.wall_s for inv, _ in traced)
                - statistics.fmean(inv.wall_s for inv in untraced),
            })
            if any(m["ingest.rows_rejected"] != inp.injected for m in per_run):
                problems.append("traced run: rows_rejected differs from the injected count")
        else:
            # A set-up probe follows each invocation, so both sample the whole run.
            pairs = _timed_loop(seconds, lambda: (launcher.cli(argv), measure_setup(workdir)))
            runs = [inv for inv, _ in pairs]
            wall = statistics.fmean(inv.wall_s for inv in runs)
            metrics = {
                "wall_s": wall,
                "events_per_s": len(inp.transactions) / wall,
                "peak_rss_mb": statistics.median(inv.peak_rss_mb for inv in runs),
                "setup_s": statistics.median(setup for _, setup in pairs),
            }
    finally:
        launcher.close()
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(inv.returncode != 0 or inv.outputs != reference.outputs for inv in runs)
    for p in problems:
        print(f"CHECK FAILED [{wl.name}]: {p}")
    walls = sorted(inv.wall_s for inv in runs)
    print(f"[{wl.name}] seed {seed}: {len(runs)} invocations, wall min {walls[0]:.4f} s, "
          f"median {statistics.median(walls):.4f} s, mean {statistics.fmean(walls):.4f} s, "
          f"max {walls[-1]:.4f} s; {len(inp.transactions)} events accepted, "
          f"{inp.injected} rows injected; failed_frac {failed / len(runs):.4f} ratio")
    units = metric_units()
    for name, value in metrics.items():
        print(f"[{wl.name}] {name} = {value:.6g} {units[name]}")
    return {
        "correct": not problems and failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def metric_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


# ---------------------------------------------------------------------------
# Environment and entry point
# ---------------------------------------------------------------------------

def environment(seed: int) -> dict:
    import numpy

    from dispomet import _kernel

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "kernel_backend": "numba" if _kernel.njit is not None else "python",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
        "commit": commit,
    }


def record_expected() -> None:
    """Write expected.json: default-seed input and output hashes per workload."""
    table = {}
    for wl in WORKLOADS.values():
        table[wl.name] = {}
        for size, toy in (("full", False), ("toy", True)):
            workdir = WORK_ROOT / f"record-{wl.name}-{size}-{os.getpid()}"
            workdir.mkdir(parents=True, exist_ok=True)
            launcher = Launcher(workdir)
            try:
                inp = make_input(wl, DEFAULT_SEED, toy, workdir)
                inv = launcher.cli(cli_argv(wl, inp, launcher.out_dir))
                if inv.returncode != 0:
                    raise BenchError(f"{wl.name} ({size}) exited {inv.returncode}")
                table[wl.name][size] = {"input": inp.fingerprint, "outputs": inv.outputs}
            finally:
                launcher.close()
                shutil.rmtree(workdir, ignore_errors=True)
    EXPECTED_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED_FILE}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite expected.json and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        _require_source()
        if args.record:
            record_expected()
            return 0
        metric_units()  # fail early when BENCHMARK.json is missing
        print(json.dumps({"env": environment(args.seed)}))
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {
            name: run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
            for name in names
        }
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
