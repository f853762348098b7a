"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workload NAME ...] [--seeds N] [--first-seed S]
                                [--trace 0|1] [--out FILE]

For every workload, runs ``run.py`` once per seed (``--first-seed`` onwards)
with BENCHMARK.json's ``run_seconds``, then prints each metric's median,
quartiles and interquartile range as a share of the median next to its bound.
A steady benchmark keeps each end-to-end spread below a third of its bound.
``--out`` saves every run's result and the summary as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report: dict = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    ok = True
    for name in args.workload:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            done = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            if done.returncode != 0:
                print(done.stdout, done.stderr, file=sys.stderr)
                return 1
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            result["env"] = json.loads(lines[0])["env"]
            ok &= result["correct"]
            runs.append(result)
            print(f"{name} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}", flush=True)
        summary = {
            metric: summarize([r["metrics"][metric]["value"] for r in runs])
            for metric in runs[0]["metrics"]
        }
        for metric, s in summary.items():
            bound = bounds.get(metric)
            verdict = ""
            if bound is not None:
                verdict = f"bound {bound:.2f}  {'steady' if s['spread'] < bound / 3 else 'NOISY'}"
            print(f"{name:8s} {metric:28s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.3f}  {verdict}")
        report["workloads"][name] = {"runs": runs, "summary": summary}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
