"""Steadiness report: run one workload repeatedly and summarise each metric.

Run from the root of a squircles checkout:

    python3 sqbench/steady.py --workload gallery --runs 10 [--first-seed 1]

Each run uses the next seed and the `run_seconds` of BENCHMARK.json, which
must sit in the current directory, and reports the end-to-end metrics
(`--trace 0`). For every metric the report gives the median, the quartiles
(statistics.quantiles, n=4), the interquartile range and (max - min) as
shares of the median, and the metric's bound. The per-run values are
printed first.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    failed = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"seed {seed}: exit code {proc.returncode}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed += result["failed"]
        row = []
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
            row.append(f"{name}={m['value']:.6g}")
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} "
              + " ".join(row), flush=True)

    print(f"\n{args.workload}: {args.runs} runs, seconds={seconds:g}, "
          f"failed commands {failed}")
    print(f"{'metric':<44} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'range/med':>9} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        iqr = (q3 - q1) / med if med else 0.0
        rng = (max(vals) - min(vals)) / med if med else 0.0
        print(f"{name:<44} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {iqr:>8.4f} {rng:>9.4f} "
              f"{bounds[name]:>6} {units[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
