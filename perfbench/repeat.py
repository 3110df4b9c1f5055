"""Run the benchmark over several seeds and summarise each metric.

Usage:
    python3 perfbench/repeat.py --workloads short_docs,long_docs,plan_only \
        --seeds 1-10 --seconds 25 [--trace 0] [--out summary.json]

Runs are made one after another.  For every workload and metric it
prints the median over seeds, the quartiles and the spread (distance
between the quartiles as a share of the median), which is how run-to-run
steadiness and before/after comparisons are judged.  ``--out`` also
writes the per-seed values and the environment as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--out")
    args = parser.parse_args()

    summary: dict = {"seconds": float(args.seconds), "trace": int(args.trace), "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
                capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(lines[-1])
            env = next((ln for ln in lines if ln.startswith("environment:")), "")
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {env}",
                  flush=True)
            runs.append({"seed": seed, "environment": env, **result})
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
            spread = (q3 - q1) / abs(med) if med else None  # undefined at median 0
            metrics[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                             "q1": q1, "q3": q3, "spread": spread, "values": values}
            print(f"  {name:<52} median={med:<12.6g} q1={q1:<12.6g} q3={q3:<12.6g} "
                  f"spread={'n/a' if spread is None else f'{spread:.4f}'}")
        summary["workloads"][workload] = {
            "seeds": [r["seed"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "environment": [r["environment"] for r in runs],
            "metrics": metrics,
        }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
