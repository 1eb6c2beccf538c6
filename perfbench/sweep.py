#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the repository root::

    python3 perfbench/sweep.py --workload sim-suite --seeds 0-9
    python3 perfbench/sweep.py --workload all --seeds 0-9 --out set1.json

For every end-to-end metric it prints the median of the runs and the
distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound from
``BENCHMARK.json``.  Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(seed) for seed in text.split(",")]


COUNTS = "counts per pass: "


def run_once(bench: dict, workload: str, seed: int) -> dict:
    """One untraced run: its result line, plus its simulated counts."""
    command = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["counts"] = next(json.loads(line[len(COUNTS):])
                            for line in lines if line.startswith(COUNTS))
    return result


def summarise(bench: dict, results) -> dict:
    """Per metric: median, quartiles, spread and the values."""
    summary = {}
    for metric in bench["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[name] = {
            "median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "bound": metric["bound"], "unit": metric["unit"],
            "values": values,
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--out", help="write the runs and spreads as JSON")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = ([w["name"] for w in bench["workloads"]]
             if args.workload == "all" else [args.workload])
    report = {}
    for workload in names:
        results = []
        for seed in parse_seeds(args.seeds):
            result = run_once(bench, workload, seed)
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect: {result}")
                return 1
            results.append(result)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True)
        summary = summarise(bench, results)
        report[workload] = {"metrics": summary,
                            "counts": [r["counts"] for r in results]}
        for name, row in summary.items():
            flag = "" if name == "setup_s" or row["spread"] <= row["bound"] / 3 \
                else "  <-- above a third of the bound"
            print(f"  {workload:<12} {name:<12} median {row['median']:.5g} "
                  f"{row['unit']:<5} spread {row['spread']:.3f} "
                  f"(bound {row['bound']}){flag}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
