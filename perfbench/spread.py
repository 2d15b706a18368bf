#!/usr/bin/env python3
"""Run one workload under several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload foulkes --seeds 1-10 --seconds 40 [--trace 1] [--out FILE]

For each metric it prints the median of the per-run values and the
distance between their first and third quartiles (statistics.quantiles,
n=4) as a share of the median. This is the steadiness test a benchmark
bound is checked against. --out appends the runs and the summary as one
JSON line, which is how the files under perfbench/trajectory are made.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_arg(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds_arg, required=True, help="e.g. 1-10")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=HERE.parent, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: " + ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()
                                           if v["unit"] != "count"), flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, 0, median)
        spread = (q3 - q1) / median if median else None
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                         "unit": runs[0]["metrics"][name]["unit"]}
        shown = "n/a" if spread is None else f"{spread:.2%}"
        print(f"{name:32s} median {median:12.6g}  spread {shown:>7s}")
    failed = sum(r["failed"] for r in runs)
    print(f"{sum(r['attempted'] for r in runs)} checks, {failed} failed")
    if args.out:
        record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
                  "python": platform.python_version(), "machine": platform.machine(),
                  "runs": runs, "summary": summary}
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
