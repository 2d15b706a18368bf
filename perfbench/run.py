#!/usr/bin/env python3
"""Benchmark of the plethysm package: certify, expand-cold and foulkes.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run from the root of a checkout. One client, one operation in flight: each
pass runs in a fresh child process (see child.py) and the next pass starts
when it has exited. Passes start until --seconds have gone by. With
--trace 0 the run reports the end-to-end metrics, medians over passes.
With --trace 1 untraced and traced passes alternate on the same inputs,
and the run reports the per-layer metrics of the traced passes and the
tracing overhead. Every output is checked; the last stdout line is one
JSON object with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
PASS_TIMEOUT_S = 60.0
SETUP_FAILED = 3  # child.EXIT_SETUP

# End-to-end times are reported at the reference host speed, at which one
# chunk of child.calibrate takes REFERENCE_CHUNK_S (README, "Steadiness").
REFERENCE_CHUNK_S = 0.012


class SetupError(RuntimeError):
    """A pass could not start: the package is missing or fails to import."""


def run_pass(workload: str, seed: int, index: int, traced: bool, tiny: bool) -> dict:
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, "-I", str(HERE / "child.py"), workload, str(seed), str(index),
           "1" if traced else "0", "1" if tiny else "0", repr(spawned_at)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return _failed_pass(workload, seed, index, tiny, f"timed out after {PASS_TIMEOUT_S:.0f} s")
    if proc.returncode == SETUP_FAILED:
        raise SetupError(f"{workload} pass could not set up (see stderr)")
    try:
        report = json.loads(out.splitlines()[-1])
    except (IndexError, ValueError):
        report = None
    if proc.returncode != 0 or not isinstance(report, dict):
        return _failed_pass(workload, seed, index, tiny, f"child exited with {proc.returncode}")
    report["traced"] = traced
    return report


def _failed_pass(workload, seed, index, tiny, reason) -> dict:
    attempted = len(workloads.plan(workload, seed, index, tiny))
    return {"attempted": attempted, "failed": attempted, "errors": [reason]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> list[dict]:
    """Run passes until the time is up; in trace mode, in untraced/traced pairs."""
    passes: list[dict] = []
    durations: list[float] = []
    start = time.monotonic()
    while True:
        count = len(passes)
        if count and (not trace or count % 2 == 0):
            elapsed = time.monotonic() - start
            if elapsed + statistics.median(durations) > seconds:
                break
        begun = time.monotonic()
        traced = trace and count % 2 == 1
        report = run_pass(workload, seed, count // 2 if trace else count, traced, tiny)
        durations.append(time.monotonic() - begun)
        passes.append(report)
        if "wall_s" in report:
            print(f"{workload}: pass {count}{' traced' if traced else ''}: wall {report['wall_s']:.3f} s, "
                  f"cpu {report['cpu_s']:.3f} s, setup {report['setup_s']:.3f} s, "
                  f"rss {report['rss_kb'] / 1024:.1f} MB, "
                  f"calibration chunk {statistics.fmean(report['chunks']) * 1000:.1f} ms", file=sys.stderr)
        for error in report["errors"]:
            print(f"{workload}: check failed: {error}", file=sys.stderr)
    return passes


def _median(passes: list[dict], key: str) -> float:
    return statistics.median(p[key] for p in passes)


def _scale(report: dict) -> float:
    """The factor that takes a pass's times to the reference host speed."""
    return REFERENCE_CHUNK_S / statistics.fmean(report["chunks"])


def summarize(passes: list[dict], trace: bool) -> dict:
    """The result object: end-to-end metrics, or per-layer ones when tracing.

    End-to-end times are medians over passes of each pass's time multiplied
    by its scale: the reference chunk time over the mean of the chunk times
    the pass measured between its operations. They read as seconds at the
    reference host speed. Per-layer times are medians, as measured."""
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    timed = [p for p in passes if "wall_s" in p]
    plain = [p for p in timed if not p["traced"]]
    traced = [p for p in timed if p["traced"]]
    if not plain or (trace and not traced):
        raise SetupError("no pass completed, nothing to report")
    metrics = {}
    scales = [_scale(p) for p in plain]
    raw = {key: _median(plain, key) for key in ("wall_s", "cpu_s", "setup_s")}
    if not trace:
        values = {key: statistics.median(p[key] * scale for p, scale in zip(plain, scales)) for key in raw}
        values["peak_rss_mb"] = _median(plain, "rss_kb") / 1024.0
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
    else:
        for name, unit, *_ in spans.METRICS:
            samples = [p["layers"][name][0] for p in traced if name in p["layers"]]
            if samples:
                metrics[name] = {"value": statistics.median(samples), "unit": unit}
        # Pass 2i is untraced and pass 2i+1 traced, on the same inputs.
        # Both are scaled to the reference speed like the end-to-end times.
        pairs = [(a, b) for a, b in zip(passes[0::2], passes[1::2]) if "wall_s" in a and "wall_s" in b]
        if pairs:
            metrics["trace.overhead_s"] = {
                "value": statistics.median(b["wall_s"] * _scale(b) - a["wall_s"] * _scale(a) for a, b in pairs),
                "unit": "s"}
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "scale": statistics.median(scales), "raw": raw,
            "absent": sorted(set().union(*(p.get("absent", {}) for p in traced)))}


def print_summary(workload: str, passes: list[dict], result: dict) -> None:
    print(f"{workload}: {len(passes)} passes, {result['attempted']} checks, "
          f"{result['failed']} failed, fail_frac {result['failed'] / result['attempted']:.4g}")
    print(f"{workload}: median host speed scale {result['scale']:.4f}; medians as measured: "
          + ", ".join(f"{name} {value:.4f} s" for name, value in result["raw"].items()))
    for name, metric in result["metrics"].items():
        print(f"{workload}: {name} = {metric['value']:.6g} {metric['unit']}")
    for hook in result["absent"]:
        print(f"{workload}: absent hook {hook}, its metrics are left out")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "plethysm" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            passes = run_workload(name, args.seed, args.seconds, bool(args.trace), args.tiny)
            results[name] = summarize(passes, bool(args.trace))
            print_summary(name, passes, results[name])
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if len(results) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
