"""One benchmark pass in a fresh interpreter.

    python3 -I perfbench/child.py WORKLOAD SEED PLAN_INDEX TRACED TINY SPAWNED_AT

The package keeps process-wide caches (the default recurrence memo,
``ssyt_count``, the oracle's tableau cache), and every CLI invocation
starts with them cold. A pass therefore runs in its own process, which
imports the package, builds its plan, runs the plan in the timed region,
and checks the outputs afterwards. SPAWNED_AT is the parent's
CLOCK_MONOTONIC reading just before it started this process, so set-up
time covers interpreter start, the imports and input generation.

Before the first operation and after each one, the pass times a fixed
calibration loop (``calibrate``); the runner uses those times to give the
pass's times at a reference host speed. The loop sits outside the timed
region.

The last line on stdout is one JSON object. Exit code 3 means set-up
failed (the package could not be imported); the runner then stops.
"""

import gc
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

EXIT_SETUP = 3
CALIBRATION_CHUNKS = 2  # per gap between operations
CALIBRATION_STEPS = 60_000


def calibrate() -> list[float]:
    """Time CALIBRATION_CHUNKS runs of a fixed loop of tuple-keyed dict
    updates and integer arithmetic, the operations the package spends its
    time on. The loop shares no code or data with the package, and the
    collector is off while it runs, so only the host's speed moves it. Its
    table of 1927 keys is small, so it adds little to the peak RSS."""
    times = []
    gc.disable()
    try:
        for _ in range(CALIBRATION_CHUNKS):
            begun = time.perf_counter()
            table = {}
            for i in range(CALIBRATION_STEPS):
                key = (i % 41, i % 47)
                table[key] = table.get(key, 0) + i * i
            times.append(time.perf_counter() - begun)
    finally:
        gc.enable()
    return times


def main(argv: list[str]) -> int:
    workload, seed, index, traced, tiny, spawned_at = argv
    try:
        import plethysm  # noqa: F401
        import plethysm.cli  # noqa: F401

        import spans
        import workloads
    except Exception:
        traceback.print_exc()
        return EXIT_SETUP
    ops = workloads.plan(workload, int(seed), int(index), tiny == "1")
    tracer = spans.Tracer().install() if traced == "1" else None
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - float(spawned_at)

    # The timed region is the sum of the operations' times.
    chunks = calibrate()
    outcomes = []
    wall = cpu = 0.0
    for op in ops:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        if tracer:
            tracer.active = True
        outcomes.append(workloads.run_op(op))
        if tracer:
            tracer.active = False
        wall += time.perf_counter() - wall0
        cpu += time.process_time() - cpu0
        chunks += calibrate()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    errors = []
    for op, outcome in zip(ops, outcomes):
        reason = workloads.check(op, outcome)
        if reason:
            errors.append(f"{op}: {reason}")
    report = {"setup_s": setup_s, "wall_s": wall, "cpu_s": cpu, "rss_kb": rss_kb, "chunks": chunks,
              "attempted": len(ops), "failed": len(errors), "errors": errors}
    if tracer:
        report["layers"] = tracer.layer_metrics()
        report["absent"] = tracer.absent
        out_dir = HERE.parent / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"spans-{workload}-seed{seed}-plan{index}.jsonl")
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
