"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload untraced and traced and checks that every metric
BENCHMARK.json names is emitted with its unit; also checks that plans are
seeded and that the correctness checks reject wrong outputs.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace, section):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {metric["name"]: metric["unit"] for metric in SPEC[section]}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_workload_list_matches_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_plans_are_seeded(workload):
    for index in range(4):
        assert workloads.plan(workload, 3, index) == workloads.plan(workload, 3, index)
    assert len({repr(workloads.plan(workload, seed, 0)) for seed in range(20)}) > 1


def test_checks_reject_wrong_outputs():
    from plethysm import foulkes_difference, h3_thrall, s
    from plethysm.cli import dumps

    op = ("cli", ["expand", "--m", "3", "--n", "5", "--format", "json"])
    good = h3_thrall(5)
    as_json = dumps({"m": 3, "n": 5, "method": "recurrence", "terms": good.json_terms()})
    assert workloads.check(op, (0, as_json, "")) is None
    bad = dumps({"m": 3, "n": 5, "method": "recurrence", "terms": (good + s(15)).json_terms()})
    assert workloads.check(op, (0, bad, "")) is not None
    assert workloads.check(op, (3, "", "budget exceeded")) is not None

    text_op = ("cli", ["expand", "--m", "3", "--n", "5", "--format", "text"])
    assert workloads.parse_text(str(good - 2 * s(15) + s())) == good - 2 * s(15) + s()
    assert workloads.check(text_op, (0, str(good) + "\n", "")) is None
    assert workloads.check(text_op, (0, str(good - s(9, 6)) + "\n", "")) is not None

    diff = foulkes_difference(2, 4)
    assert workloads.check(("foulkes", (2, 4)), (0, diff, "")) is None
    assert workloads.check(("foulkes", (2, 4)), (0, diff - s(4, 4), "")) is not None
    assert workloads.check(("foulkes", (2, 4)), (0, diff + s(4, 4), "")) is not None

    assert workloads.check(("cli", ["verify"]), (0, "FAIL (1 mismatches)\n", "")) is not None


def test_missing_hook_is_reported_absent(monkeypatch):
    from plethysm import oracle

    hooks = tuple((name, module, "_no_such_function" if name == "oracle.tableau" else path, attrs)
                  for name, module, path, attrs in spans.SPAN_HOOKS)
    monkeypatch.setattr(spans, "SPAN_HOOKS", hooks)
    # Let monkeypatch put back every function the tracer replaces.
    for _, module, path, *_ in hooks + spans.COUNT_HOOKS:
        try:
            owner, attr, fn = spans._resolve(module, path)
        except AttributeError:
            continue
        monkeypatch.setattr(owner, attr, fn)
    tracer = spans.Tracer().install()
    tracer.active = True
    oracle.foulkes_difference(2, 3)
    tracer.active = False
    metrics = tracer.layer_metrics()
    assert "oracle.tableau" in tracer.absent
    assert "oracle.tableau.s" not in metrics and "oracle.peel.self_s" not in metrics
    assert metrics["oracle.walk.multisets"][0] > 0
