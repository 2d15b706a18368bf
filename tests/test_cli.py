import json
import tracemalloc

import pytest

from plethysm import s
from plethysm.cli import main
import plethysm.cli as cli


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_thrall_text(capsys):
    code, out, _ = run(capsys, "expand", "--m", "3", "--n", "2", "--method", "thrall")
    assert code == 0
    assert out.strip() == "s[6] + s[4,2] + s[2,2,2]"


def test_expand_recurrence_n0(capsys):
    code, out, _ = run(capsys, "expand", "--m", "3", "--n", "0", "--method", "recurrence")
    assert code == 0
    assert out.strip() == "1"


def test_expand_closed_json(capsys):
    code, out, _ = run(capsys, "expand", "--m", "2", "--n", "2",
                       "--method", "closed", "--format", "json")
    assert code == 0
    line = out.strip()
    payload = json.loads(line)
    assert payload == {
        "m": 2, "n": 2, "method": "closed",
        "terms": [{"lambda": [4], "coeff": 1}, {"lambda": [2, 2], "coeff": 1}],
    }
    # Round trip is byte identical under the canonical serializer.
    assert cli.dumps(json.loads(line)) == line


def test_expand_oracle_matches_thrall(capsys):
    code, ora, _ = run(capsys, "expand", "--m", "3", "--n", "4", "--method", "oracle")
    assert code == 0
    code, thr, _ = run(capsys, "expand", "--m", "3", "--n", "4", "--method", "thrall")
    assert code == 0
    assert ora == thr


def test_expand_method_invalid_for_m(capsys):
    code, _, err = run(capsys, "expand", "--m", "2", "--n", "3", "--method", "thrall")
    assert code == 2
    assert "not valid" in err
    code, _, err = run(capsys, "expand", "--m", "3", "--n", "3", "--method", "closed")
    assert code == 2


def test_expand_usage_errors_exit_2():
    with pytest.raises(SystemExit) as info:
        main(["expand", "--m", "7", "--n", "2"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["expand", "--m", "3", "--n", "-1"])
    assert info.value.code == 2


def test_expand_budget_exceeded_exits_3(capsys):
    code, _, err = run(capsys, "expand", "--m", "3", "--n", "9",
                       "--method", "oracle", "--budget", "10")
    assert code == 3
    assert "budget exceeded" in err


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "10", "--oracle-max-n", "3")
    assert code == 0
    assert "PASS (0 mismatches, 0 positivity failures)" in out


def test_verify_max_n_zero(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "0")
    assert code == 0
    assert "PASS" in out


def test_verify_detects_injected_fault(capsys, monkeypatch):
    from plethysm import h3_thrall

    def faulty(n):
        total = h3_thrall(n)
        if n == 5:
            total = total + s(15)  # bump one coefficient
        return total

    monkeypatch.setattr(cli, "h3_thrall", faulty)
    code, out, _ = run(capsys, "verify", "--max-n", "6", "--oracle-max-n", "0")
    assert code == 1
    assert "MISMATCH" in out
    assert "n=5" in out and "[15]" in out


def _traced(fn):
    """fn() and the tracemalloc peak in bytes while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verify_memory_stays_quadratic():
    # Keeping every route's value at every n peaks at about 29 MB.
    report, peak = _traced(lambda: cli.run_verify(80, 4))
    assert report.passed
    assert peak < 8e6, f"peak {peak / 1e6:.1f} MB"


def test_dent_memory_stays_quadratic(capsys):
    # A cache that keeps every h3(n) peaks at about 15 MB.
    code, peak = _traced(lambda: main(["dent", "--m", "3", "--max-n", "80"]))
    assert code == 0
    assert capsys.readouterr().out.endswith("Schur-positive for 2 <= n <= 80)\n")
    assert peak < 8e6, f"peak {peak / 1e6:.1f} MB"


def test_foulkes_positive(capsys):
    code, out, _ = run(capsys, "foulkes", "--m", "2", "--n", "3")
    assert code == 0
    assert "s[2,2,2]" in out
    assert "Schur-positive: true" in out


def test_foulkes_equal_arguments(capsys):
    code, out, _ = run(capsys, "foulkes", "--m", "3", "--n", "3")
    assert code == 0
    assert "= 0" in out
    assert "Schur-positive: true" in out


def test_foulkes_rejects_m_greater_than_n(capsys):
    code, _, err = run(capsys, "foulkes", "--m", "4", "--n", "3")
    assert code == 2
    assert "m <= n" in err


def test_foulkes_budget_exceeded(capsys):
    code, _, err = run(capsys, "foulkes", "--m", "4", "--n", "5", "--budget", "1000")
    assert code == 3
    assert "budget exceeded" in err


def test_dent_passes(capsys):
    code, out, _ = run(capsys, "dent", "--m", "3", "--max-n", "6")
    assert code == 0
    assert "PASS" in out
    assert "n=2: positive" in out


def test_dent_requires_max_n_at_least_2(capsys):
    code, _, err = run(capsys, "dent", "--m", "2", "--max-n", "1")
    assert code == 2


def test_bench_table_and_csv(capsys, tmp_path):
    target = tmp_path / "out.csv"
    code, out, _ = run(capsys, "bench", "--max-n", "3", "--repeats", "1",
                       "--oracle-max-n", "2", "--csv", str(target))
    assert code == 0
    assert "recurrence" in out and "thrall" in out and "oracle" in out
    lines = target.read_text().splitlines()
    assert lines[0] == "n,method,millis"
    rows = [line.split(",") for line in lines[1:]]
    assert {(r[0], r[1]) for r in rows} == {
        (str(n), method) for n in (1, 2, 3) for method in ("recurrence", "thrall")
    } | {(str(n), "oracle") for n in (1, 2)}
    assert all(float(r[2]) >= 0 for r in rows)


def test_deterministic_output(capsys):
    first = run(capsys, "expand", "--m", "3", "--n", "6", "--method", "recurrence",
                "--format", "json")
    second = run(capsys, "expand", "--m", "3", "--n", "6", "--method", "recurrence",
                 "--format", "json")
    assert first == second
