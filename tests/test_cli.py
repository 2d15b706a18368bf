import gc
import json
import os
from pathlib import Path
import re
import subprocess
import sys
import tracemalloc

import pytest

from plethysm import BudgetExceededError, RecurrenceCache, SchurSum
from plethysm.cli import main
import plethysm.cli as cli
import plethysm.recurrence as recurrence
import plethysm.thrall as thrall


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
    with pytest.raises(SystemExit) as info:
        main(["expand", "--n", "2", "--budget", "0"])
    assert info.value.code == 2


def test_expand_budget_exceeded_exits_3(capsys):
    code, _, err = run(capsys, "expand", "--m", "3", "--n", "9",
                       "--method", "oracle", "--budget", "10")
    assert code == 3
    assert "budget exceeded" in err


@pytest.mark.parametrize("m, method, n", [
    (3, "recurrence", 4), (3, "thrall", 4), (2, "recurrence", 5), (2, "closed", 5),
])
def test_expand_direct_routes_refused_before_building(capsys, monkeypatch, m, method, n):
    # The bound is the count of partitions of mn into at most m parts (even
    # parts for m = 2): 19 for h3[h4], 3 for h2[h5].
    bound = {3: 19, 2: 3}[m]
    args = ["expand", "--m", str(m), "--n", str(n), "--method", method]
    code, out, _ = run(capsys, *args, "--budget", str(bound))
    assert code == 0 and out
    monkeypatch.setattr(cli, "RecurrenceCache", None)  # a route that ran would fail
    code, out, err = run(capsys, *args, "--budget", str(bound - 1))
    assert code == 3 and not out
    assert err == f"budget exceeded: h{m}[h{n}] needs {bound} terms, budget is {bound - 1}\n"


def _expand_cases():
    small = [(m, method, n) for m, routes in cli._METHODS.items()
             for method in [*routes, cli.ORACLE] for n in range(10)]
    return small + [(3, "recurrence", 100), (3, "recurrence", 160),
                    (2, "recurrence", 1000), (2, "recurrence", 1800)]


def _expanded_sum(m, method, n):
    # The sum expand prints: h3's direct routes give its columns.
    if method == cli.ORACLE:
        return cli.plethysm_oracle(m, n)
    value = cli._METHODS[m][method](n, RecurrenceCache())
    return SchurSum._from_columns(n, value) if m == 3 else value


@pytest.mark.parametrize("m, method, n", _expand_cases())
def test_expand_json_is_dumps_of_json_terms(capsys, m, method, n):
    # The terms are spliced into the header as text; the bytes must be
    # those of dumping the whole document.
    total = _expanded_sum(m, method, n)
    code, out, err = run(capsys, "expand", "--m", str(m), "--n", str(n),
                         "--method", method, "--format", "json")
    assert (code, err) == (0, "")
    assert out == cli.dumps({"m": m, "n": n, "method": method, "terms": total.json_terms()}) + "\n"


@pytest.mark.parametrize("m, method, n", _expand_cases() + [
    (3, "thrall", 100), (3, "thrall", 160), (3, "recurrence", 400), (3, "thrall", 400)])
def test_expand_text_is_str_of_the_sum(capsys, m, method, n):
    # expand --m 3 writes h3's columns row by row; the bytes must be those
    # of the sum's str().
    total = _expanded_sum(m, method, n)
    code, out, err = run(capsys, "expand", "--m", str(m), "--n", str(n), "--method", method)
    assert (code, err) == (0, "")
    assert out == str(total) + "\n"


def _faulted_columns():
    # Columns of h3[hn] by n, as no correct route gives them: T(9) with
    # its entry at b = 0 raised by 7, which reaches h3[h9], h3[h11] and,
    # through T(13), h3[h13]; negative entries, the first term's among
    # them; no term at all; and the constant alone, negative.
    cache = RecurrenceCache()
    cache._layer(9)[0] += 7
    faulted = {n: cache.h3_columns(n) for n in range(9, 14)}
    faulted[5] = thrall.h3_columns(5)
    faulted[5][0][0], faulted[5][2][1] = -1, -3
    faulted[3] = [[0] * len(column) for column in thrall.h3_columns(3)]
    faulted[0] = [[-1]]
    return faulted


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_expand_rows_of_faulted_columns_match_their_sum(capsys, monkeypatch, fmt):
    faulted = _faulted_columns()
    monkeypatch.setattr(RecurrenceCache, "h3_columns", lambda self, n, stop=None: faulted[n])
    for n, columns in faulted.items():
        total = SchurSum._from_columns(n, columns)
        code, out, err = run(capsys, "expand", "--m", "3", "--n", str(n), "--format", fmt)
        assert (code, err) == (0, "")
        if fmt == "json":
            assert out == cli.dumps({"m": 3, "n": n, "method": "recurrence", "terms": total.json_terms()}) + "\n"
        else:
            assert out == str(total) + "\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_expand_short_column_writes_nothing(capsys, monkeypatch, fmt):
    # Every column is checked before the first byte, the JSON header's
    # included, is written.
    columns = thrall.h3_columns
    monkeypatch.setattr(thrall, "h3_columns", lambda n: [*columns(n)[:-1], []])
    with pytest.raises(ValueError, match=r"^column 6 of shapes of 18 cells has 0 entries, not 1$"):
        main(["expand", "--m", "3", "--n", "6", "--method", "thrall", "--format", fmt])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("method", ["recurrence", "thrall"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_expand_m3_builds_no_sum_and_sorts_no_keys(capsys, monkeypatch, method, fmt):
    argv = ["expand", "--m", "3", "--n", "40", "--method", method, "--format", fmt]
    expected = run(capsys, *argv)

    def refused(*args):
        raise AssertionError("expand --m 3 built or sorted a sum")

    monkeypatch.setattr(SchurSum, "_from_columns", refused)
    monkeypatch.setattr(SchurSum, "_sorted_keys", refused)
    assert run(capsys, *argv) == expected


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "10", "--oracle-max-n", "3")
    assert code == 0
    assert "PASS (0 mismatches, 0 positivity failures)" in out


def test_verify_max_n_zero(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "0")
    assert code == 0
    assert "PASS" in out


def test_verify_detects_injected_fault(capsys, monkeypatch):
    columns = thrall.h3_columns

    def faulty(n):
        cols = columns(n)
        if n == 5:
            cols[0][0] += 1  # bump the coefficient of s_(15)
        return cols

    monkeypatch.setattr(thrall, "h3_columns", faulty)
    code, out, _ = run(capsys, "verify", "--max-n", "6", "--oracle-max-n", "0")
    assert code == 1
    assert "MISMATCH" in out
    assert "n=5" in out and "[15]" in out


@pytest.mark.parametrize("terms, failures", [
    ({(6,): 1, (4, 2): -1, (3, 2, 1): -3, (2, 2, 2): 1},
     ["lambda=[4, 2] coeff=-1", "lambda=[3, 2, 1] coeff=-3"]),
    ({(6,): 1, (4, 2): 1, (2, 2, 2): -2}, ["lambda=[2, 2, 2] coeff=-2"]),
])
def test_verify_reports_positivity_failures(capsys, monkeypatch, terms, failures):
    # Each negative term fails the scan of the recurrence's columns of h3,
    # listed in descending order.
    bad = SchurSum(terms)
    columns = RecurrenceCache.h3_columns

    def faulty(cache, n, stop=None):
        if n != 2:
            return columns(cache, n, stop)
        return [[bad.coeff((6 - b - c, b, c)) for b in range(c, (6 - c) // 2 + 1)] for c in range(3)]

    monkeypatch.setattr(RecurrenceCache, "h3_columns", faulty)
    code, out, _ = run(capsys, "verify", "--max-n", "3", "--oracle-max-n", "0")
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("POSITIVITY")] == [
        f"POSITIVITY FAILURE [h3 nonnegative, at most 3 rows] n=2 {failure}" for failure in failures]
    assert out.endswith(f" {len(failures)} positivity failures)\n")


def _traced(fn):
    """fn() and the tracemalloc peak in bytes while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verify_memory_stays_quadratic(monkeypatch):
    # Keeping every route's value at every n peaks at about 29 MB.
    report, peak = _traced(lambda: cli.run_verify(80, 4))
    assert report.passed
    assert peak < 8e6, f"peak {peak / 1e6:.1f} MB"

    # The oracle refuses at n = 1, where the sweep raises: nothing may be
    # kept from it, whatever oracle_max_n is. The refusal is injected: a
    # budget that refuses the oracle at n = 1 refuses the direct routes
    # first.
    oracle = cli.plethysm_oracle

    def refuse_from_1(m, n, budget):
        if n:
            raise BudgetExceededError(10, 9, f"h{m}[h{n}] in {m} variables")
        return oracle(m, n, budget=budget)

    monkeypatch.setattr(cli, "plethysm_oracle", refuse_from_1)

    def refused():
        with pytest.raises(BudgetExceededError):
            cli.run_verify(100, 100)

    _, peak = _traced(refused)
    assert peak < 8e6, f"peak {peak / 1e6:.1f} MB"


def test_verify_builds_no_h3_sum_on_a_pass(monkeypatch):
    # The sweep compares the h3 routes' columns: the only h3 sums built
    # are those compared with the oracle, on n <= oracle_max_n.
    built, from_columns = [], SchurSum._from_columns

    def counted(n, columns):
        built.append(n)
        return from_columns(n, columns)

    monkeypatch.setattr(SchurSum, "_from_columns", counted)
    assert cli.run_verify(40, 3).passed
    assert built and max(built) == 3


def test_dent_builds_no_sum_on_a_pass(capsys, monkeypatch):
    # dent --m 3 checks each D(n) from its two columns.
    built, from_columns = [], SchurSum._from_columns

    def counted(n, columns):
        built.append(n)
        return from_columns(n, columns)

    monkeypatch.setattr(SchurSum, "_from_columns", counted)
    assert main(["dent", "--m", "3", "--max-n", "40"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert not built


def test_verify_forks_nothing_with_two_cpus(monkeypatch):
    def no_fork():
        raise AssertionError("verify forked")

    monkeypatch.setattr(os, "fork", no_fork)
    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert cli.run_verify(100).passed


def test_verify_refuses_direct_routes_before_building(capsys, monkeypatch):
    # The bound is that of h3[h max_n]: 1951 terms for n = 50.
    monkeypatch.setattr(cli, "RecurrenceCache", None)  # a route that ran would fail
    with pytest.raises(BudgetExceededError, match=r"^h3\[h50\] needs 1951 terms, budget is 1950$"):
        cli.run_verify(50, 4, budget=1950)


def _count_route_calls(monkeypatch):
    """Patch verify's four direct routes to note each n they are called
    on; the lists, by route."""
    calls = {"h3 recurrence": [], "h3 thrall": [], "h2 recurrence": [], "h2 closed": []}

    def noted(route, build, n_at):
        def call(*args, **kwargs):
            calls[route].append(args[n_at])
            return build(*args, **kwargs)
        return call

    monkeypatch.setattr(RecurrenceCache, "h3_columns", noted("h3 recurrence", RecurrenceCache.h3_columns, 1))
    monkeypatch.setattr(thrall, "h3_columns", noted("h3 thrall", thrall.h3_columns, 0))
    monkeypatch.setattr(RecurrenceCache, "h2", noted("h2 recurrence", RecurrenceCache.h2, 1))
    monkeypatch.setattr(cli, "h2_closed", noted("h2 closed", cli.h2_closed, 0))
    return calls


def test_verify_runs_each_route_once_per_n(monkeypatch):
    # One sweep: the oracle's n are no exception.
    calls = _count_route_calls(monkeypatch)
    assert cli.run_verify(12, 5).passed
    assert calls == {route: list(range(13)) for route in calls}


def test_verify_oracle_refusal_stops_the_sweep_at_its_n(capsys, monkeypatch):
    # The oracle refuses from n = 2 on: the sweep raises at h3[h2], after
    # every direct route ran on n <= 2, and runs none past it.
    oracle = cli.plethysm_oracle

    def refuse_from_2(m, n, budget):
        if n >= 2:
            raise BudgetExceededError(10, 9, f"h{m}[h{n}] in {m} variables")
        return oracle(m, n, budget=budget)

    monkeypatch.setattr(cli, "plethysm_oracle", refuse_from_2)
    calls = _count_route_calls(monkeypatch)
    code, out, err = run(capsys, "verify", "--max-n", "100", "--oracle-max-n", "5")
    assert (code, out) == (3, "")
    assert err == "budget exceeded: h3[h2] in 3 variables needs 10 multisets, budget is 9\n"
    assert calls == {route: [0, 1, 2] for route in calls}


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


@pytest.mark.parametrize("m, n, bound", [(3, 4, 19), (2, 5, 3)])
def test_dent_refuses_before_building(capsys, monkeypatch, m, n, bound):
    # m = 3 keeps the layers T(0), ..., T(4), of 1 + 2 + 4 + 5 + 7 = 19
    # coefficients, as many as h3[h4] has terms; m = 2 holds sums of at
    # most h2[h5]'s 3 terms.
    args = ["dent", "--m", str(m), "--max-n", str(n)]
    code, out, _ = run(capsys, *args, "--budget", str(bound))
    assert code == 0 and out.startswith("n=2: positive")
    # A sweep that ran would fail: m = 2 reads dent_differences, m = 3 a
    # RecurrenceCache.
    monkeypatch.setattr(cli, "dent_differences", None)
    monkeypatch.setattr(cli, "RecurrenceCache", None)
    code, out, err = run(capsys, *args, "--budget", str(bound - 1))
    assert code == 3 and not out
    assert err == f"budget exceeded: h{m}[h{n}] needs {bound} terms, budget is {bound - 1}\n"


def test_dent_bound_is_the_size_of_its_layers():
    cache = RecurrenceCache()
    for n in range(60):
        cache._layer(n)
        assert cli._direct_terms(3, n) == sum(map(len, cache._two_row.values()))


def test_dent_sweep_fills_each_layer_once(capsys, monkeypatch):
    # dent --m 3 reads its differences from the layers T(j) and never
    # assembles a full h3 sum.
    built, filled = [], []
    h3, step = RecurrenceCache.h3, recurrence._two_row_step

    def counted_h3(cache, n):
        built.append(n)
        return h3(cache, n)

    def counted_step(previous, j):
        filled.append(j)
        return step(previous, j)

    monkeypatch.setattr(RecurrenceCache, "h3", counted_h3)
    monkeypatch.setattr(recurrence, "_two_row_step", counted_step)
    code, _, _ = run(capsys, "dent", "--m", "3", "--max-n", "30")
    assert code == 0
    assert built == []
    assert sorted(filled) == list(range(31))


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


def test_bench_refused_leaves_the_csv_as_it_was(capsys, tmp_path):
    # The budget is checked before the file is opened, which would empty
    # it; over budget comes before a path that cannot be written.
    target = tmp_path / "old.csv"
    target.write_text("n,method,millis\n1,recurrence,0.010\n")
    refusal = "budget exceeded: h3[h100000] needs 7500150001 terms, budget is 50000000\n"
    for path in (target, tmp_path / "missing" / "out.csv"):
        assert run(capsys, "bench", "--max-n", "100000", "--csv", str(path)) == (3, "", refusal)
    assert target.read_text() == "n,method,millis\n1,recurrence,0.010\n"


def test_bench_csv_path_that_cannot_be_opened(capsys, tmp_path, monkeypatch):
    # The file is opened before any timing: a bad path is a usage error,
    # with no table on stdout and no timing run.
    monkeypatch.setattr(cli, "run_bench", None)
    target = tmp_path / "missing" / "out.csv"
    code, out, err = run(capsys, "bench", "--max-n", "2", "--csv", str(target))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {target}: No such file or directory\n"


# Every CLI run starts a process, so what importing the CLI loads is paid
# on each one; the introspection modules below came with dataclasses.
IMPORT_CHECK = """
import sys
sys.path.insert(0, sys.argv[1])
import plethysm.cli
loaded = sorted({"dataclasses", "inspect", "ast", "dis"} & set(sys.modules))
assert not loaded, loaded
sys.exit(plethysm.cli.main(["expand", "--m", "3", "--n", "2"]))
"""


def test_cli_import_loads_no_introspection_modules():
    src = Path(cli.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-I", "-c", IMPORT_CHECK, str(src)],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "s[6] + s[4,2] + s[2,2,2]\n"


def test_deterministic_output(capsys):
    first = run(capsys, "expand", "--m", "3", "--n", "6", "--method", "recurrence",
                "--format", "json")
    second = run(capsys, "expand", "--m", "3", "--n", "6", "--method", "recurrence",
                 "--format", "json")
    assert first == second


def _outcome(capsys, argv):
    """main's exit code, stdout with timings masked, and stderr."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, re.sub(r"\d+\.\d+ ms", "<t> ms", out), err


@pytest.mark.parametrize("argvs", [
    [["expand", "--m", "3", "--n", "x"], ["expand", "--m", "3", "--n", "4"]],
    [["dent", "--max-n", "3", "--bogus"], ["dent", "--max-n", "3"]],
    [["expand", "--m", "2", "--n", "5", "--format", "json"],
     ["verify", "--max-n", "5", "--oracle-max-n", "2"]],
    [["verify", "--max-n", "3"], ["expand", "--m", "3", "--n", "3"], ["bench", "--help"]],
])
def test_kept_parser_prints_what_a_fresh_one_does(capsys, monkeypatch, argvs):
    # main builds its parser once and keeps it; a call that follows another,
    # a usage error included, prints what it prints in a fresh process.
    expected = []
    for argv in argvs:
        monkeypatch.setattr(cli, "_parser", None)
        expected.append(_outcome(capsys, argv))
    monkeypatch.setattr(cli, "_parser", None)
    assert [_outcome(capsys, argv) for argv in argvs] == expected


# One command for each way main can end. Thrall's columns are patched for
# all of them: off by s_(3n) at n = 6, for the mismatch, and raising at
# n = 50, for an exception out of main.
_EXITS = {
    "0": (["expand", "--m", "3", "--n", "5"], 0),
    "1": (["verify", "--max-n", "6", "--oracle-max-n", "0"], 1),
    "2": (["dent", "--m", "3", "--max-n", "1"], 2),
    "3": (["expand", "--m", "3", "--n", "100000"], 3),
    "argparse": (["expand", "--n", "x"], SystemExit),
    "raises": (["verify", "--max-n", "50", "--oracle-max-n", "0"], ValueError),
}


@pytest.mark.parametrize("collecting", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("case", list(_EXITS))
def test_main_leaves_the_collector_as_it_found_it(capsys, monkeypatch, collecting, case):
    argv, outcome = _EXITS[case]
    columns, seen = thrall.h3_columns, []

    def watched(n):  # notes whether the collector runs while the command does
        seen.append(gc.isenabled())
        if n == 50:
            raise ValueError("no h3[h50] today")
        cols = columns(n)
        if n == 6:
            cols[0][0] += 1
        return cols

    monkeypatch.setattr(thrall, "h3_columns", watched)
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        if isinstance(outcome, int):
            assert main(argv) == outcome
        else:
            with pytest.raises(outcome):
                main(argv)
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()
    assert seen and not any(seen) if argv[0] == "verify" else not seen
