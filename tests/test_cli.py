import functools
import gc
import json
import os
from pathlib import Path
import re
import subprocess
import sys
import threading
import time
import tracemalloc

import pytest

from plethysm import BudgetExceededError, RecurrenceCache, SchurSum, s
from plethysm.cli import main
import plethysm.cli as cli
import plethysm.recurrence as recurrence


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


@pytest.mark.parametrize("m, method, n", _expand_cases())
def test_expand_json_is_dumps_of_json_terms(capsys, m, method, n):
    # The terms are spliced into the header as text; the bytes must be
    # those of dumping the whole document.
    if method == cli.ORACLE:
        total = cli.plethysm_oracle(m, n)
    else:
        total = cli._METHODS[m][method](n, RecurrenceCache())
    code, out, err = run(capsys, "expand", "--m", str(m), "--n", str(n),
                         "--method", method, "--format", "json")
    assert (code, err) == (0, "")
    assert out == cli.dumps({"m": m, "n": n, "method": method, "terms": total.json_terms()}) + "\n"


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


@pytest.mark.parametrize("terms, failures", [
    ({(6,): 1, (4, 2): -1, (2, 2, 2): 1, (2, 2, 1, 1): 3},
     ["lambda=[4, 2] coeff=-1", "lambda=[2, 2, 1, 1] coeff=3"]),
    ({(6,): 1, (4, 2): 1, (1, 1, 1, 1, 1, 1): 2}, ["lambda=[1, 1, 1, 1, 1, 1] coeff=2"]),
])
def test_verify_reports_positivity_failures(capsys, monkeypatch, terms, failures):
    # A negative term and a term of more than three rows each fail the
    # scan of the recurrence's h3, listed in descending order.
    bad = SchurSum(terms)
    recurrence = cli._METHODS[3]["recurrence"]
    monkeypatch.setitem(cli._METHODS[3], "recurrence",
                        lambda n, cache: bad if n == 2 else recurrence(n, cache))
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


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_verify_memory_stays_quadratic(monkeypatch, verify_cpus):
    # Keeping every route's value at every n peaks at about 29 MB.
    # tracemalloc sees only the caller. On one CPU it claims every n
    # itself, from the top down; on two it and a worker claim n from one
    # pipe, also from the top down.
    for cpus in (1, 2):
        forks = verify_cpus(cpus)
        report, peak = _traced(lambda: cli.run_verify(80, 4))
        assert report.passed
        assert len(forks) == cpus - 1
        assert peak < 8e6, f"{cpus} CPUs: peak {peak / 1e6:.1f} MB"

    # The oracle sweep runs first, and refuses at n = 1: nothing may be
    # kept from it, whatever oracle_max_n is, and on two CPUs the worker
    # is stopped. The refusal is injected: a budget that refuses the
    # oracle at n = 1 refuses the direct routes first.
    oracle = cli.plethysm_oracle

    def refuse_from_1(m, n, budget):
        if n:
            raise BudgetExceededError(10, 9, f"h{m}[h{n}] in {m} variables")
        return oracle(m, n, budget=budget)

    monkeypatch.setattr(cli, "plethysm_oracle", refuse_from_1)
    for cpus in (1, 2):
        forks = verify_cpus(cpus)

        def refused():
            with pytest.raises(BudgetExceededError):
                cli.run_verify(100, 100)

        _, peak = _traced(refused)
        assert len(forks) == cpus - 1
        assert peak < 8e6, f"{cpus} CPUs: peak {peak / 1e6:.1f} MB"
        _assert_no_child()


def test_verify_refuses_direct_routes_before_building(capsys, monkeypatch):
    # The bound is that of h3[h max_n]: 1951 terms for n = 50.
    monkeypatch.setattr(cli, "RecurrenceCache", None)  # a route that ran would fail
    monkeypatch.setattr(cli.os, "fork", None)  # and so would a fork
    with pytest.raises(BudgetExceededError, match=r"^h3\[h50\] needs 1951 terms, budget is 1950$"):
        cli.run_verify(50, 4, budget=1950)


def test_verify_oracle_refusal_on_one_cpu_runs_no_direct_route(capsys, monkeypatch, verify_cpus):
    oracle = cli.plethysm_oracle

    def refuse_from_1(m, n, budget):
        if n:
            raise BudgetExceededError(10, 9, f"h{m}[h{n}] in {m} variables")
        return oracle(m, n, budget=budget)

    monkeypatch.setattr(cli, "plethysm_oracle", refuse_from_1)
    monkeypatch.setattr(cli, "_direct_sweep", None)  # a direct sweep that ran would fail
    forks = verify_cpus(1)
    code, out, err = run(capsys, "verify", "--max-n", "100", "--oracle-max-n", "2")
    assert (code, out) == (3, "")
    assert err == "budget exceeded: h3[h1] in 3 variables needs 10 multisets, budget is 9\n"
    assert forks == []


def test_verify_process_count(verify_cpus):
    # One process for each CPU, as long as each gets _MIN_SHARE_TERMS of
    # the sweep's weight: on [0, 42] two, on [0, 48] three, on [0, 53] four.
    weight = functools.partial(cli._direct_terms, 3)
    for cpus, first in ((2, 42), (3, 48), (4, 53)):
        verify_cpus(cpus)
        assert sum(map(weight, range(first))) < cpus * cli._MIN_SHARE_TERMS <= sum(map(weight, range(first + 1)))
        assert cli._processes(first - 1) == cpus - 1
        assert cli._processes(first) == cpus
        assert cli._processes(1000) == cpus
    verify_cpus(1)
    assert cli._processes(1000) == 1


def test_verify_sweeps_serially_without_fork_or_with_threads(monkeypatch, verify_cpus):
    forks = verify_cpus(2)
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        assert cli._processes(50) == 1
        assert cli.run_verify(50, 2).passed
    finally:
        done.set()
        thread.join()
    assert forks == []
    assert cli._processes(50) == 2
    monkeypatch.delattr(os, "fork")
    assert cli._processes(50) == 1
    assert cli.run_verify(50, 2).passed


@pytest.mark.parametrize("cpus", [2, 3])
def test_verify_split_matches_serial(capsys, monkeypatch, cpus, verify_cpus):
    # Faults at both ends of the sweep, at the oracle's top n, in the middle
    # and next to the top: whichever process claims each n, the mismatch
    # and positivity lines, and their order, are those of the serial sweep.
    at = {0, 1, 4, 30, 59, 60}
    thrall, closed, h3 = cli.h3_thrall, cli.h2_closed, RecurrenceCache.h3
    monkeypatch.setattr(cli, "h3_thrall", lambda n: thrall(n) + s(3 * n + 2, 1) if n in at else thrall(n))
    monkeypatch.setattr(cli, "h2_closed", lambda n: closed(n) + s(2 * n + 1, 1) if n in at else closed(n))
    monkeypatch.setattr(RecurrenceCache, "h3",
                        lambda cache, n: h3(cache, n) - 2 * s(3 * n + 2, 1) if n in at else h3(cache, n))
    argv = ["verify", "--max-n", "60", "--oracle-max-n", "4"]
    outputs = []
    for count in (1, cpus, cpus, cpus):
        forks = verify_cpus(count)
        code, out, err = run(capsys, *argv)
        assert (code, err, len(forks)) == (1, "", count - 1)
        outputs.append(re.sub(r" *\d+\.\d+", "<t>", out).splitlines())
        _assert_no_child()
    serial, *split = outputs
    for lines in split:
        assert lines == serial
    for n in at:
        assert f"MISMATCH [h3 recurrence vs thrall] n={n} lambda=[{3 * n + 2}, 1]: recurrence=-2 thrall=1" in serial
        assert f"MISMATCH [h2 recurrence vs closed] n={n} lambda=[{2 * n + 1}, 1]: recurrence=0 closed=1" in serial
    positivity = [line for line in serial if line.startswith("POSITIVITY")]
    assert positivity == [f"POSITIVITY FAILURE [h3 nonnegative, at most 3 rows] n={n} lambda=[{3 * n + 2}, 1] coeff=-2"
                          for n in sorted(at)]


def _hold_oracle_until(monkeypatch, path: Path) -> None:
    """Make the caller start its oracle sweep only once ``path`` exists, or
    after 30 s: the workers claim n meanwhile."""
    sweep = cli._oracle_sweep

    def held(*args):
        deadline = time.monotonic() + 30
        while not path.exists() and time.monotonic() < deadline:
            time.sleep(0.001)
        return sweep(*args)

    monkeypatch.setattr(cli, "_oracle_sweep", held)


def test_verify_route_raising_in_a_worker_raises_in_the_caller(monkeypatch, tmp_path, verify_cpus):
    # A route that raises at n raises its own exception from run_verify,
    # whichever process claims n: here a worker claims n = 50, the first
    # n written, while the caller is held; the caller runs n = 50 again.
    caller, raised, thrall = os.getpid(), tmp_path / "raised", cli.h3_thrall

    def broken(n):
        if n == 50:
            with raised.open("a") as pids:
                pids.write(f"{os.getpid()}\n")
            raise ValueError(f"no h3[h{n}] today")
        return thrall(n)

    monkeypatch.setattr(cli, "h3_thrall", broken)
    forks = verify_cpus(2)
    with monkeypatch.context() as held:
        _hold_oracle_until(held, raised)
        with pytest.raises(ValueError, match=r"^no h3\[h50\] today$"):
            cli.run_verify(50, 4)
    worker, *again = map(int, raised.read_text().split())
    assert worker != caller and again == [caller]
    assert len(forks) == 1
    _assert_no_child()
    # Here the caller claims n = 49 while the worker is stopped on n = 50.
    def stuck(n):
        if n == 50 and os.getpid() != caller:
            time.sleep(60)  # until the caller kills it
        if n == 49:
            raise ValueError(f"no h3[h{n}] today")
        return thrall(n)

    monkeypatch.setattr(cli, "h3_thrall", stuck)
    with pytest.raises(ValueError, match=r"^no h3\[h49\] today$"):
        cli.run_verify(50, 4)
    assert len(forks) == 2
    _assert_no_child()


def test_verify_failure_only_in_a_worker_names_its_n(monkeypatch, tmp_path, verify_cpus):
    caller, raised, thrall = os.getpid(), tmp_path / "raised", cli.h3_thrall

    def broken(n):
        if n == 50 and os.getpid() != caller:
            raised.touch()
            raise ValueError(f"no h3[h{n}] today")
        return thrall(n)

    monkeypatch.setattr(cli, "h3_thrall", broken)
    _hold_oracle_until(monkeypatch, raised)
    forks = verify_cpus(2)
    with pytest.raises(RuntimeError, match=r"^verify worker on n=50: ValueError: no h3\[h50\] today$"):
        cli.run_verify(50, 4)
    assert len(forks) == 1
    _assert_no_child()


def _open_fds() -> int | None:
    """How many file descriptors this process has open; None where
    /proc/self/fd is missing."""
    try:
        return len(os.listdir("/proc/self/fd"))
    except FileNotFoundError:
        return None


def test_verify_leaves_no_child(monkeypatch, verify_cpus):
    # No child and no file descriptor outlives a pass, a refusal or an error.
    forks, fds = verify_cpus(2), _open_fds()
    assert cli.run_verify(50, 4).passed
    _assert_no_child()
    assert _open_fds() == fds
    # The budget passes the direct routes at n = 50 and refuses the oracle.
    with pytest.raises(BudgetExceededError, match="in 3 variables"):
        cli.run_verify(50, 50, budget=cli._direct_terms(3, 50))
    _assert_no_child()
    assert _open_fds() == fds
    thrall = cli.h3_thrall
    monkeypatch.setattr(cli, "h3_thrall", lambda n: 1 / 0 if n == 45 else thrall(n))
    with pytest.raises(ZeroDivisionError):
        cli.run_verify(50, 4)
    _assert_no_child()
    assert _open_fds() == fds
    assert len(forks) == 3


@pytest.mark.parametrize("fails", [False, True], ids=["pass", "worker-fails"])
def test_verify_claims_more_n_than_a_full_pipe_holds(monkeypatch, fails, verify_cpus):
    # 2001 tokens are 8004 bytes, and each pipe holds one page: the caller
    # can write them all only while the worker claims them, and a worker
    # whose route raised still claims the rest. The deadline of
    # verify_cpus ends a deadlock.
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("no F_SETPIPE_SZ")
    pipe, caller = os.pipe, os.getpid()

    def one_page_pipe():
        fds = pipe()
        fcntl.fcntl(fds[1], fcntl.F_SETPIPE_SZ, 4096)
        return fds

    def stub(cache, ns, elapsed_ms, mismatches, failures):
        for n in ns:
            if fails and os.getpid() != caller:
                raise ValueError("worker only")
            elapsed_ms["h3_recurrence"] = elapsed_ms.get("h3_recurrence", 0.0) + 1.0
            mismatches.append(("stub", n, [n], {}))

    monkeypatch.setattr(cli.os, "pipe", one_page_pipe)
    monkeypatch.setattr(cli, "_direct_sweep", stub)
    forks, fds = verify_cpus(2), _open_fds()
    if fails:
        with pytest.raises(RuntimeError, match=r"^verify worker on n=\d+: ValueError: worker only$"):
            cli.run_verify(2000, 0, budget=None)
    else:
        report = cli.run_verify(2000, 0, budget=None)
        assert [n for _, n, _, _ in report.mismatches] == list(range(2001))
        assert report.elapsed_ms["h3_recurrence"] == 2001.0
    assert len(forks) == 1
    _assert_no_child()
    assert _open_fds() == fds


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
    monkeypatch.setattr(cli, "dent_differences", None)  # a sweep that ran would fail
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


# One command for each way main can end. Thrall's route is patched for all
# of them: it is off by s_(3n) at n = 6, for the mismatch, and raises at
# n = 50, whichever of verify's two processes claims it on two CPUs.
_EXITS = {
    "0": (["expand", "--m", "3", "--n", "5"], 0),
    "1": (["verify", "--max-n", "6", "--oracle-max-n", "0"], 1),
    "2": (["dent", "--m", "3", "--max-n", "1"], 2),
    "3": (["expand", "--m", "3", "--n", "100000"], 3),
    "argparse": (["expand", "--n", "x"], SystemExit),
    "worker": (["verify", "--max-n", "50", "--oracle-max-n", "0"], ValueError),
}


@pytest.mark.parametrize("collecting", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("case", list(_EXITS))
def test_main_leaves_the_collector_as_it_found_it(capsys, monkeypatch, collecting, case, verify_cpus):
    argv, outcome = _EXITS[case]
    thrall, seen = cli.h3_thrall, []

    def watched(n):  # notes whether the collector runs while the command does
        seen.append(gc.isenabled())
        if n == 50:
            raise ValueError("no h3[h50] today")
        return thrall(n) + s(3 * n) if n == 6 else thrall(n)

    monkeypatch.setattr(cli, "h3_thrall", watched)
    forks = verify_cpus(2)
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
    assert len(forks) == (case == "worker")
    _assert_no_child()
