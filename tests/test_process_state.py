"""The package holds nothing between calls: every memo lives in an object
its caller owns, so what a call builds is freed once its result is. The
one object kept is the CLI's argparse parser, which holds no computed
value. Nothing the package builds is a reference cycle, so reference
counting alone frees it, and the CLI runs each command with the cycle
collector off."""

import gc
import importlib
import pkgutil
import tracemalloc

import pytest

import plethysm
import plethysm.cli as cli
import plethysm.thrall as thrall
from plethysm import (
    RecurrenceCache,
    dent_differences,
    foulkes_difference,
    h3,
    h3_thrall,
    plethysm_oracle,
    s,
    schur_poly,
)


def test_no_module_holds_a_cache():
    held = []
    for info in pkgutil.iter_modules(plethysm.__path__, "plethysm."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") or isinstance(value, RecurrenceCache):
                held.append(f"{info.name}.{name}")
    assert not held, f"process-wide caches: {held}"


def test_calls_without_a_cache_leave_nothing_held():
    tracemalloc.start()
    try:
        h3(200)
        for n, diff in dent_differences(3, 150):
            if n == 80:  # a sweep dropped part way frees its sums and layers
                break
        del diff
        plethysm_oracle(3, 6)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 1e6, f"{held / 1e6:.3f} MB still held"


def _main(*argv):
    return lambda: cli.main(list(argv))


# Each command on every exit path it has, and the library calls the
# commands make.
CALLS = {
    "expand_recurrence": _main("expand", "--m", "3", "--n", "30"),
    "expand_recurrence_json": _main("expand", "--m", "3", "--n", "30", "--format", "json"),
    "expand_thrall": _main("expand", "--m", "3", "--n", "30", "--method", "thrall"),
    "expand_thrall_json": _main("expand", "--m", "3", "--n", "30", "--method", "thrall", "--format", "json"),
    "expand_closed": _main("expand", "--m", "2", "--n", "30", "--method", "closed"),
    "expand_oracle": _main("expand", "--m", "3", "--n", "6", "--method", "oracle"),
    "expand_exit_2": _main("expand", "--m", "2", "--n", "3", "--method", "thrall"),
    "expand_exit_3": _main("expand", "--m", "3", "--n", "100000"),
    "expand_oracle_exit_3": _main("expand", "--m", "3", "--n", "9", "--method", "oracle", "--budget", "10"),
    "verify": _main("verify", "--max-n", "60", "--oracle-max-n", "5"),
    "verify_exit_1": _main("verify", "--max-n", "60", "--oracle-max-n", "3"),
    "verify_exit_3": _main("verify", "--max-n", "100000"),
    "verify_oracle_exit_3": _main("verify", "--max-n", "3", "--oracle-max-n", "3", "--budget", "12"),
    "dent": _main("dent", "--m", "3", "--max-n", "40"),
    "dent_m2": _main("dent", "--m", "2", "--max-n", "40"),
    "dent_exit_1": _main("dent", "--m", "3", "--max-n", "2"),
    "dent_exit_2": _main("dent", "--m", "3", "--max-n", "1"),
    "dent_exit_3": _main("dent", "--m", "3", "--max-n", "100000"),
    "foulkes": _main("foulkes", "--m", "3", "--n", "4"),
    "foulkes_exit_1": _main("foulkes", "--m", "2", "--n", "3"),
    "foulkes_exit_2": _main("foulkes", "--m", "4", "--n", "3"),
    "foulkes_exit_3": _main("foulkes", "--m", "4", "--n", "5", "--budget", "1000"),
    "bench": _main("bench", "--max-n", "12", "--repeats", "2", "--oracle-max-n", "5"),
    "bench_exit_2": _main("bench", "--max-n", "2", "--csv", "/nonexistent/out.csv"),
    "bench_exit_3": _main("bench", "--max-n", "100000"),
    "h3": lambda: h3(60),
    "h3_thrall": lambda: h3_thrall(60),
    "dent_differences": lambda: [list(dent_differences(m, 30)) for m in (2, 3)],
    "plethysm_oracle": lambda: [plethysm_oracle(m, n) for m, n in ((2, 40), (3, 8), (4, 4))],
    "foulkes_difference": lambda: foulkes_difference(3, 5),
    "schur_poly": lambda: schur_poly((3, 2, 1), 4),
}

def _bumped_columns(n, columns=thrall.h3_columns):
    # Thrall's columns of h3[hn] off by s_(3n), to fail verify's
    # comparisons with the recurrence and with the oracle.
    columns = columns(n)
    columns[0][0] += 1
    return columns


# Faults injected where correct code cannot fail: a module, a name in it
# and its stand-in.
FAULTS = {
    "verify_exit_1": (thrall, "h3_columns", _bumped_columns),
    # D(2) = s_6 - s_42, as columns 0 and 1 of h3[h2].
    "dent_exit_1": (RecurrenceCache, "h3_columns", lambda self, n, stop=None: [[1, 0, -1, 0], [0, 0]]),
    "foulkes_exit_1": (cli, "foulkes_difference", lambda m, n, budget: -s(4, 2)),
}


@pytest.mark.parametrize("name", list(CALLS))
def test_calls_build_no_reference_cycles(capsys, monkeypatch, name):
    # Everything a call drops must be freed by reference counting: with the
    # collector off during the call, it finds nothing afterwards. bench
    # times every route.
    if name in FAULTS:
        monkeypatch.setattr(*FAULTS[name])
    cli.main(["dent", "--max-n", "2"])  # builds the kept parser outside the count
    capsys.readouterr()
    gc.collect()
    was = gc.isenabled()
    gc.disable()
    try:
        result = CALLS[name]()
        found = gc.collect()
    finally:
        if was:
            gc.enable()
    assert found == 0
    if "_exit_" in name:  # the call reached the exit path it is named for
        assert result == int(name.rsplit("_", 1)[1])
