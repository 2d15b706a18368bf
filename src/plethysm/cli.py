"""Command line interface: expansions, cross-method verification, positivity, benchmarks.

Exit codes: 0 success / all checks pass, 1 verification or positivity
failure, 2 usage error, 3 budget exceeded (the oracle's, or a direct
route's count of terms in expand, verify and dent).

``main`` runs each command with CPython's cycle collector off, and turns
it back on afterwards only if it was on. The package builds no reference
cycles: its sums are dicts of int tuples, and no function refers to
itself through a closure. So reference counting frees everything a
command drops, and the collector, which would pass over the fresh tuple
keys every few hundred allocations, finds nothing. verify's forked
workers inherit the setting. Library functions never touch ``gc``.

The one object the module keeps between calls is the argparse parser,
built by the first ``main`` call. It holds no computed value.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import marshal
import os
import sys
import time

from .oracle import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    foulkes_difference,
    multiset_count,
    plethysm_oracle,
)
from .recurrence import RecurrenceCache, dent_differences, h2_closed
from .schur import SchurSum
from .thrall import h3_thrall

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def dumps(obj) -> str:
    """Canonical JSON used for all machine-readable output."""
    return json.dumps(obj, separators=(",", ":"), check_circular=False)


def _now_ms() -> float:
    return time.perf_counter() * 1000.0


# ---------------------------------------------------------------------------
# routes

ORACLE = "oracle"

# Each m's direct routes, m -> route -> callable(n, cache), that expand,
# verify and bench iterate over. The brute-force oracle is every m's one
# reference, called on its own as plethysm_oracle(m, n, budget=...).
_METHODS = {
    3: {
        "recurrence": lambda n, cache: cache.h3(n),
        "thrall": lambda n, cache: h3_thrall(n),
    },
    2: {
        "recurrence": lambda n, cache: cache.h2(n),
        "closed": lambda n, cache: h2_closed(n),
    },
}


def _direct_terms(m: int, n: int) -> int:
    # A direct route's output has at most one term per partition of mn into
    # at most m parts: round((3n + 3)^2 / 12) of them for m = 3 (exact in
    # integers, as (3n + 3)^2 is never 6 mod 12), and for m = 2 only the
    # n // 2 + 1 with even parts.
    return ((3 * n + 3) ** 2 + 6) // 12 if m == 3 else n // 2 + 1


def _check_terms(m: int, n: int, budget: int | None) -> None:
    """Refuse h_m[hn] by a direct route, before anything is built, when its
    bound on the terms is over the budget."""
    terms = _direct_terms(m, n)
    if budget is not None and terms > budget:
        raise BudgetExceededError(terms, budget, f"h{m}[h{n}]", unit="terms")


# ---------------------------------------------------------------------------
# expand

def cmd_expand(args) -> int:
    table = _METHODS[args.m]
    if args.method == ORACLE:
        total = plethysm_oracle(args.m, args.n, budget=args.budget)
    elif args.method in table:
        _check_terms(args.m, args.n, args.budget)
        total = table[args.method](args.n, RecurrenceCache())
    else:
        valid = ", ".join(sorted([*table, ORACLE]))
        print(f"error: method {args.method!r} is not valid for m={args.m} (use one of: {valid})",
              file=sys.stderr)
        return EXIT_USAGE
    if args.format == "json":
        # dumps of the header with the terms spliced in, printed in pieces
        # so that the terms text is not copied.
        head = dumps({"m": args.m, "n": args.n, "method": args.method})
        print(head[:-1], ',"terms":', total.json_terms_text(), "}", sep="")
    else:
        print(str(total))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify

class VerificationReport:
    """Outcome of the cross-method comparison: mismatches, positivity
    failures and each route's summed call time."""

    def __init__(self, oracle_range: tuple[int, int]) -> None:
        self.oracle_range = oracle_range
        self.mismatches: list[tuple] = []
        self.positivity_failures: list[tuple] = []
        self.elapsed_ms: dict[str, float] = {}

    @property
    def passed(self) -> bool:
        return not self.mismatches and not self.positivity_failures


def _record_mismatches(label: str, n: int, values: dict[str, SchurSum], sink: list) -> None:
    first, *rest = values.values()
    if all(total == first for total in rest):
        return
    support = set()
    for total in values.values():
        support |= total.support()
    for lam in sorted(support, reverse=True):
        coeffs = {name: total.coeff(lam) for name, total in values.items()}
        if len(set(coeffs.values())) > 1:
            sink.append((label, n, list(lam), coeffs))


def _positivity_failures(n: int, total: SchurSum) -> list[tuple]:
    """The terms of h3[hn] that are negative or have more than three rows,
    in descending order. Only a failing sum is sorted into terms."""
    if total.is_schur_positive() and total.max_rows() <= 3:
        return []
    return [("h3 nonnegative, at most 3 rows", n, list(lam), c)
            for lam, c in total.terms() if c < 0 or len(lam) > 3]


def _timed(elapsed_ms: dict[str, float], key: str, expand, *args, **kwargs) -> SchurSum:
    start = _now_ms()
    total = expand(*args, **kwargs)
    elapsed_ms[key] = elapsed_ms.get(key, 0.0) + _now_ms() - start
    return total


def _direct_sweep(cache: RecurrenceCache, lo: int, hi: int) -> tuple[dict, list, list]:
    """Compare each m's direct routes on every n in [lo, hi) and scan the
    recurrence's h3 for positivity: each route's summed call time in ms,
    the mismatches and the positivity failures, all by n."""
    elapsed_ms, mismatches, failures = {}, [], []
    for n in range(lo, hi):
        values = {}  # no name in this loop may hold h3(n) while h3(n + 1) is built
        for m, routes in _METHODS.items():
            values[m] = {route: _timed(elapsed_ms, f"h{m}_{route}", expand, n, cache)
                         for route, expand in routes.items()}
            _record_mismatches(f"h{m} {' vs '.join(routes)}", n, values[m], mismatches)
        failures.extend(_positivity_failures(n, values[3]["recurrence"]))
    return elapsed_ms, mismatches, failures


# A share of the direct sweep costs about 0.75 us per term of its bound
# (2 cores, Python 3.11.7), and a fork round trip (fork, pipe, a small
# result, exit, wait) took 1.7-2.1 ms, the price of about 2,700 terms. A
# worker's share must be worth about four round trips.
_MIN_SHARE_TERMS = 10_000

_SIGKILL = 9  # signal.SIGKILL on every POSIX system; importing signal takes about 1 ms


def _shares(max_n: int) -> list[tuple[int, int]]:
    """Cut [0, max_n] into contiguous ranges [lo, hi) of about equal weight,
    _direct_terms(3, n) for each n, one for each CPU this process may run
    on, but only as many as give each at least _MIN_SHARE_TERMS. A single
    range when fork is missing or another thread runs."""
    total = sum(_direct_terms(3, n) for n in range(max_n + 1))
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    count = min(cpus, total // _MIN_SHARE_TERMS)
    if count < 2 or not hasattr(os, "fork"):
        return [(0, max_n + 1)]
    import threading  # only here, so that importing the CLI stays cheap

    if threading.active_count() > 1:  # a forked child would hold copies of their locks
        return [(0, max_n + 1)]
    cuts, done = [0], 0
    for n in range(max_n + 1):
        done += _direct_terms(3, n)
        if done * count >= len(cuts) * total:  # once per range; the last cut is max_n + 1
            cuts.append(n + 1)
    return list(zip(cuts, cuts[1:]))


def _fork_sweep(lo: int, hi: int) -> tuple[int, io.BufferedReader]:
    """Fork a worker that runs _direct_sweep on [lo, hi) with a fresh cache
    and writes the marshal bytes of (True, its result) or, when it raises
    an Exception, of (False, "Type: message") to a pipe; interrupted, it
    writes nothing. Return its pid and the read end."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        # The worker leaves by os._exit on every path, so it runs none of
        # the caller's exit handlers and flushes none of its buffers.
        status = 1
        try:
            os.close(read_fd)
            try:
                result = (True, _direct_sweep(RecurrenceCache(), lo, hi))
            except Exception as exc:
                result = (False, f"{type(exc).__name__}: {exc}")
            with open(write_fd, "wb") as pipe:
                pipe.write(marshal.dumps(result))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def run_verify(max_n: int, oracle_max_n: int = 8, budget: int | None = DEFAULT_BUDGET) -> VerificationReport:
    """Expand h3 and h2 by every route and compare, in two sweeps.

    The direct routes are refused before anything is built when the bound
    on the terms of h3[h max_n], the larger of the two, is over the budget.

    The first sweep (_direct_sweep) compares each m's direct routes on
    [0, max_n] and scans the recurrence's h3 for positivity. _shares cuts
    it into contiguous shares of about equal weight, round((3n + 3)^2 / 12)
    per n, one for each CPU in os.sched_getaffinity(0). The caller runs the
    lowest share, and each other share runs at the same time in a worker
    made by os.fork, which sends its result back through a pipe. The caller
    runs the whole sweep on one CPU (``taskset -c 0``), without os.fork,
    while another thread runs, or when a worker's share would not pay for
    its fork. Each process drops every value at n before n + 1, so it holds
    O(max_n^2) terms, the size of one h3[hn].

    After its share the caller runs the second sweep, which compares the
    oracle with the direct routes, for each m on [0, min(oracle_max_n,
    max_n)], and recomputes those routes untimed from the warm cache:
    keeping them would hold every h3(n) up to oracle_max_n,
    O(oracle_max_n^3) terms. Then it reads the workers' results in n order.
    On every path each worker is killed, if still running, and reaped; one
    whose sweep raised makes the call raise RuntimeError naming its
    exception type and message.

    ``elapsed_ms["h{m}_{route}"]`` sums the times of that route's calls in
    every process. Its keys and the mismatches follow the serial order:
    direct routes by n, then the oracle by m and then n. Positivity
    failures come by n; within one n, shapes descend.
    """
    _check_terms(3, max_n, budget)
    ora_hi = min(oracle_max_n, max_n)
    report = VerificationReport(oracle_range=(0, ora_hi))
    (lo, hi), *spare = _shares(max_n)
    workers = []
    try:
        for share in spare:
            workers.append(_fork_sweep(*share))
        cache = RecurrenceCache()
        report.elapsed_ms, report.mismatches, report.positivity_failures = _direct_sweep(cache, lo, hi)
        oracle_ms, oracle_mismatches = {}, []
        for m, routes in _METHODS.items():
            for n in range(ora_hi + 1):
                by_route = {route: expand(n, cache) for route, expand in routes.items()}
                by_route[ORACLE] = _timed(oracle_ms, f"h{m}_{ORACLE}", plethysm_oracle, m, n, budget=budget)
                _record_mismatches(f"h{m} vs {ORACLE}", n, by_route, oracle_mismatches)
        for (pid, pipe), (first, end) in zip(workers, spare):
            with pipe:
                data = pipe.read()
            ok, result = marshal.loads(data) if data else (False, "exited without a result")
            if not ok:
                raise RuntimeError(f"verify worker on n in [{first},{end - 1}]: {result}")
            elapsed_ms, mismatches, failures = result
            for key, ms in elapsed_ms.items():
                report.elapsed_ms[key] += ms
            report.mismatches += mismatches
            report.positivity_failures += failures
    finally:
        for pid, pipe in workers:
            pipe.close()
            # Unreaped, a worker that has exited keeps its pid, so the
            # kill cannot reach another process.
            os.kill(pid, _SIGKILL)
            os.waitpid(pid, 0)
    report.elapsed_ms.update(oracle_ms)
    report.mismatches += oracle_mismatches
    return report


def cmd_verify(args) -> int:
    report = run_verify(args.max_n, args.oracle_max_n, args.budget)
    for m, routes in _METHODS.items():
        print(f"h{m}: {' vs '.join(routes)} on n in [0,{args.max_n}], "
              f"vs {ORACLE} on n in [0,{report.oracle_range[1]}]")
    for name, ms in report.elapsed_ms.items():
        print(f"  {name}: {ms:.1f} ms")
    for label, n, lam, coeffs in report.mismatches:
        rendered = " ".join(f"{name}={c}" for name, c in coeffs.items())
        print(f"MISMATCH [{label}] n={n} lambda={lam}: {rendered}")
    for check, n, lam, c in report.positivity_failures:
        print(f"POSITIVITY FAILURE [{check}] n={n} lambda={lam} coeff={c}")
    if report.passed:
        print("PASS (0 mismatches, 0 positivity failures)")
        return EXIT_OK
    print(f"FAIL ({len(report.mismatches)} mismatches, "
          f"{len(report.positivity_failures)} positivity failures)")
    return EXIT_FAIL


# ---------------------------------------------------------------------------
# foulkes / dent

def cmd_foulkes(args) -> int:
    if args.m > args.n:
        print("error: foulkes requires m <= n", file=sys.stderr)
        return EXIT_USAGE
    diff = foulkes_difference(args.m, args.n, budget=args.budget)
    positive = diff.is_schur_positive()
    print(f"h{args.n}[h{args.m}] - h{args.m}[h{args.n}] = {diff}")
    print(f"Schur-positive: {'true' if positive else 'false'}")
    return EXIT_OK if positive else EXIT_FAIL


def cmd_dent(args) -> int:
    if args.max_n < 2:
        print("error: --max-n must be at least 2", file=sys.stderr)
        return EXIT_USAGE
    m, checks = args.m, args.max_n - 1
    # For m = 2 each sum the sweep holds has at most as many terms as
    # h2[h max_n]. For m = 3 it keeps every layer T(j), j <= max_n, of
    # 3j//2 + 1 coefficients: as many as h3[h max_n] has terms, which are
    # the triples of sum 3 max_n, and those with third part max_n - j are
    # the two-row partitions of 3j shifted.
    _check_terms(m, args.max_n, args.budget)
    not_positive = wrong_values = 0
    for n, diff in dent_differences(m, args.max_n):
        if diff.is_schur_positive():
            print(f"n={n}: positive ({len(diff)} terms)")
        else:
            not_positive += 1
            bad = [(list(lam), c) for lam, c in diff.terms() if c < 0]
            print(f"n={n}: NOT POSITIVE, negative terms {bad}")
        # A full column leaves Weyl's product unchanged, so s_(2^m) odot X
        # has the value of X at m ones, and h_m[h_n] at m ones counts the
        # multisets of m degree-n monomials in m variables.
        value, expected = diff.eval_at_ones(m), multiset_count(m, n, m) - multiset_count(m, n - 2, m)
        if value != expected:
            wrong_values += 1
            print(f"n={n}: WRONG VALUE {value} at {m} ones, expected {expected} from multiset counts")
    if not_positive or wrong_values:
        print(f"FAIL ({not_positive} of {checks} checks not Schur-positive, "
              f"{wrong_values} of {checks} values at {m} ones wrong)")
        return EXIT_FAIL
    print(f"PASS (h{m}[hn] - s_(2^{m}) odot h{m}[h(n-2)] "
          f"Schur-positive for 2 <= n <= {args.max_n})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench

class BenchResult:
    """Per-n best-of-repeats timings in milliseconds, keyed by method name."""

    def __init__(self) -> None:
        self.millis: dict[tuple[int, str], float] = {}

    def total(self, method: str) -> float | None:
        """Sum of the method's timings, None for a method never timed."""
        times = [ms for (_, name), ms in self.millis.items() if name == method]
        return sum(times) if times else None

    def rows(self) -> list[tuple[int, str, float]]:
        return sorted((n, name, ms) for (n, name), ms in self.millis.items())


def run_bench(max_n: int, repeats: int = 3, oracle_max_n: int = 8,
              budget: int | None = DEFAULT_BUDGET) -> BenchResult:
    """Time every h3 route on n >= 1. Each repeat starts cold: it builds its
    own RecurrenceCache, and the package keeps nothing between calls."""
    result = BenchResult()
    runs = [(route, expand, max_n) for route, expand in _METHODS[3].items()]
    runs.append((ORACLE, lambda n, cache: plethysm_oracle(3, n, budget=budget),
                 min(oracle_max_n, max_n)))
    for _ in range(repeats):
        cache = RecurrenceCache()
        for route, expand, hi in runs:
            for n in range(1, hi + 1):
                try:
                    start = _now_ms()
                    expand(n, cache)
                    ms = _now_ms() - start
                    result.millis[n, route] = min(ms, result.millis.get((n, route), ms))
                except BudgetExceededError:
                    break  # only the oracle refuses, and its count only grows with n
    return result


def _cell(ms: float | None) -> str:
    return "%14.3f" % ms if ms is not None else "%14s" % "-"


def cmd_bench(args) -> int:
    try:  # before any timing: a path that cannot be written is a usage error
        csv = open(args.csv, "w", encoding="utf-8") if args.csv else None
    except OSError as exc:
        print(f"error: cannot write {args.csv}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    result = run_bench(args.max_n, args.repeats, args.oracle_max_n, args.budget)
    methods = [*_METHODS[3], ORACLE]
    print(f"best of {args.repeats} repeats, milliseconds")
    print("%6s%s" % ("n", "".join("%14s" % m for m in methods)))
    for n in range(1, args.max_n + 1):
        print("%6d%s" % (n, "".join(_cell(result.millis.get((n, method))) for method in methods)))
    print("%6s%s" % ("total", "".join(_cell(result.total(m)) for m in methods)))
    if csv:
        with csv:
            csv.write("n,method,millis\n")
            for n, method, ms in result.rows():
                csv.write(f"{n},{method},{ms:.3f}\n")
        print(f"wrote {args.csv}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / entry point

def _nonneg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plethysm",
        description="Exact Schur expansions of h2[hn] and h3[hn], cross-verified three ways.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="print the Schur expansion of h_m[h_n]")
    p.add_argument("--m", type=int, choices=sorted(_METHODS), default=3)
    p.add_argument("--n", type=_nonneg, required=True)
    p.add_argument("--method", default="recurrence",
                   choices=[*dict.fromkeys(route for routes in _METHODS.values() for route in routes), ORACLE])
    p.add_argument("--format", default="text", choices=("text", "json"))
    p.add_argument("--budget", type=_positive, default=DEFAULT_BUDGET,
                   help="budget on the oracle's multiset count and table updates, "
                        "and on the direct routes' count of terms")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("verify", help="cross-check recurrence, closed form, and oracle")
    p.add_argument("--max-n", type=_nonneg, default=40)
    p.add_argument("--oracle-max-n", type=_nonneg, default=8)
    p.add_argument("--budget", type=_positive, default=DEFAULT_BUDGET)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("foulkes", help="check h_n[h_m] - h_m[h_n] for Schur positivity")
    p.add_argument("--m", type=_positive, required=True)
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--budget", type=_positive, default=DEFAULT_BUDGET)
    p.set_defaults(func=cmd_foulkes)

    p = sub.add_parser("dent", help="check h_m[hn] - s_(2^m) odot h_m[h(n-2)] for positivity")
    p.add_argument("--m", type=int, choices=(2, 3), default=3)
    p.add_argument("--max-n", type=_nonneg, required=True)
    p.add_argument("--budget", type=_positive, default=DEFAULT_BUDGET,
                   help="budget on the count of terms the sweep holds")
    p.set_defaults(func=cmd_dent)

    p = sub.add_parser("bench", help="time the recurrence, closed form, and oracle")
    p.add_argument("--max-n", type=_positive, required=True)
    p.add_argument("--repeats", type=_positive, default=3)
    p.add_argument("--oracle-max-n", type=_nonneg, default=8)
    p.add_argument("--budget", type=_positive, default=DEFAULT_BUDGET)
    p.add_argument("--csv", default=None, help="also write n,method,millis rows to this file")
    p.set_defaults(func=cmd_bench)
    return parser


_parser: argparse.ArgumentParser | None = None  # built by the first main call


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()  # the package builds no reference cycles; see the module docstring
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    finally:
        if collecting:
            gc.enable()
