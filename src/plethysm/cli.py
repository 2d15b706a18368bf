"""Command line interface: expansions, cross-method verification, positivity, benchmarks.

Exit codes: 0 success / all checks pass, 1 verification or positivity
failure, 2 usage error, 3 oracle budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field

from .oracle import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    foulkes_difference,
    plethysm_oracle,
)
from .recurrence import RecurrenceCache, dent_difference, h2_closed
from .schur import SchurSum
from .thrall import h3_thrall

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def dumps(obj) -> str:
    """Canonical JSON used for all machine-readable output."""
    return json.dumps(obj, separators=(",", ":"))


def _now_ms() -> float:
    return time.perf_counter() * 1000.0


# ---------------------------------------------------------------------------
# routes

ORACLE = "oracle"

# The one table of routes, m -> route -> callable(n, cache, budget), that
# expand, verify and bench iterate over. The brute-force oracle runs last
# and on fewer n, up to --oracle-max-n.
_METHODS = {
    3: {
        "recurrence": lambda n, cache, budget: cache.h3(n),
        "thrall": lambda n, cache, budget: h3_thrall(n),
        ORACLE: lambda n, cache, budget: plethysm_oracle(3, n, budget=budget),
    },
    2: {
        "recurrence": lambda n, cache, budget: cache.h2(n),
        "closed": lambda n, cache, budget: h2_closed(n),
        ORACLE: lambda n, cache, budget: plethysm_oracle(2, n, budget=budget),
    },
}


# ---------------------------------------------------------------------------
# expand

def cmd_expand(args) -> int:
    table = _METHODS[args.m]
    if args.method not in table:
        valid = ", ".join(sorted(table))
        print(f"error: method {args.method!r} is not valid for m={args.m} (use one of: {valid})",
              file=sys.stderr)
        return EXIT_USAGE
    total = table[args.method](args.n, RecurrenceCache(), args.budget)
    if args.format == "json":
        print(dumps({"m": args.m, "n": args.n, "method": args.method, "terms": total.json_terms()}))
    else:
        print(str(total))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify

@dataclass
class VerificationReport:
    """Outcome of the cross-method comparison: mismatches, positivity
    failures and each route's summed call time."""

    oracle_range: tuple[int, int]
    mismatches: list[tuple] = field(default_factory=list)
    positivity_failures: list[tuple] = field(default_factory=list)
    elapsed_ms: dict[str, float] = field(default_factory=dict)

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


def _direct_routes(m: int) -> str:
    """``recurrence vs thrall``: the routes verify runs on every n."""
    return " vs ".join(route for route in _METHODS[m] if route != ORACLE)


def run_verify(max_n: int, oracle_max_n: int = 8, budget: int | None = DEFAULT_BUDGET) -> VerificationReport:
    """Expand h3 and h2 by every route and compare: the direct routes with
    one another on [0, max_n], the oracle with all of them on
    [0, min(oracle_max_n, max_n)].

    One pass over n: every route's value at n is computed, compared and
    dropped before n + 1, so the sweep holds O(max_n^2) terms, the size of
    one h3[hn]. ``elapsed_ms["h{m}_{route}"]`` sums the times of that
    route's calls alone, direct routes first, then the oracle. Mismatches
    are listed direct routes first, by n, then the oracle's, by m and then
    n; positivity failures of the recurrence's h3 by n. Within one n,
    shapes come in descending order.
    """
    ora_hi = min(oracle_max_n, max_n)
    runs = sorted(((f"h{m}_{route}", m, route, expand)
                   for m, routes in _METHODS.items() for route, expand in routes.items()),
                  key=lambda run: run[2] == ORACLE)  # stable: oracle last
    report = VerificationReport(oracle_range=(0, ora_hi),
                                elapsed_ms=dict.fromkeys((run[0] for run in runs), 0.0))
    oracle_mismatches: dict[int, list] = {m: [] for m in _METHODS}
    cache = RecurrenceCache()
    for n in range(max_n + 1):
        values: dict[int, dict[str, SchurSum]] = {m: {} for m in _METHODS}
        for key, m, route, expand in runs:
            if route == ORACLE and n > ora_hi:
                continue
            start = _now_ms()
            values[m][route] = expand(n, cache, budget)
            report.elapsed_ms[key] += _now_ms() - start
        for m, by_route in values.items():
            _record_mismatches(f"h{m} {_direct_routes(m)}", n,
                               {route: v for route, v in by_route.items() if route != ORACLE},
                               report.mismatches)
            if ORACLE in by_route:
                _record_mismatches(f"h{m} vs {ORACLE}", n, by_route, oracle_mismatches[m])
        bad = [(lam, c) for lam, c in values[3]["recurrence"]._terms.items() if c < 0 or len(lam) > 3]
        for lam, c in sorted(bad, reverse=True):
            report.positivity_failures.append(("h3 nonnegative, at most 3 rows", n, list(lam), c))
    for sink in oracle_mismatches.values():
        report.mismatches.extend(sink)
    return report


def cmd_verify(args) -> int:
    report = run_verify(args.max_n, args.oracle_max_n, args.budget)
    for m in _METHODS:
        print(f"h{m}: {_direct_routes(m)} on n in [0,{args.max_n}], "
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
    cache = RecurrenceCache()
    failures = 0
    for n in range(2, args.max_n + 1):
        diff = dent_difference(args.m, n, cache)
        if diff.is_schur_positive():
            print(f"n={n}: positive ({len(diff)} terms)")
        else:
            failures += 1
            bad = [(list(lam), c) for lam, c in diff.terms() if c < 0]
            print(f"n={n}: NOT POSITIVE, negative terms {bad}")
    if failures:
        print(f"FAIL ({failures} of {args.max_n - 1} checks not Schur-positive)")
        return EXIT_FAIL
    print(f"PASS (h{args.m}[hn] - s_(2^{args.m}) odot h{args.m}[h(n-2)] "
          f"Schur-positive for 2 <= n <= {args.max_n})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench

@dataclass
class BenchResult:
    """Per-n best-of-repeats timings in milliseconds, keyed by method name."""

    millis: dict[tuple[int, str], float] = field(default_factory=dict)

    def total(self, method: str) -> float:
        return sum(ms for (_, name), ms in self.millis.items() if name == method)

    def rows(self) -> list[tuple[int, str, float]]:
        return sorted((n, name, ms) for (n, name), ms in self.millis.items())


def run_bench(max_n: int, repeats: int = 3, oracle_max_n: int = 8,
              budget: int | None = DEFAULT_BUDGET) -> BenchResult:
    """Time every h3 route on n >= 1. Each repeat starts cold: it builds its
    own RecurrenceCache, and the package keeps nothing between calls."""
    result = BenchResult()

    def record(n: int, method: str, ms: float) -> None:
        key = (n, method)
        if key not in result.millis or ms < result.millis[key]:
            result.millis[key] = ms

    oracle_hi = min(oracle_max_n, max_n)
    for _ in range(repeats):
        cache = RecurrenceCache()
        for route, expand in _METHODS[3].items():
            for n in range(1, (oracle_hi if route == ORACLE else max_n) + 1):
                try:
                    start = _now_ms()
                    expand(n, cache, budget)
                    record(n, route, _now_ms() - start)
                except BudgetExceededError:
                    break  # the oracle's count only grows with n
    return result


def cmd_bench(args) -> int:
    result = run_bench(args.max_n, args.repeats, args.oracle_max_n, args.budget)
    methods = list(_METHODS[3])
    print(f"best of {args.repeats} repeats, milliseconds")
    print("%6s%s" % ("n", "".join("%14s" % m for m in methods)))
    for n in range(1, args.max_n + 1):
        cells = []
        for method in methods:
            ms = result.millis.get((n, method))
            cells.append("%14.3f" % ms if ms is not None else "%14s" % "-")
        print("%6d%s" % (n, "".join(cells)))
    print("%6s%s" % ("total", "".join("%14.3f" % result.total(m) for m in methods)))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write("n,method,millis\n")
            for n, method, ms in result.rows():
                handle.write(f"{n},{method},{ms:.3f}\n")
        print(f"wrote {args.csv}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / entry point

def _nonneg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _positive(text: str) -> int:
    value = int(text)
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
    p.add_argument("--m", type=int, choices=(2, 3), default=3)
    p.add_argument("--n", type=_nonneg, required=True)
    p.add_argument("--method", default="recurrence",
                   choices=sorted(dict.fromkeys(route for routes in _METHODS.values() for route in routes),
                                  key=lambda route: route == ORACLE))
    p.add_argument("--format", default="text", choices=("text", "json"))
    p.add_argument("--budget", type=_positive, default=DEFAULT_BUDGET,
                   help="oracle multiset budget")
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
    p.set_defaults(func=cmd_dent)

    p = sub.add_parser("bench", help="time the recurrence, closed form, and oracle")
    p.add_argument("--max-n", type=_positive, required=True)
    p.add_argument("--repeats", type=_positive, default=3)
    p.add_argument("--oracle-max-n", type=_nonneg, default=8)
    p.add_argument("--budget", type=_positive, default=DEFAULT_BUDGET)
    p.add_argument("--csv", default=None, help="also write n,method,millis rows to this file")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
