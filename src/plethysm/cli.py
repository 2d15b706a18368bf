"""Command line interface: expansions, cross-method verification, positivity, benchmarks.

Exit codes: 0 success / all checks pass, 1 verification or positivity
failure, 2 usage error, 3 budget exceeded (the oracle's, or a direct
route's count of terms in expand, verify and dent).

``main`` runs each command with CPython's cycle collector off, and turns
it back on afterwards only if it was on. The package builds no reference
cycles: its sums are dicts of int tuples, and no function refers to
itself through a closure. So reference counting frees everything a
command drops, and the collector, which would pass over the fresh tuple
keys every few hundred allocations, finds nothing. Library functions
never touch ``gc``.

The h3 routes give h3[hn] as its columns. expand writes it row by row
from them (``SchurSum._column_rows``), verify compares the two routes
column by column in one sweep over n (``run_verify``), and dent --m 3
checks each D(n) from its two columns (``_dent_checks``). None builds an
h3 sum but to list what fails or, in verify, to compare with the oracle.

The one object the module keeps between calls is the argparse parser,
built by the first ``main`` call. It holds no computed value.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time

from . import thrall
from .oracle import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    foulkes_difference,
    multiset_count,
    plethysm_oracle,
)
from .recurrence import RecurrenceCache, dent_differences, h2_closed
from .schur import SchurSum
# h3_thrall is not used here. It stays importable from this module
# because the per-layer trace in perfbench/spans.py hooks it by this name.
from .thrall import h3_thrall  # noqa: F401

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
# verify and bench iterate over; h3's give the columns of h3[hn]. The
# brute-force oracle is every m's one reference, called on its own as
# plethysm_oracle(m, n, budget=...).
_METHODS = {
    3: {
        "recurrence": lambda n, cache: cache.h3_columns(n),
        "thrall": lambda n, cache: thrall.h3_columns(n),
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
    # h3's columns are each checked before the first byte is written.
    as_json, write = args.format == "json", sys.stdout.write
    rows = None if isinstance(total, SchurSum) else SchurSum._column_rows(args.n, total)
    if as_json:  # dumps of the header, with the terms spliced in
        write(dumps({"m": args.m, "n": args.n, "method": args.method})[:-1] + ',"terms":')
    if rows is None:
        write(total.json_terms_text() if as_json else str(total))
    else:
        SchurSum._render(rows, as_json, write)
    write("}\n" if as_json else "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify

class VerificationReport:
    """Outcome of the cross-method comparison: mismatches, positivity
    failures and each route's summed call time."""

    def __init__(self, oracle_max_n: int) -> None:
        self.oracle_max_n = oracle_max_n
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


def _negative_terms(total: SchurSum) -> list[tuple]:
    return [(list(lam), c) for lam, c in total.terms() if c < 0]


def _negative_h3_terms(n: int, columns: list[list[int]]) -> list[tuple]:
    """The negative terms of h3[hn] in ``columns``, its first few columns or
    all, shapes descending; a sum is built only when ``min`` finds one."""
    return _negative_terms(SchurSum._from_columns(n, columns)) if min(map(min, columns)) < 0 else []


def _timed(elapsed_ms: dict[str, float], key: str, expand, *args, **kwargs):
    start = _now_ms()
    total = expand(*args, **kwargs)
    elapsed_ms[key] = elapsed_ms.get(key, 0.0) + _now_ms() - start
    return total


def _sweep(cache: RecurrenceCache, max_n: int, report: VerificationReport, budget: int | None) -> None:
    # run_verify's sweep: each route once per n, each comparison at its n.
    elapsed_ms, hi = report.elapsed_ms, report.oracle_max_n
    h3_oracle, h2_oracle = [], []  # the oracle's mismatches, listed last
    for n in range(max_n + 1):
        columns = {route: _timed(elapsed_ms, f"h3_{route}", build, n, cache)
                   for route, build in _METHODS[3].items()}
        h2 = {route: _timed(elapsed_ms, f"h2_{route}", expand, n, cache)
              for route, expand in _METHODS[2].items()}
        first, *rest = columns.values()
        if n <= hi or any(cols != first for cols in rest):
            h3 = {route: SchurSum._from_columns(n, cols) for route, cols in columns.items()}
            _record_mismatches(f"h3 {' vs '.join(h3)}", n, h3, report.mismatches)
        _record_mismatches(f"h2 {' vs '.join(h2)}", n, h2, report.mismatches)
        if n <= hi:
            for m, by_route, sink in ((3, h3, h3_oracle), (2, h2, h2_oracle)):
                by_route[ORACLE] = _timed(elapsed_ms, f"h{m}_{ORACLE}", plethysm_oracle, m, n, budget=budget)
                _record_mismatches(f"h{m} vs {ORACLE}", n, by_route, sink)
        report.positivity_failures += [("h3 nonnegative, at most 3 rows", n, lam, c)
                                       for lam, c in _negative_h3_terms(n, columns["recurrence"])]
    report.mismatches += h3_oracle + h2_oracle


def run_verify(max_n: int, oracle_max_n: int = 8, budget: int | None = DEFAULT_BUDGET) -> VerificationReport:
    """Expand h3 and h2 by every route and compare, in one sweep over n in
    [0, max_n], ascending, in the calling process.

    The direct routes are refused before anything is built when the bound
    on the terms of h3[h max_n], the larger of the two, is over the budget.

    At each n the sweep builds the two h3 routes' columns of h3[hn] and
    the two h2 routes' sums, each once, and compares each pair. On
    n <= min(oracle_max_n, max_n) it then compares the oracle with h3's
    routes' sums, and then with h2's. A refusal of the oracle's budget
    raises there, after the direct routes ran on every n up to that one.
    It names the (m, n) that the oracle refuses first in any order, since
    its multiset count and table updates for h3[hn] are at least those
    for h2[hn]. Last, the sweep scans the recurrence's columns for a
    negative coefficient; a column holds shapes of at most three rows
    only. Past the oracle's n it builds an h3 sum only to list what
    fails, and it keeps no n's values past the next n: O(max_n^2) list
    slots, the recurrence's layers and the columns of at most two n.

    ``elapsed_ms["h{m}_{route}"]`` sums the times of that route's calls:
    for h3, of the calls that build its columns. Its keys and the
    mismatches come in that order: direct routes by n, then the oracle by
    m and then n. Positivity failures come by n; within one n, shapes
    descend.
    """
    _check_terms(3, max_n, budget)
    report = VerificationReport(min(oracle_max_n, max_n))
    _sweep(RecurrenceCache(), max_n, report, budget)
    return report


def cmd_verify(args) -> int:
    report = run_verify(args.max_n, args.oracle_max_n, args.budget)
    for m, routes in _METHODS.items():
        print(f"h{m}: {' vs '.join(routes)} on n in [0,{args.max_n}], "
              f"vs {ORACLE} on n in [0,{report.oracle_max_n}]")
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


def _dent_checks(m: int, max_n: int):
    """Yield (n, terms, negative terms, value at m ones) of each dent
    difference D(n), 2 <= n <= max_n, as ``dent_differences`` defines it.

    For m = 2 they are read from its sums. For m = 3, D(n) is columns 0
    and 1 of h3[hn], read from one RecurrenceCache: the terms are the
    nonzero entries, the value is a dot product with Weyl's products
    (SchurSum._columns_at_three_ones), and ``_negative_h3_terms`` lists
    the negative terms.
    """
    if m == 2:
        for n, diff in dent_differences(m, max_n):
            yield n, len(diff), _negative_terms(diff), diff.eval_at_ones(m)
        return
    cache = RecurrenceCache()
    for n in range(2, max_n + 1):
        columns = cache.h3_columns(n, 2)
        terms = sum(len(column) - column.count(0) for column in columns)
        yield n, terms, _negative_h3_terms(n, columns), SchurSum._columns_at_three_ones(n, columns)


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
    for n, terms, bad, value in _dent_checks(m, args.max_n):
        if bad:
            not_positive += 1
            print(f"n={n}: NOT POSITIVE, negative terms {bad}")
        else:
            print(f"n={n}: positive ({terms} terms)")
        # A full column leaves Weyl's product unchanged, so s_(2^m) odot X
        # has the value of X at m ones, and h_m[h_n] at m ones counts the
        # multisets of m degree-n monomials in m variables.
        expected = multiset_count(m, n, m) - multiset_count(m, n - 2, m)
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
    """Time every h3 route on n >= 1, once h3[h max_n]'s bound on the terms
    passes the budget: the direct routes' builds of the columns of h3[hn],
    and the oracle's sum. Each repeat starts cold: it builds its own
    RecurrenceCache, and the package keeps nothing between calls."""
    _check_terms(3, max_n, budget)
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
    _check_terms(3, args.max_n, args.budget)  # before opening the file empties it
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

def _int_from(least: int):
    """The argparse type of an int option that must be at least ``least``,
    0 or 1."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError("must be positive" if least else "must be nonnegative")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plethysm",
        description="Exact Schur expansions of h2[hn] and h3[hn], cross-verified three ways.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="print the Schur expansion of h_m[h_n]")
    p.add_argument("--m", type=int, choices=sorted(_METHODS), default=3)
    p.add_argument("--n", type=_int_from(0), required=True)
    p.add_argument("--method", default="recurrence",
                   choices=[*dict.fromkeys(route for routes in _METHODS.values() for route in routes), ORACLE])
    p.add_argument("--format", default="text", choices=("text", "json"))
    p.add_argument("--budget", type=_int_from(1), default=DEFAULT_BUDGET,
                   help="budget on the oracle's multiset count and table updates, "
                        "and on the direct routes' count of terms")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("verify", help="cross-check recurrence, closed form, and oracle")
    p.add_argument("--max-n", type=_int_from(0), default=40)
    p.add_argument("--oracle-max-n", type=_int_from(0), default=8)
    p.add_argument("--budget", type=_int_from(1), default=DEFAULT_BUDGET)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("foulkes", help="check h_n[h_m] - h_m[h_n] for Schur positivity")
    p.add_argument("--m", type=_int_from(1), required=True)
    p.add_argument("--n", type=_int_from(1), required=True)
    p.add_argument("--budget", type=_int_from(1), default=DEFAULT_BUDGET)
    p.set_defaults(func=cmd_foulkes)

    p = sub.add_parser("dent", help="check h_m[hn] - s_(2^m) odot h_m[h(n-2)] for positivity")
    p.add_argument("--m", type=int, choices=(2, 3), default=3)
    p.add_argument("--max-n", type=_int_from(0), required=True)
    p.add_argument("--budget", type=_int_from(1), default=DEFAULT_BUDGET,
                   help="budget on the count of terms the sweep holds")
    p.set_defaults(func=cmd_dent)

    p = sub.add_parser("bench", help="time the recurrence, closed form, and oracle")
    p.add_argument("--max-n", type=_int_from(1), required=True)
    p.add_argument("--repeats", type=_int_from(1), default=3)
    p.add_argument("--oracle-max-n", type=_int_from(0), default=8)
    p.add_argument("--budget", type=_int_from(1), default=DEFAULT_BUDGET)
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
