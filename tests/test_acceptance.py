"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time
from math import comb

from plethysm import (
    Partition,
    RecurrenceCache,
    dent_differences,
    foulkes_difference,
    h2_closed,
    h2_rec,
    h3_coeff_closed,
    h3_coeff_recursive,
    h3_thrall,
    partitions_of,
    plethysm_oracle,
)
from plethysm.cli import run_bench


def _report(number: int, description: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{extra}]" if extra else ""
    print(f"criterion {number} ({description}): {status}{suffix}")


def test_criterion_1_recurrence_equals_thrall_to_40():
    start = time.perf_counter()
    cache = RecurrenceCache()
    mismatches = [n for n in range(41) if cache.h3(n) != h3_thrall(n)]
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 10.0
    _report(1, "h3 recurrence == closed formula, n <= 40", ok, f"{elapsed:.2f}s")
    assert not mismatches, f"mismatches at n={mismatches}"
    assert elapsed < 10.0, f"took {elapsed:.2f}s, limit 10s"


def test_criterion_2_recurrence_equals_oracle_to_8():
    start = time.perf_counter()
    cache = RecurrenceCache()
    mismatches = [n for n in range(9) if cache.h3(n) != plethysm_oracle(3, n)]
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 300.0
    _report(2, "h3 recurrence == brute-force oracle, n <= 8", ok, f"{elapsed:.2f}s")
    assert not mismatches, f"mismatches at n={mismatches}"
    assert elapsed < 300.0, f"took {elapsed:.2f}s, limit 300s"


def test_criterion_3_closed_equals_recursive_exhaustive():
    bad = [
        lam
        for n in range(41)
        for lam in partitions_of(3 * n, 3)
        if h3_coeff_closed(lam) != h3_coeff_recursive(lam)
    ]
    _report(3, "closed == recursive coefficient, all shapes n <= 40", not bad)
    assert not bad, f"first mismatches: {bad[:5]}"


def _coeff_or_zero(parts) -> int:
    # Virtual value for shapes that fall off the valid range: shifted
    # shapes with a negative or disordered entry contribute nothing.
    try:
        lam = Partition(parts)
    except ValueError:
        return 0
    return h3_coeff_closed(lam)


def test_criterion_4_coefficient_shift_identities():
    f = lambda *parts: h3_coeff_closed(Partition(parts))
    failures = []
    for n in range(2, 41):
        if f(3 * n) != 1:
            failures.append(("one-row", n))
        if f(3 * n - 1, 1) != 0:
            failures.append(("near-one-row", n))
        for k in range(2, min(5, n) + 1):
            if f(3 * n - k, k) != 1:
                failures.append(("small-second-part", n, k))
        for k in range(6, n + 1):
            if f(3 * n - k, k) != _coeff_or_zero((3 * n - k - 6, k - 6)) + 1:
                failures.append(("step-plus-one", n, k))
        for k in range(n + 1, (3 * n) // 2 + 1):
            if f(3 * n - k, k) != _coeff_or_zero((3 * n - k - 6, k - 6)):
                failures.append(("step-equal", n, k))
        for lam in partitions_of(3 * n, 3):
            if len(lam) != 3:
                continue
            l1, l2, l3 = lam
            if l3 >= 2:
                if f(l1, l2, l3) != _coeff_or_zero((l1 - 2, l2 - 2, l3 - 2)):
                    failures.append(("strip-column", n, tuple(lam)))
            elif l2 >= 4:
                if f(l1, l2, 1) != _coeff_or_zero((l1 - 4, l2 - 4)):
                    failures.append(("strip-corner", n, tuple(lam)))
            else:
                if f(l1, l2, 1) != 0:
                    failures.append(("short-third-row", n, tuple(lam)))
    _report(4, "coefficient shift identities, 2 <= n <= 40", not failures)
    assert not failures, f"first failures: {failures[:5]}"


def test_criterion_5_h2_suite():
    closed = {n: h2_closed(n) for n in range(61)}
    rec_ok = all(h2_rec(n) == closed[n] for n in range(61))
    oracle_ok = all(plethysm_oracle(2, n) == closed[n] for n in range(13))
    count_ok = all(len(closed[n]) == n // 2 + 1 for n in range(61))
    ok = rec_ok and oracle_ok and count_ok
    _report(5, "h2: recurrence == closed (n <= 60) == oracle (n <= 12)", ok)
    assert rec_ok and oracle_ok and count_ok


def test_criterion_6_dimension_identity():
    cache = RecurrenceCache()
    bad = [
        n
        for n in range(41)
        if cache.h3(n).eval_at_ones(3) != comb(comb(n + 2, 2) + 2, 3)
    ]
    _report(6, "principal specialization counts monomial multisets, n <= 40", not bad)
    assert not bad, f"mismatches at n={bad}"


def test_criterion_7_dent_positivity():
    bad3 = [n for n, diff in dent_differences(3, 40) if not diff.is_schur_positive()]
    bad2 = [n for n, diff in dent_differences(2, 60) if not diff.is_schur_positive()]
    ok = not bad3 and not bad2
    _report(7, "column-strip differences Schur-positive (m=3 to 40, m=2 to 60)", ok)
    assert not bad3 and not bad2, f"m=3 failures {bad3}, m=2 failures {bad2}"


def test_criterion_8_foulkes_desk_scale():
    pairs = [(2, 3), (2, 4), (3, 4), (2, 5), (3, 5), (4, 5)]
    start = time.perf_counter()
    not_positive = [
        (m, n) for m, n in pairs if not foulkes_difference(m, n).is_schur_positive()
    ]
    elapsed = time.perf_counter() - start
    ok = not not_positive and elapsed < 1800.0
    _report(8, "Foulkes differences Schur-positive through (4,5)", ok, f"{elapsed:.1f}s")
    assert not not_positive, f"not Schur-positive: {not_positive}"
    assert elapsed < 1800.0, f"took {elapsed:.1f}s, limit 1800s"


def test_criterion_9_recurrence_is_fast():
    result = run_bench(max_n=30, repeats=3, oracle_max_n=8)
    rec_total = result.total("recurrence")
    thrall_total = result.total("thrall")
    rec_8 = result.millis[(8, "recurrence")]
    thrall_8 = result.millis[(8, "thrall")]
    oracle_8 = result.millis[(8, "oracle")]
    ok = rec_total <= thrall_total and oracle_8 >= 100 * rec_8 and oracle_8 >= 100 * thrall_8
    _report(
        9,
        "memoized recurrence no slower than closed form, both 100x over oracle at n=8",
        ok,
        f"totals {rec_total:.2f}ms vs {thrall_total:.2f}ms, n=8 oracle {oracle_8:.1f}ms"
        f" = {oracle_8 / thrall_8:.0f}x thrall, {oracle_8 / rec_8:.0f}x recurrence",
    )
    assert rec_total <= thrall_total, f"recurrence {rec_total:.3f}ms > thrall {thrall_total:.3f}ms"
    assert oracle_8 >= 100 * rec_8, f"oracle {oracle_8:.3f}ms < 100x recurrence {rec_8:.3f}ms"
    assert oracle_8 >= 100 * thrall_8, f"oracle {oracle_8:.3f}ms < 100x thrall {thrall_8:.3f}ms"
