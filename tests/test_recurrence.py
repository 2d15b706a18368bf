import random
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

from plethysm import (
    RecurrenceCache,
    SchurSum,
    dent_difference,
    h2_closed,
    h2_rec,
    h3,
    h3_thrall,
    h3_two_row,
    s,
)


def test_h2_closed_known_values():
    assert h2_closed(0) == SchurSum.one()
    assert h2_closed(2) == s(4) + s(2, 2)
    assert h2_closed(5) == s(10) + s(8, 2) + s(6, 4)


def test_h2_closed_term_count():
    for n in range(61):
        total = h2_closed(n)
        assert len(total) == n // 2 + 1
        assert all(c == 1 for _, c in total.terms())


def test_h2_rec_known_values():
    assert h2_rec(0) == SchurSum.one()
    assert h2_rec(1) == s(2)
    assert h2_rec(3) == s(6) + s(4, 2)
    assert h2_rec(4) == s(8) + s(6, 2) + s(4, 4)


def test_h2_rec_equals_closed():
    for n in (*range(61), 999, 1000):
        assert h2_rec(n) == h2_closed(n), n


def test_two_row_base_cases():
    assert h3_two_row(-1) == SchurSum.zero()
    assert h3_two_row(0) == SchurSum.one()
    assert h3_two_row(1) == s(3)
    assert h3_two_row(2) == s(6) + s(4, 2)


def test_two_row_matches_projected_thrall():
    cache = RecurrenceCache()
    for n in (*range(41), 101):
        two_row = SchurSum((lam, c) for lam, c in h3_thrall(n).terms() if len(lam) <= 2)
        assert cache.h3_two_row(n) == two_row, n


def test_h3_base_cases():
    assert h3(-2) == SchurSum.zero()
    assert h3(0) == SchurSum.one()
    assert h3(1) == s(3)


def test_h3_small_expansions():
    assert h3(2) == s(6) + s(4, 2) + s(2, 2, 2)
    assert h3(3) == s(9) + s(7, 2) + s(6, 3) + s(5, 2, 2) + s(4, 4, 1)


def test_h3_matches_thrall_small():
    cache = RecurrenceCache()
    for n in range(13):
        assert cache.h3(n) == h3_thrall(n), n


def test_h3_terms_nonnegative_and_short():
    cache = RecurrenceCache()
    for n in range(41):
        for lam, c in cache.h3(n).terms():
            assert c > 0 and len(lam) <= 3 and lam.weight == 3 * n


def test_dent_difference_known_value():
    assert dent_difference(3, 2) == s(6) + s(4, 2)
    assert dent_difference(2, 2) == s(4)


def test_dent_difference_positive_small():
    for n in range(2, 13):
        assert dent_difference(3, n).is_schur_positive()
        assert dent_difference(2, n).is_schur_positive()


def test_fresh_caches_agree_with_default():
    a, b = RecurrenceCache(), RecurrenceCache()
    for n in (0, 3, 7, 10):
        assert a.h3(n) == b.h3(n) == h3(n)
        assert a.h2(n) == b.h2(n) == h2_rec(n)


def test_cache_hit_equals_recompute():
    cache = RecurrenceCache()
    first = cache.h3(9)
    assert cache.h3(9) == first
    assert first == RecurrenceCache().h3(9)


def test_concurrent_use_is_consistent():
    cache = RecurrenceCache()
    want = {n: RecurrenceCache().h3(n) for n in range(16)}
    jobs = [n for n in range(16) for _ in range(4)]
    random.Random(7).shuffle(jobs)
    with ThreadPoolExecutor(max_workers=8) as pool:
        got = list(pool.map(lambda n: (n, cache.h3(n)), jobs))
    assert all(value == want[n] for n, value in got)


def test_cache_keeps_three_sums_after_sweep():
    # The dent sweep's order: h3(n), then h3(n - 2), which must be a hit.
    cache = RecurrenceCache()
    first = {}
    for n in range(2, 41):
        first[n] = cache.h3(n)
        cache.h2(n)
        if n - 2 in first:
            assert cache.h3(n - 2) is first[n - 2], n
        else:
            cache.h3(n - 2)
    assert sorted(cache._h3) == sorted(cache._h2) == [38, 39, 40]


def test_concurrent_eviction_keeps_bound():
    # Threads store and evict at once; a lost update would leave more
    # than three sums or raise KeyError on a doubly evicted n.
    cache = RecurrenceCache()
    want = {n: RecurrenceCache().h3(n) for n in range(31)}
    jobs = [n for n in range(31) for _ in range(8)]
    random.Random(11).shuffle(jobs)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda n: (n, cache.h3(n)), jobs, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert all(value == want[n] for n, value in got)
    assert sorted(cache._h3) == [28, 29, 30]


def test_dent_difference_is_built_from_full_sums():
    # The dent check tests a difference of two fully built sums; pin that
    # difference to the closed formula, which shares no code with the
    # recurrence's layers, so its positivity is not the recurrence's alone.
    for n in range(2, 25):
        assert dent_difference(3, n) == h3_thrall(n) - s(2, 2, 2).odot(h3_thrall(n - 2)), n


def test_cold_h3_matches_thrall_beyond_40():
    for n in (41, 42, 43, 44, 77, 101):  # every residue mod 4
        assert RecurrenceCache().h3(n) == h3_thrall(n), n


def test_cold_h3_memory_stays_quadratic():
    # A memo that keeps every h3(n - 2k) peaks at about 135 MB at n = 200.
    tracemalloc.start()
    try:
        RecurrenceCache().h3(200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30e6, f"peak {peak / 1e6:.1f} MB"
