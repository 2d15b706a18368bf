import random
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import pytest

from plethysm import (
    Partition,
    RecurrenceCache,
    SchurSum,
    dent_differences,
    h2_closed,
    h2_rec,
    h3,
    h3_thrall,
    h3_two_row,
    s,
)
import plethysm.thrall as thrall


def test_h2_closed_known_values():
    assert h2_closed(-1) == SchurSum.zero()
    assert h2_closed(0) == SchurSum.one()
    assert h2_closed(2) == s(4) + s(2, 2)
    assert h2_closed(5) == s(10) + s(8, 2) + s(6, 4)


def test_h2_closed_term_count():
    for n in range(61):
        total = h2_closed(n)
        assert len(total) == n // 2 + 1
        assert all(c == 1 for _, c in total.terms())


def test_h2_rec_known_values():
    assert h2_rec(-1) == SchurSum.zero()
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
    assert next(dent_differences(3, 2)) == (2, s(6) + s(4, 2))
    assert next(dent_differences(2, 2)) == (2, s(4))


def test_dent_difference_positive_small():
    for m in (2, 3):
        sweep = list(dent_differences(m, 12))
        assert [n for n, _ in sweep] == list(range(2, 13))
        assert all(diff.is_schur_positive() for _, diff in sweep)


@pytest.mark.parametrize("m", [0, 1, 4])
def test_dent_differences_rejects_other_m(m):
    with pytest.raises(ValueError):
        next(dent_differences(m, 5))


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


def test_dent_difference_is_built_from_full_sums():
    # dent --m 3 reads the recurrence's term T(n) + s_441 odot T(n-3) from
    # the layers; pin it to the difference of two full sums by the closed
    # formula, which shares no code with the layers, over every residue
    # mod 4 well past T(9).
    for n, diff in dent_differences(3, 60):
        assert diff == h3_thrall(n) - s(2, 2, 2).odot(h3_thrall(n - 2)), n


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


def _by_partitions(n, columns):
    # The sum whose columns of h3[hn] are ``columns``, term by term, each
    # key checked into a Partition, which strips its zero parts.
    return SchurSum({Partition((3 * n - b - c, b, c)): coeff
                     for c, column in enumerate(columns) for b, coeff in enumerate(column, c)})


@pytest.mark.parametrize("route", ["recurrence", "thrall"])
def test_sum_from_columns_matches_partition_reference(route):
    cache = RecurrenceCache()
    for n in range(61):
        columns = cache.h3_columns(n) if route == "recurrence" else thrall.h3_columns(n)
        for stop in (1, 2, n + 1):  # h3_two_row, dent's D(n) and h3
            assert SchurSum._from_columns(n, columns[:stop]) == _by_partitions(n, columns[:stop]), (n, stop)


def test_columns_at_three_ones_matches_the_sum():
    # dent --m 3 takes D(n)'s value at three ones from its two columns.
    # Random columns hold zero and negative entries; the recurrence's
    # odd columns are zeros cut to length where n - c < 2.
    rng = random.Random(29)
    cache = RecurrenceCache()
    for n in range(61):
        for stop in (1, 2, n + 1):
            layer = cache.h3_columns(n, stop)
            for columns in (layer, [[rng.randint(-3, 3) for _ in column] for column in layer]):
                want = SchurSum._from_columns(n, columns).eval_at_ones(3)
                assert SchurSum._columns_at_three_ones(n, columns) == want, (n, stop, columns)


def test_sum_from_columns_rejects_a_wrong_layout():
    columns = thrall.h3_columns(4)  # lengths 7, 5, 4, 2, 1
    for read in (SchurSum._from_columns, SchurSum._columns_at_three_ones, SchurSum._column_rows):
        with pytest.raises(ValueError, match=r"^6 columns for shapes of 12 cells, at most 5$"):
            read(4, [*columns, [0]])
        with pytest.raises(ValueError, match=r"^1 columns for shapes of -3 cells, at most 0$"):
            read(-1, [[1]])
        for c, column in enumerate(columns):
            for wrong in (column[:-1], [*column, 0]):
                with pytest.raises(ValueError, match=rf"^column {c} of shapes of 12 cells has {len(wrong)} entries"):
                    read(4, [*columns[:c], wrong, *columns[c + 1:]])


def test_routes_columns_agree_through_300():
    # verify compares the two h3 routes as these columns.
    cache = RecurrenceCache()
    for n in range(301):
        assert cache.h3_columns(n) == thrall.h3_columns(n), n
