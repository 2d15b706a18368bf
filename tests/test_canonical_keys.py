"""Every sum a route builds, and every run of terms ``expand`` writes from
h3's columns, is keyed by canonical partitions.

Inside a ``SchurSum`` the keys are plain tuples built by the package
itself, where ``+`` would concatenate instead of adding, and a run holds
only the strings of its keys' parts and the commas between them. So nothing but
these tests checks that they are partitions: weakly decreasing, positive,
no zeros.
"""

import pytest

from plethysm import Partition, RecurrenceCache, SchurSum, h2_closed, plethysm_oracle, s
from plethysm.cli import ORACLE, _METHODS

MAX_N = 30
ORACLE_MAX_N = 8
# The benchmark's sizes. There T(n)'s b = 0 key is built in bulk and has
# its padded zeros stripped; Thrall's route builds its two-row keys one by
# one.
LARGE_N = (101, 160)


def assert_canonical(total):
    for lam in total._terms:
        assert tuple(Partition(lam)) == tuple(lam), lam
    for lam, _ in total.terms():
        assert type(lam) is Partition and tuple(Partition(lam)) == tuple(lam), lam
    assert all(type(lam) is Partition for lam in total.support())


@pytest.mark.parametrize("m, route", [(m, route) for m, routes in _METHODS.items() for route in [*routes, ORACLE]])
def test_route_keys_are_canonical(m, route):
    if route == ORACLE:
        for n in range(ORACLE_MAX_N + 1):
            assert_canonical(plethysm_oracle(m, n, budget=None))
        return
    cache = RecurrenceCache()
    for n in (*range(MAX_N + 1), *LARGE_N):
        value = _METHODS[m][route](n, cache)
        if m == 3:  # columns, read as a sum and as the runs expand writes
            for coefficients, slots in SchurSum._column_rows(n, value):
                # A term's slots join to its key's parts with commas between
                # them, at most one part per slot; the constant has no slots.
                texts = ["".join(term).split(",") for term in zip(*slots)] if slots else [[]]
                keys = [tuple(map(int, parts)) for parts in texts]
                assert len(keys) == len(coefficients) and all(coefficients), (n, keys, coefficients)
                for parts, lam in zip(texts, keys):
                    assert list(map(str, lam)) == parts and len(lam) <= len(slots), parts
                    assert tuple(Partition(lam)) == lam, lam
            value = SchurSum._from_columns(n, value)
        assert_canonical(value)


@pytest.mark.parametrize("m", [2, 3])
def test_dent_difference_keys_are_canonical(m):
    # D(n) as dent reads it: columns 0 and 1 of h3[hn] for m = 3, and the
    # difference of two closed-form sums for m = 2.
    cache = RecurrenceCache()
    for n in range(2, MAX_N + 1):
        if m == 3:
            assert_canonical(SchurSum._from_columns(n, cache.h3_columns(n, 2)))
        else:
            assert_canonical(h2_closed(n) - s(2, 2).odot(h2_closed(n - 2)))


def test_h3_two_row_keys_are_canonical():
    cache = RecurrenceCache()
    for n in (*range(MAX_N + 1), *LARGE_N):
        assert_canonical(cache.h3_two_row(n))
