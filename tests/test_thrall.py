from math import comb

from hypothesis import given, strategies as st
import pytest

from plethysm import (
    Partition,
    SchurSum,
    coeff_from_gap,
    h3_coeff_closed,
    h3_coeff_recursive,
    h3_thrall,
    min_gap,
    partitions_of,
    s,
)

# Gap/parity pairs with hand-checked values; the recursion bottoms out
# below 6 and adds one per step of 6.
KNOWN_GAP_VALUES = {
    (0, 0): 0, (1, 0): 1, (2, 0): 0, (3, 0): 1, (4, 0): 1, (5, 0): 1,
    (0, 1): 0, (1, 1): 0, (2, 1): 0, (3, 1): 0, (4, 1): 1, (5, 1): 0,
    (6, 1): 1, (13, 0): 3,
}


def test_coeff_from_gap_known_values():
    for (gap, parity), expected in KNOWN_GAP_VALUES.items():
        assert coeff_from_gap(gap, parity) == expected, (gap, parity)


def test_coeff_from_gap_step_of_six():
    for gap in range(40):
        for parity in (0, 1):
            assert coeff_from_gap(gap + 6, parity) == coeff_from_gap(gap, parity) + 1


def test_coeff_from_gap_rejects_bad_input():
    with pytest.raises(ValueError):
        coeff_from_gap(-1, 0)
    with pytest.raises(ValueError):
        coeff_from_gap(3, 2)


def test_closed_known_values():
    assert h3_coeff_closed(Partition([12])) == 1
    assert h3_coeff_closed(Partition([6, 3])) == 1
    assert h3_coeff_closed(Partition([3, 3, 3])) == 0
    assert h3_coeff_closed(Partition()) == 1
    assert h3_coeff_closed((6,)) == 1  # a plain tuple is checked into a Partition


def test_recursive_known_values():
    assert h3_coeff_recursive(Partition([11, 1])) == 0
    assert h3_coeff_recursive(Partition([10, 2])) == 1
    assert h3_coeff_recursive(Partition([4, 4, 1])) == 1


def test_coeff_rejects_bad_shapes():
    with pytest.raises(ValueError):
        h3_coeff_closed(Partition([3, 1, 1, 1]))
    with pytest.raises(ValueError):
        h3_coeff_closed(Partition([4]))
    with pytest.raises(ValueError):
        h3_coeff_recursive(Partition([2, 2, 2, 1]))


def test_closed_equals_recursive_small_range():
    for n in range(13):
        for lam in partitions_of(3 * n, 3):
            assert h3_coeff_closed(lam) == h3_coeff_recursive(lam), lam


@given(st.integers(0, 15))
def test_coeff_bound(n):
    for lam in partitions_of(3 * n, 3):
        c = h3_coeff_recursive(lam)
        assert 0 <= c <= (min_gap(lam) + 5) // 6 + 1


def test_h3_thrall_base_cases():
    assert h3_thrall(0) == SchurSum.one()
    assert h3_thrall(1) == s(3)


def test_h3_thrall_small_expansions():
    assert h3_thrall(2) == s(6) + s(4, 2) + s(2, 2, 2)
    assert h3_thrall(3) == s(9) + s(7, 2) + s(6, 3) + s(5, 2, 2) + s(4, 4, 1)


def test_h3_thrall_rejects_negative():
    with pytest.raises(ValueError):
        h3_thrall(-1)


def test_dimension_identity_small():
    for n in range(7):
        want = comb(comb(n + 2, 2) + 2, 3)
        assert h3_thrall(n).eval_at_ones(3) == want


def test_h3_thrall_matches_shape_enumeration():
    # The triple walk against the closed formula at every shape of
    # partitions_of, zero coefficients dropped.
    for n in (*range(61), 101, 160):
        want = {}
        for lam in partitions_of(3 * n, 3):
            c = h3_coeff_closed(lam)
            if c:
                want[lam] = c
        assert h3_thrall(n) == SchurSum(want), n
