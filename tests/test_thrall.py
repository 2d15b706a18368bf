from math import comb

from hypothesis import given, strategies as st
import pytest

from plethysm import (
    Partition,
    SchurSum,
    h3_coeff_closed,
    h3_thrall,
    min_gap,
    partitions_of,
    s,
)
from plethysm.thrall import _closed
from reference import coeff_from_gap, h3_coeff_recursive

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


def test_shift_identities_hold_for_every_n():
    """Criterion 4's identities (ii) and (iii), for every n by a finite check.

    Write f(lam) = _closed(gap, lam2 % 2), gap = min(1 + lam1 - lam2, 1 + lam2 - lam3).

    (ii) f(l1, l2, 1) = f(l1 - 4, l2 - 4) for l2 >= 4, and 0 for l2 < 4. With
    a = 1 + l1 - l2 >= 1 and b = l2 it reads
    _closed(min(a, b), b % 2) = _closed(min(a, b - 3), b % 2)
    on the lattice a + 2b = 0 (mod 3).

    (iii) f(3n - k, k) = f(3n - k - 6, k - 6) + [k <= n] for k >= 6, and for
    k <= min(5, n) it is 1 except 0 at k = 1. With a = 1 + 3n - 2k >= 1 and
    b = k it reads
    _closed(min(a, b + 1), b % 2) = _closed(min(a, b - 5), b % 2) + [b <= a - 1]
    on the lattice a + 2b = 1 (mod 3), and k <= n is b <= a - 1.

    Lemma: _closed(g + 6, p) = _closed(g, p) + 1 for g >= 0. Adding 6 keeps
    g mod 3, so the rounded gap grows by 6 and keeps its parity, and each
    branch of _closed divides it by 6.

    Let D(a, b) be the left side minus the right, at lattice points with
    a >= 1 and b >= b0 (4 for (ii), 6 for (iii)).
    * If a <= b - 3 for (ii), or a <= b - 5 for (iii), every minimum is a and
      the indicator is 0, so D = 0.
    * Otherwise, if b >= b0 + 6, then a >= 8, and (a - 6, b - 6) is a point
      of the same lattice and parity at which every minimum is 6 less and
      still at least 1 and the indicator is the same. By the lemma
      D(a, b) = D(a - 6, b - 6).
    * If a >= b + 3 for (ii), or a >= b + 4 for (iii), a enters no minimum
      and the indicator is 1, so D(a, b) = D(a - 3, b).
    So D vanishes everywhere once it vanishes on the window b0 <= b < b0 + 6,
    1 <= a < b + 3 for (ii) or a < b + 4 for (iii). The values below b0
    depend on a only through the same minima and reduce by the third step.
    This certifies the formula, not the code: verify checks each n's output.
    """
    def ii(a, b):
        return _closed(min(a, b), b % 2), _closed(min(a, b - 3), b % 2)

    def iii(a, b):
        return _closed(min(a, b + 1), b % 2), _closed(min(a, b - 5), b % 2) + (b <= a - 1)

    for g in range(60):
        for p in (0, 1):
            assert _closed(g + 6, p) == _closed(g, p) + 1, (g, p)
    for b in range(1, 10):
        for a in range(1, b + 3):
            if (a + 2 * b) % 3 == 0:
                left, right = ii(a, b)
                assert left == (right if b >= 4 else 0), (a, b)
    for b in range(6, 12):
        for a in range(1, b + 4):
            if (a + 2 * b) % 3 == 1:
                left, right = iii(a, b)
                assert left == right, (a, b)
    for b in range(6):
        assert _closed(b + 1, b % 2) == (b != 1), b
    # The two forms are the identities: same values, same lattices.
    f = h3_coeff_closed
    for n in range(2, 30):
        for lam in partitions_of(3 * n, 3):
            l1, l2, l3 = tuple(lam) + (0,) * (3 - len(lam))
            if l3 == 1:
                a, b = 1 + l1 - l2, l2
                assert (a + 2 * b) % 3 == 0 and ii(a, b)[0] == f(lam), lam
                if b >= 4:
                    assert ii(a, b)[1] == f((l1 - 4, l2 - 4)), lam
            elif l3 == 0 and l2 >= 6:
                a, b = 1 + 3 * n - 2 * l2, l2
                assert (a + 2 * b) % 3 == 1, lam
                assert iii(a, b) == (f(lam), f((l1 - 6, l2 - 6)) + (l2 <= n)), lam
