from hypothesis import given, strategies as st
import pytest

from plethysm import Partition, min_gap, partitions_of


@st.composite
def partition_strategy(draw, max_part=7, max_len=4):
    parts = draw(st.lists(st.integers(1, max_part), max_size=max_len))
    return Partition(sorted(parts, reverse=True))


@st.composite
def three_part_strategy(draw, max_part=12):
    parts = sorted(draw(st.lists(st.integers(1, max_part), min_size=3, max_size=3)), reverse=True)
    return Partition(parts)


def test_construction_strips_zeros():
    assert Partition([6, 6, 0]) == (6, 6)
    assert Partition([0, 0]) == ()
    assert Partition([3, 0, 2]) == (3, 2)


def test_empty_partition():
    empty = Partition()
    assert empty.weight == 0
    assert len(empty) == 0


def test_basic_stats():
    lam = Partition([3, 1])
    assert lam.weight == 4
    assert len(lam) == 2
    assert lam.part(0) == 3
    assert lam.part(1) == 1
    assert lam.part(2) == 0


def test_rejects_increasing():
    with pytest.raises(ValueError):
        Partition([1, 3])
    with pytest.raises(ValueError):
        Partition([4, 0, 5])


def test_rejects_negative_and_nonint():
    with pytest.raises(ValueError):
        Partition([3, -1])
    with pytest.raises(ValueError):
        Partition([2.0, 1])


def test_rejects_bool_parts():
    with pytest.raises(ValueError):
        Partition([True, True])
    with pytest.raises(ValueError):
        Partition([2, False])


def test_partitions_of_6_with_3_parts():
    assert partitions_of(6, 3) == [
        (6,), (5, 1), (4, 2), (4, 1, 1), (3, 3), (3, 2, 1), (2, 2, 2),
    ]


def test_partitions_of_zero():
    assert partitions_of(0, 3) == [Partition()]


def test_partitions_of_9_with_2_parts():
    assert partitions_of(9, 2) == [(9,), (8, 1), (7, 2), (6, 3), (5, 4)]


def _count_by_compositions(total, max_parts):
    # Independent count: sorted compositions with max_parts nonnegative parts.
    assert max_parts == 3
    hits = 0
    for a in range(total + 1):
        for b in range(total - a + 1):
            c = total - a - b
            if a >= b >= c:
                hits += 1
    return hits


def test_partitions_of_count_matches_composition_count():
    for n in range(21):
        assert len(partitions_of(3 * n, 3)) == _count_by_compositions(3 * n, 3)


@given(st.integers(0, 25), st.integers(1, 4))
def test_partitions_of_properties(total, max_parts):
    found = partitions_of(total, max_parts)
    assert len(set(found)) == len(found)
    assert all(lam.weight == total and len(lam) <= max_parts for lam in found)
    assert found == sorted(found, reverse=True)


def test_add_componentwise():
    assert Partition([6, 6]) + Partition([4, 2]) == (10, 8)
    assert Partition([2, 2, 2]) + Partition([3]) == (5, 2, 2)
    assert Partition() + Partition([4, 4, 1]) == (4, 4, 1)


def test_plus_operator_is_componentwise_not_concat():
    assert Partition([3, 1]) + Partition([2]) == (5, 1)


def test_add_rejects_non_partition_operands():
    # A plain tuple could make an unsorted or non-integer "partition".
    with pytest.raises(TypeError):
        Partition([3, 1]) + (0, 5)
    with pytest.raises(TypeError):
        Partition([2]) + (1.5,)


@given(partition_strategy(), partition_strategy(), partition_strategy())
def test_add_associative_commutative(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a + Partition() == a
    total = a + b
    assert isinstance(total, Partition)
    assert total.weight == a.weight + b.weight


def test_min_gap_known_values():
    assert min_gap(Partition([12])) == 1
    assert min_gap(Partition([11, 1])) == 2
    assert min_gap(Partition([3, 3, 3])) == 1
    assert min_gap(Partition()) == 1


def test_min_gap_rejects_long_partitions():
    with pytest.raises(ValueError):
        min_gap(Partition([2, 1, 1, 1]))


@given(three_part_strategy())
def test_min_gap_invariant_under_222_shift(lam):
    assert min_gap(lam + Partition([2, 2, 2])) == min_gap(lam)
