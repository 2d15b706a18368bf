"""Integer partitions: canonical construction, enumeration, componentwise sums."""

from __future__ import annotations

from collections.abc import Iterable
from operator import add


class Partition(tuple):
    """A weakly decreasing tuple of positive integers.

    The empty partition ``Partition()`` is the unique partition of 0.
    Zeros in the input are stripped on construction, so equality and
    hashing are structural; partitions order lexicographically, like the
    tuples they are. ``+`` is componentwise addition (padding the shorter
    operand with zeros), not tuple concatenation.
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()) -> "Partition":
        parts = tuple(parts)
        cleaned = []
        for p in parts:
            if isinstance(p, bool) or not isinstance(p, int):
                raise ValueError(f"partition parts must be integers, got {p!r}")
            if p < 0:
                raise ValueError(f"partition parts must be nonnegative, got {p}")
            if p > 0:
                cleaned.append(p)
        if any(a < b for a, b in zip(cleaned, cleaned[1:])):
            raise ValueError(f"parts must be weakly decreasing, got {parts}")
        return tuple.__new__(cls, cleaned)

    @classmethod
    def _unchecked(cls, parts: tuple[int, ...]) -> "Partition":
        # Fast path for callers that already guarantee canonical form.
        return tuple.__new__(cls, parts)

    @property
    def weight(self) -> int:
        """Sum of the parts."""
        return sum(self)

    def part(self, i: int) -> int:
        """The i-th part (0-based); zero beyond the last part."""
        return self[i] if i < len(self) else 0

    def __add__(self, other) -> "Partition":
        # The sum of two partitions is a partition, so it needs no check.
        if not isinstance(other, Partition):
            return NotImplemented
        if len(self) < len(other):
            self, other = other, self
        return Partition._unchecked((*map(add, self, other), *self[len(other):]))

    def __repr__(self) -> str:
        return "Partition(%s)" % ", ".join(map(str, self))


def partitions_of(total: int, max_parts: int) -> list[Partition]:
    """All partitions of ``total`` with at most ``max_parts`` parts.

    Returned in descending lexicographic order of part tuples, each
    partition exactly once. ``partitions_of(0, k)`` is the singleton list
    holding the empty partition.
    """
    if total < 0:
        raise ValueError("total must be nonnegative")
    if max_parts < 1:
        raise ValueError("max_parts must be positive")
    out: list[Partition] = []
    _descend(out, total, total, max_parts, ())
    return out


def _descend(out: list[Partition], remaining: int, largest: int, slots: int,
             prefix: tuple[int, ...]) -> None:
    # Appends to out every partition that extends prefix by parts of at
    # most largest, summing to remaining, in at most slots parts. It recurses
    # at module level: a nested function that called itself would hold
    # itself through its closure, a reference cycle that only the cycle
    # collector frees.
    if remaining == 0:
        out.append(Partition._unchecked(prefix))
        return
    # The first part must cover its share, so a last slot takes all that
    # remains and slots never runs out while anything does.
    smallest = -(-remaining // slots)
    for first in range(min(remaining, largest), smallest - 1, -1):
        _descend(out, remaining - first, first, slots - 1, prefix + (first,))


def min_gap(lam: Partition) -> int:
    """One plus the smaller of the first two consecutive-part differences.

    Computes min(1 + lam1 - lam2, 1 + lam2 - lam3) with missing parts read
    as zero. Only defined for partitions with at most three parts; the
    result is always at least 1.
    """
    if len(lam) > 3:
        raise ValueError(f"min_gap needs at most three parts, got {len(lam)}")
    l1, l2, l3 = lam.part(0), lam.part(1), lam.part(2)
    return min(1 + l1 - l2, 1 + l2 - l3)
