"""Recurrences for the Schur expansions of h2[hn] and h3[hn].

The h2 case goes back to Littlewood:

    h2[hn] = sum_{k=0}^{floor(n/2)} s_(2n-2k, 2k)
           = s_22 odot h2[h_{n-2}] + s_(2n).

For h3, write T(n) for the part of h3[hn] with at most two rows. Then

    T(n)    = s_66 odot T(n-4) + sum_{k=2}^{n} s_(3n-k, k) + s_(3n),
    h3[hn]  = T(n) + s_222 odot h3[h_{n-2}] + s_441 odot T(n-3),

with h2[hm], h3[hm] and T(m) all 0 for negative m. That convention makes
the displayed equations hold verbatim for every n >= 0, base cases included
(they give h2[h0] = h3[h0] = 1, h2[h1] = s_2 and h3[h1] = s_3). Computing
through these recurrences touches only the terms that actually appear,
which is what makes them fast.
"""

from .partition import Partition
from .schur import SchurSum, s

_S22 = s(2, 2)
_S66 = s(6, 6)
_S222 = s(2, 2, 2)
_S441 = s(4, 4, 1)


def h2_closed(n: int) -> SchurSum:
    """h2[hn] by the closed formula: floor(n/2) + 1 terms, coefficient 1 each."""
    if n < 0:
        return SchurSum.zero()
    return SchurSum._wrap({Partition((2 * n - 2 * k, 2 * k)): 1 for k in range(n // 2 + 1)})


class RecurrenceCache:
    """Memo tables for the h2 and h3 recurrences.

    Values are filled bottom-up and never mutated once stored, so a cache
    hit always equals a fresh recomputation. Concurrent use is safe under
    CPython: entries are fully built immutable sums assigned atomically,
    and recomputing an entry is idempotent.
    """

    __slots__ = ("_h2", "_h3", "_two_row")

    def __init__(self) -> None:
        self._h2: dict[int, SchurSum] = {}
        self._h3: dict[int, SchurSum] = {}
        self._two_row: dict[int, SchurSum] = {}

    def _fill(self, table: dict[int, SchurSum], n: int, step: int, line) -> SchurSum:
        # Store table[j] = line(j) for j = n % step, n % step + step, ..., n,
        # bottom up, so the entry j - step that line(j) reads is already there.
        if n < 0:
            return SchurSum.zero()
        if n not in table:
            for j in range(n % step, n + 1, step):
                if j not in table:
                    table[j] = line(j)
        return table[n]

    def h2(self, n: int) -> SchurSum:
        return self._fill(self._h2, n, 2, lambda j: _S22.odot(self.h2(j - 2)) + s(2 * j))

    def h3_two_row(self, n: int) -> SchurSum:
        def line(j: int) -> SchurSum:
            fresh = {Partition((3 * j,)): 1}
            for k in range(2, j + 1):
                fresh[Partition._unchecked((3 * j - k, k))] = 1
            return _S66.odot(self.h3_two_row(j - 4)) + SchurSum._wrap(fresh)

        return self._fill(self._two_row, n, 4, line)

    def h3(self, n: int) -> SchurSum:
        return self._fill(self._h3, n, 2, lambda j: (
            self.h3_two_row(j) + _S222.odot(self.h3(j - 2)) + _S441.odot(self.h3_two_row(j - 3))
        ))


_DEFAULT_CACHE = RecurrenceCache()


def h2_rec(n: int, cache: RecurrenceCache | None = None) -> SchurSum:
    """h2[hn] by the recurrence; equals h2_closed(n)."""
    return (_DEFAULT_CACHE if cache is None else cache).h2(n)


def h3_two_row(n: int, cache: RecurrenceCache | None = None) -> SchurSum:
    """The terms of h3[hn] with at most two rows; zero for negative n."""
    return (_DEFAULT_CACHE if cache is None else cache).h3_two_row(n)


def h3(n: int, cache: RecurrenceCache | None = None) -> SchurSum:
    """Schur expansion of h3[hn] by the recurrence; zero for negative n."""
    return (_DEFAULT_CACHE if cache is None else cache).h3(n)


def dent_difference(m: int, n: int, cache: RecurrenceCache | None = None) -> SchurSum:
    """h_m[hn] minus s_(2,...,2) odot h_m[h_{n-2}], with m twos; m in {2, 3}.

    Uses the closed form for m = 2 and the recurrence for m = 3.
    """
    if m == 2:
        return h2_closed(n) - _S22.odot(h2_closed(n - 2))
    if m == 3:
        return h3(n, cache) - _S222.odot(h3(n - 2, cache))
    raise ValueError("m must be 2 or 3")
