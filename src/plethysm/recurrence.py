"""Recurrences for the Schur expansions of h2[hn] and h3[hn].

The h2 case goes back to Littlewood:

    h2[hn] = sum_{k=0}^{floor(n/2)} s_(2n-2k, 2k)
           = s_22 odot h2[h_{n-2}] + s_(2n).

For h3, write T(n) for the part of h3[hn] with at most two rows. Then

    T(n)    = s_66 odot T(n-4) + sum_{k=2}^{n} s_(3n-k, k) + s_(3n),
    h3[hn]  = T(n) + s_222 odot h3[h_{n-2}] + s_441 odot T(n-3),

with h2[hm], h3[hm] and T(m) all 0 for negative m. That convention makes
the displayed equations hold verbatim for every n >= 0, base cases included
(they give h2[h0] = h3[h0] = 1, h2[h1] = s_2 and h3[h1] = s_3).

Multiplying by a single Schur function, s_mu odot X, only adds mu to every
index of X: no two terms merge. So the recurrences unroll into shifts of
thin layers:

    D(n)    = T(n) + s_441 odot T(n-3),
    h3[hn]  = sum_{i=0}^{floor(n/2)} s_(2i,2i,2i) odot D(n-2i),
    h2[hn]  = sum_{i=0}^{floor(n/2)} s_(2i,2i) odot s_(2n-4i).

D(n) is the part of h3[hn] whose third part is 0 (from T) or 1 (from
s_441 odot T). Shifting it by (2i, 2i, 2i) makes that third part 2i or
2i + 1, so the summands of h3[hn] have disjoint supports and every term of
h3[hn] is exactly one shifted term of one layer. The cache stores only the
layers T(j), each of O(j) terms, and assembles h3[hn] and h2[hn] by
shifting, in time and memory proportional to their size: O(n^2) for a cold
h3[hn], O(n) for h2[hn]. D is read straight from T and never stored.
"""

from .partition import Partition
from .schur import SchurSum, s

_S22 = s(2, 2)
_S222 = s(2, 2, 2)
_SHIFT_66 = Partition((6, 6))


def h2_closed(n: int) -> SchurSum:
    """h2[hn] by the closed formula: floor(n/2) + 1 terms, coefficient 1 each."""
    if n < 0:
        return SchurSum.zero()
    return SchurSum._wrap({Partition((2 * n - 2 * k, 2 * k)): 1 for k in range(n // 2 + 1)})


def _two_row_step(previous: dict[Partition, int], j: int) -> dict[Partition, int]:
    # T(j) = s_66 odot T(j-4) + s_(3j) + sum_{k=2}^{j} s_(3j-k, k).
    terms = {lam + _SHIFT_66: c for lam, c in previous.items()}
    strip = (Partition((3 * j,)), *(Partition._unchecked((3 * j - k, k)) for k in range(2, j + 1)))
    for lam in strip:
        terms[lam] = terms.get(lam, 0) + 1
    return terms


def _h3_layers(n: int):
    # (j, mu) with h3[hn] = sum of s_mu odot T(j): for each i, the two
    # halves of D(n - 2i) shifted by (2i, 2i, 2i). Third parts 2i and 2i + 1.
    for i in range(n // 2 + 1):
        yield n - 2 * i, Partition((2 * i,) * 3)
        yield n - 2 * i - 3, Partition((2 * i + 4, 2 * i + 4, 2 * i + 1))


class RecurrenceCache:
    """Memo tables for the h2 and h3 recurrences.

    The layers T(j) are filled bottom-up; h3[hn] and h2[hn] are stored
    only for the n a caller asks for. Values are never mutated once
    stored, so a cache hit always equals a fresh recomputation. Concurrent
    use is safe under CPython: entries are fully built immutable sums
    assigned atomically, and recomputing an entry is idempotent.
    """

    __slots__ = ("_h2", "_h3", "_two_row")

    def __init__(self) -> None:
        self._h2: dict[int, SchurSum] = {}
        self._h3: dict[int, SchurSum] = {}
        self._two_row: dict[int, dict[Partition, int]] = {}

    def _layer(self, n: int) -> dict[Partition, int]:
        # The terms of T(n), filling T(j) for j = n % 4, n % 4 + 4, ..., n
        # bottom up, so the entry j - 4 that T(j) reads is already there.
        if n < 0:
            return {}
        table = self._two_row
        if n not in table:
            for j in range(n % 4, n + 1, 4):
                if j not in table:
                    table[j] = _two_row_step(self._layer(j - 4), j)
        return table[n]

    def h2(self, n: int) -> SchurSum:
        if n < 0:
            return SchurSum.zero()
        if n not in self._h2:
            self._h2[n] = SchurSum._wrap({
                Partition((2 * n - 4 * i,)) + Partition((2 * i, 2 * i)): 1 for i in range(n // 2 + 1)
            })
        return self._h2[n]

    def h3_two_row(self, n: int) -> SchurSum:
        return SchurSum._wrap(self._layer(n))

    def h3(self, n: int) -> SchurSum:
        if n < 0:
            return SchurSum.zero()
        if n not in self._h3:
            self._h3[n] = SchurSum._wrap({
                lam + shift: c for j, shift in _h3_layers(n) for lam, c in self._layer(j).items()
            })
        return self._h3[n]


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

    Uses the closed form for m = 2 and the recurrence for m = 3. Both
    operands are fully built sums, and the difference is taken here. For
    m = 3 it equals the layer D(n) the recurrence assembles h3[hn] from,
    but reading D(n) off the recurrence would make a positivity check of
    the difference a tautology, since D(n) is positive by construction.
    """
    if m == 2:
        return h2_closed(n) - _S22.odot(h2_closed(n - 2))
    if m == 3:
        return h3(n, cache) - _S222.odot(h3(n - 2, cache))
    raise ValueError("m must be 2 or 3")
