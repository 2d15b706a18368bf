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
layers T(j), each of O(j) terms, and assembles h3[hn] by shifting, in time
and memory proportional to its size: O(n^2) for a cold h3[hn]. h2[hn] is
built afresh on every call, in O(n). D is read straight from T and never
stored.

A layer keys each term s_(a, b) by the padded pair (a, b), with b = 0
allowed, so a shift is one tuple expression with no branch: (a + 6, b + 6)
from T(j - 4) to T(j), and (a + x, b + y, z) from T(j) into h3[hn]. Every
shift but the empty one has positive parts, and a shifted partition is a
partition, so those keys are canonical as built. Only the unshifted layer,
read through ``h3_two_row``, has zeros to strip.

Of the assembled h3 sums the cache keeps only those at the three largest n
it has built, so a sweep over n = 0, 1, ..., N holds O(N^2) terms: the
layers (O(N^2) in all) and three h3 sums.
"""

import threading

from .partition import Partition
from .schur import SchurSum, s

_S22 = s(2, 2)
_S222 = s(2, 2, 2)

# Built h3 sums a cache keeps: those at the three largest n. A sweep up in
# n that reads h3(n) and then h3(n - 2), as the dent check does, finds
# h3(n - 2) still there.
_KEPT_SUMS = 3


def h2_closed(n: int) -> SchurSum:
    """h2[hn] by the closed formula: floor(n/2) + 1 terms, coefficient 1 each."""
    if n < 0:
        return SchurSum.zero()
    return SchurSum._wrap({Partition((2 * n - 2 * k, 2 * k)): 1 for k in range(n // 2 + 1)})


def _build_h2(n: int) -> SchurSum:
    # h2[hn] unrolled: s_(2n) plus s_(2n-4i) shifted by (2i, 2i) for i >= 1.
    terms = {(2 * n - 4 * i + 2 * i, 2 * i): 1 for i in range(1, n // 2 + 1)}
    terms[(2 * n,) if n else ()] = 1
    return SchurSum._wrap(terms)


def _two_row_step(previous: dict[tuple[int, int], int], j: int) -> dict[tuple[int, int], int]:
    # T(j) = s_66 odot T(j-4) + s_(3j) + sum_{k=2}^{j} s_(3j-k, k).
    terms = {(a + 6, b + 6): c for (a, b), c in previous.items()}
    for lam in ((3 * j, 0), *((3 * j - k, k) for k in range(2, j + 1))):
        terms[lam] = terms.get(lam, 0) + 1
    return terms


def _h3_shifts(n: int):
    # (j, mu) with h3[hn] = T(n) + sum of s_mu odot T(j): for each i, the
    # second half of D(n - 2i) shifted by (2i, 2i, 2i), and the first half
    # of D(n - 2i - 2) shifted by (2i + 2, 2i + 2, 2i + 2). Third parts
    # 2i + 1 and 2i + 2. At the last i, j < 0 and the layer is empty.
    for i in range(n // 2 + 1):
        yield n - 2 * i - 3, (2 * i + 4, 2 * i + 4, 2 * i + 1)
        yield n - 2 * i - 2, (2 * i + 2,) * 3


class RecurrenceCache:
    """Memo tables for the h3 recurrence.

    The layers T(j) are filled bottom-up and kept. h3[hn] is built only for
    the n a caller asks for, and the cache keeps the sums at the three
    largest n it has built, evicting the smallest n beyond that: a sweep up
    in n holds O(n^2) terms, not the O(n^3) of every h3[hn], and still hits
    on h3(n - 2) after h3(n). h2[hn] takes O(n) to build and no caller asks
    for the same one twice, so it is not kept. Values are never mutated
    once stored, so a cache hit always equals a fresh recomputation.
    Concurrent use is safe: layers and sums are built outside any lock
    (recomputing one is idempotent, and a layer entry is fully built
    before it is assigned), and storing a sum together with its eviction
    holds the cache's lock.
    """

    __slots__ = ("_h3", "_two_row", "_lock")

    def __init__(self) -> None:
        self._h3: dict[int, SchurSum] = {}
        self._two_row: dict[int, dict[tuple[int, int], int]] = {}
        self._lock = threading.Lock()

    def _layer(self, n: int) -> dict[tuple[int, int], int]:
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

    def _build_h3(self, n: int) -> SchurSum:
        terms = dict(self.h3_two_row(n)._terms)
        for j, (x, y, z) in _h3_shifts(n):
            terms.update({(a + x, b + y, z): c for (a, b), c in self._layer(j).items()})
        return SchurSum._wrap(terms)

    def h2(self, n: int) -> SchurSum:
        if n < 0:
            return SchurSum.zero()
        return _build_h2(n)

    def h3_two_row(self, n: int) -> SchurSum:
        # The layer's padded keys, with their zeros stripped.
        return SchurSum._wrap({(lam if lam[1] else lam[:1] if lam[0] else ()): c
                               for lam, c in self._layer(n).items()})

    def h3(self, n: int) -> SchurSum:
        if n < 0:
            return SchurSum.zero()
        value = self._h3.get(n)
        if value is None:
            value = self._build_h3(n)
            with self._lock:
                self._h3[n] = value
                if len(self._h3) > _KEPT_SUMS:
                    del self._h3[min(self._h3)]
        return value


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
