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
index of X: no two terms merge. So the recurrences unroll into one shift
rule over thin layers:

    h3[hn]  = T(n) + sum_{d=2}^{n} s_mu(d) odot T(n-d),
              mu(d) = (d, d, d) for even d, (d+1, d+1, d-2) for odd d,
    h2[hn]  = sum_{i=0}^{floor(n/2)} s_(2i,2i) odot s_(2n-4i).

Unrolled, s_222 odot h3[h_{n-2}] shifts T(n-2i) by (2i, 2i, 2i), the even
d = 2i, and s_441 odot T(n-2i-3) by (2i+4, 2i+4, 2i+1), the odd d = 2i+3.
A shifted T(n-d) has third part d for even d and d - 2 for odd d, so the
summands of h3[hn] have disjoint supports and every term of h3[hn] is
exactly one shifted term of one layer. The cache stores only the layers
T(j), each of O(j) terms, filled in one ascending pass.

A layer T(j) is the list of the coefficients of s_(3j - b, b) for
0 <= b <= 3j//2, indexed by b, zeros included. The shift by (6, 6) from
T(j - 4) to T(j) is six leading zeros, after which the two lists have the
same length, 3j//2 + 1, and add elementwise.

h3[hn] is read as its n + 1 columns: column c lists the coefficients of
s_(3n-b-c, b, c) for c <= b <= (3n-c)//2, zeros included, 3(n-c)//2 + 1
of them (SchurSum._from_columns). The layer with third part c is T(n - c)
for even c, shifted by (c, c, c), and T(n - c - 2) for odd c, shifted by
(c + 3, c + 3, c). Read as positions in column c, the first shift is none
and the second is three leading zeros. So column c is T(n - c) as it
stands for even c, and T(n - c - 2) after three zeros for odd c, cut to
length when n - c < 2, where that layer is empty: O(n) Python-level steps
and no keys for all n + 1. h3_columns hands them out (expand writes its
rows from them); h3 and h3_two_row (column 0) build their sums from them,
in time and memory proportional to their size: O(n^2) for a cold h3[hn].
h2[hn] is built afresh on every call, in O(n).

The module keeps no cache of its own: the module-level h3_two_row and h3
fill a fresh one that is dropped on return, so a loop over n that should
reuse the layers calls one RecurrenceCache's methods. The cache keeps no
sums; dent_differences reads its m = 3 differences from its own cache's
columns.
"""

from itertools import repeat
from operator import add

from .schur import SchurSum, s


def h2_closed(n: int) -> SchurSum:
    """h2[hn] by the closed formula: floor(n/2) + 1 terms, coefficient 1 each."""
    if n < 0:
        return SchurSum.zero()
    # Canonical keys: (2n - 2k, 2k) for k >= 1, then (2n), or () at n = 0.
    terms = {(2 * n - 2 * k, 2 * k): 1 for k in range(1, n // 2 + 1)}
    terms[(2 * n,) if n else ()] = 1
    return SchurSum._wrap(terms)


def h2_rec(n: int) -> SchurSum:
    """h2[hn] by the recurrence, unrolled; equals h2_closed(n)."""
    if n < 0:
        return SchurSum.zero()
    # s_(2n) plus s_(2n-4i) shifted by (2i, 2i) for i >= 1.
    terms = {(2 * n - 4 * i + 2 * i, 2 * i): 1 for i in range(1, n // 2 + 1)}
    terms[(2 * n,) if n else ()] = 1
    return SchurSum._wrap(terms)


def _two_row_step(previous: list[int], j: int) -> list[int]:
    # T(j) = s_66 odot T(j-4) + s_(3j) + sum_{k=2}^{j} s_(3j-k, k), indexed
    # by b as in the module docstring.
    terms = [0] * 6 + previous if previous else [0] * (3 * j // 2 + 1)
    terms[0] = 1
    terms[2:j + 1] = map(add, terms[2:j + 1], repeat(1))
    return terms


class RecurrenceCache:
    """Memo table for the h3 recurrence: the layers T(j), filled in one
    ascending pass and kept, each as the list of coefficients of
    s_(3j-b, b) indexed by b, zeros included. h3[hn] is assembled from
    its columns, the layers read in place, on every call and not kept;
    h2[hn] needs no layers. A layer is never mutated once stored,
    so every call equals a fresh recomputation. Concurrent use is safe
    without a lock: a thread stores T(j) only after T(j - 1) is there, so
    the keys stay 0..len - 1, building a layer twice is idempotent, and an
    entry is fully built before it is assigned.
    """

    __slots__ = ("_two_row",)

    def __init__(self) -> None:
        self._two_row: dict[int, list[int]] = {}

    def _layer(self, n: int) -> list[int]:
        # The coefficients of T(n), empty for negative n, after filling
        # every missing T(j), j <= n, in ascending order.
        table = self._two_row
        for j in range(len(table), n + 1):
            table[j] = _two_row_step(table.get(j - 4, []), j)
        return table.get(n, [])

    def h2(self, n: int) -> SchurSum:
        return h2_rec(n)

    def h3_columns(self, n: int, stop: int | None = None) -> list[list[int]]:
        """The columns 0, ..., stop - 1 of h3[hn], all n + 1 by default,
        as the module docstring lays them out; none for negative n. An
        even column is the cache's own layer, which its caller must not
        mutate."""
        self._layer(n)
        table, columns = self._two_row, []
        for c in range(n + 1 if stop is None else min(stop, n + 1)):
            if c % 2 == 0:
                columns.append(table[n - c])
            elif n - c >= 2:
                columns.append([0, 0, 0, *table[n - c - 2]])
            else:  # T(n - c - 2) is empty: three zeros cut to length
                columns.append([0] * (3 * (n - c) // 2 + 1))
        return columns

    def h3_two_row(self, n: int) -> SchurSum:
        return SchurSum._from_columns(n, self.h3_columns(n, 1))

    def h3(self, n: int) -> SchurSum:
        return SchurSum._from_columns(n, self.h3_columns(n))


def h3_two_row(n: int) -> SchurSum:
    """The terms of h3[hn] with at most two rows; zero for negative n."""
    return RecurrenceCache().h3_two_row(n)


def h3(n: int) -> SchurSum:
    """Schur expansion of h3[hn] by the recurrence; zero for negative n.

    The layers are filled afresh and dropped on return.
    """
    return RecurrenceCache().h3(n)


def dent_differences(m: int, max_n: int):
    """Yield (n, h_m[hn] - s_(2,...,2) odot h_m[h_{n-2}]), with m twos, for
    2 <= n <= max_n; m in {2, 3}.

    For m = 2 each term is the difference of two closed-form sums. For
    m = 3 it is the recurrence's own term D(n) = T(n) + s_441 odot T(n-3):
    T(n) has third part 0 and T(n-3), shifted by (4, 4, 1), third part 1,
    so D(n) is exactly the columns 0 and 1 of h3[hn], read from one
    RecurrenceCache. So D(n) is positive by construction; the check of its
    value at m ones is the one that a wrong layer entry fails. cli.cmd_dent
    reads the same columns itself, without building these sums.
    Comparing D(n) with Thrall's difference in the CLI is still ROADMAP
    item 3.
    """
    if m == 2:
        column = s(2, 2)
        for n in range(2, max_n + 1):
            yield n, h2_closed(n) - column.odot(h2_closed(n - 2))
    elif m == 3:
        cache = RecurrenceCache()
        for n in range(2, max_n + 1):
            yield n, SchurSum._from_columns(n, cache.h3_columns(n, 2))
    else:
        raise ValueError("m must be 2 or 3")
