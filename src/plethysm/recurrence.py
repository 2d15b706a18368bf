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

The module keeps no cache of its own: h3_two_row and h3 use the cache
they are given, or a fresh one that is dropped on return, so a loop over n
that should reuse the layers passes one RecurrenceCache. The cache keeps
no sums; dent_differences holds its own window of the two previous ones.
"""

from .schur import SchurSum, s

_S22 = s(2, 2)
_S222 = s(2, 2, 2)


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
    """Memo table for the h3 recurrence: the layers T(j), filled bottom-up
    and kept. h3[hn] is assembled from them on every call and not kept, and
    h2[hn] needs no layers. A layer is never mutated once stored, so every
    call equals a fresh recomputation. Concurrent use is safe without a
    lock: building a layer twice is idempotent, and an entry is fully built
    before it is assigned.
    """

    __slots__ = ("_two_row",)

    def __init__(self) -> None:
        self._two_row: dict[int, dict[tuple[int, int], int]] = {}

    def _layer(self, n: int) -> dict[tuple[int, int], int]:
        # The terms of T(n), filling T(j) for j = n % 4, n % 4 + 4, ..., n
        # bottom up, so the entry j - 4 that T(j) reads is already there.
        if n < 0:
            return {}
        table = self._two_row
        if n not in table:
            for j in range(n % 4, n + 1, 4):
                if j not in table:
                    table[j] = _two_row_step(table.get(j - 4, {}), j)
        return table[n]

    def h2(self, n: int) -> SchurSum:
        return h2_rec(n)

    def h3_two_row(self, n: int) -> SchurSum:
        # The layer's padded keys, with their zeros stripped.
        return SchurSum._wrap({(lam if lam[1] else lam[:1] if lam[0] else ()): c
                               for lam, c in self._layer(n).items()})

    def h3(self, n: int) -> SchurSum:
        if n < 0:
            return SchurSum.zero()
        terms = dict(self.h3_two_row(n)._terms)
        for j, (x, y, z) in _h3_shifts(n):
            terms.update({(a + x, b + y, z): c for (a, b), c in self._layer(j).items()})
        return SchurSum._wrap(terms)


def h3_two_row(n: int, cache: RecurrenceCache | None = None) -> SchurSum:
    """The terms of h3[hn] with at most two rows; zero for negative n."""
    return (RecurrenceCache() if cache is None else cache).h3_two_row(n)


def h3(n: int, cache: RecurrenceCache | None = None) -> SchurSum:
    """Schur expansion of h3[hn] by the recurrence; zero for negative n.

    Without a cache the layers are filled afresh and dropped on return.
    """
    return (RecurrenceCache() if cache is None else cache).h3(n)


def dent_differences(m: int, max_n: int):
    """Yield (n, h_m[hn] - s_(2,...,2) odot h_m[h_{n-2}]), with m twos, for
    2 <= n <= max_n; m in {2, 3}.

    Uses the closed form for m = 2 and the recurrence for m = 3. Each
    h_m[h_k] is built once, in full, and only the previous two are held.
    For m = 3 the difference equals the layer D(n) term for term
    whatever the layers hold: outside D(n) the shifted layer entries of
    s_222 odot h3[h_{n-2}] are the same entries as in h3[hn], so they
    cancel, and D(n) is positive by construction. So for m = 3 a positivity
    check of the sweep certifies the plethysm only together with the
    recurrence-vs-thrall comparison of verify at the same n, as the
    certify workload runs them; test_dent_difference_is_built_from_full_sums
    pins the differences to Thrall's closed formula.
    """
    if m == 2:
        build, column = h2_closed, _S22
    elif m == 3:
        build, column = RecurrenceCache().h3, _S222
    else:
        raise ValueError("m must be 2 or 3")
    older, old = build(0), build(1)
    for n in range(2, max_n + 1):
        new = build(n)
        yield n, new - column.odot(older)
        older, old = old, new
