"""Closed-form Schur coefficients of h3[hn] and the assembled expansion.

The multiplicity of s_lam in h3[hn] (for lam of weight 3n with at most
three parts) depends only on two statistics of lam: the gap statistic
min(1 + lam1 - lam2, 1 + lam2 - lam3) and the parity of lam2. Thrall's
classical formula expresses it in closed form; an equivalent recursion
steps the gap statistic down by six, adding one per step.

``h3_columns(n)`` lists the coefficients of h3[hn] as its n + 1 columns,
column c those of s_(3n-b-c, b, c) for c <= b <= (3n-c)//2, zeros
included. Entry t = b - c of column c has gap statistic
min(1 + t, 1 + 3(n-c) - 2t) and parity (t + c) % 2, so each column is a
slice of one of two head lists and a stepped slice of one of four tail
lists, all read from one closed-form table per call: O(n) Python-level
steps for the O(n^2) coefficients, no shape re-checked. ``h3_thrall(n)``
builds its sum from them.
"""

# partitions_of is not used here. It stays importable from this module
# because the per-layer trace in perfbench/spans.py hooks it by this name.
from .partition import Partition, min_gap, partitions_of  # noqa: F401
from .schur import SchurSum


def coeff_from_gap(gap: int, parity: int) -> int:
    """Multiplicity as a function of the gap statistic and second-part parity.

    Defined by: subtracting six from the gap adds one; for gaps below six
    the value is 1 at gaps 1, 3, 4, 5 when the parity is even, 1 at gap 4
    when the parity is odd, and 0 otherwise.
    """
    if gap < 0:
        raise ValueError("gap must be nonnegative")
    if parity not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    bumps = 0
    while gap >= 6:
        gap -= 6
        bumps += 1
    if parity == 0:
        base = 0 if gap in (0, 2) else 1
    else:
        base = 1 if gap == 4 else 0
    return base + bumps


def _check_shape(lam) -> Partition:
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    if len(lam) > 3:
        raise ValueError(f"expected at most three parts, got {len(lam)}")
    if lam.weight % 3:
        raise ValueError(f"weight {lam.weight} is not a multiple of 3")
    return lam


def _closed(gap: int, parity: int) -> int:
    # Thrall's formula at gap statistic ``gap`` and second-part parity
    # ``parity``; see h3_coeff_closed.
    rounded = gap + (0, 2, -2)[gap % 3]
    if rounded % 2 == 0:
        return rounded // 6
    if parity == 0:
        return (rounded + 3) // 6
    return (rounded - 3) // 6


def h3_coeff_closed(lam) -> int:
    """Coefficient of s_lam in h3[hn] by the closed formula, n = |lam| / 3.

    Round the gap statistic to the nearest multiple of 3 (distance 0 or 2;
    the rounded value can be 0). If the rounded value is even the
    coefficient is rounded/6; if odd, it is (rounded + 3)/6 for even lam2
    and (rounded - 3)/6 for odd lam2.
    """
    lam = _check_shape(lam)
    return _closed(min_gap(lam), lam.part(1) % 2)


def h3_coeff_recursive(lam) -> int:
    """Coefficient of s_lam in h3[hn] via the gap recursion."""
    lam = _check_shape(lam)
    return coeff_from_gap(min_gap(lam), lam.part(1) % 2)


def h3_columns(n: int) -> list[list[int]]:
    """The n + 1 columns of h3[hn] by the closed formula.

    Column c lists the coefficients of s_(3n-b-c, b, c) for
    c <= b <= (3n-c)//2, zeros included. With k = n - c and t = b - c, the
    gap statistic is 1 + t for t <= k and 1 + 3k - 2t after, and the parity
    is (t + c) % 2. Both read one table of the closed formula per parity,
    built once per call.

    Up to t = k the entry is head[t] = table[(t + c) % 2][1 + t], which
    depends on c only through its parity: one head list per parity, read
    as head[:k + 1]. After that, t = k + u for 1 <= u <= k // 2, the gap
    is k + 1 - 2u and the parity (n + u) % 2. At table index i = k + 1 - 2u
    the parity is (n + (k + 1 - i) / 2) % 2, which depends on k only
    through k % 4: one tail list per k % 4, holding that table's entry at
    each i of the parity of k + 1, read as tail[k - 1:0:-2]. So each column
    is two slices joined.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    table = [[_closed(gap, p) for gap in range(n + 2)] for p in (0, 1)]  # gaps <= n + 1
    heads = []
    for q in (0, 1):  # head[t] = table[(t + q) % 2][1 + t], t <= n
        head = [0] * (n + 1)
        head[0::2] = table[q][1::2]
        head[1::2] = table[1 - q][2::2]
        heads.append(head)
    tails = []
    for r in range(4):
        # For k = r (mod 4), at each i of the parity of k + 1: (k + 1 - i) / 2
        # is even at i = r + 1 (mod 4) and odd at i = r + 3 (mod 4).
        tail = [0] * (n + 2)
        tail[(r + 1) % 4::4] = table[n % 2][(r + 1) % 4::4]
        tail[(r + 3) % 4::4] = table[1 - n % 2][(r + 3) % 4::4]
        tails.append(tail)
    # max keeps the tail's slice from wrapping at k = 0.
    return [heads[c % 2][:n - c + 1] + tails[(n - c) % 4][max(n - c - 1, 0):0:-2] for c in range(n + 1)]


def h3_thrall(n: int) -> SchurSum:
    """Schur expansion of h3[hn], assembled from the closed formula."""
    return SchurSum._from_columns(n, h3_columns(n))
