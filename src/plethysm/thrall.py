"""Closed-form Schur coefficients of h3[hn] and the assembled expansion.

The multiplicity of s_lam in h3[hn] (for lam of weight 3n with at most
three parts) depends only on two statistics of lam: the gap statistic
min(1 + lam1 - lam2, 1 + lam2 - lam3) and the parity of lam2. Thrall's
classical formula expresses it in closed form; an equivalent recursion
steps the gap statistic down by six, adding one per step.

``h3_thrall(n)`` assembles the triples a >= b >= c >= 0 with
a + b + c = 3n one middle part b at a time, each row's coefficients one
slice of one closed-form table, through C-level iterators: O(n^2) terms,
O(n) Python-level steps, no shape re-checked.
"""

from itertools import compress, repeat

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


def h3_thrall(n: int) -> SchurSum:
    """Schur expansion of h3[hn], assembled from the closed formula.

    Row b holds the triples (3n - b - c, b, c) for 0 <= c <= top, with
    top = min(b, 3n - 2b). Their gap statistic is top + 1 - c and their
    parity b % 2, so for c = top down to 1 the coefficients are one slice,
    gaps 1 to top, of a table of the closed formula built once per call,
    and the two-row key c = 0 takes the entry after it. Each row's keys
    and coefficients pass through C-level iterators, zeros dropped.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    w = 3 * n
    table = [[_closed(gap, p) for gap in range(n + 2)] for p in (0, 1)]  # top <= n
    parts = list(range(w + 1))  # one int object per part, shared by the keys
    terms = {}
    for b in range(w // 2 + 1):
        top = min(b, w - 2 * b)
        row = table[b % 2]
        coeffs = row[1:top + 1]  # c = top, ..., 1
        keys = zip(parts[w - b - top:w - b], repeat(b), parts[top:0:-1])
        terms.update(zip(compress(keys, coeffs), filter(None, coeffs)))
        if row[top + 1]:
            terms[(w - b, b) if b else (w,) if w else ()] = row[top + 1]
    return SchurSum._wrap(terms)
