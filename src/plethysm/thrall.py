"""Closed-form Schur coefficients of h3[hn] and the assembled expansion.

The multiplicity of s_lam in h3[hn] (for lam of weight 3n with at most
three parts) depends only on two statistics of lam: the gap statistic
min(1 + lam1 - lam2, 1 + lam2 - lam3) and the parity of lam2. Thrall's
classical formula expresses it in closed form; an equivalent recursion
steps the gap statistic down by six, adding one per step.

``h3_thrall(n)`` assembles the triples a >= b >= c >= 0 with
a + b + c = 3n one row a at a time, from slices of closed-form tables and
C-level iterators: O(n^2) terms, O(n) Python-level steps, no shape
re-checked.
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

    Row a holds the triples (a, b, r - b), r = 3n - a, with b running over
    [ceil(r/2), min(a, r)]. Since a - b <= b - c exactly when b >= n, the
    gap statistic is 1 + a - b for b >= n and 1 + 2b - r for b < n, so on
    each side of b = n the row's coefficients are one slice of a table of
    the closed formula, built once per call. Each row's keys and
    coefficients then pass through C-level iterators, zeros dropped.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    w = 3 * n
    # above[a % 2][a - b] for b >= n; below[r % 4][b - r // 2] for b < n,
    # where r % 4 fixes the parity of r and, with b - r // 2, that of b.
    # The rows read a - b <= n and b - r // 2 <= n // 2.
    above = [[_closed(1 + z, (p + z) % 2) for z in range(n + 1)] for p in (0, 1)]
    below = [[_closed(1 - q % 2 + 2 * y, (q // 2 + y) % 2) for y in range(n // 2 + 1)] for q in range(4)]
    terms = {}
    for r in range(n):  # the rows a = 3n - r > 2n: every b <= r < n
        half = r // 2
        coeffs = below[r % 4][r % 2:r + 1 - half]
        keys = zip(repeat(w - r), range(r - half, r + 1), range(half, -1, -1))
        terms.update(zip(compress(keys, coeffs), filter(None, coeffs)))
    for a in range(2 * n, n - 1, -1):  # the rows a <= 2n: ceil(r/2) <= n <= min(a, r)
        r = w - a
        half = r // 2
        hi = min(a, r)
        coeffs = below[r % 4][r % 2:n - half] + above[a % 2][a - hi:a - n + 1][::-1]
        keys = zip(repeat(a), range(r - half, hi + 1), range(half, r - hi - 1, -1))
        terms.update(zip(compress(keys, coeffs), filter(None, coeffs)))
    # The rows a >= r end at b = r with a padded c = 0; strip the zeros.
    for a in range(w, (w - 1) // 2, -1):
        b = w - a
        coeff = terms.pop((a, b, 0), 0)
        if coeff:
            terms[(a, b) if b else (a,) if a else ()] = coeff
    return SchurSum._wrap(terms)
