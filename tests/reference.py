"""Reference computations the tests compare the package's routes with.

Each one is a second way to a value the package computes, kept out of
the package because no route, command or workload needs it. A reference
imports nothing from the package but ``partition`` and ``schur``
(tests/test_independence.py checks it), so it cannot share code with the
route it is compared against.

The gap recursion for the coefficients of h3[hn] (Thrall, Amer. J. Math.
64, 1942) is the reference for ``thrall.h3_coeff_closed``: the
multiplicity of s_lam depends only on the gap statistic
min(1 + lam1 - lam2, 1 + lam2 - lam3) and the parity of lam2, and
subtracting six from the gap adds one.
"""

from plethysm.partition import Partition, min_gap


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


def h3_coeff_recursive(lam) -> int:
    """Coefficient of s_lam in h3[hn] via the gap recursion, n = |lam| / 3.

    Rejects the shapes that ``h3_coeff_closed`` rejects, with the same
    ``ValueError``s.
    """
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    if len(lam) > 3:
        raise ValueError(f"expected at most three parts, got {len(lam)}")
    if lam.weight % 3:
        raise ValueError(f"weight {lam.weight} is not a multiple of 3")
    return coeff_from_gap(min_gap(lam), lam.part(1) % 2)
