"""Exact Schur expansions of the plethysms h2[hn] and h3[hn].

Three independent routes to the same expansions, kept deliberately apart
so that agreement certifies each of them:

* ``thrall``     - the classical closed formula for the h3[hn] coefficients;
* ``recurrence`` - the recurrences for h2[hn] and h3[hn], h3 assembled
  from two-row layers memoized in a caller-owned ``RecurrenceCache``;
* ``oracle``     - brute-force monomial expansion converted to the Schur
  basis by peeling at dominant weights against Kostka numbers.

Also included: Schur positivity checks for the Foulkes differences
h_n[h_m] - h_m[h_n] and for h_m[hn] - s_(2^m) odot h_m[h(n-2)], and a CLI
(``plethysm``) exposing all of it.
"""

from .partition import Partition, min_gap, partitions_of
from .schur import SchurSum, s
from .thrall import h3_coeff_closed, h3_thrall
from .recurrence import RecurrenceCache, h2_closed, h2_rec, h3, h3_two_row
from .oracle import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    MonomialPoly,
    foulkes_difference,
    monomial_to_schur,
    monomials_of_degree,
    plethysm_hh_monomial,
    plethysm_oracle,
    schur_poly,
)

__version__ = "0.1.0"

__all__ = [
    "Partition",
    "partitions_of",
    "min_gap",
    "SchurSum",
    "s",
    "h3_coeff_closed",
    "h3_thrall",
    "RecurrenceCache",
    "h2_closed",
    "h2_rec",
    "h3",
    "h3_two_row",
    "DEFAULT_BUDGET",
    "BudgetExceededError",
    "MonomialPoly",
    "monomials_of_degree",
    "plethysm_hh_monomial",
    "schur_poly",
    "monomial_to_schur",
    "plethysm_oracle",
    "foulkes_difference",
]
