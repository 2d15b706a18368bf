"""Brute-force plethysm h_m[h_n] from first principles.

Expands h_m[h_n] as an honest polynomial in k variables: every multiset
of m monomials of degree n contributes the product monomial once. The
conversion to the Schur basis first checks, term by term, that the
polynomial is symmetric, and then reads only its dominant (weakly
decreasing) exponent vectors. There the Schur-to-monomial transition is
the Kostka matrix, which is unitriangular in descending lex order:
K(lam, lam) = 1 and K(lam, mu) = 0 unless lam dominates mu. So each
coefficient is peeled off in that order, subtracting c * K(lam, mu) at
every later weight mu, with K counted by the horizontal-strip
(Gelfand-Tsetlin) branching rule. The expansion must then evaluate at
k ones, by Weyl's dimension formula, to the polynomial's coefficient sum.

Everything here is deliberately independent of the closed formula and the
recurrence modules, so agreement between the three is meaningful. Nothing
is kept between calls: the Kostka memo lives for one conversion.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate
from math import comb, factorial, prod

from .partition import Partition, partitions_of
from .schur import SchurSum

DEFAULT_BUDGET = 50_000_000


class BudgetExceededError(RuntimeError):
    """A brute-force expansion would enumerate too many multisets."""

    def __init__(self, required: int, budget: int, what: str) -> None:
        super().__init__(f"{what} needs {required} multisets, budget is {budget}")
        self.required = required
        self.budget = budget


class MonomialPoly:
    """Sparse polynomial in k variables with exact integer coefficients.

    Terms map dense exponent tuples of length k to nonzero coefficients.
    Treated as immutable by every function in this module.
    """

    __slots__ = ("k", "terms")

    def __init__(self, k: int, terms: dict[tuple[int, ...], int]) -> None:
        if k < 1:
            raise ValueError("k must be positive")
        self.k = k
        self.terms = {e: c for e, c in terms.items() if c}
        for e in self.terms:
            if len(e) != k:
                raise ValueError(f"exponent vector {e} does not have length {k}")

    def coeff(self, exps: tuple[int, ...]) -> int:
        return self.terms.get(tuple(exps), 0)

    def total(self) -> int:
        """Sum of all coefficients, i.e. the value at all-ones."""
        return sum(self.terms.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonomialPoly):
            return NotImplemented
        return self.k == other.k and self.terms == other.terms

    def __repr__(self) -> str:
        return f"<MonomialPoly k={self.k} with {len(self.terms)} terms>"


def monomials_of_degree(degree: int, k: int) -> list[tuple[int, ...]]:
    """All exponent vectors of the given total degree, descending lex order."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if k < 1:
        raise ValueError("k must be positive")
    if k == 1:
        return [(degree,)]
    out = []
    for first in range(degree, -1, -1):
        for rest in monomials_of_degree(degree - first, k - 1):
            out.append((first,) + rest)
    return out


def plethysm_hh_monomial(m: int, n: int, k: int, budget: int | None = DEFAULT_BUDGET) -> MonomialPoly:
    """h_m[h_n] as a polynomial in k variables, by multiset enumeration.

    Walks all multisets of m degree-n monomials as nondecreasing index
    sequences over the ordered monomial list and accumulates the exponent
    sum of each. Exponent vectors are packed into single integers (base
    m*n + 1, which no accumulated exponent can reach), so the inner loop
    is plain integer addition; keys are unpacked at the end.

    Raises BudgetExceededError up front when the multiset count
    C(M + m - 1, m), M = C(n + k - 1, k - 1), exceeds the budget.
    """
    if m < 1:
        raise ValueError("m must be positive")
    vectors = monomials_of_degree(n, k)
    count = comb(len(vectors) + m - 1, m)
    if budget is not None and count > budget:
        raise BudgetExceededError(count, budget, f"h{m}[h{n}] in {k} variables")

    base = m * n + 1
    packed = []
    for vec in vectors:
        code = 0
        for e in reversed(vec):
            code = code * base + e
        packed.append(code)

    last = len(packed)
    accum: dict[int, int] = {}

    def walk(start: int, remaining: int, partial: int) -> None:
        if remaining == 1:
            get = accum.get
            for j in range(start, last):
                key = partial + packed[j]
                accum[key] = get(key, 0) + 1
            return
        for j in range(start, last):
            walk(j, remaining - 1, partial + packed[j])

    walk(0, m, 0)

    terms: dict[tuple[int, ...], int] = {}
    for code, c in accum.items():
        exps = []
        for _ in range(k):
            code, e = divmod(code, base)
            exps.append(e)
        terms[tuple(exps)] = c
    return MonomialPoly(k, terms)


def _ssyt_exponents(lam: Partition, k: int) -> dict[tuple[int, ...], int]:
    # Content vectors of all SSYT of shape lam with entries in 1..k,
    # with multiplicities. Only schur_poly calls this: it is the
    # tableau-by-tableau reference the Kostka numbers of monomial_to_schur
    # are tested against.
    if not lam:
        return {(0,) * k: 1}
    rows = list(lam)
    nrows = len(rows)
    grid = [[0] * width for width in rows]
    content = [0] * k
    out: dict[tuple[int, ...], int] = {}

    def fill(r: int, c: int) -> None:
        if r == nrows:
            key = tuple(content)
            out[key] = out.get(key, 0) + 1
            return
        nr, nc = (r, c + 1) if c + 1 < rows[r] else (r + 1, 0)
        lowest = 1
        if c > 0:
            lowest = grid[r][c - 1]  # rows weakly increase
        if r > 0:
            lowest = max(lowest, grid[r - 1][c] + 1)  # columns strictly increase
        for value in range(lowest, k + 1):
            grid[r][c] = value
            content[value - 1] += 1
            fill(nr, nc)
            content[value - 1] -= 1

    fill(0, 0)
    return out


def schur_poly(lam, k: int) -> MonomialPoly:
    """The Schur polynomial s_lam in k variables, by SSYT enumeration.

    The lex-greatest exponent is lam padded to length k, coefficient 1.
    """
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    if len(lam) > k:
        raise ValueError(f"shape has {len(lam)} rows, only {k} variables")
    return MonomialPoly(k, _ssyt_exponents(lam, k))


def _kostka(lam: tuple[int, ...], mu: tuple[int, ...], memo: dict) -> int:
    # Number of SSYT of shape lam and content mu, by the branching rule:
    # the cells holding the largest entry len(mu) form a horizontal strip
    # lam/nu of size mu[-1], and the rest is an SSYT of shape nu and
    # content mu[:-1].
    key = (lam, mu)
    if key in memo:
        return memo[key]
    if mu:
        rest = mu[:-1]
        count = sum(_kostka(nu, rest, memo) for nu in _strips(lam, mu[-1], rest))
    else:
        count = 1  # lam has the weight of mu, so it is empty too
    memo[key] = count
    return count


def _strips(lam: tuple[int, ...], size: int, rest: tuple[int, ...]) -> list[tuple[int, ...]]:
    # Every nu with lam/nu a horizontal strip of `size` cells (so
    # lam[i+1] <= nu[i] <= lam[i]) that dominates rest, which are exactly
    # the nu with K(nu, rest) > 0. Rows below i can give up lam[i+1] cells
    # in all, which bounds the cut from below; keeping each prefix sum of
    # nu at least that of rest bounds it from above.
    rows = len(lam)
    floor = [*accumulate(rest), *[sum(rest)] * rows]
    out: list[tuple[int, ...]] = []

    def take(i: int, left: int, kept: int, prefix: tuple[int, ...]) -> None:
        if i == rows:
            out.append(prefix if not prefix or prefix[-1] else prefix[:-1])
            return
        top = lam[i]
        below = lam[i + 1] if i + 1 < rows else 0
        for cut in range(max(0, left - below), min(top - below, left, kept + top - floor[i]) + 1):
            take(i + 1, left - cut, kept + top - cut, prefix + (top - cut,))

    take(0, size, 0, ())
    return out


def _check_symmetric(poly: MonomialPoly) -> dict[tuple[int, ...], int]:
    # Coefficients at the dominant (weakly decreasing) exponent vectors,
    # keyed by canonical tuple (zeros dropped), after checking every term:
    # each exponent vector must carry the coefficient of its sorted
    # rearrangement, and each orbit must hold all k!/prod(mult!) of its
    # rearrangements.
    terms = poly.terms
    orbits: dict[tuple[int, ...], int] = {}
    for exps, c in terms.items():
        lead = tuple(sorted(exps, reverse=True))
        if terms.get(lead, 0) != c:
            raise ValueError(
                f"not symmetric: {exps} has coefficient {c}, {lead} has {terms.get(lead, 0)}"
            )
        orbits[lead] = orbits.get(lead, 0) + 1
    k = poly.k
    dominant: dict[tuple[int, ...], int] = {}
    for lead, count in orbits.items():
        full = factorial(k) // prod(map(factorial, Counter(lead).values()))
        if count != full:
            raise ValueError(
                f"not symmetric: {count} of the {full} rearrangements of {lead} are present"
            )
        dominant[lead[:k - lead.count(0)]] = terms[lead]
    return dominant


def monomial_to_schur(poly: MonomialPoly) -> SchurSum:
    """Expand a symmetric polynomial in the Schur basis by peeling dominant weights.

    First checks that the input is symmetric, on every term: each exponent
    vector must have the coefficient of its sorted rearrangement and each
    orbit must be complete; otherwise raises ValueError ("not symmetric").
    Then only the dominant weights matter. The coefficient of x^mu in s_lam
    is the Kostka number K(lam, mu), which is 1 at mu = lam and 0 unless
    lam dominates mu, so it is 0 at every mu after lam in descending lex
    order. Walking the partitions of each degree with at most k parts in
    that order, the remaining coefficient at lam is therefore the
    coefficient of s_lam; peeling it subtracts c * K(lam, mu) at every
    later mu, including weights absent from the input
    (x1^2 + x2^2 = s_2 - s_11). K comes from the horizontal-strip
    branching rule, memoized for this call only.

    The result must evaluate at k ones (Weyl's formula) to the input's
    coefficient sum; AssertionError otherwise.
    """
    k = poly.k
    dominant = _check_symmetric(poly)
    memo: dict = {}
    found: dict[Partition, int] = {}
    for degree in sorted(set(map(sum, dominant)), reverse=True):
        shapes = partitions_of(degree, k)
        remaining = [dominant.get(mu, 0) for mu in shapes]
        for i, lam in enumerate(shapes):
            c = remaining[i]
            if not c:
                continue
            found[lam] = c
            for j in range(i + 1, len(shapes)):
                remaining[j] -= c * _kostka(lam, shapes[j], memo)
    result = SchurSum._wrap(found)
    if result.eval_at_ones(k) != poly.total():
        raise AssertionError(
            f"Schur expansion sums to {result.eval_at_ones(k)} at ones, input to {poly.total()}"
        )
    return result


def plethysm_oracle(m: int, n: int, k: int | None = None, budget: int | None = DEFAULT_BUDGET) -> SchurSum:
    """Schur expansion of h_m[h_n], computed from first principles.

    k defaults to m: every Schur constituent of h_m[h_n] has at most m
    rows, so m variables already separate all constituents. Pass a larger
    k when the result will be combined with plethysms whose constituents
    have more rows.
    """
    if k is None:
        k = m
    return monomial_to_schur(plethysm_hh_monomial(m, n, k, budget=budget))


def foulkes_difference(m: int, n: int, budget: int | None = DEFAULT_BUDGET) -> SchurSum:
    """h_n[h_m] minus h_m[h_n], both computed in max(m, n) variables."""
    k = max(m, n)
    return plethysm_oracle(n, m, k=k, budget=budget) - plethysm_oracle(m, n, k=k, budget=budget)
