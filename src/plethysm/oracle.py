"""Brute-force plethysm h_m[h_n] from first principles.

Expands h_m[h_n] as an honest polynomial in k variables: every multiset
of m monomials of degree n contributes the product monomial once. That is
h_m evaluated at the degree-n monomials, so the coefficients are those of
t^m in prod_u 1/(1 - t x^u) over the monomials x^u, which a table with one
layer per multiset size counts without visiting any multiset. The table
keys each exponent vector by one packed integer (base m*n + 1), and the
conversion to the Schur basis works on those codes as they are: no
exponent tuple is built unless someone reads ``MonomialPoly.terms``.
It first checks that the polynomial is symmetric, as invariance of every
coefficient under two permutations of the variables that generate S_k,
the swap of x1 and x2 and the cycle x_i -> x_(i+1), each a few C-level
maps over the codes. Then it reads only the dominant (weakly decreasing)
exponent vectors, by packing each partition of each degree present.
There the Schur-to-monomial transition is the Kostka matrix, which is
unitriangular in descending lex order: K(lam, lam) = 1 and K(lam, mu) = 0
unless lam dominates mu. So each coefficient is peeled off in that
order, subtracting c * K(lam, mu) at every later weight mu. A content of
one or two letters has its Kostka number in closed form; longer ones are
counted by the horizontal-strip (Gelfand-Tsetlin) branching rule down to
two letters. A strip list depends on the content only through its last
part and its length, which bounds the rows the strip may leave, so every
content that shares those two shares it. The expansion must then
evaluate at k ones, by Weyl's dimension formula, to the polynomial's
coefficient sum.

Everything here is deliberately independent of the closed formula and the
recurrence modules, so agreement between the three is meaningful. Nothing
is kept between calls: the memo of Kostka numbers and strip lists lives for
one conversion.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, repeat
from math import comb
from operator import add, floordiv, mod, mul, sub

from .partition import Partition, partitions_of
from .schur import SchurSum

DEFAULT_BUDGET = 50_000_000


class BudgetExceededError(RuntimeError):
    """A brute-force expansion is too large for its budget.

    ``required`` is its size in ``unit``s, known before anything is built;
    ``plethysm_hh_monomial`` says how each of its two sizes bounds the work.
    """

    def __init__(self, required: int, budget: int, what: str, unit: str = "multisets") -> None:
        super().__init__(f"{what} needs {required} {unit}, budget is {budget}")
        self.required = required
        self.budget = budget


class MonomialPoly:
    """Sparse polynomial in k variables with exact integer coefficients.

    Built from a dict that maps dense exponent tuples of length k to
    coefficients, each a plain ``int`` (ValueError otherwise; ``bool`` is
    refused too), whose exponents must be nonnegative ints (ValueError
    otherwise). Zero coefficients are dropped. The terms are stored
    packed: the exponent vector e as the integer sum_i e[i] * base**i,
    with base one more than the top degree, so that every exponent, and
    every part of a partition of a degree present, is one digit.
    ``terms`` unpacks them into a fresh dict on every read.
    Treated as immutable by every function in this module.
    """

    __slots__ = ("k", "_base", "_codes", "_degrees")

    def __init__(self, k: int, terms: dict[tuple[int, ...], int]) -> None:
        if k < 1:
            raise ValueError("k must be positive")
        kinds = set(map(type, terms.values()))
        if not kinds <= {int}:
            raise ValueError(f"coefficients must be int, not {sorted(t.__name__ for t in kinds - {int})}")
        terms = {e: c for e, c in terms.items() if c}
        for e in terms:
            if len(e) != k:
                raise ValueError(f"exponent vector {e} does not have length {k}")
            if not set(map(type, e)) <= {int} or min(e) < 0:
                raise ValueError(f"exponents must be nonnegative ints: {e}")
        self.k = k
        self._degrees = set(map(sum, terms))
        self._base = max(self._degrees, default=0) + 1
        self._codes = dict(zip(map(_pack, terms, repeat(self._base)), terms.values()))

    @classmethod
    def _packed(cls, k: int, base: int, codes: dict[int, int], degrees: set[int]) -> "MonomialPoly":
        # A polynomial straight from codes in base ``base``, unchecked: the
        # caller vouches that every coefficient is a nonzero int and that
        # every degree, listed in ``degrees``, is below the base.
        poly = object.__new__(cls)
        poly.k, poly._base, poly._codes, poly._degrees = k, base, codes, degrees
        return poly

    @property
    def terms(self) -> dict[tuple[int, ...], int]:
        """Exponent tuples to coefficients, unpacked afresh on each read."""
        return dict(zip(_unpack(self._codes, self.k, self._base), self._codes.values()))

    def coeff(self, exps: tuple[int, ...]) -> int:
        exps = tuple(exps)
        if len(exps) != self.k or not all(0 <= e < self._base for e in exps):
            return 0
        return self._codes.get(_pack(exps, self._base), 0)

    def total(self) -> int:
        """Sum of all coefficients, i.e. the value at all-ones."""
        return sum(self._codes.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonomialPoly):
            return NotImplemented
        return self.k == other.k and self.terms == other.terms

    def __repr__(self) -> str:
        return f"<MonomialPoly k={self.k} with {len(self._codes)} terms>"


def _pack(exps, base: int) -> int:
    # The code of an exponent vector, or of a partition, whose parts are
    # all below the base.
    return sum(map(mul, exps, map(pow, repeat(base), range(len(exps)))))


def _unpack(codes, k: int, base: int):
    # The exponent tuples of packed codes, in their order: digit i of every
    # code by two C-level maps, and the digits zipped into tuples.
    return zip(*[list(map(mod, map(floordiv, codes, repeat(base**i)), repeat(base))) for i in range(k)])


def _check_degree(degree: int, k: int) -> None:
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if k < 1:
        raise ValueError("k must be positive")


def monomials_of_degree(degree: int, k: int) -> list[tuple[int, ...]]:
    """All exponent vectors of the given total degree, descending lex order.

    A degree-d monomial is a multiset of d variables, and multisets of
    variable indices in lex order have exponent vectors in descending lex
    order.
    """
    _check_degree(degree, k)
    return [tuple(map(c.count, range(k))) for c in combinations_with_replacement(range(k), degree)]


def multiset_count(m: int, n: int, k: int) -> int:
    """The multisets of m degree-n monomials in k variables: h_m[h_n] at k ones."""
    return comb(comb(n + k - 1, k - 1) + m - 1, m)


def plethysm_hh_monomial(m: int, n: int, k: int, budget: int | None = DEFAULT_BUDGET) -> MonomialPoly:
    """h_m[h_n] as a polynomial in k variables, by counting multisets of monomials.

    The coefficient of x^e counts the multisets of m degree-n monomials
    whose exponents sum to e. An unbounded-knapsack table counts them
    without visiting any: layers[j] maps each exponent sum to the number
    of j-element multisets of the monomials seen so far that reach it.
    Each monomial u adds layers[j - 1] shifted by u into layers[j] for j
    ascending, so layers[j - 1] already holds multisets that use u and u
    may repeat. That is M * sum_j |layers[j - 1]| dict updates, with
    M = C(n + k - 1, k - 1) monomials. Exponent vectors are packed into
    single integers (base m*n + 1, which no accumulated exponent can
    reach), so a shift is plain integer addition, and the result keeps
    those codes. The coefficients of layers[m] must add up to the
    multiset count; AssertionError otherwise.

    Raises BudgetExceededError up front, before any monomial is built,
    when either of two bounds on that work exceeds the budget, checked in
    this order:

    * the multiset count C(M + m - 1, m), which a walk would visit. The
      table makes at most C(M + m, m) - 1 = (1 + m/M) * count - 1 dict
      updates, reached when no two multisets share an exponent sum, as at
      h_m[h_1] (h10[h1] in 10 variables: 92,378 multisets, 184,755
      updates);
    * W = M * sum_{j=1..m} C(jn + k - 1, k - 1), in "table updates".
      layers[j] holds at most one key per monomial of degree jn, and that
      number grows with j, so W bounds both the dict updates and the
      largest layer. Over k = m and m, n < 25, at the default budget, it
      refuses only what the count admits at h13[h1] and h14[h1], where
      every multiset keeps its own key (h14[h1]: 20,058,300 multisets,
      40,116,599 dict updates, W = 561,632,386).
    """
    if m < 1:
        raise ValueError("m must be positive")
    _check_degree(n, k)
    what = f"h{m}[h{n}] in {k} variables"
    count = multiset_count(m, n, k)
    if budget is not None:
        if count > budget:
            raise BudgetExceededError(count, budget, what)
        work = comb(n + k - 1, k - 1) * sum(comb(j * n + k - 1, k - 1) for j in range(1, m + 1))
        if work > budget:
            raise BudgetExceededError(work, budget, what, unit="table updates")

    base = m * n + 1
    layers: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(m)]
    for vec in monomials_of_degree(n, k):
        u = _pack(vec, base)
        for below, layer in zip(layers, layers[1:]):
            get = layer.get
            for key, c in below.items():
                key += u
                layer[key] = get(key, 0) + c
    accum = layers[m]
    total = sum(accum.values())
    if total != count:
        raise AssertionError(f"{what}: table counts {total} multisets, expected {count}")

    return MonomialPoly._packed(k, base, accum, {m * n})


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
    # fill holds itself through its closure; dropping the name empties that
    # cell, so no reference cycle is left for the cycle collector.
    del fill
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
    # Number of SSYT of shape lam and partition content mu. One letter
    # fills one row: K(lam, (a,)) = [lam == (a,)], and K(lam, ()) = [lam == ()].
    # Two letters fit when the 1s fill a first row at least a long and the
    # 2s the rest, a horizontal strip: K(lam, (a, b)) = [len(lam) <= 2 and
    # lam_2 <= b]. Longer contents go by the branching rule: the cells
    # holding the largest entry len(mu) form a horizontal strip lam/nu of
    # size mu[-1], and the rest is an SSYT of shape nu and content mu[:-1].
    # This count is not stored, since the peel asks for each of its pairs
    # once; _counted stores the longer counts below it.
    if len(mu) > 2:
        rest = mu[:-1]
        count = _counted if len(rest) > 2 else _kostka
        return sum(map(count, _strips(lam, mu[-1], len(rest), memo), repeat(rest), repeat(memo)))
    if len(mu) == 2:
        return int(len(lam) < 2 or len(lam) == 2 and lam[1] <= mu[1])
    return int(lam == mu)


def _counted(lam: tuple[int, ...], mu: tuple[int, ...], memo: dict) -> int:
    # _kostka for a content of three letters or more, memoized under the
    # two-part key (lam, mu), which no three-part strip key can equal.
    key = (lam, mu)
    count = memo.get(key)
    if count is None:
        count = memo[key] = _kostka(lam, mu, memo)
    return count


def _strips(lam: tuple[int, ...], size: int, rows: int, memo: dict) -> list[tuple[int, ...]]:
    # Every nu with at most `rows` rows and lam/nu a horizontal strip of
    # `size` cells (so lam[i+1] <= nu[i] <= lam[i]). A lam with more than
    # rows + 1 rows has none; one with rows + 1 gives up all the cells of
    # its last row lam[rows], so the cuts above it leave room for those.
    # Rows below i can give up lam[i+1] cells in all, which bounds each cut
    # from below. Only lists of two or more strips are memoized: the rest
    # cost more memory than they save time.
    key = (lam, size, rows)
    if key in memo:
        return memo[key]
    height = len(lam)
    if height > rows + 1:
        return []
    forced = lam[rows] if height > rows else 0
    # The cuts row by row, as (cells left to give up, rows kept so far),
    # in a loop rather than by a nested function that calls itself: that
    # would hold itself through its closure, a reference cycle that only
    # the cycle collector frees. Extending every partial strip in order
    # keeps the strips in the order of their cuts.
    partial = [(size, ())]
    for i in range(min(height, rows)):
        top = lam[i]
        below = lam[i + 1] if i + 1 < height else 0
        partial = [(left - cut, prefix + (top - cut,)) for left, prefix in partial
                   for cut in range(max(0, left - below), min(top - below, left - forced) + 1)]
    out = [prefix if not prefix or prefix[-1] else prefix[:-1]
           for left, prefix in partial if left == forced]
    if len(out) > 1:
        memo[key] = out
    return out


def _check_symmetric(poly: MonomialPoly) -> None:
    # Every code's coefficient must be that of its image under the swap of
    # x1 and x2 and under the cycle x_i -> x_(i+1), which generate S_k, so
    # the coefficients are then constant on every orbit. Images of the
    # support that carry its coefficients, all nonzero, lie in it and are
    # as many, so no orbit is left incomplete either. Each image is a few
    # C-level maps over the codes: the swap adds (e1 - e2) * (base - 1),
    # and the cycle moves the last digit to the front.
    k, base, terms = poly.k, poly._base, poly._codes
    if k < 2:
        return
    codes, coefficients = list(terms), list(terms.values())
    last = base ** (k - 1)
    first = map(mod, codes, repeat(base))
    second = map(mod, map(floordiv, codes, repeat(base)), repeat(base))
    swapped = map(add, codes, map(mul, map(sub, first, second), repeat(base - 1)))
    cycled = map(add, map(mul, map(mod, codes, repeat(last)), repeat(base)), map(floordiv, codes, repeat(last)))
    for images in (list(swapped), list(cycled)):
        found = list(map(terms.get, images))
        if found != coefficients:
            i = next(i for i, (c, d) in enumerate(zip(coefficients, found)) if c != d)
            exps, image = _unpack((codes[i], images[i]), k, base)
            raise ValueError(f"not symmetric: {exps} has coefficient {coefficients[i]}, {image} has {found[i] or 0}")


def monomial_to_schur(poly: MonomialPoly) -> SchurSum:
    """Expand a symmetric polynomial in the Schur basis by peeling dominant weights.

    First checks that the input is symmetric: every coefficient must be
    unchanged by swapping x1 and x2 and by the cycle x_i -> x_(i+1),
    which together generate every permutation of the variables;
    otherwise raises ValueError ("not symmetric"). The check and the peel
    read the packed codes, never exponent tuples.
    Then only the dominant weights matter. The coefficient of x^mu in s_lam
    is the Kostka number K(lam, mu), which is 1 at mu = lam and 0 unless
    lam dominates mu, so it is 0 at every mu after lam in descending lex
    order. Walking the partitions of each degree with at most k parts in
    that order, the remaining coefficient at lam is therefore the
    coefficient of s_lam; peeling it subtracts c * K(lam, mu) at every
    later mu, including weights absent from the input
    (x1^2 + x2^2 = s_2 - s_11). K is in closed form for contents of one or
    two letters and comes from the horizontal-strip branching rule for
    longer ones; the counts below the peel's own pairs and the strip
    lists, shared across contents, are memoized for this call only.

    The result must evaluate at k ones (Weyl's formula) to the input's
    coefficient sum; AssertionError otherwise.
    """
    k, codes = poly.k, poly._codes
    _check_symmetric(poly)
    memo: dict = {}
    found: dict[Partition, int] = {}
    for degree in sorted(poly._degrees, reverse=True):
        shapes = partitions_of(degree, k)
        remaining = [codes.get(_pack(lam, poly._base), 0) for lam in shapes]
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


def plethysm_oracle(m: int, n: int, budget: int | None = DEFAULT_BUDGET) -> SchurSum:
    """Schur expansion of h_m[h_n], computed from first principles.

    Expands in m variables: every Schur constituent of h_m[h_n] has at
    most m rows, so m variables already separate all constituents.
    """
    return monomial_to_schur(plethysm_hh_monomial(m, n, m, budget=budget))


def foulkes_difference(m: int, n: int, budget: int | None = DEFAULT_BUDGET) -> SchurSum:
    """h_n[h_m] minus h_m[h_n], each expanded in its own number of rows (n, then m).

    When m == n the two sides are one plethysm, expanded once.
    """
    outer = plethysm_oracle(n, m, budget=budget)
    return outer - (outer if m == n else plethysm_oracle(m, n, budget=budget))
