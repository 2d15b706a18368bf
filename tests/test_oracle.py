from collections import Counter
from itertools import combinations_with_replacement, permutations, product
from math import comb
import tracemalloc

from hypothesis import given, settings, strategies as st
import pytest

from plethysm import (
    BudgetExceededError,
    MonomialPoly,
    Partition,
    SchurSum,
    foulkes_difference,
    h2_closed,
    monomial_to_schur,
    monomials_of_degree,
    partitions_of,
    plethysm_hh_monomial,
    plethysm_oracle,
    s,
    schur_poly,
)
from plethysm import oracle
from plethysm.oracle import _kostka, _ssyt_exponents, _strips


@st.composite
def shape_and_vars(draw, max_weight=12, max_k=4):
    k = draw(st.integers(1, max_k))
    length = draw(st.integers(0, k))
    parts = sorted(draw(st.lists(st.integers(1, 6), min_size=length, max_size=length)),
                   reverse=True)
    lam = Partition(parts)
    if lam.weight > max_weight:
        lam = Partition(parts[:1])
    return lam, k


def test_monomials_of_degree_known_values():
    assert monomials_of_degree(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert monomials_of_degree(0, 3) == [(0, 0, 0)]
    assert len(monomials_of_degree(3, 3)) == 10


@given(st.integers(0, 8), st.integers(1, 4))
def test_monomials_of_degree_properties(n, k):
    vectors = monomials_of_degree(n, k)
    assert len(vectors) == comb(n + k - 1, k - 1)
    assert len(set(vectors)) == len(vectors)
    assert vectors == sorted(vectors, reverse=True)
    assert all(sum(v) == n for v in vectors)


def test_hh_monomial_m1_is_h_n():
    poly = plethysm_hh_monomial(1, 4, 3)
    assert set(poly.terms) == set(monomials_of_degree(4, 3))
    assert all(c == 1 for c in poly.terms.values())


def test_hh_monomial_h3_of_h1():
    poly = plethysm_hh_monomial(3, 1, 3)
    assert len(poly.terms) == 10
    assert all(c == 1 for c in poly.terms.values())


def test_hh_monomial_central_coefficient():
    # Multisets of three degree-3 vectors summing to (3,3,3); checked by
    # hand through the Kostka expansion of h3[h3].
    assert plethysm_hh_monomial(3, 3, 3).coeff((3, 3, 3)) == 10


@given(st.integers(1, 3), st.integers(0, 4), st.integers(1, 3))
def test_hh_monomial_total_counts_multisets(m, n, k):
    poly = plethysm_hh_monomial(m, n, k)
    assert poly.total() == comb(comb(n + k - 1, k - 1) + m - 1, m)


def _multiset_sums(m, n, k):
    # The reference for the table: every multiset of m degree-n
    # monomials, one at a time, and the exponent vector of its product.
    return dict(Counter(tuple(map(sum, zip(*multiset)))
                        for multiset in combinations_with_replacement(monomials_of_degree(n, k), m)))


def test_hh_monomial_matches_multiset_enumeration():
    for m in range(1, 5):
        for n in range(5):
            for k in range(1, 5):
                assert plethysm_hh_monomial(m, n, k).terms == _multiset_sums(m, n, k), (m, n, k)


def test_hh_monomial_symmetric_under_transpositions():
    poly = plethysm_hh_monomial(3, 3, 3)
    for perm in ((1, 0, 2), (0, 2, 1), (2, 1, 0)):
        permuted = {tuple(e[p] for p in perm): c for e, c in poly.terms.items()}
        assert MonomialPoly(3, permuted) == poly


def test_hh_monomial_budget_guard():
    with pytest.raises(BudgetExceededError) as info:
        plethysm_hh_monomial(3, 8, 3, budget=100)
    assert info.value.required == comb(comb(10, 2) + 2, 3)
    assert plethysm_hh_monomial(3, 8, 3, budget=None).total() == info.value.required
    # h13[h1] in 13 variables: 5,200,300 multisets fit the default budget,
    # but the table's bound 13 * sum_(j<=13) C(j + 12, 12), which is
    # 13 * (C(26, 13) - 1) by the hockey-stick identity, does not.
    with pytest.raises(BudgetExceededError) as info:
        plethysm_hh_monomial(13, 1, 13)
    assert info.value.required == 13 * (comb(26, 13) - 1)


def test_hh_monomial_table_total_check_fires(monkeypatch):
    # One monomial fewer: the table counts multisets of 9 monomials, the
    # check C(M + m - 1, m) counts those of all M = 10.
    listed = oracle.monomials_of_degree
    monkeypatch.setattr(oracle, "monomials_of_degree", lambda degree, k: listed(degree, k)[1:])
    with pytest.raises(AssertionError, match="table counts 165 multisets, expected 220"):
        plethysm_hh_monomial(3, 3, 3)


def test_schur_poly_known_values():
    assert schur_poly(Partition([1]), 2).terms == {(1, 0): 1, (0, 1): 1}
    assert schur_poly(Partition([2, 1]), 2).terms == {(2, 1): 1, (1, 2): 1}
    assert schur_poly(Partition(), 3).terms == {(0, 0, 0): 1}


def test_schur_poly_one_row_is_h_n():
    for n in range(6):
        assert schur_poly(Partition([n]), 3) == plethysm_hh_monomial(1, n, 3)


def test_schur_poly_rejects_too_many_rows():
    with pytest.raises(ValueError):
        schur_poly(Partition([2, 1, 1]), 2)


@given(shape_and_vars())
@settings(deadline=None)
def test_schur_poly_leading_term(shape_k):
    lam, k = shape_k
    poly = schur_poly(lam, k)
    lead = max(poly.terms)
    assert lead == tuple(lam) + (0,) * (k - len(lam))
    assert poly.terms[lead] == 1


@given(shape_and_vars())
@settings(deadline=None)
def test_monomial_to_schur_roundtrip(shape_k):
    lam, k = shape_k
    assert monomial_to_schur(schur_poly(lam, k)) == s(*lam)


def test_monomial_to_schur_known_expansion():
    assert monomial_to_schur(plethysm_hh_monomial(2, 2, 2)) == s(4) + s(2, 2)


def test_monomial_to_schur_zero():
    assert monomial_to_schur(MonomialPoly(3, {})) == SchurSum.zero()


def test_monomial_to_schur_rejects_asymmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        monomial_to_schur(MonomialPoly(2, {(2, 1): 1}))
    with pytest.raises(ValueError, match="not symmetric"):
        monomial_to_schur(MonomialPoly(2, {(1, 2): 1}))
    # Each is invariant under one of the two generators the check uses:
    # x1^2 x2 + x2^2 x3 + x3^2 x1 under the cycle only, x1 + x2 under the
    # swap of x1 and x2 only.
    with pytest.raises(ValueError, match="not symmetric"):
        monomial_to_schur(MonomialPoly(3, {(2, 1, 0): 1, (0, 2, 1): 1, (1, 0, 2): 1}))
    with pytest.raises(ValueError, match="not symmetric"):
        monomial_to_schur(MonomialPoly(3, {(1, 0, 0): 1, (0, 1, 0): 1}))


def test_plethysm_oracle_rejects_a_raised_table_count(monkeypatch):
    # The table of h3[h3] keys (0, 3, 6) by the code 3*10 + 6*10^2 (base
    # m*n + 1 = 10); one more multiset there breaks the symmetry.
    table = oracle.plethysm_hh_monomial

    def raised(m, n, k, budget):
        poly = table(m, n, k, budget=budget)
        poly._codes[3 * 10 + 6 * 10**2] += 1
        return poly

    monkeypatch.setattr(oracle, "plethysm_hh_monomial", raised)
    with pytest.raises(ValueError, match=r"not symmetric: .*\(0, 3, 6\)"):
        plethysm_oracle(3, 3)


def test_tuple_entry_converts_as_the_packed_table():
    # The foulkes benchmark's pairs, each side in its own number of rows:
    # the table's codes and the same terms packed again from tuples.
    for m, n in ((2, 3), (2, 4), (3, 4), (2, 5), (3, 5), (4, 4), (2, 6)):
        for a, b in ((m, n), (n, m)):
            poly = plethysm_hh_monomial(a, b, a)
            assert monomial_to_schur(MonomialPoly(a, poly.terms)) == monomial_to_schur(poly), (a, b)


def test_monomial_to_schur_peels_absent_weights():
    # (1, 1) is absent from x1^2 + x2^2 but carries the coefficient of s_11.
    assert monomial_to_schur(MonomialPoly(2, {(2, 0): 1, (0, 2): 1})) == s(2) - s(1, 1)


def test_monomial_to_schur_rejects_asymmetric_with_dominant_lead():
    with pytest.raises(ValueError, match="not symmetric"):
        monomial_to_schur(MonomialPoly(2, {(1, 0): 1}))
    with pytest.raises(ValueError, match="not symmetric"):
        monomial_to_schur(MonomialPoly(2, {(2, 1): 1, (1, 2): 2}))


def test_monomial_to_schur_weyl_check_fires(monkeypatch):
    # With every Kostka number 0 nothing is peeled below a lead weight, so
    # every dominant weight reads as a Schur term of its own.
    monkeypatch.setattr(oracle, "_kostka", lambda lam, mu, memo: 0)
    with pytest.raises(AssertionError, match="Schur expansion sums to 1137 at ones, input to 220"):
        plethysm_oracle(3, 3)


def test_kostka_matches_tableau_enumeration():
    for k in range(1, 5):
        for d in range(10):
            weights = partitions_of(d, k)
            for lam in weights:
                contents = _ssyt_exponents(lam, k)
                memo = {}
                for mu in weights:
                    padded = tuple(mu) + (0,) * (k - len(mu))
                    assert _kostka(lam, mu, memo) == contents.get(padded, 0), (lam, mu, k)


def test_kostka_shared_memo_matches_tableau_enumeration():
    # One memo per degree and number of variables, shared by every pair
    # (lam, mu) in descending lex order, as monomial_to_schur shares one
    # across its peel, so counts and strip lists meet in one dict.
    for k in range(1, 6):
        for d in range(12):
            weights = partitions_of(d, k)
            memo = {}
            for lam in weights:
                contents = _ssyt_exponents(lam, k)
                for mu in weights:
                    padded = tuple(mu) + (0,) * (k - len(mu))
                    assert _kostka(lam, mu, memo) == contents.get(padded, 0), (lam, mu, k)


def test_kostka_stores_only_counts_below_the_top_of_three_letters_or_more():
    # K((4, 2), (2, 2, 1, 1)) = 4 by tableau enumeration. The pair asked
    # for is not stored, nor is any count of one or two letters.
    memo = {}
    assert _kostka((4, 2), (2, 2, 1, 1), memo) == 4
    counts = [key for key in memo if len(key) == 2]
    assert counts and all(len(mu) > 2 for _, mu in counts)
    assert ((4, 2), (2, 2, 1, 1)) not in memo


def test_strips_memoizes_only_lists_of_two_or_more():
    # Lists of one strip are not stored: they cost more memory than they
    # save time, by too little for the scale smokes' peaks to show.
    memo = {}
    assert _strips((4, 2), 2, 1, memo) == [(4,)]
    assert _strips((4, 2), 2, 2, memo) == [(4,), (3, 1), (2, 2)]
    assert list(memo) == [((4, 2), 2, 2)]


def test_strips_match_brute_force():
    # Every nu with lam[i+1] <= nu[i] <= lam[i], |lam| - |nu| = size and at
    # most `rows` rows, as one sorted list without repeats.
    for weight in range(11):
        for lam in partitions_of(weight, 5):
            lam = tuple(lam)
            ranges = [range(below, top + 1) for top, below in zip(lam, lam[1:] + (0,))]
            shapes = [tuple(part for part in nu if part) for nu in product(*ranges)]
            for size in range(weight + 1):
                for rows in range(6):
                    expected = sorted(nu for nu in shapes if weight - sum(nu) == size and len(nu) <= rows)
                    assert sorted(_strips(lam, size, rows, {})) == expected, (lam, size, rows)


def _bialternant(poly: MonomialPoly) -> SchurSum:
    # Schur coefficients of a symmetric polynomial f in k variables by
    # Jacobi's bialternant: a_delta * f = sum_lam c_lam a_(lam + delta), so
    # c_lam = sum over w in S_k of sgn(w) [x^(lam + delta - w(delta))] f.
    # That is k! table reads per shape and no Kostka numbers. It stays out
    # of src/: inside plethysm_oracle it would make the oracle too fast for
    # criterion 9, which asks the direct routes to beat it 100x at n = 8.
    k = poly.k
    delta = tuple(range(k - 1, -1, -1))
    signed = [(w, (-1) ** sum(w[i] < w[j] for i in range(k) for j in range(i + 1, k)))
              for w in permutations(delta)]
    found = {}
    for degree in set(map(sum, poly.terms)):
        for lam in partitions_of(degree, k):
            shifted = [part + d for part, d in zip(tuple(lam) + (0,) * (k - len(lam)), delta)]
            found[lam] = sum(sign * poly.coeff(tuple(map(int.__sub__, shifted, w))) for w, sign in signed)
    return SchurSum(found)


def test_bialternant_matches_peel_beyond_tableau_reach():
    assert _bialternant(MonomialPoly(2, {(2, 0): 1, (0, 2): 1})) == s(2) - s(1, 1)
    for m, n in [(2, 60), (3, 12), (4, 6), (5, 3), (6, 2)]:
        poly = plethysm_hh_monomial(m, n, m)
        assert monomial_to_schur(poly) == _bialternant(poly), (m, n)


def test_plethysm_oracle_known_values():
    assert plethysm_oracle(3, 2) == s(6) + s(4, 2) + s(2, 2, 2)
    assert plethysm_oracle(3, 0) == SchurSum.one()
    assert plethysm_oracle(5, 0) == SchurSum.one()


def test_plethysm_oracle_matches_h2_closed():
    for n in range(7):
        assert plethysm_oracle(2, n) == h2_closed(n), n


def test_plethysm_oracle_term_shape():
    for m, n in [(2, 4), (3, 3), (4, 2)]:
        total = plethysm_oracle(m, n)
        assert total.is_schur_positive()
        for lam, _ in total.terms():
            assert len(lam) <= m and lam.weight == m * n


def test_oracle_agrees_in_more_variables():
    # Every constituent of h_m[h_n] has at most m rows, so more variables
    # add no terms to the m-variable expansion.
    for m in range(1, 4):
        for n in range(4):
            expected = plethysm_oracle(m, n)
            for k in range(m, m + 3):
                assert monomial_to_schur(plethysm_hh_monomial(m, n, k)) == expected, (m, n, k)


def test_oracle_refuses_before_building_anything():
    # 293,930 degree-9 monomials in 13 variables, and 501,501 of degree
    # 1000 in 3, would each take tens of MB to list. h13[h1] and h14[h1]
    # pass the multiset count at the default budget and are refused by the
    # table's bound, before a table of GBs is built.
    for call in (lambda: plethysm_hh_monomial(2, 9, 13, budget=1),
                 lambda: plethysm_oracle(3, 1000, budget=1),
                 lambda: plethysm_oracle(13, 1),
                 lambda: plethysm_oracle(14, 1)):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6, f"{peak / 1e6:.3f} MB peak before refusing"


def test_foulkes_difference_matches_common_variables():
    # Each side in its own number of rows gives the difference of both
    # sides expanded in max(m, n) variables.
    for m in range(1, 5):
        for n in range(1, 5):
            k = max(m, n)
            expected = (monomial_to_schur(plethysm_hh_monomial(n, m, k))
                        - monomial_to_schur(plethysm_hh_monomial(m, n, k)))
            assert foulkes_difference(m, n) == expected, (m, n)


def test_foulkes_difference_known_values():
    assert foulkes_difference(2, 3) == s(2, 2, 2)
    assert foulkes_difference(3, 3) == SchurSum.zero()


def test_foulkes_difference_square_expands_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return plethysm_hh_monomial(*args, **kwargs)

    monkeypatch.setattr(oracle, "plethysm_hh_monomial", counted)
    assert foulkes_difference(3, 3) == SchurSum.zero()
    assert calls == [(3, 3, 3)]
    with pytest.raises(BudgetExceededError):
        foulkes_difference(12, 12, budget=1)


def test_foulkes_difference_positive_small():
    for m, n in [(2, 3), (2, 4), (3, 4)]:
        assert foulkes_difference(m, n).is_schur_positive(), (m, n)


def test_monomial_poly_validates_inputs():
    with pytest.raises(ValueError):
        MonomialPoly(2, {(1, 2, 0): 1})
    with pytest.raises(ValueError):
        MonomialPoly(0, {})
    for bad in (1.5, True, 0.0):
        with pytest.raises(ValueError, match="coefficients must be int"):
            MonomialPoly(1, {(1,): bad})


def test_monomial_to_schur_rejects_bad_exponents():
    # Symmetric, so only the exponent check stands between these and the peel.
    for k, terms in ((2, {(-1, 3): 1, (3, -1): 1}), (1, {(1.5,): 1}), (2, {(True, 0): 1, (0, True): 1}),
                     (2, {("a", 0): 1, (0, "a"): 1}), (1, {(None,): 1})):
        with pytest.raises(ValueError, match="exponents must be nonnegative ints"):
            monomial_to_schur(MonomialPoly(k, terms))


@pytest.mark.parametrize("call, args, message", [
    (partitions_of, (-1, 2), "total must be nonnegative"),
    (partitions_of, (3, 0), "max_parts must be positive"),
    (monomials_of_degree, (-1, 2), "degree must be nonnegative"),
    (monomials_of_degree, (2, 0), "k must be positive"),
    (plethysm_hh_monomial, (0, 2, 2), "m must be positive"),
])
def test_input_checks(call, args, message):
    with pytest.raises(ValueError, match=message):
        call(*args)


def test_monomial_poly_prunes_zero_coefficients():
    assert MonomialPoly(2, {(1, 0): 0, (0, 1): 2}).terms == {(0, 1): 2}
