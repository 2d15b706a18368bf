import json

from hypothesis import example, given, strategies as st
import pytest

from plethysm import Partition, SchurSum, s, ssyt_count
from plethysm.oracle import schur_poly


@st.composite
def partition_strategy(draw, max_part=6, max_len=4):
    parts = draw(st.lists(st.integers(1, max_part), max_size=max_len))
    return Partition(sorted(parts, reverse=True))


@st.composite
def schur_sum_strategy(draw, max_len=3):
    shapes = draw(st.lists(partition_strategy(max_len=max_len), max_size=4))
    coeffs = draw(st.lists(st.integers(-5, 5), min_size=len(shapes), max_size=len(shapes)))
    return SchurSum(zip(shapes, coeffs))


def _plain(total):
    # The same sum keyed by plain tuples, as the routes build their sums.
    return SchurSum._wrap({tuple(lam): c for lam, c in total._terms.items()})


@st.composite
def keyed_sum_strategy(draw):
    # Partition keys, as SchurSum(...) and s() build them, or plain tuples.
    total = draw(schur_sum_strategy(max_len=4))
    return _plain(total) if draw(st.booleans()) else total


def odot_by_pairs(a, b):
    # The definition, sum of c*d * s_(lam + mu) over pairs of terms, with
    # Partition's componentwise +. The constructor merges equal keys with
    # its own loop, not with the one odot and + share.
    return SchurSum((lam + mu, c * d) for lam, c in a.terms() for mu, d in b.terms())


@given(keyed_sum_strategy(), keyed_sum_strategy())
# The s_31 terms of the two shifts cancel.
@example(s(2) - s(1, 1), s(1, 1) + s(2))
# Keys empty, shorter and longer than the left factor's rows, both ways.
@example(s(2, 2), SchurSum.one() + s(5) + s(3, 3, 1))
@example(_plain(s(3, 1, 1) - 2 * s(4)), _plain(SchurSum.one() + s(2) - s(1, 1, 1, 1)))
@example(_plain(s(2, 2, 2)), s(7, 1) + 3 * s(2, 2, 2, 1))
def test_odot_matches_pairwise_definition(a, b):
    assert a.odot(b) == odot_by_pairs(a, b)


def test_odot_known_values():
    assert s(2, 2).odot(s(4) + s(2, 2)) == s(6, 2) + s(4, 4)
    assert s(4, 4, 1).odot(SchurSum.zero()) == SchurSum.zero()
    assert (s(2) - s(1, 1)).odot(s(1, 1) + s(2)) == s(4) - s(2, 2)


@given(schur_sum_strategy())
def test_odot_identity(a):
    assert SchurSum.one().odot(a) == a


@given(schur_sum_strategy(), schur_sum_strategy(), schur_sum_strategy())
def test_odot_bilinear(a, b, c):
    assert (a + b).odot(c) == a.odot(c) + b.odot(c)
    assert a.odot(b + c) == a.odot(b) + a.odot(c)


@given(partition_strategy(), partition_strategy(), partition_strategy())
def test_odot_single_terms_commute_and_associate(lam, mu, nu):
    a, b, c = s(*lam), s(*mu), s(*nu)
    assert a.odot(b) == b.odot(a)
    assert a.odot(b.odot(c)) == a.odot(b).odot(c)


@given(schur_sum_strategy(max_len=4))
def test_project_commutes_with_two_row_odot(a):
    # For a fixed two-row shift, keeping the terms with at most two rows
    # before or after the odot agrees.
    def two_row(total):
        return SchurSum((lam, c) for lam, c in total.terms() if len(lam) <= 2)

    mu = s(6, 6)
    assert two_row(mu.odot(a)) == mu.odot(two_row(a))


def test_ring_operations():
    assert s(3) + s(3) == 2 * s(3)
    a = s(4, 1) + 3 * s(2, 2)
    assert a - a == SchurSum.zero()
    assert 0 * a == SchurSum.zero()
    assert -a == (-1) * a


def test_coeff_lookup():
    a = s(6) - 2 * s(4, 2)
    assert a.coeff((4, 2)) == -2
    assert a.coeff((5, 1)) == 0


def test_is_schur_positive():
    assert (s(6) + s(4, 2)).is_schur_positive()
    assert not (s(6) - s(4, 2)).is_schur_positive()
    assert SchurSum.zero().is_schur_positive()


def test_eval_at_ones_known_values():
    assert s(3).eval_at_ones(3) == 10  # C(5, 2) monomials of degree 3 in 3 variables
    assert SchurSum.one().eval_at_ones(5) == 1
    assert s(2, 2, 2).eval_at_ones(2) == 0


def test_eval_at_ones_rejects_bad_k():
    with pytest.raises(ValueError):
        s(3).eval_at_ones(0)


@given(schur_sum_strategy(), schur_sum_strategy(), st.integers(1, 4))
def test_eval_at_ones_linear(a, b, k):
    assert (a + b).eval_at_ones(k) == a.eval_at_ones(k) + b.eval_at_ones(k)


@given(partition_strategy(max_part=5, max_len=3), st.integers(1, 4))
def test_ssyt_count_matches_enumeration(lam, k):
    # Weyl product against actual tableau enumeration.
    if len(lam) > k:
        assert ssyt_count(lam, k) == 0
    else:
        assert ssyt_count(lam, k) == schur_poly(lam, k).total()


def test_text_rendering():
    assert str(SchurSum.zero()) == "0"
    assert str(SchurSum.one()) == "1"
    assert str(s(6) + s(4, 2) + s(2, 2, 2)) == "s[6] + s[4,2] + s[2,2,2]"
    assert str(2 * s(3)) == "2*s[3]"
    assert str(s(6) - s(4, 2)) == "s[6] - s[4,2]"
    assert str(-3 * s(2, 1)) == "-3*s[2,1]"


def test_json_terms_order_and_roundtrip():
    a = s(2, 2, 2) + s(6) + 4 * s(4, 2)
    terms = a.json_terms()
    assert terms == [
        {"lambda": [6], "coeff": 1},
        {"lambda": [4, 2], "coeff": 4},
        {"lambda": [2, 2, 2], "coeff": 1},
    ]
    assert SchurSum.from_json_terms(json.loads(json.dumps(terms))) == a


def test_rejects_non_int_coefficients():
    with pytest.raises(ValueError):
        SchurSum.from_json_terms([{"lambda": [2], "coeff": 1.5}])
    with pytest.raises(ValueError):
        SchurSum([((2,), True)])
    with pytest.raises(ValueError):
        SchurSum.from_json_terms([{"lambda": [True], "coeff": 1}])


def test_scalar_multiple_rejects_non_int():
    for scalar in (True, 1.5):
        with pytest.raises(TypeError):
            s(2) * scalar
        with pytest.raises(TypeError):
            scalar * s(2)


def test_duplicate_keys_merge_on_construction():
    assert SchurSum([((3,), 1), ((3,), 2)]) == 3 * s(3)
    assert SchurSum([((3,), 1), ((3,), -1)]) == SchurSum.zero()
