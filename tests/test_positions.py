"""The one walk over the positions of A and B, the (B-value, A-term) pairs
taken on top of it, and the sequence and bound checks beside them."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcong.errors import InvalidPart, NonDistinctA, ResourceBound
from seqcong.families import (
    _pba_value_pairs,
    check_ideal_closure,
    check_quasi_ideal,
    count_invariance_suite,
    counts_by_size,
    enumerate_family,
    iter_pba_by_size,
    pba_length,
)
from seqcong.predicates import is_member_pba
from seqcong.sequences import SequenceSpec
from seqcong.series import euler_limit_side, two_var_product_side

NAT, ONES, ODDS = SequenceSpec.naturals(), SequenceSpec.ones(), SequenceSpec.odds()
RULES = [NAT, ONES, ODDS, SequenceSpec.constant(2), SequenceSpec.constant(3)]
# short tables with repeats, in no order
sequences = st.one_of(
    st.sampled_from(RULES),
    st.lists(st.integers(1, 6), max_size=6).map(SequenceSpec.table),
)


@settings(max_examples=300, deadline=None)
@given(a_seq=sequences, b_seq=sequences, n=st.integers(0, 8))
def test_every_listed_member_is_a_member(a_seq, b_seq, n):
    try:
        members = list(enumerate_family(pba_length(a_seq, b_seq, n)))
    except ResourceBound:  # an infinite family: A keeps terms <= n forever
        members = []
    members += iter_pba_by_size(a_seq, b_seq, 2 * n)
    for p in members:
        assert is_member_pba(p, a_seq, b_seq).ok, (a_seq, b_seq, p.parts)


def test_a_repeated_b_value_keeps_its_out_of_bound_first_position():
    a, b = SequenceSpec.table([5, 1]), SequenceSpec.table([3, 3])
    assert list(_pba_value_pairs(a, b, a_bound=2, ab_bound=None)) == []
    assert list(_pba_value_pairs(a, b, a_bound=5, ab_bound=None)) == [(3, 5)]
    assert list(_pba_value_pairs(a, b, a_bound=None, ab_bound=12)) == []
    assert [p.parts for p in iter_pba_by_size(a, b, 12)] == [()]
    assert [p.parts for p in iter_pba_by_size(a, b, 15)] == [(), (3,) * 5]


def test_a_rule_b_with_one_value_stops_after_one_position():
    assert list(_pba_value_pairs(ONES, ONES, a_bound=5, ab_bound=None)) == [(1, 1)]
    assert list(_pba_value_pairs(ONES, SequenceSpec.constant(2), a_bound=None, ab_bound=9)) == [
        (2, 1)
    ]
    with pytest.raises(ResourceBound):  # every position is a factor of the product
        two_var_product_side(ONES, ONES, 2, 4)
    with pytest.raises(ResourceBound):  # B = naturals: a new value at every position
        list(_pba_value_pairs(ONES, NAT, a_bound=3, ab_bound=None))


@pytest.mark.parametrize(
    "seq, n, values",
    [
        (NAT, 4, [1, 2, 3, 4]),
        (ODDS, 6, [1, 3, 5]),
        (ONES, 3, [1]),
        (ONES, 0, []),
        (SequenceSpec.constant(4), 5, [4]),
        (SequenceSpec.constant(4), 3, []),
        (SequenceSpec.table([5, 2, 2, 9, 1]), 5, [1, 2, 5]),
        (NAT, -2, []),
    ],
)
def test_values_upto(seq, n, values):
    assert list(seq.values_upto(n)) == values


def test_values_upto_a_huge_bound_costs_nothing():
    assert len(NAT.values_upto(10**15)) == 10**15


def test_a_huge_euler_side_is_refused_before_its_terms_are_counted():
    with pytest.raises(ResourceBound, match="cells"):
        euler_limit_side(NAT, 10**20)


@pytest.mark.parametrize(
    "seq", [ONES, SequenceSpec.constant(2), SequenceSpec.table([2, 3, 2])]
)
def test_euler_side_needs_distinct_terms(seq):
    with pytest.raises(NonDistinctA):
        euler_limit_side(seq, 4)


@pytest.mark.parametrize(
    "check",
    [
        lambda bound: check_ideal_closure(lambda p: True, bound),
        lambda bound: check_quasi_ideal(NAT, NAT, bound),
        lambda bound: count_invariance_suite(SequenceSpec.table([2, 3]), NAT, bound),
        lambda bound: counts_by_size(lambda p: True, bound),
    ],
)
def test_a_bound_below_zero_is_refused(check):
    with pytest.raises(InvalidPart, match="bound must be >= 0, got -1"):
        check(-1)
    check(0)
