"""The lookups of a sequence against its first terms, the one walk over the
positions of A and B, the (B-value, A-term) pairs taken on top of it, and
the sequence and bound checks beside them."""

import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcong import _counters, _walkers  # noqa: F401 (loaded, so a builder it binds is counted)
from seqcong._counters import _pba_value_pairs
from seqcong.errors import ExtentExceeded, InvalidPart, NonDistinctA, ResourceBound
from seqcong.families import (
    check_ideal_closure,
    check_quasi_ideal,
    count_invariance_suite,
    counts_by_size,
    enumerate_family,
    iter_pba_by_size,
    partitions_of,
    pba_length,
)
from seqcong.predicates import is_member_pba
from seqcong.sequences import SequenceSpec
from seqcong.series import euler_limit_side, pba_sum_side, two_var_product_side

NAT, ONES, ODDS = SequenceSpec.naturals(), SequenceSpec.ones(), SequenceSpec.odds()
RULES = [NAT, ONES, ODDS, SequenceSpec.constant(2), SequenceSpec.constant(3)]
A_TERM, PRODUCT = (lambda a, b: a), (lambda a, b: a * b)  # the weights of _pba_value_pairs
# short tables with repeats, in no order
sequences = st.one_of(
    st.sampled_from(RULES),
    st.lists(st.integers(1, 6), max_size=6).map(SequenceSpec.table),
)


# ---------------------------------------------------------------------------
# each lookup against brute force over the first terms

FIRST = 60  # terms listed for a rule; every value below is reached by then
TERM = {"naturals": lambda i: i, "odds": lambda i: 2 * i - 1, "ones": lambda i: 1}


def first_terms(seq):
    if seq.kind == "table":
        return list(seq.terms)
    term = TERM.get(seq.kind, lambda i: seq.k)
    return [term(i) for i in range(1, FIRST + 1)]


def past_the_end(seq, beyond=0):
    return f"table {list(seq.terms)} has no term at index {len(seq.terms) + 1 + beyond}"


@settings(max_examples=300, deadline=None)
@given(seq=sequences, probe=st.integers(-1, 20))
def test_lookups_match_the_first_terms(seq, probe):
    terms = first_terms(seq)
    for i, term in enumerate(terms, start=1):
        assert seq.at(i) == term
    with pytest.raises(ExtentExceeded, match="index 0 must be >= 1"):
        seq.at(0)
    if seq.extent is not None:
        with pytest.raises(ExtentExceeded) as e:
            seq.at(seq.extent + 1 + max(probe, 0))
        assert str(e.value) == past_the_end(seq, max(probe, 0))
    assert seq.index_of(probe) == (terms.index(probe) + 1 if probe in terms else None)
    assert list(seq.values_upto(probe)) == sorted({v for v in terms if v <= probe})
    head = terms[: max(probe, 0)]
    assert seq.is_distinct_through(probe) == (len(set(head)) == len(head))
    assert seq.strictly_increasing == all(a < b for a, b in zip(terms, terms[1:]))


increasing = st.one_of(
    st.sampled_from([NAT, ODDS]),
    st.sets(st.integers(1, 30), max_size=6).map(lambda s: SequenceSpec.table(sorted(s))),
)


@settings(max_examples=300, deadline=None)
@given(seq=increasing, c=st.integers(-1, 40))
def test_first_at_least_matches_the_first_terms(seq, c):
    reached = [i for i, term in enumerate(first_terms(seq), start=1) if term >= c]
    if reached:
        assert seq.first_at_least(c) == reached[0]
    else:  # the error of reading the term after the table's last
        with pytest.raises(ExtentExceeded) as e:
            seq.first_at_least(c)
        assert str(e.value) == past_the_end(seq)


def test_first_at_least_a_huge_value_costs_nothing():
    assert NAT.first_at_least(10**30) == 10**30
    assert ODDS.first_at_least(10**30) == 10**30 // 2 + 1
    assert SequenceSpec.constant(3).first_at_least(3) == 1
    with pytest.raises(ExtentExceeded):  # a constant rule never reaches a larger value
        SequenceSpec.constant(3).first_at_least(4)


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


UP_TO_12 = [p for n in range(13) for p in partitions_of(n)]
# tables with repeats whose terms reach every size up to 12, of any two lengths
tables_to_12 = st.one_of(
    st.sampled_from(RULES),
    st.lists(st.integers(1, 12), max_size=8).map(SequenceSpec.table),
)


@settings(max_examples=300, deadline=None)
@given(a_seq=tables_to_12, b_seq=tables_to_12)
def test_every_member_is_listed(a_seq, b_seq):
    accepted = {p for p in UP_TO_12 if is_member_pba(p, a_seq, b_seq).ok}
    assert set(iter_pba_by_size(a_seq, b_seq, 12)) == accepted, (a_seq, b_seq)


@pytest.mark.parametrize(
    "call, tables",
    [
        (lambda: count_invariance_suite(SequenceSpec.table([5, 1, 11, 3, 7, 2]), NAT, 30), 3),
        (lambda: check_quasi_ideal(SequenceSpec.table([1, 2]), NAT, 40), 1),
        (lambda: pba_sum_side(NAT, NAT, 12, 30), 1),
    ],
)
def test_each_call_builds_each_pair_table_once(monkeypatch, call, tables):
    built, original = [], _counters._pba_value_pairs

    def counted(*args):
        built.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):  # each binds the builder by name
        if name.startswith("seqcong.") and getattr(module, "_pba_value_pairs", None) is original:
            monkeypatch.setattr(module, "_pba_value_pairs", counted)
    call()
    assert len(built) == tables


def test_a_repeated_b_value_keeps_its_out_of_bound_first_position():
    a, b = SequenceSpec.table([5, 1]), SequenceSpec.table([3, 3])
    assert _pba_value_pairs(a, b, 2, A_TERM, "pairs") == []
    assert _pba_value_pairs(a, b, 5, A_TERM, "pairs") == [(3, 5)]
    assert _pba_value_pairs(a, b, 12, PRODUCT, "pairs") == []
    assert [p.parts for p in iter_pba_by_size(a, b, 12)] == [()]
    assert [p.parts for p in iter_pba_by_size(a, b, 15)] == [(3,) * 5, ()]


@pytest.mark.parametrize(
    "refused",
    [
        lambda: next(enumerate_family(pba_length(NAT, NAT, 10**6))),
        lambda: check_quasi_ideal(ONES, NAT, 10**6),
        lambda: pba_sum_side(ONES, NAT, 0, 10**6),
        lambda: two_var_product_side(ONES, NAT, 1, 10**6),
        lambda: next(iter_pba_by_size(ONES, NAT, 10**6)),
    ],
)
def test_a_pair_table_is_refused_as_its_pairs_arrive(refused):
    # about ten pairs of 10**6 cells each pass the cap; no caller lists,
    # sorts or walks the million positions within the bound first
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(ResourceBound, match="cells, more than the cap of 10000000$"):
            refused()
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5 and peak < 5 * 2**20


def test_a_rule_b_with_one_value_stops_after_one_position():
    assert _pba_value_pairs(ONES, ONES, 5, A_TERM, "pairs") == [(1, 1)]
    assert _pba_value_pairs(ONES, SequenceSpec.constant(2), 9, PRODUCT, "pairs") == [(2, 1)]
    with pytest.raises(ResourceBound):  # every position is a factor of the product
        two_var_product_side(ONES, ONES, 2, 4)
    with pytest.raises(ResourceBound):  # B = naturals: a new value at every position
        _pba_value_pairs(ONES, NAT, 3, A_TERM, "pairs")


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
