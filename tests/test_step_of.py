"""One definition of M_j: ``MultiplicityRule.step_of`` against the branch it
replaced, and every reader of it in agreement.

The check (``predicates._first_break``), the tables (``_counters._allowed``,
behind ``_rule_row`` and ``_gen_rule``) and the deletions
(``families.check_quasi_ideal``, ``families.scaled_deletion``) all take a
part's step from ``step_of``.  So every multiplicity family of
``_values.FAMILIES`` must count by its row, by its walk and by filtering
partitions with its check alike, by size and by length, with every walked
member passing the check; and the paper's
count of ``freqcong`` by length, p(n), must come out of its row.
"""

import math
import time
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcong import InvalidDeletion, Partition, ResourceBound, SequenceSpec, scaled_deletion
from seqcong._counters import _allowed, _pba_value_pairs, _pentagonal_counts, _rule_row
from seqcong._values import FAMILIES, MultiplicityRule
from seqcong._walkers import _gen_rule
from seqcong.families import partitions_of
from seqcong.predicates import _first_break

NAT = SequenceSpec.naturals()
HUGE = st.integers(10**29, 10**30 - 1)  # 30 digits
UP_TO = 12
BOX = 30_000  # the most members a walk, or partitions the filter by length, reads for one n

# ---------------------------------------------------------------------------
# the oracle: the branch that decided M_part inside _first_break before step_of


def old_step(rule, part):
    values, step = rule.values, rule.step
    if values.__class__ is int:  # 1, 1 + values, 1 + 2 values, ...
        return None if (part - 1) % values else step or part  # a step of None is the part
    if values.__class__ is frozenset:
        return step or part if part in values else None
    # A's term at the part's first position in B, if A has one
    pos = values.index_of(part)
    return None if pos is None or step.extent is not None and pos > step.extent else step.at(pos)


def old_first_break(lam, rule):
    for part, mult in reversed(lam.runs):
        a = old_step(rule, part)
        if a is None or mult % a or (rule.cap and mult > a):  # the cap: M_j = {0, a}, as the row reads it
            return part, mult, a
    return None


# T, A and B: the rules, constant:k, and short tables with repeated terms
sequences = st.one_of(
    st.sampled_from([NAT, SequenceSpec.ones(), SequenceSpec.odds()]),
    st.integers(1, 3).map(SequenceSpec.constant),
    st.lists(st.integers(1, 6), min_size=1, max_size=5).map(SequenceSpec.table),
)
part_sets = st.lists(st.integers(1, 9), max_size=4)
steps = st.one_of(st.none(), st.integers(1, 4))
# the rules the old branch read: int or frozenset values with an int step
# or None, and P_B(A)
old_rules = st.one_of(
    st.builds(MultiplicityRule, st.integers(1, 4), steps, st.booleans()),
    st.builds(MultiplicityRule, st.frozensets(st.one_of(st.integers(1, 12), HUGE), max_size=4), steps,
              st.booleans()),
    st.builds(lambda a, b: FAMILIES["pba"].rule(a, b), sequences, sequences),
)
small_partitions = st.lists(st.one_of(st.integers(1, 12), HUGE), max_size=8).map(Partition.from_parts)


@settings(deadline=None, max_examples=300)
@given(rule=old_rules, parts=st.lists(st.one_of(st.integers(1, 40), HUGE), min_size=1, max_size=8))
def test_step_of_matches_the_branch_it_replaced(rule, parts):
    for part in parts:
        assert rule.step_of(part) == old_step(rule, part), part


@settings(deadline=None, max_examples=300)
@given(rule=old_rules, lam=small_partitions)
def test_the_check_matches_the_branch_it_replaced(rule, lam):
    assert _first_break(lam, rule) == old_first_break(lam, rule)


def test_the_parts_in_a_rule_is_checked():
    # restricted_count and euler_limit_side build this rule; the old branch
    # read its step 1 as A and raised AttributeError on `extent`
    rule = MultiplicityRule(SequenceSpec.table([2, 3, 3]), 1, False)
    assert _first_break(Partition.from_parts([3, 3, 2, 2, 2]), rule) is None
    assert _first_break(Partition.from_parts([5, 3, 2]), rule) == (5, 1, None)
    odds = MultiplicityRule(SequenceSpec.odds(), 1, False)
    assert _first_break(Partition.from_parts([4]), odds) == (4, 1, None)
    assert [rule.step_of(j) for j in range(1, 5)] == [None, 1, 1, None]


@settings(deadline=None, max_examples=200)
@given(a_seq=sequences, b_seq=sequences, bound=st.integers(0, 30), length=st.booleans())
def test_the_pair_table_reads_its_steps_from_step_of(a_seq, b_seq, bound, length):
    rule = FAMILIES["pba"].rule(a_seq, b_seq)
    weight = (lambda a, b: a) if length else (lambda a, b: a * b)
    try:
        pairs = _pba_value_pairs(a_seq, b_seq, bound, weight, "pairs")
    except ResourceBound:  # two rules that keep infinitely many positions within the bound
        assert a_seq.extent is None and b_seq.extent is None
        return
    assert all(rule.step_of(b) == a for b, a in pairs)
    listed = {b for b, _ in pairs}
    for b in range(1, bound + 1):
        a = rule.step_of(b)
        if a is not None and weight(a, b) <= bound:
            assert b in listed, b


# ---------------------------------------------------------------------------
# every multiplicity family counted by its row, its walk and its check alike


def filtered(rule, n, length):
    """Members of the rule of size n, or of length n, by filtering with the
    check: by size over partitions_of(n); by length over the partitions of
    n parts, each at most n and at most the largest of a part set, or for
    P_B(A) at most the largest B-term whose A-term is at most n.  None
    when that box holds more than BOX."""
    if not length:
        return sum(1 for p in partitions_of(n) if _first_break(p, rule) is None)
    if n == 0:
        return 1
    top = n if rule.values.__class__ is not frozenset else min(n, max(rule.values, default=0))
    if isinstance(rule.step, SequenceSpec):
        a_seq, b_seq = rule.step, rule.values
        last = min([e for e in (a_seq.extent, b_seq.extent) if e is not None], default=n)
        top = max([b_seq.at(i) for i in range(1, last + 1) if a_seq.at(i) <= n], default=0)
    if math.comb(top + n - 1, n) > BOX:
        return None
    return sum(1 for parts in combinations_with_replacement(range(top, 0, -1), n)
               if _first_break(Partition.from_parts(parts), rule) is None)


def rows_agree(rule):
    for length in (False, True):
        for n in range(UP_TO + 1):
            try:
                table = _allowed(rule, n, length, "rows")
            except ResourceBound:  # P_B(A) over infinitely many positions
                with pytest.raises(ResourceBound):
                    _rule_row(rule, n, "rows", length)
                continue
            row = _rule_row(rule, n, "rows", length)[n]
            if row > BOX:  # all by length: C(2n - 1, n) members
                continue
            walked = [Partition._from_runs(runs) for runs in _gen_rule(*table, n, rule.cap, length)]
            assert row == len(walked), (rule, n, length)
            assert all(_first_break(p, rule) is None and (p.length if length else p.size) == n for p in walked)
            brute = filtered(rule, n, length)
            assert brute is None or row == brute, (rule, n, length)


@pytest.mark.parametrize("name", ["all", "empty", "oddparts", "distinct", "freqcong"])
def test_each_fixed_rule_counts_by_row_walk_and_check_alike(name):
    rows_agree(FAMILIES[name].rule())


@settings(deadline=None, max_examples=40)
@given(t=part_sets)
def test_parts_counts_by_row_walk_and_check_alike(t):
    rows_agree(FAMILIES["parts"].rule(t))


@settings(deadline=None, max_examples=60)
@given(a_seq=sequences, b_seq=sequences)
def test_pba_counts_by_row_walk_and_check_alike(a_seq, b_seq):
    rows_agree(FAMILIES["pba"].rule(a_seq, b_seq))


# capped rules whose steps pass 1: the cap allows one block of a copies, M_j = {0, a}
capped_rules = st.one_of(
    st.builds(MultiplicityRule, st.integers(1, 3), st.one_of(st.none(), st.integers(2, 4)), st.just(True)),
    st.builds(MultiplicityRule, st.frozensets(st.integers(1, 9), max_size=4),
              st.one_of(st.none(), st.integers(2, 4)), st.just(True)),
)


@settings(deadline=None, max_examples=40)
@given(rule=capped_rules)
def test_capped_rules_count_by_row_walk_and_check_alike(rule):
    rows_agree(rule)


def test_the_cap_allows_one_block():
    rule = MultiplicityRule(frozenset({2, 3}), 2, True)
    assert _rule_row(rule, 8, "rows") == [1, 0, 0, 0, 1, 0, 1, 0, 0]  # [2,2] and [3,3]
    assert _first_break(Partition.from_parts([2, 2]), rule) is None
    assert _first_break(Partition.from_parts([3, 3, 2, 2]), rule) is None
    assert _first_break(Partition.from_parts([2, 2, 2, 2]), rule) == (2, 4, 2)
    assert _first_break(Partition.from_parts([2]), rule) == (2, 1, 2)


def test_every_multiplicity_family_is_covered():
    drawn = {"T": [1], "A": NAT, "B": NAT}
    rules = {name: family.rule(*[drawn[key] for key in family.keys])
             for name, family in FAMILIES.items() if family.rule is not None}
    covered = {"all", "empty", "oddparts", "distinct", "freqcong", "parts", "pba"}
    assert {name for name, rule in rules.items() if isinstance(rule, MultiplicityRule)} == covered


def test_the_rows_of_oddparts_and_freqcong():
    def row(name, length=False):
        return _rule_row(FAMILIES[name].rule(), UP_TO, "rows", length)

    assert row("oddparts") == [1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10, 12, 15]
    assert row("freqcong") == [1, 1, 1, 1, 2, 2, 2, 2, 3, 4, 4, 4, 5]
    assert row("freqcong", True) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]


# ---------------------------------------------------------------------------
# the paper's theorem, and Euler's, each through two independent counters


def test_freqcong_by_length_counts_the_partitions_up_to_1000():
    # the bijection of the paper: partitions of n and partitions of length n
    # in which every part divides its multiplicity
    freqcong = FAMILIES["freqcong"].rule()
    assert _rule_row(freqcong, 1000, "rows", length=True) == _pentagonal_counts("rows", 1000)


def test_odd_parts_and_distinct_parts_are_equinumerous_up_to_1000():
    # prod 1 / (1 - q^(2j-1)) against prod (1 + q^j), each its own factor list
    odd = _rule_row(FAMILIES["oddparts"].rule(), 1000, "rows")
    assert odd == _rule_row(FAMILIES["distinct"].rule(), 1000, "rows")
    assert odd[100] == 444793

# ---------------------------------------------------------------------------
# the sizing of the tables, and the deletions


@pytest.mark.parametrize("name", ["oddparts", "freqcong"])
@pytest.mark.parametrize("length", [False, True])
def test_a_range_of_31_digits_is_refused_before_it_is_listed(name, length):
    start = time.perf_counter()
    with pytest.raises(ResourceBound, match="cap"):
        _allowed(FAMILIES[name].rule(), 10**30 + 1, length, "rows")
    assert time.perf_counter() - start < 0.5


def test_a_part_set_of_any_bound_is_listed_at_once():
    # a frozenset's values are listed by themselves, never sized by the bound
    assert _allowed(FAMILIES["parts"].rule([4, 6]), 10**30 + 1, False, "rows") == ([4, 6], [1, 1])


def test_scaled_deletion_takes_its_block_from_step_of():
    a_seq, b_seq = SequenceSpec.table([2, 3]), SequenceSpec.table([5, 7, 9])
    lam = Partition.from_parts([7, 7, 7, 5, 5])
    assert scaled_deletion(lam, a_seq, b_seq, 7, 3).parts == (5, 5)
    with pytest.raises(InvalidDeletion, match=r"^may only delete positive multiples of 2 copies of 5, not 1$"):
        scaled_deletion(lam, a_seq, b_seq, 5, 1)
    with pytest.raises(InvalidDeletion, match=r"^value 9 is at B position 3, past the 2 terms of A$"):
        scaled_deletion(lam, a_seq, b_seq, 9, 1)
    with pytest.raises(InvalidDeletion, match=r"^value 4 is not a term of B \(5,7,9\)$"):
        scaled_deletion(lam, a_seq, b_seq, 4, 1)
