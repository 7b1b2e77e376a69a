"""The multiplicity rule against the code it replaced, and the contract of
the names it rewrote.

The oracles below are the package's predicates, walkers and counters as
they were before one rule (``_values.MultiplicityRule``) checked, counted
and walked the families fixed by one condition per part value.  The rule
must agree with them on every partition up to n = 30 and on every P_B(A)
table the other tests use.  The sweep at the end draws every kind of
SequenceSpec and checks that each rewritten public name returns what its
docstring says or raises a SeqcongError, within a time bound per call.
"""

import math
import time
from itertools import accumulate, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcong import (
    FamilyDescriptor,
    Partition,
    SeqcongError,
    SequenceSpec,
    all_of_size,
    count,
    distinct_of_size,
    enumerate_family,
    has_distinct_parts,
    is_frequency_congruent,
    is_member_pba,
    is_member_sna,
    is_sequentially_congruent,
    is_step_bounded_seqcong,
    parts_in,
    pba_length,
    restricted_count,
    seqcong_largest,
    sna_largest,
    step_bounded_largest,
)
from seqcong import _clifamily, families, predicates, series
from seqcong._counters import _dense_product, _pba_value_pairs
from seqcong._walkers import _walk_runs
from seqcong.predicates import ViolationReport, _failed
from test_families import PBA_SPECS
from test_runs import outcome as typed, ref_seqcong, ref_sna, ref_step

NAT = SequenceSpec.naturals()
UP_TO = 30

# ---------------------------------------------------------------------------
# oracles: the separate code paths the rule replaced


def old_has_distinct_parts(lam):
    return all(m == 1 for _, m in lam.runs)


def old_is_frequency_congruent(lam):
    for part, mult in reversed(lam.runs):
        if mult % part:
            return _failed(part, "part {} has multiplicity {}, not divisible by {}", part, mult, part)
    return predicates._FREQCONG_OK


def old_is_member_pba(lam, a_seq, b_seq):
    ext = a_seq.extent
    for part, mult in reversed(lam.runs):
        pos = b_seq.index_of(part)
        if pos is None:
            return _failed(part, "part {} is not a term of B ({})", part, b_seq.describe())
        if ext is not None and pos > ext:
            return _failed(part, "part {} is at B position {}, past the {} terms of A", part, pos, ext)
        a = a_seq.at(pos)
        if mult % a:
            return _failed(
                part, "multiplicity {} of part {} is not divisible by {} (A term at position {})",
                mult, part, a, pos,
            )
    return predicates._PBA_OK


def old_bool_check(predicate, yes, no):
    passed, failed = ViolationReport(True, None, yes), ViolationReport(False, None, no)
    return lambda p: passed if predicate(p) else failed


# the CLI's checks of the boolean multiplicity families, by family text
OLD_CHECKS = {
    "all": old_bool_check(lambda p: True, "every partition", ""),
    "empty": old_bool_check(lambda p: p.length == 0, "empty", "not empty"),
    "oddparts": old_bool_check(lambda p: all(v % 2 for v, _ in p.runs), "all parts odd", "a part is even"),
    "distinct": old_bool_check(old_has_distinct_parts, "all parts distinct", "a part repeats"),
    **{
        f"parts:{','.join(map(str, t))}": old_bool_check(
            lambda p, t=frozenset(t): all(v in t for v, _ in p.runs),
            "all parts allowed", "a part is not allowed",
        )
        for t in ([1], [2], [2, 3], [1, 4, 9], [3, 5, 7, 30], [31])
    },
}


def old_gen_by_size(n, distinct):
    def level(top, rem):
        for v in range(min(top, rem), 0, -1):
            if distinct and 2 * rem > v * (v + 1):
                return
            copies = (1,) if distinct else (rem,) if v == 1 else range(rem // v, 0, -1)
            for m in copies:
                left = rem - v * m
                if left:
                    yield (v, m), level(v - 1, left), False
                else:
                    yield (v, m), None, True

    return _walk_runs(n, level(n, n))


def old_gen_parts_in(part_set, n):
    allowed = sorted(part_set, reverse=True)
    gcds = [*accumulate(reversed(allowed), math.gcd, initial=0)][::-1]

    def level(k, rem):
        if math.gcd(rem, gcds[k]) != gcds[k]:
            return
        for idx in range(k, len(allowed)):
            v = allowed[idx]
            if v > rem:
                continue
            if idx + 1 == len(allowed):
                if rem % v == 0:
                    yield (v, rem // v), None, True
                return
            for m in range(rem // v, 0, -1):
                left = rem - v * m
                if left:
                    yield (v, m), level(idx + 1, left), False
                else:
                    yield (v, m), None, True

    return _walk_runs(n, level(0, n))


def old_gen_pba_len(pairs, n):
    mask = (1 << (n + 1)) - 1
    reach = [0] * len(pairs) + [1]
    for i in range(len(pairs) - 1, -1, -1):
        row, a = reach[i + 1], pairs[i][1]
        while a <= n:
            row |= (row << a) & mask
            a *= 2
        reach[i] = row

    def level(k, rem):
        for idx in range(k, len(pairs)):
            if not reach[idx] >> rem & 1:
                return
            (b, a), after = pairs[idx], reach[idx + 1]
            for m in range(rem - rem % a, 0, -a):
                left = rem - m
                if not left:
                    yield (b, m), None, True
                elif after >> left & 1:
                    yield (b, m), level(idx + 1, left), False

    return _walk_runs(n, level(0, n))


def old_coin_change(label, coins, n):
    coins = [c for c in coins if c <= n]
    return _dense_product(label, len(coins), ((1, 0, c) for c in coins), 0, n)[0]


def old_distinct_counts(label, n):
    return _dense_product(label, n, ((1, 0, k) for k in range(1, n + 1)), 0, n, linear=True)[0]


def old_pba_length_counts(a_seq, b_seq, n, label):
    pairs = _pba_value_pairs(a_seq, b_seq, n, lambda a, b: a, label)
    return old_coin_change(label, [a for _, a in pairs], n), pairs


def old_restricted_counts(a_seq, n, label):
    values = a_seq.values_upto(n)
    return _dense_product(label, len(values), ((1, 0, v) for v in values), 0, n)[0]


def outcome(fn, *args):
    """The value of fn(*args), or its error's type and text."""
    try:
        return fn(*args)
    except SeqcongError as e:
        return type(e).__name__, str(e)


def partitions_upto(bound):
    """Every partition of size <= bound, from the old walker."""
    for n in range(bound + 1):
        for runs in old_gen_by_size(n, False):
            yield Partition._from_runs(runs)


EVERY = list(partitions_upto(UP_TO))


# ---------------------------------------------------------------------------
# the rule against the oracles


def test_the_oracle_lists_every_partition_up_to_30():
    assert len(EVERY) == sum(map(families.partition_count, range(UP_TO + 1))) == 28629


def test_plain_predicates_match_on_every_partition_up_to_30():
    checks = {text: _clifamily._parse_check(text) for text in OLD_CHECKS}
    for lam in EVERY:
        assert has_distinct_parts(lam) is old_has_distinct_parts(lam)
        assert is_frequency_congruent(lam) == old_is_frequency_congruent(lam)
        for text, old in OLD_CHECKS.items():
            assert checks[text](lam) == old(lam), (text, lam.parts)


@pytest.mark.parametrize("a_seq, b_seq", PBA_SPECS)
def test_pba_predicate_matches_on_every_partition_up_to_30(a_seq, b_seq):
    for lam in EVERY:
        assert outcome(is_member_pba, lam, a_seq, b_seq) == outcome(old_is_member_pba, lam, a_seq, b_seq)


def test_huge_parts_are_judged_alike():
    huge = 10**29 + 7
    for parts in ([huge], [huge, huge], [huge] * 3 + [2, 2], [2 * huge + 1]):
        lam = Partition.from_parts(parts)
        assert is_frequency_congruent(lam) == old_is_frequency_congruent(lam)
        assert has_distinct_parts(lam) is old_has_distinct_parts(lam)
        for a_seq, b_seq in PBA_SPECS + [(NAT, SequenceSpec.constant(huge))]:
            assert outcome(is_member_pba, lam, a_seq, b_seq) == outcome(old_is_member_pba, lam, a_seq, b_seq)


def walked(desc):
    return outcome(lambda: [p.runs for p in enumerate_family(desc)])


def old_walked(stream):
    return outcome(lambda: list(stream()))


@pytest.mark.parametrize("distinct", [False, True])
def test_size_walks_match_up_to_30(distinct):
    make = distinct_of_size if distinct else all_of_size
    for n in range(UP_TO + 1):
        assert walked(make(n)) == old_walked(lambda: old_gen_by_size(n, distinct))


@pytest.mark.parametrize("part_set", [[1], [2], [2, 3], [1, 4, 9], [3, 5, 7, 30], [4, 6], [10, 11], [31]])
def test_parts_in_walks_match_up_to_30(part_set):
    for n in range(UP_TO + 1):
        assert walked(parts_in(part_set, n)) == old_walked(lambda: old_gen_parts_in(part_set, n))


@pytest.mark.parametrize("a_seq, b_seq", PBA_SPECS)
def test_pba_walks_match_up_to_30(a_seq, b_seq):
    for n in range(UP_TO + 1):
        desc = pba_length(a_seq, b_seq, n)

        def old():
            pairs = _pba_value_pairs(a_seq, b_seq, n, lambda a, b: a, desc.describe())
            return old_gen_pba_len(pairs, n)

        assert walked(desc) == old_walked(old)


def test_rows_match_the_old_counters():
    for n in range(UP_TO + 1):
        label = f"row {n}"
        assert outcome(count, distinct_of_size(n)) == old_distinct_counts(label, n)[n]
        assert series.distinct_product_side(n)._rows[0] == old_distinct_counts(label, n)
        for part_set in ([1], [2, 3], [3, 5, 7, 30], [4, 6], [31]):
            assert count(parts_in(part_set, n)) == old_coin_change(label, part_set, n)[n]
    for seq in (NAT, SequenceSpec.odds(), SequenceSpec.table([2, 3]), SequenceSpec.table([5, 1, 5, 12])):
        old = old_restricted_counts(seq, UP_TO, "row")
        assert [restricted_count(seq, n) for n in range(UP_TO + 1)] == old
        if seq.is_distinct_through(seq.extent or 2):  # the Euler side takes distinct terms only
            assert [c for (c,) in series.euler_limit_side(seq, UP_TO)._rows] == old


@pytest.mark.parametrize("a_seq, b_seq", PBA_SPECS)
def test_pba_rows_match_the_old_counters(a_seq, b_seq):
    label = f"pba-len:{UP_TO}"
    old = outcome(old_pba_length_counts, a_seq, b_seq, UP_TO, label)
    got = outcome(lambda: [count(pba_length(a_seq, b_seq, n)) for n in range(UP_TO + 1)])
    if isinstance(old, tuple) and old[0] == "ResourceBound":
        assert got[0] == "ResourceBound"
    else:
        assert got == old[0]
    # the quasi-ideal check sized its walk by coin change over the products a b
    pairs = outcome(_pba_value_pairs, a_seq, b_seq, UP_TO, lambda a, b: a * b, "pairs")
    if isinstance(pairs, list):
        row = families._rule_row(families.FAMILIES["pba"].rule(a_seq, b_seq), UP_TO, "pairs")
        assert row == old_coin_change("pairs", [a * b for b, a in pairs], UP_TO)


# ---------------------------------------------------------------------------
# the contract of every rewritten name, over every kind of SequenceSpec

HUGE = st.integers(10**29, 10**30 - 1)  # 30 digits
sequences = st.one_of(
    st.sampled_from([NAT, SequenceSpec.ones(), SequenceSpec.odds()]),
    st.one_of(st.integers(1, 4), HUGE).map(SequenceSpec.constant),
    st.lists(st.integers(1, 6), max_size=6).map(SequenceSpec.table),  # short, with repeats
    st.lists(st.one_of(st.integers(1, 40), HUGE), min_size=1, max_size=4).map(SequenceSpec.table),
)
sizes = st.one_of(st.integers(-2, 24), HUGE)
part_sets = st.lists(st.one_of(st.integers(-1, 12), HUGE), max_size=4)
small_partitions = st.lists(st.one_of(st.integers(1, 9), HUGE), max_size=8).map(Partition.from_parts)
SECONDS = 2.0  # per call
MAX_ITEMS = 40


def timed(fn, *args, **kwargs):
    """fn's value, or the SeqcongError it raised, and no more than SECONDS."""
    start = time.perf_counter()
    try:
        return fn(*args, **kwargs)
    except SeqcongError as e:
        return e
    finally:
        assert time.perf_counter() - start < SECONDS, fn


SPELLED = 10**4  # the longest member the per-part references read part by part


def ends_keep(p, term, cap):
    """The rule of S_N(A) read at the run ends of p, the only indices whose
    step lambda_i - lambda_{i+1} is not 0: a_i e_i with e_i in ℕ, or e_i =
    1 under the cap."""
    end = 0
    for (v, m), w in zip(p.runs, [v for v, _ in p.runs[1:]] + [0]):
        end += m
        a = term(end)
        if v - w != a if cap else (v - w) % a:
            return False
    return True


def member_of(desc, p):
    """Whether p belongs to the family that desc describes."""
    if desc.kind in ("seqcong-lg", "step-lg", "sna-lg"):
        a_seq = desc.a_seq or NAT
        if p.largest != desc.n:
            return False
        if p.length > SPELLED:
            return ends_keep(p, a_seq.at, desc.kind == "step-lg")
        if desc.kind == "sna-lg":
            return ref_sna(p.parts, a_seq).ok
        return (ref_step if desc.kind == "step-lg" else ref_seqcong)(p.parts).ok
    if desc.kind == "all":
        return p.size == desc.n
    if desc.kind == "distinct":
        return p.size == desc.n and old_has_distinct_parts(p)
    if desc.kind == "parts-in":
        return p.size == desc.n and all(v in desc.part_set for v, _ in p.runs)
    return p.length == desc.n and old_is_member_pba(p, desc.a_seq, desc.b_seq).ok


def check_descriptor(desc, kind, n):
    if isinstance(desc, SeqcongError):
        assert n < 0 or kind == "parts-in"  # a negative size, or a part set with a part below 1
        return
    assert isinstance(desc, FamilyDescriptor) and desc.kind == kind and desc.n == n
    total = timed(count, desc)
    assert isinstance(total, SeqcongError) or (isinstance(total, int) and total >= 0)
    listed = []
    error = timed(lambda: listed.extend(enumerate_family(desc, max_items=MAX_ITEMS)))
    assert all(isinstance(p, Partition) and member_of(desc, p) for p in listed)
    assert all(p.runs > q.runs for p, q in zip(listed, listed[1:]))  # strictly decreasing on the parts
    if isinstance(total, int) and not isinstance(error, SeqcongError):
        assert len(listed) == total
    if isinstance(total, int) and total > MAX_ITEMS:
        assert isinstance(error, SeqcongError) and len(listed) == MAX_ITEMS


@settings(deadline=None, max_examples=150)
@given(n=sizes, part_set=part_sets)
def test_size_families_keep_their_contract(n, part_set):
    check_descriptor(timed(all_of_size, n), "all", n)
    check_descriptor(timed(distinct_of_size, n), "distinct", n)
    check_descriptor(timed(parts_in, part_set, n), "parts-in", n)


@settings(deadline=None, max_examples=150)
@given(a_seq=sequences, b_seq=sequences, n=sizes)
def test_pba_length_keeps_its_contract(a_seq, b_seq, n):
    check_descriptor(timed(pba_length, a_seq, b_seq, n), "pba-len", n)


@settings(deadline=None, max_examples=200)
@given(lam=small_partitions, a_seq=sequences, b_seq=sequences)
def test_predicates_keep_their_contract(lam, a_seq, b_seq):
    assert timed(has_distinct_parts, lam) is old_has_distinct_parts(lam)
    report = timed(is_frequency_congruent, lam)
    assert isinstance(report, ViolationReport) and report.ok is all(m % v == 0 for v, m in lam.runs)
    timed(is_member_pba, lam, a_seq, b_seq)
    report = outcome(is_member_pba, lam, a_seq, b_seq)
    assert report == outcome(old_is_member_pba, lam, a_seq, b_seq)
    assert not isinstance(report, ViolationReport) or report.ok is (report.index is None)


@settings(deadline=None, max_examples=150)
@given(n=sizes)
def test_largest_part_families_over_naturals_keep_their_contract(n):
    check_descriptor(timed(seqcong_largest, n), "seqcong-lg", n)
    check_descriptor(timed(step_bounded_largest, n), "step-lg", n)


# Largest parts of 30 digits are drawn for the rules only.  Over a table
# such as 2, 4, 10^30 the walker offers about 10^29 continuations in a row
# that lead to no member (every odd part at index 2), so a listing of an odd
# largest part of 30 digits runs without end; that defect is open.
@st.composite
def sna_descriptors(draw):
    a_seq = draw(sequences)
    return a_seq, draw(sizes if a_seq.extent is None else st.integers(-2, 24))


@settings(deadline=None, max_examples=200)
@given(drawn=sna_descriptors())
def test_sna_largest_keeps_its_contract(drawn):
    a_seq, n = drawn
    check_descriptor(timed(sna_largest, a_seq, n), "sna-lg", n)


@settings(deadline=None, max_examples=200)
@given(lam=small_partitions, a_seq=sequences)
def test_largest_part_predicates_match_the_references(lam, a_seq):
    t = lam.parts
    assert timed(is_sequentially_congruent, lam) == ref_seqcong(t)
    assert timed(is_step_bounded_seqcong, lam) == ref_step(t)
    timed(is_member_sna, lam, a_seq)
    assert typed(is_member_sna, lam, a_seq) == typed(ref_sna, t, a_seq)


def ref_first_step_break(t, term, cap):
    """The first break of S_N(A) read part by part: each index whose step
    lambda_i - lambda_{i+1} is positive, in order, with a_i = term(i), or i
    when term is None."""
    for i in range(1, len(t) + 1):
        a, b = t[i - 1], t[i] if i < len(t) else 0
        if a != b:
            m = i if term is None else term(i)
            if a - b != m if cap else (a - b) % m:
                return i, a, b, m
    return None


long_runs = st.dictionaries(st.one_of(st.integers(1, 12), HUGE), st.integers(1, 30), max_size=5)


@settings(deadline=None, max_examples=300)
@given(lam=st.one_of(small_partitions, long_runs.map(Partition.from_frequencies)),
       a_seq=st.one_of(st.none(), sequences), cap=st.booleans())
def test_the_run_end_walk_matches_the_part_walk(lam, a_seq, cap):
    term = None if a_seq is None else a_seq.at  # a table's term past its extent raises
    got = outcome(predicates._first_step_break, lam, term, cap)
    assert got == outcome(ref_first_step_break, lam.parts, term, cap)


def test_walks_of_huge_sizes_start_at_once():
    for desc in (all_of_size(10**30), distinct_of_size(10**30), parts_in([4, 6], 10**30)):
        start = time.perf_counter()
        first = [p.runs for p in islice(enumerate_family(desc), 2)]
        assert time.perf_counter() - start < 0.5
        # 10**30 is 4 mod 6: the most 6s leave one 4
        assert first[0] == (((6, (10**30 - 4) // 6), (4, 1)) if desc.kind == "parts-in" else ((10**30, 1),))
