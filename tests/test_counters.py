"""The exact counters and DP sum sides, held to the enumerators that remain
their oracles."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcong import (
    BivariateSeries,
    ExtentExceeded,
    NATURALS,
    ODDS,
    ONES,
    ResourceBound,
    SeqcongError,
    SequenceSpec,
    WeightSpec,
    all_of_size,
    compare,
    count,
    distinct_of_size,
    enumerate_family,
    partition_count,
    parts_in,
    pba_length,
    product_side,
    restricted_count,
    seqcong_largest,
    seqcong_sum_side,
    sna_largest,
    step_bounded_largest,
    step_bounded_sum_side,
)

P_1000 = 24061467864032622473692149727991  # p(1000)
Q_200 = 487067746  # partitions of 200 into distinct parts

T = SequenceSpec.table
PRIMES = T([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])


def outcome(fn):
    """The value of fn(), or the SeqcongError subclass it raised."""
    try:
        return fn()
    except SeqcongError as e:
        return type(e)


def assert_count_matches_enumeration(desc):
    counted = outcome(lambda: count(desc))
    listed = outcome(lambda: sum(1 for _ in enumerate_family(desc)))
    assert counted == listed, desc.describe()


# ---------------------------------------------------------------------------
# every counter against its enumerator, n <= 30


def _families(n):
    return [
        all_of_size(n),
        distinct_of_size(n),
        seqcong_largest(n),
        step_bounded_largest(n),
        parts_in([2, 3, 5], n),
        sna_largest(ODDS, n),
        sna_largest(PRIMES, n),
        sna_largest(NATURALS, n),
        pba_length(T([2, 3]), T([5, 7]), n),
        pba_length(ODDS, NATURALS, n),
        pba_length(T([2, 3, 1]), T([5, 5, 4]), n),  # repeated B keeps its first position
    ]


@pytest.mark.parametrize("n", range(31))
def test_every_counter_matches_its_enumerator(n):
    for desc in _families(n):
        assert_count_matches_enumeration(desc)


def test_repeated_b_counts_by_first_position():
    # B = 5,5: only the first position's A-term (2) governs the part 5
    desc = pba_length(T([2, 3]), T([5, 5]), 6)
    assert [p.parts for p in enumerate_family(desc)] == [(5,) * 6]
    assert count(desc) == 1


# ---------------------------------------------------------------------------
# property tests over small parameters, unhappy paths included


def _tables(max_len, max_term):
    return st.lists(st.integers(1, max_term), max_size=max_len).map(T)


def _increasing_tables(max_len, max_term):
    return st.sets(st.integers(1, max_term), max_size=max_len).map(lambda s: T(sorted(s)))


def _sequences(max_len, max_term):
    """Rules, arbitrary tables (repeats, short extents, no order) and
    strictly increasing tables."""
    return st.one_of(
        st.sampled_from([NATURALS, ODDS, ONES]),
        st.integers(1, 4).map(SequenceSpec.constant),
        _tables(max_len, max_term),
        _increasing_tables(max_len, 3 * max_term),
    )


sizes = st.integers(0, 25)


@settings(max_examples=40, deadline=None)
@given(n=sizes)
def test_property_plain_kinds(n):
    for desc in (all_of_size(n), distinct_of_size(n), seqcong_largest(n), step_bounded_largest(n)):
        assert_count_matches_enumeration(desc)


@settings(max_examples=60, deadline=None)
@given(part_set=st.sets(st.integers(1, 30), max_size=6), n=sizes)
def test_property_parts_in(part_set, n):
    assert_count_matches_enumeration(parts_in(part_set, n))


@settings(max_examples=100, deadline=None)
@given(a_seq=_sequences(8, 10), n=sizes)
def test_property_sna(a_seq, n):
    assert_count_matches_enumeration(sna_largest(a_seq, n))


@settings(max_examples=100, deadline=None)
@given(a_seq=_sequences(4, 6), b_seq=_sequences(4, 6), n=sizes)
def test_property_pba(a_seq, b_seq, n):
    assert_count_matches_enumeration(pba_length(a_seq, b_seq, n))


def reference_seqcong_sum(f, qtrunc):
    """The sequentially congruent sum side by enumerating every member."""
    coeffs = {}
    for n in range(qtrunc + 1):
        total = Fraction(0)
        for phi in enumerate_family(seqcong_largest(n)):
            parts, w = phi.parts + (0,), Fraction(1)
            for i in range(1, len(parts)):
                w *= f.value(i) ** ((parts[i - 1] - parts[i]) // i)
            total += w
        coeffs[(0, n)] = total
    return BivariateSeries(0, qtrunc, coeffs)


fractions = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@settings(max_examples=40, deadline=None)
@given(values=st.lists(fractions, max_size=20), qtrunc=st.integers(0, 18))
def test_property_seqcong_sum_side(values, qtrunc):
    f = WeightSpec.from_values(values)
    assert outcome(lambda: seqcong_sum_side(f, qtrunc)) == outcome(
        lambda: reference_seqcong_sum(f, qtrunc)
    )


def test_short_weight_table_raises_on_both_sides():
    f = WeightSpec.from_values([1, 2, 3])
    with pytest.raises(ExtentExceeded):
        seqcong_sum_side(f, 5)
    with pytest.raises(ExtentExceeded):
        reference_seqcong_sum(f, 5)


def test_step_sum_side_matches_enumeration():
    s = step_bounded_sum_side(30)
    for n in range(31):
        listed = sum(1 for _ in enumerate_family(step_bounded_largest(n)))
        assert s.coefficient(0, n) == listed


# ---------------------------------------------------------------------------
# sizes no enumerator reaches


def test_seqcong_count_at_1000_is_p_1000():
    start = time.perf_counter()
    assert count(seqcong_largest(1000)) == P_1000
    assert time.perf_counter() - start < 2.0
    assert count(all_of_size(1000)) == partition_count(1000) == P_1000


def test_step_count_at_200_is_distinct_count():
    assert count(step_bounded_largest(200)) == count(distinct_of_size(200)) == Q_200


def test_weighted_identity_at_q_200():
    f = WeightSpec.random_table(5, 200)
    assert compare(product_side(f, 200), seqcong_sum_side(f, 200)).equal


# S_N(A) by largest part is Prod 1/(1 - x^{a_k}): at x = 1, the members with
# largest part n are as many as the partitions of n into terms of A.  The
# left side is the congruence rows, the right side coin change.
PRIMES_TO_47 = T([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47])


@pytest.mark.parametrize("a_seq, top", [(NATURALS, 300), (ODDS, 300), (PRIMES_TO_47, 47)])
def test_sna_count_is_the_count_of_partitions_into_terms_of_a(a_seq, top):
    for n in range(top + 1):
        assert count(sna_largest(a_seq, n)) == restricted_count(a_seq, n), n


@settings(max_examples=100, deadline=None)
@given(a_seq=_increasing_tables(8, 40), n=st.integers(0, 40))
def test_property_sna_count_is_the_count_of_partitions_into_terms_of_a(a_seq, n):
    if n and (not a_seq.terms or a_seq.terms[-1] < n):  # the table never reaches n
        with pytest.raises(ExtentExceeded):
            count(sna_largest(a_seq, n))
    else:
        assert count(sna_largest(a_seq, n)) == restricted_count(a_seq, n)


# ---------------------------------------------------------------------------
# caps


def test_count_has_no_default_cap():
    assert count(all_of_size(200)) == 3972999029388


@pytest.mark.parametrize(
    "desc",
    [
        all_of_size(10**8),
        distinct_of_size(10**6),
        seqcong_largest(10**8),
        step_bounded_largest(5000),
        parts_in([1, 2, 3], 10**8),
        sna_largest(NATURALS, 10**8),
        sna_largest(ODDS, 10**4),
        pba_length(NATURALS, NATURALS, 10**8),
        pba_length(NATURALS, NATURALS, 10**5),
    ],
)
def test_oversized_table_refused_before_allocation(desc):
    start = time.perf_counter()
    with pytest.raises(ResourceBound):
        count(desc)
    assert time.perf_counter() - start < 0.5


# past Python's 4,300-digit limit on integer text, so a label that wrote it
# with str() would fail before the size guard runs
PAST_LIMIT = 10**5000


@pytest.mark.parametrize(
    "call",
    [
        lambda: count(all_of_size(PAST_LIMIT)),
        lambda: count(pba_length(NATURALS, NATURALS, PAST_LIMIT)),
        lambda: restricted_count(SequenceSpec.table([2, 3]), PAST_LIMIT),
        lambda: restricted_count(NATURALS, PAST_LIMIT),
        lambda: product_side(WeightSpec.one(), PAST_LIMIT),
        lambda: step_bounded_sum_side(PAST_LIMIT),
        lambda: BivariateSeries(PAST_LIMIT, PAST_LIMIT),
        lambda: SequenceSpec.table([2, 3]).at(PAST_LIMIT),
        lambda: WeightSpec.one().value(-PAST_LIMIT),
    ],
)
def test_a_bound_past_the_digit_limit_is_refused_in_short(call):
    with pytest.raises(SeqcongError) as refused:
        call()
    assert "000000000... (500" in str(refused.value) and len(str(refused.value)) < 300


def test_weighted_sum_side_refuses_oversized_table():
    with pytest.raises(ResourceBound):
        seqcong_sum_side(WeightSpec.one(), 10**8)


def test_cli_oversized_count_exits_3_within_a_second(run_limited):
    done, elapsed = run_limited("enum", "seqcong-lg:100000000", "--count-only")
    assert done.returncode == 3, done.stderr
    assert done.stdout == "" and "cap" in done.stderr
    assert elapsed < 1.0


def test_restricted_count_is_sized_before_anything_is_built(run_limited):
    # the table of 3,000,000 terms by 3,000,001 sizes is refused from its
    # dimensions, before a term of A is listed or a message lists them
    done, elapsed = run_limited(code=(
        "from seqcong import NATURALS, ResourceBound, restricted_count\n"
        "try:\n"
        "    restricted_count(NATURALS, 3_000_000)\n"
        "except ResourceBound as e:\n"
        "    print(e)\n"
    ))
    assert done.returncode == 0, done.stderr
    assert "cap" in done.stdout and len(done.stdout.encode()) < 300
    assert elapsed < 1.0
