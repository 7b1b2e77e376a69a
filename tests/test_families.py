import time

import pytest

from seqcong import (
    EMPTY,
    ExtentExceeded,
    InvalidDeletion,
    InvalidPart,
    NonDistinctA,
    Partition,
    ResourceBound,
    SequenceSpec,
    all_of_size,
    check_ideal_closure,
    check_quasi_ideal,
    count,
    count_invariance_suite,
    counts_by_size,
    distinct_of_size,
    enumerate_family,
    has_distinct_parts,
    ideal_equivalent_upto,
    is_frequency_congruent,
    is_member_pba,
    is_member_sna,
    is_sequentially_congruent,
    is_step_bounded_seqcong,
    iter_pba_by_size,
    partition_count,
    partitions_of,
    parts_in,
    pba_length,
    restricted_count,
    scaled_deletion,
    seqcong_largest,
    sna_largest,
    step_bounded_largest,
)
from seqcong import _walkers, families, predicates
from seqcong._counters import _pba_value_pairs

NAT = SequenceSpec.naturals()
ODD = SequenceSpec.odds()


def pentagonal_counts(bound):
    """Independent oracle for the number of partitions, via the classical
    pentagonal-number recurrence (no enumeration involved)."""
    p = [1] + [0] * bound
    for n in range(1, bound + 1):
        total, k = 0, 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = 1 if k % 2 else -1
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


def test_plain_enumerator_against_recurrence():
    expected = pentagonal_counts(30)
    for n in range(31):
        members = list(partitions_of(n))
        assert len(members) == expected[n]
        assert len(set(members)) == len(members)
        assert all(m.size == n for m in members)


def test_partitions_of_four_in_order():
    assert [p.parts for p in partitions_of(4)] == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1),
    ]


def test_empty_size_families():
    assert [p for p in partitions_of(0)] == [EMPTY]
    assert list(enumerate_family(seqcong_largest(0))) == [EMPTY]
    assert list(enumerate_family(distinct_of_size(0))) == [EMPTY]


@pytest.mark.parametrize(
    "desc",
    [
        all_of_size(9),
        distinct_of_size(12),
        parts_in([2, 3, 5], 17),
        seqcong_largest(9),
        step_bounded_largest(11),
        pba_length(SequenceSpec.table([2, 3]), SequenceSpec.table([5, 7]), 9),
        sna_largest(ODD, 9),
    ],
)
def test_enumeration_is_sorted_and_deterministic(desc):
    first = [p.parts for p in enumerate_family(desc)]
    second = [p.parts for p in enumerate_family(desc)]
    assert first == second
    assert first == sorted(first, reverse=True)
    assert len(set(first)) == len(first)


class TestSeqcongLargest:
    def test_members_at_four(self):
        members = [p.parts for p in enumerate_family(seqcong_largest(4))]
        assert set(members) == {(4,), (4, 2), (4, 4), (4, 3, 3), (4, 4, 4, 4)}

    def test_count_equals_partition_count(self):
        for n in range(16):
            assert count(seqcong_largest(n)) == partition_count(n)

    def test_agrees_with_predicate_filter(self):
        # every member of size <= 14 shows up when filtering the plain
        # enumeration, and vice versa
        direct = {
            p
            for n in range(15)
            for p in enumerate_family(seqcong_largest(n))
            if p.size <= 14
        }
        filtered = {
            p
            for n in range(15)
            for p in partitions_of(n)
            if is_sequentially_congruent(p).ok
        }
        assert direct == filtered


class TestOtherGenerators:
    def test_distinct_counts(self):
        assert count(distinct_of_size(10)) == 10
        filtered = [
            sum(1 for p in partitions_of(n) if has_distinct_parts(p))
            for n in range(15)
        ]
        assert [count(distinct_of_size(n)) for n in range(15)] == filtered

    def test_parts_in_filter_agreement(self):
        allowed = (2, 3)
        for n in range(15):
            direct = set(enumerate_family(parts_in(allowed, n)))
            filtered = {
                p for p in partitions_of(n) if all(v in allowed for v in p.parts)
            }
            assert direct == filtered

    def test_step_bounded_filter_agreement(self):
        direct = {
            p
            for n in range(15)
            for p in enumerate_family(step_bounded_largest(n))
            if p.size <= 14
        }
        filtered = {
            p
            for n in range(15)
            for p in partitions_of(n)
            if is_step_bounded_seqcong(p).ok
        }
        assert direct == filtered

    def test_sna_naturals_equals_seqcong(self):
        for n in range(11):
            assert list(enumerate_family(sna_largest(NAT, n))) == list(
                enumerate_family(seqcong_largest(n))
            )

    def test_sna_odds_filter_agreement(self):
        direct = {
            p
            for n in range(13)
            for p in enumerate_family(sna_largest(ODD, n))
            if p.size <= 12
        }
        filtered = {
            p
            for n in range(13)
            for p in partitions_of(n)
            if is_member_sna(p, ODD).ok
        }
        assert direct == filtered

    def test_sna_table_needs_enough_terms(self):
        with pytest.raises(ExtentExceeded):
            list(enumerate_family(sna_largest(SequenceSpec.table([2, 3]), 6)))

    def test_sna_constant_rule_is_infinite(self):
        with pytest.raises(ResourceBound):
            list(enumerate_family(sna_largest(SequenceSpec.constant(2), 4)))


class TestPbaLength:
    A = SequenceSpec.table([2, 3])
    B = SequenceSpec.table([5, 7])

    def test_hand_example(self):
        members = [p.parts for p in enumerate_family(pba_length(self.A, self.B, 6))]
        assert members == [(7, 7, 7, 7, 7, 7), (5, 5, 5, 5, 5, 5)]

    def test_naturals_length_counts(self):
        assert count(pba_length(NAT, NAT, 6)) == partition_count(6) == 11

    def test_members_satisfy_predicate(self):
        for n in range(10):
            for p in enumerate_family(pba_length(self.A, self.B, n)):
                assert p.length == n
                assert is_member_pba(p, self.A, self.B).ok

    def test_filter_agreement_via_size(self):
        direct = {
            p
            for n in range(15)
            for p in enumerate_family(pba_length(NAT, NAT, n))
            if p.size <= 14
        }
        filtered = {
            p
            for n in range(15)
            for p in partitions_of(n)
            if is_frequency_congruent(p).ok
        }
        assert direct == filtered

    def test_infinite_family_rejected(self):
        with pytest.raises(ResourceBound):
            list(enumerate_family(pba_length(SequenceSpec.ones(), NAT, 2)))

    def test_empty_tables_give_empty_family(self):
        empty = SequenceSpec.table([])
        assert list(enumerate_family(pba_length(empty, empty, 0))) == [EMPTY]
        assert list(enumerate_family(pba_length(empty, empty, 3))) == []


def _pba_len_reference(a_seq, b_seq, n):
    """The recursive enumerator the explicit-stack walk replaced: every
    member of length n built, then sorted."""
    pairs = _pba_value_pairs(a_seq, b_seq, n, lambda a, b: a, "pairs")
    members = []

    def rec(idx, rem, parts):
        if rem == 0:
            members.append(tuple(sorted(parts, reverse=True)))
        elif idx < len(pairs):
            b, a = pairs[idx]
            for m in range(0, rem + 1, a):
                rec(idx + 1, rem - m, parts + [b] * m)

    rec(0, n, [])
    return sorted(members, reverse=True)


def _pba_by_size_reference(a_seq, b_seq, max_size, max_length=None):
    """The recursive form of iter_pba_by_size: pairs by B-value descending,
    each taking 0, a, 2a, ... copies."""
    pairs = _pba_value_pairs(a_seq, b_seq, max_size, lambda a, b: a * b, "pairs")
    out = []

    def rec(idx, size_left, len_left, parts):
        if idx == len(pairs):
            out.append(tuple(parts))
            return
        b, a = pairs[idx]
        m = 0
        while m * b <= size_left and (len_left is None or m <= len_left):
            rec(idx + 1, size_left - m * b, None if len_left is None else len_left - m, parts + [b] * m)
            m += a

    rec(0, max_size, max_length, [])
    return sorted(out, reverse=True)


PBA_SPECS = [
    (NAT, NAT),
    (ODD, NAT),
    (NAT, ODD),
    (ODD, ODD),
    (SequenceSpec.table([2, 3]), SequenceSpec.table([5, 7])),
    (SequenceSpec.table([1, 2, 3, 5, 7, 11]), NAT),
    (SequenceSpec.table([3, 1, 2]), SequenceSpec.table([4, 2, 9])),
    (NAT, SequenceSpec.table([2, 2, 3])),  # a repeated B-value keeps its first position
    (SequenceSpec.ones(), SequenceSpec.table([5, 3, 2])),  # single copies above the last pair
    (SequenceSpec.table([2]), NAT),  # tables A shorter than B: parts past them are no members
    (SequenceSpec.table([3, 1]), NAT),
]


@pytest.mark.parametrize("a_seq, b_seq", PBA_SPECS)
def test_pba_walks_match_the_recursive_references(a_seq, b_seq):
    for n in range(21):
        got = [p.parts for p in enumerate_family(pba_length(a_seq, b_seq, n))]
        assert got == _pba_len_reference(a_seq, b_seq, n)
    for max_size in range(17):
        for max_length in (None, 0, 3, 6):
            got = [p.parts for p in iter_pba_by_size(a_seq, b_seq, max_size, max_length)]
            assert got == _pba_by_size_reference(a_seq, b_seq, max_size, max_length)


@pytest.mark.parametrize("a_seq, b_seq", PBA_SPECS)
def test_iter_pba_by_size_matches_the_filtered_partitions(a_seq, b_seq):
    # the oracle shares no walk with the enumerator: every partition of size
    # <= 16 that is a member, kept under each bound, in descending order
    members = [p for n in range(17) for p in partitions_of(n) if is_member_pba(p, a_seq, b_seq).ok]
    for max_size in range(17):
        for max_length in (None, 0, 3, 6):
            kept = [
                p.parts for p in members
                if p.size <= max_size and (max_length is None or p.length <= max_length)
            ]
            got = [p.parts for p in iter_pba_by_size(a_seq, b_seq, max_size, max_length)]
            assert got == sorted(kept, reverse=True)


@pytest.mark.parametrize("max_size, max_length, name", [(-1, None, "max_size"), (3, -2, "max_length")])
def test_iter_pba_by_size_refuses_a_negative_bound(max_size, max_length, name):
    with pytest.raises(InvalidPart, match=f"^{name} must be >= 0"):
        next(iter_pba_by_size(NAT, NAT, max_size, max_length))


def test_pba_listing_is_lazy():
    start = time.perf_counter()
    # the first of the 10**30-odd members of length 1200 comes at once
    first = next(enumerate_family(pba_length(NAT, NAT, 1200)))
    assert first.parts == (1200,) * 1200
    # the only member takes all 101 copies of 1; the five even A-terms could
    # fill millions of partial choices, none of which leads to a member
    a_seq = SequenceSpec.table([2, 2, 2, 2, 2, 101])
    b_seq = SequenceSpec.table([100, 99, 98, 97, 96, 1])
    assert [p.parts for p in enumerate_family(pba_length(a_seq, b_seq, 101))] == [(1,) * 101]
    assert time.perf_counter() - start < 0.5


def test_pba_listing_shares_the_counters_cell_cap():
    # one bit row per pair, n + 1 bits each: n (n + 1) <= 10**7 up to 3161
    assert next(enumerate_family(pba_length(NAT, NAT, 3161))).parts == (3161,) * 3161
    for refused in (count, lambda d: next(enumerate_family(d))):
        with pytest.raises(ResourceBound, match="cells"):
            refused(pba_length(NAT, NAT, 3162))


def test_iter_pba_by_size_bounds():
    members = list(iter_pba_by_size(NAT, NAT, 10, max_length=4))
    assert EMPTY in members
    assert len(set(members)) == len(members)
    for p in members:
        assert p.size <= 10 and p.length <= 4
        assert is_frequency_congruent(p).ok
    # every frequency congruent partition in range appears
    expected = {
        p
        for n in range(11)
        for p in partitions_of(n)
        if p.length <= 4 and is_frequency_congruent(p).ok
    }
    assert set(members) == expected


def test_resource_cap_trips():
    with pytest.raises(ResourceBound):
        list(enumerate_family(all_of_size(8), max_items=5))


def test_rejects_negative_family_parameter():
    with pytest.raises(InvalidPart):
        all_of_size(-1)


class _WalkStarted(Exception):
    pass


@pytest.mark.parametrize(
    "check, walker, fits",
    [
        # sum of p(n) for n <= 62 is 9061010, for n <= 63 it is 10566509
        (lambda m: counts_by_size(has_distinct_parts, m), "partitions_of", 62),
        (lambda m: check_ideal_closure(has_distinct_parts, m), "partitions_of", 62),
        # partitions into squares of size <= 290, as for pba_sum_side
        (lambda m: check_quasi_ideal(NAT, NAT, m), "_gen_pba_by_size", 290),
        # both walked families of A = (1, 2) have n // 2 + 1 members of length n
        (lambda m: count_invariance_suite(SequenceSpec.table([1, 2]), NAT, m), "_gen_rule", 4470),
    ],
)
def test_ideal_checks_total_their_members_first(monkeypatch, check, walker, fits):
    def started(*args, **kwargs):
        raise _WalkStarted

    # the P_B(A) checks import their run walker from _walkers when they are called
    monkeypatch.setattr(_walkers if walker.startswith("_gen") else families, walker, started)
    with pytest.raises(ResourceBound, match="would enumerate .* members, more than the cap of 10000000"):
        check(fits + 1)
    with pytest.raises(_WalkStarted):
        check(fits)


def test_ideal_check_refusals_name_the_check():
    with pytest.raises(ResourceBound) as refused:
        counts_by_size(has_distinct_parts, 63)
    assert str(refused.value) == (
        "counts by size to 63 would enumerate 10566509 members, more than the cap of 10000000"
    )
    with pytest.raises(ResourceBound) as refused:
        check_ideal_closure(has_distinct_parts, 63)
    assert str(refused.value).startswith("ideal closure to size 63 would enumerate 10566508 members")
    with pytest.raises(ResourceBound) as refused:
        check_quasi_ideal(NAT, NAT, 291)
    assert str(refused.value).startswith("quasi-ideal check to size 291 would enumerate")


def test_invariance_suite_compares_runs_not_parts(monkeypatch):
    def expanded(self):
        raise AssertionError("a member was expanded into parts")

    monkeypatch.setattr(Partition, "parts", property(expanded))
    report = count_invariance_suite(SequenceSpec.table([2, 3]), SequenceSpec.table([5, 7]), 8)
    assert report.ok and report.sets_differ_at == 2


class TestCountsBySize:
    def test_distinct(self):
        assert counts_by_size(has_distinct_parts, 6) == [1, 1, 1, 2, 2, 3, 4]

    def test_everything(self):
        assert counts_by_size(lambda p: True, 5) == [1, 1, 2, 3, 5, 7]

    def test_empty_only(self):
        assert counts_by_size(lambda p: p.length == 0, 3) == [1, 0, 0, 0]


class TestIdealEquivalence:
    def test_distinct_matches_odd_parts(self):
        result = ideal_equivalent_upto(
            has_distinct_parts,
            lambda p: all(v % 2 == 1 for v in p.parts),
            12,
        )
        assert result.equivalent and result.first_difference is None

    def test_distinct_differs_from_all(self):
        # (1,1) is the first non-distinct partition, so counts split at n = 2
        result = ideal_equivalent_upto(has_distinct_parts, lambda p: True, 3)
        assert not result.equivalent
        assert result.first_difference == 2
        assert result.counts_first[2] == 1 and result.counts_second[2] == 2

    def test_self_equivalence(self):
        result = ideal_equivalent_upto(
            has_distinct_parts, has_distinct_parts, 8
        )
        assert result.equivalent


class TestIdealClosure:
    def test_distinct_parts_closed(self):
        assert check_ideal_closure(has_distinct_parts, 10).ok

    def test_parts_in_closed(self):
        allowed = {2, 3}
        report = check_ideal_closure(
            lambda p: all(v in allowed for v in p.parts), 12
        )
        assert report.ok

    def test_frequency_congruent_not_closed(self):
        report = check_ideal_closure(lambda p: is_frequency_congruent(p).ok, 6)
        assert not report.ok
        assert report.index == 2
        assert "[2, 2]" in report.detail

    def test_empty_membership_vacuous(self):
        assert check_ideal_closure(lambda p: p.length == 0, 8).ok


class TestQuasiIdeal:
    A = SequenceSpec.table([2, 3])
    B = SequenceSpec.table([5, 7])

    @pytest.mark.parametrize(
        "a_seq,b_seq,bound",
        [
            (NAT, NAT, 12),
            (SequenceSpec.table([2, 3]), SequenceSpec.table([5, 7]), 40),
            (ODD, NAT, 12),
        ],
    )
    def test_scaled_deletions_stay_inside(self, a_seq, b_seq, bound):
        assert check_quasi_ideal(a_seq, b_seq, bound).ok

    def test_scaled_deletion_helper(self):
        lam = Partition((5, 5, 5, 5))
        assert scaled_deletion(lam, self.A, self.B, 5, 2).parts == (5, 5)

    def test_non_multiple_deletion_is_out_of_contract(self):
        lam = Partition((5, 5, 5, 5))
        with pytest.raises(InvalidDeletion):
            scaled_deletion(lam, self.A, self.B, 5, 3)
        with pytest.raises(InvalidDeletion):
            scaled_deletion(lam, self.A, self.B, 9, 2)
        # a B-position past a table A, which is_member_pba reports the same way
        with pytest.raises(InvalidDeletion, match="^value 3 is at B position 3, past the 2 terms of A$"):
            scaled_deletion(Partition((3, 3, 3)), SequenceSpec.table([1, 2]), NAT, 3, 1)

    def test_one_block_per_part_reaches_every_multiple(self, monkeypatch):
        # 5 takes copies in blocks of 2; reject 5^2, which 5^6 reaches by
        # deleting two blocks: the check deletes one block from each
        # member, so it fails at 5^4, one block above the rejected one
        original = predicates.is_member_pba

        def rejects_5_5(p, a_seq, b_seq):
            if p.parts == (5, 5):
                return predicates.ViolationReport(False, 5, "rejected")
            return original(p, a_seq, b_seq)

        # check_quasi_ideal imports the predicate from predicates when it is called
        monkeypatch.setattr(predicates, "is_member_pba", rejects_5_5)
        report = check_quasi_ideal(self.A, self.B, 30)
        assert not report.ok and report.index == 5
        assert report.detail == (
            "deleting 2 copies of 5 from [5, 5, 5, 5] leaves [5, 5], which is outside the family"
        )


class TestCountInvariance:
    A = SequenceSpec.table([2, 3])
    B = SequenceSpec.table([5, 7])

    def test_default_permutation_and_replacement(self):
        report = count_invariance_suite(self.A, self.B, 8)
        assert report.ok
        assert report.sets_differ_at == 2
        assert list(report.counts) == [
            restricted_count(self.A, n) for n in range(9)
        ]

    def test_explicit_b_replacement(self):
        report = count_invariance_suite(
            self.A, self.B, 8, b_prime=SequenceSpec.table([1, 2])
        )
        assert report.ok

    def test_default_replacement_keeps_every_position_of_a(self):
        # B' = naturals: a table 1..bound would cut the A-terms 2 and 1 off
        report = count_invariance_suite(SequenceSpec.table([5, 4, 3, 2, 1]), NAT, 3)
        assert report.ok and list(report.counts) == [1, 1, 2, 3]

    def test_identity_permutation_never_differs(self):
        report = count_invariance_suite(self.A, self.B, 8, a_prime=self.A)
        assert report.ok and report.sets_differ_at is None

    def test_repeated_b_rejected(self):
        with pytest.raises(NonDistinctA, match=r"^B \("):
            count_invariance_suite(self.A, SequenceSpec.table([5, 5]), 6)
        with pytest.raises(NonDistinctA, match="^b_prime"):
            count_invariance_suite(self.A, self.B, 6, b_prime=SequenceSpec.table([1, 1]))

    def test_non_permutation_rejected(self):
        with pytest.raises(InvalidPart):
            count_invariance_suite(
                self.A, self.B, 6, a_prime=SequenceSpec.table([2, 4])
            )

    def test_repeated_a_rejected(self):
        with pytest.raises(NonDistinctA, match=r"^A \(2,2\) must have distinct terms$"):
            count_invariance_suite(SequenceSpec.table([2, 2]), self.B, 6)

    def test_rule_a_needs_an_explicit_permutation(self):
        with pytest.raises(InvalidPart, match="^a_prime is required when A is not an explicit table$"):
            count_invariance_suite(NAT, NAT, 5)

    # each failure below is forced by one patched walk or row; the suite's
    # rows agree on every input, as the paper proves they must

    def test_permuted_count_failure(self, monkeypatch):
        real, calls = _walkers._gen_rule, []

        def drops_a_permuted_member(values, steps, n, cap=False, length=False):
            calls.append(n)  # per n, the walk over A comes first, then A'
            runs = list(real(values, steps, n, cap, length))
            return runs[:-1] if len(calls) % 2 == 0 else runs

        monkeypatch.setattr(_walkers, "_gen_rule", drops_a_permuted_member)
        report = count_invariance_suite(self.A, self.B, 8)
        assert (report.ok, report.detail) == (False, "n=0: permuting A changed the count 1 -> 0")
        assert report.counts == (1,)

    def test_replaced_count_failure(self, monkeypatch):
        real = families._rule_row

        def counts_one_more_with_b_prime(rule, n, label, length=False, table=None):
            counts = real(rule, n, label, length, table)
            if rule.values == NAT:  # the default B'
                counts[4] += 1
            return counts

        monkeypatch.setattr(families, "_rule_row", counts_one_more_with_b_prime)
        report = count_invariance_suite(self.A, self.B, 8)
        assert (report.ok, report.detail) == (False, "n=4: replacing B changed the count 1 -> 2")
        assert report.counts == (1, 0, 1, 1, 1) and report.sets_differ_at == 2

    def test_restricted_count_failure(self, monkeypatch):
        real = families._rule_row

        def counts_one_more_at_1(rule, n, label, length=False, table=None):
            counts = real(rule, n, label, length, table)
            if not length:  # the partitions with parts in A, by size
                counts[1] += 1
            return counts

        monkeypatch.setattr(families, "_rule_row", counts_one_more_at_1)
        report = count_invariance_suite(self.A, self.B, 8)
        assert (report.ok, report.detail) == (
            False, "n=1: family count 0 differs from the 1 partitions with parts in A",
        )
        assert report.counts == (1, 0)


def test_restricted_count_examples():
    assert [restricted_count(SequenceSpec.table([2, 3]), n) for n in range(7)] == [
        1, 0, 1, 1, 1, 1, 2,
    ]
    assert restricted_count(NAT, 6) == partition_count(6)
    assert [restricted_count(ODD, n) for n in range(9)] == [
        count(distinct_of_size(n)) for n in range(9)
    ]
