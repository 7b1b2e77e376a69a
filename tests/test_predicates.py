import random

import pytest

from seqcong import (
    EMPTY,
    ExtentExceeded,
    Partition,
    SeqcongError,
    SequenceSpec,
    enumerate_family,
    has_distinct_parts,
    is_frequency_congruent,
    is_member_pba,
    is_member_sna,
    is_self_conjugate,
    is_sequentially_congruent,
    is_step_bounded_seqcong,
    partitions_of,
    parts_in,
    scale_map,
    scale_map_inverse,
    seqcong_largest,
    step_bounded_largest,
)

NAT = SequenceSpec.naturals()


def partitions_upto(bound):
    for n in range(bound + 1):
        yield from partitions_of(n)


class TestSequentiallyCongruent:
    def test_accepts_worked_example(self):
        report = is_sequentially_congruent(Partition((20, 17, 15, 9, 5)))
        assert report.ok and report.index is None

    def test_rejects_at_last_index(self):
        report = is_sequentially_congruent(Partition((21, 18, 16, 10, 6)))
        assert not report.ok
        assert report.index == 5
        assert "6" in report.detail and "modulo 5" in report.detail

    def test_empty_is_vacuous(self):
        assert is_sequentially_congruent(EMPTY).ok

    def test_reports_first_violation(self):
        # 7 - 4 = 3 breaks the mod-2 condition before the final divisibility does
        report = is_sequentially_congruent(Partition((7, 7, 4, 1)))
        assert not report.ok and report.index == 2

    def test_single_part(self):
        assert is_sequentially_congruent(Partition((9,))).ok
        assert not is_sequentially_congruent(Partition((9, 1))).ok


class TestFrequencyCongruent:
    def test_accepts(self):
        assert is_frequency_congruent(Partition((3, 3, 3, 2, 2, 1))).ok

    def test_rejects_with_part_as_index(self):
        report = is_frequency_congruent(Partition((3, 1, 1)))
        assert not report.ok and report.index == 3

    def test_empty(self):
        assert is_frequency_congruent(EMPTY).ok


class TestMemberPBA:
    A = SequenceSpec.table([2, 3])
    B = SequenceSpec.table([5, 7])

    def test_accepts(self):
        lam = Partition((7, 7, 7, 7, 7, 7, 5, 5))
        assert is_member_pba(lam, self.A, self.B).ok

    def test_rejects_on_divisibility(self):
        report = is_member_pba(Partition((7, 7, 7, 5)), self.A, self.B)
        assert not report.ok and report.index == 5

    def test_part_outside_b_fails(self):
        report = is_member_pba(Partition((9,)), self.A, self.B)
        assert not report.ok and report.index == 9

    def test_a_part_past_the_a_table_fails(self):
        report = is_member_pba(Partition((4,)), self.A, SequenceSpec.naturals())
        assert not report.ok and report.index == 4
        assert report.detail == "part 4 is at B position 4, past the 2 terms of A"

    def test_naturals_reduce_to_frequency_congruence(self):
        for lam in partitions_upto(18):
            assert is_member_pba(lam, NAT, NAT).ok == is_frequency_congruent(lam).ok


class TestMemberSNA:
    def test_naturals_reduce_to_sequential_congruence(self):
        for lam in partitions_upto(18):
            assert is_member_sna(lam, NAT).ok == is_sequentially_congruent(lam).ok

    def test_hand_checked_table(self):
        spec = SequenceSpec.table([2, 3, 1])
        assert is_member_sna(Partition((9, 5, 2)), spec).ok
        # 9 - 6 = 3 already breaks the mod-2 condition, before 6 - 2 breaks mod 3
        report = is_member_sna(Partition((9, 6, 2)), spec)
        assert not report.ok and report.index == 1

    def test_reports_first_violation(self):
        report = is_member_sna(Partition((9, 5, 4)), SequenceSpec.table([2, 3, 1]))
        assert not report.ok and report.index == 2

    def test_extent_must_cover_length(self):
        with pytest.raises(ExtentExceeded):
            is_member_sna(Partition((4, 3, 2, 1)), SequenceSpec.table([2, 3, 1]))


@pytest.mark.parametrize(
    "parts,expected",
    [((3, 1), True), ((4, 3, 3), False), ((), True)],
)
def test_has_distinct_parts(parts, expected):
    assert has_distinct_parts(Partition(parts)) is expected


class TestStepBounded:
    def test_accepts(self):
        assert is_step_bounded_seqcong(Partition((4, 3, 3))).ok

    def test_rejects(self):
        report = is_step_bounded_seqcong(Partition((4, 2)))
        assert not report.ok and report.index == 1

    def test_empty(self):
        assert is_step_bounded_seqcong(EMPTY).ok

    def test_members_at_largest_4(self):
        members = {
            p.parts
            for p in enumerate_family(step_bounded_largest(4))
        }
        assert members == {(4, 3, 3), (4, 4, 4, 4)}

    def test_implies_sequential_congruence(self):
        for n in range(16):
            for phi in enumerate_family(step_bounded_largest(n)):
                assert is_sequentially_congruent(phi).ok


@pytest.mark.parametrize(
    "parts,expected",
    [((2, 2), True), ((3, 1), False), ((1,), True)],
)
def test_is_self_conjugate(parts, expected):
    assert is_self_conjugate(Partition(parts)) is expected


def test_membership_survives_raising():
    # adding any multiple of the length to every part, or growing only the
    # largest part, keeps a member a member
    rng = random.Random(1729)
    pool = [
        phi
        for n in range(1, 13)
        for phi in enumerate_family(seqcong_largest(n))
        if phi.length
    ]
    for phi in rng.sample(pool, 40):
        r = phi.length
        k = rng.randint(1, 5)
        raised = Partition(tuple(v + k * r for v in phi.parts))
        assert is_sequentially_congruent(raised).ok
        t = rng.randint(1, 7)
        grown = Partition((phi.parts[0] + t,) + phi.parts[1:])
        assert is_sequentially_congruent(grown).ok


# 10**5000 has 5,001 digits, past Python's 4,300-digit limit on integer text
HUGE = Partition.from_parts([10**5000])
TWO_HUGE = Partition.from_parts([10**5000 + 2, 10**5000 + 1])
H = "1" + "0" * 39 + "... (5001 characters)"


@pytest.mark.parametrize(
    "call, detail",
    [
        (lambda: is_frequency_congruent(HUGE), f"part {H} has multiplicity 1, not divisible by {H}"),
        (
            lambda: is_member_pba(HUGE, NAT, NAT),
            f"multiplicity 1 of part {H} is not divisible by {H} (A term at position {H})",
        ),
        (lambda: is_step_bounded_seqcong(HUGE), f"step {H} at index 1 is neither 0 nor 1"),
        (lambda: is_sequentially_congruent(TWO_HUGE), f"smallest part {H} is not congruent to 0 modulo 2"),
        (lambda: is_member_sna(TWO_HUGE, NAT), f"lambda_2={H} is not congruent to lambda_3=0 modulo 2"),
        (
            lambda: scale_map(HUGE, SequenceSpec.table([1, 2]), NAT),
            f"part {H} is not a term of A (1,2)",
        ),
        (
            lambda: scale_map_inverse(HUGE, NAT, NAT),
            f"multiplicity 1 of part {H} is not divisible by {H} (A term at position {H})",
        ),
        (
            lambda: Partition.from_parts([3]).delete_parts(10**5000, 1),
            f"partition 3^1 has only 0 copies of {H}, cannot delete 1",
        ),
        (
            lambda: is_member_pba(Partition.from_parts([3]), NAT, SequenceSpec.table([10**5000])),
            f"part 3 is not a term of B ({H})",
        ),
        (
            lambda: is_member_pba(Partition.from_parts([3]), NAT, SequenceSpec.constant(10**5000)),
            f"part 3 is not a term of B (constant:{H})",
        ),
    ],
    ids=["freqcong", "pba", "step", "seqcong", "sna", "scale", "scale-inverse", "delete", "pba-table",
         "pba-constant"],
)
def test_a_number_too_long_to_print_is_quoted_by_its_leading_digits(call, detail):
    # a failing report or a SeqcongError, never Python's ValueError from an f-string
    try:
        report = call()
    except SeqcongError as e:
        assert str(e) == detail
    else:
        assert (report.ok, report.detail) == (False, detail)


def test_a_record_holding_a_number_too_long_to_print_has_a_repr():
    # an int field, a table's term and an allowed part are shown by their leading digits
    report = is_frequency_congruent(HUGE)
    detail = f"part {H} has multiplicity 1, not divisible by {H}"
    assert repr(report) == f"ViolationReport(ok=False, index={H}, detail={detail!r})"
    assert repr(SequenceSpec.table([1, 10**5000])) == f"SequenceSpec(1,{H})"
    assert parts_in([2, 10**5000], 4).describe() == f"parts-in:4:T=2,{H}"
    # a tuple holding such an int, as a Partition's parts or a field, is written element by element
    assert repr(Partition.from_parts([10**5000])) == f"Partition(({H},))"
    assert repr(Partition([10**5000, 3])) == f"Partition(({H}, 3))"
    assert repr(parts_in([10**5000], 3)) == (
        f"FamilyDescriptor(kind='parts-in', n=3, part_set=({H},), a_seq=None, b_seq=None)"
    )
    assert repr(is_frequency_congruent(Partition.from_parts([2, 1]))) == (
        "ViolationReport(ok=False, index=2, detail='part 2 has multiplicity 1, not divisible by 2')"
    )
