import pytest

from seqcong import (
    EMPTY,
    ExtentExceeded,
    InternalContradiction,
    NonDistinctA,
    NotMemberPBA,
    NotSequentiallyCongruent,
    PartNotInA,
    Partition,
    SequenceSpec,
    enumerate_family,
    has_distinct_parts,
    is_member_pba,
    is_sequentially_congruent,
    is_self_conjugate,
    orbit,
    partitions_of,
    pba_length,
    pi,
    pi_inverse,
    scale_map,
    scale_map_inverse,
    seqcong_largest,
    sigma,
    sigma_inverse,
    step_bounded_largest,
)

NAT = SequenceSpec.naturals()


def partitions_upto(bound):
    for n in range(bound + 1):
        yield from partitions_of(n)


class TestPi:
    @pytest.mark.parametrize(
        "parts,expected",
        [
            ((3, 1), (4, 2)),
            ((2, 1, 1), (4, 3, 3)),
            ((3, 2, 1), (6, 5, 3)),  # apply the construction by hand
            ((), ()),
        ],
    )
    def test_known_values(self, parts, expected):
        assert pi(Partition(parts)).parts == expected

    def test_image_shape(self):
        for lam in partitions_upto(14):
            image = pi(lam)
            assert is_sequentially_congruent(image).ok
            assert image.largest == lam.size
            assert image.length == lam.length

    def test_a_broken_image_is_a_defect(self, monkeypatch):
        # a defect that adds 1 to the smallest part of the image, [4,2] -> [4,3]:
        # the postcondition raises, as no assert would under python -O
        real = Partition._from_runs
        monkeypatch.setattr(Partition, "_from_runs",
                            staticmethod(lambda runs: real((*runs[:-1], (runs[-1][0] + 1, runs[-1][1])))))
        with pytest.raises(InternalContradiction, match="^the image under pi is not sequentially congruent: "
                                                        "smallest part 3 is not congruent to 0 modulo 2$"):
            pi(Partition((3, 1)))


class TestPiInverse:
    @pytest.mark.parametrize(
        "parts,expected",
        [
            ((4, 2), (3, 1)),
            ((20, 17, 15, 9, 5), (8, 5, 4, 2, 1)),  # right-to-left by hand
            ((), ()),
        ],
    )
    def test_known_values(self, parts, expected):
        assert pi_inverse(Partition(parts)).parts == expected

    def test_rejects_non_member(self):
        with pytest.raises(NotSequentiallyCongruent) as err:
            pi_inverse(Partition((21, 18, 16, 10, 6)))
        assert err.value.report.index == 5

    def test_roundtrip_exhaustive(self):
        for n in range(15):
            for lam in partitions_of(n):
                assert pi_inverse(pi(lam)) == lam
            for phi in enumerate_family(seqcong_largest(n)):
                assert pi(pi_inverse(phi)) == phi

    def test_recovered_size_is_largest_part(self):
        phi = Partition((12, 10, 6))
        assert pi_inverse(phi).size == 12


class TestSigma:
    @pytest.mark.parametrize(
        "parts,expected",
        [
            ((5, 3, 3), (3, 1, 1)),
            ((4, 2), (2, 1, 1)),
            # multiplicities 1->3, 2->1, 3->2, 4->1, 5->1
            ((20, 17, 15, 9, 5), (5, 4, 3, 3, 2, 1, 1, 1)),
            ((), ()),
        ],
    )
    def test_known_values(self, parts, expected):
        assert sigma(Partition(parts)).parts == expected

    def test_rejects_non_member(self):
        with pytest.raises(NotSequentiallyCongruent):
            sigma(Partition((3, 3)))

    def test_size_equals_largest_part(self):
        for n in range(13):
            for phi in enumerate_family(seqcong_largest(n)):
                assert sigma(phi).size == n

    def test_surjective_onto_partitions(self):
        for n in range(13):
            image = {sigma(phi) for phi in enumerate_family(seqcong_largest(n))}
            assert image == set(partitions_of(n))


class TestSigmaInverse:
    @pytest.mark.parametrize(
        "parts,expected",
        [
            ((3, 1, 1), (5, 3, 3)),
            ((2, 1, 1), (4, 2)),
            ((3, 1), (4, 3, 3)),  # conjugate then the dual construction
        ],
    )
    def test_known_values(self, parts, expected):
        assert sigma_inverse(Partition(parts)).parts == expected

    def test_two_sided_inverse(self):
        for n in range(13):
            for gam in partitions_of(n):
                phi = sigma_inverse(gam)
                assert is_sequentially_congruent(phi).ok
                assert phi.largest == n
                assert sigma(phi) == gam
            for phi in enumerate_family(seqcong_largest(n)):
                assert sigma_inverse(sigma(phi)) == phi


class TestSigmaPi:
    @pytest.mark.parametrize(
        "parts,expected",
        [
            ((1, 1, 1, 1), (4,)),
            ((2, 2), (2, 2)),
            # transpose of the diagram; the composed route must agree
            ((6, 3, 3, 1), (4, 3, 3, 1, 1, 1)),
        ],
    )
    def test_known_values(self, parts, expected):
        assert sigma(pi(Partition(parts))).parts == expected

    def test_equals_conjugation(self):
        for lam in partitions_upto(14):
            assert sigma(pi(lam)) == lam.conjugate()

    def test_involution_and_fixed_points(self):
        for lam in partitions_upto(14):
            once = sigma(pi(lam))
            assert sigma(pi(once)) == lam
            assert (once == lam) == is_self_conjugate(lam)


class TestOrbit:
    def test_two_cycle_from_plain_side(self):
        trace = orbit(Partition((3, 1)), side="P")
        assert [p.parts for p in trace.states] == [
            (3, 1), (4, 2), (2, 1, 1), (4, 3, 3), (3, 1),
        ]
        assert trace.cycle_length == 2 and trace.closed

    def test_one_cycle_from_plain_side(self):
        trace = orbit(Partition((2, 2)), side="P")
        assert [p.parts for p in trace.states] == [(2, 2), (4, 4), (2, 2)]
        assert trace.cycle_length == 1

    def test_two_cycle_from_congruent_side(self):
        trace = orbit(Partition((4, 3, 3)), side="S")
        assert [p.parts for p in trace.states] == [
            (4, 3, 3), (3, 1), (4, 2), (2, 1, 1), (4, 3, 3),
        ]
        assert trace.cycle_length == 2

    def test_congruent_side_requires_membership(self):
        with pytest.raises(NotSequentiallyCongruent):
            orbit(Partition((3, 3)), side="S")

    def test_bad_side(self):
        with pytest.raises(ValueError):
            orbit(Partition((2,)), side="Q")

    def test_cycle_length_matches_self_conjugacy(self):
        for lam in partitions_upto(10):
            trace = orbit(lam, side="P")
            assert trace.cycle_length == (1 if is_self_conjugate(lam) else 2)


class TestScaleMap:
    A = SequenceSpec.table([2, 3])
    B = SequenceSpec.table([5, 7])

    def test_hand_example(self):
        lam = Partition((3, 3, 2))
        image = scale_map(lam, self.A, self.B)
        assert image.parts == (7, 7, 7, 7, 7, 7, 5, 5)
        assert image.length == lam.size
        assert is_member_pba(image, self.A, self.B).ok

    def test_naturals_multiply_frequencies(self):
        assert scale_map(Partition((3, 2, 1)), NAT, NAT).parts == (3, 3, 3, 2, 2, 1)

    def test_empty(self):
        assert scale_map(EMPTY, self.A, self.B) == EMPTY
        assert scale_map_inverse(EMPTY, self.A, self.B) == EMPTY

    def test_inverse_hand_examples(self):
        assert scale_map_inverse(
            Partition((3, 3, 3, 2, 2, 1)), NAT, NAT
        ).parts == (3, 2, 1)
        assert scale_map_inverse(
            Partition((7, 7, 7, 7, 7, 7, 5, 5)), self.A, self.B
        ).parts == (3, 3, 2)

    def test_part_not_in_a(self):
        with pytest.raises(PartNotInA):
            scale_map(Partition((4,)), SequenceSpec.odds(), NAT)

    def test_b_extent_exceeded(self):
        with pytest.raises(ExtentExceeded):
            scale_map(Partition((3,)), self.A, SequenceSpec.table([5]))

    def test_repeated_a_rejected_when_ambiguous(self):
        with pytest.raises(NonDistinctA):
            scale_map_inverse(
                Partition((7, 7)), SequenceSpec.table([2, 2]), self.B
            )

    def test_repeated_b_rejected(self):
        # without the check, [3,2] would map to [5,5,5,5,5], outside the family
        with pytest.raises(NonDistinctA, match=r"^B \("):
            scale_map(Partition((3, 2)), self.A, SequenceSpec.table([5, 5]))
        with pytest.raises(NonDistinctA, match=r"^B \("):
            scale_map_inverse(
                Partition((7, 7, 7, 7)), SequenceSpec.table([2, 3, 4]),
                SequenceSpec.table([5, 5, 7]),
            )

    def test_repeated_b_outside_the_consulted_positions_is_harmless(self):
        b_seq = SequenceSpec.table([5, 5])
        image = scale_map(Partition((2,)), self.A, b_seq)
        assert image.parts == (5, 5)
        assert scale_map_inverse(image, self.A, b_seq).parts == (2,)

    def test_inverse_rejects_non_member(self):
        with pytest.raises(NotMemberPBA):
            scale_map_inverse(Partition((7, 7, 7, 5)), self.A, self.B)

    @pytest.mark.parametrize(
        "a_seq,b_seq",
        [
            (NAT, NAT),
            (SequenceSpec.table([2, 3]), SequenceSpec.table([5, 7])),
            (SequenceSpec.odds(), NAT),
        ],
    )
    def test_roundtrip_on_enumerated_families(self, a_seq, b_seq):
        for n in range(13):
            for mu in enumerate_family(pba_length(a_seq, b_seq, n)):
                lam = scale_map_inverse(mu, a_seq, b_seq)
                assert lam.size == mu.length
                assert scale_map(lam, a_seq, b_seq) == mu


def test_step_bounded_members_map_to_distinct_parts():
    for n in range(13):
        members = list(enumerate_family(step_bounded_largest(n)))
        images = [sigma(phi) for phi in members]
        assert all(has_distinct_parts(g) for g in images)
        assert len(set(images)) == len(members)
        assert set(images) == {
            p for p in partitions_of(n) if has_distinct_parts(p)
        }


def test_orbit_internal_bound_is_unreachable():
    # every orbit closes within two round trips; the guard exists for defects
    for lam in partitions_upto(8):
        try:
            orbit(lam)
        except InternalContradiction:  # pragma: no cover
            pytest.fail("orbit failed to close")
