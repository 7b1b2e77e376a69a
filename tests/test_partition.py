import pytest
from hypothesis import given, strategies as st

from seqcong import (
    EMPTY,
    InsufficientMultiplicity,
    InvalidPart,
    Partition,
    partitions_of,
)


def transpose(lam):
    """The conjugate read off the Ferrers diagram: column i has one cell
    per part > i."""
    return Partition(tuple(sum(1 for p in lam.parts if p > i) for i in range(lam.largest)))


def partitions_upto(bound):
    for n in range(bound + 1):
        yield from partitions_of(n)


@st.composite
def partitions_st(draw):
    raw = draw(st.lists(st.integers(min_value=1, max_value=15), max_size=10))
    return Partition.from_parts(raw)


class TestFromParts:
    def test_sorts_descending(self):
        assert Partition.from_parts([1, 3, 1, 2]).parts == (3, 2, 1, 1)

    def test_empty(self):
        assert Partition.from_parts([]) == EMPTY
        assert EMPTY.parts == ()

    def test_drops_zeros(self):
        assert Partition.from_parts([3, 0, 1, 0]).parts == (3, 1)

    def test_already_canonical(self):
        assert Partition.from_parts([20, 17, 15, 9, 5]).parts == (20, 17, 15, 9, 5)

    def test_rejects_negative(self):
        with pytest.raises(InvalidPart):
            Partition.from_parts([3, -1])

    def test_constructor_demands_canonical(self):
        with pytest.raises(InvalidPart):
            Partition((1, 3))
        with pytest.raises(InvalidPart):
            Partition((3, 0))


class TestBasicViews:
    def test_size_length_largest(self):
        lam = Partition((20, 17, 15, 9, 5))
        assert (lam.size, lam.length, lam.largest) == (66, 5, 20)
        assert (EMPTY.size, EMPTY.length, EMPTY.largest) == (0, 0, 0)

    def test_part_at_zero_extends(self):
        lam = Partition((3, 1))
        assert [lam.part_at(k) for k in (1, 2, 3, 10)] == [3, 1, 0, 0]
        with pytest.raises(IndexError):
            lam.part_at(0)

    def test_frequencies(self):
        assert Partition((3, 1, 1)).frequencies() == {1: 2, 3: 1}
        assert EMPTY.frequencies() == {}
        assert Partition((4, 3, 3)).frequencies() == {3: 2, 4: 1}

    def test_from_frequencies(self):
        assert Partition.from_frequencies({1: 2, 3: 1}).parts == (3, 1, 1)
        assert Partition.from_frequencies({}) == EMPTY
        # expand multiplicities by hand: 1 one, 2 twos, 3 threes
        assert Partition.from_frequencies({1: 1, 2: 2, 3: 3}).parts == (3, 3, 3, 2, 2, 1)

    @pytest.mark.parametrize("bad", [{0: 1}, {2: 0}, {-1: 2}, {2: -1}])
    def test_from_frequencies_rejects(self, bad):
        with pytest.raises(InvalidPart):
            Partition.from_frequencies(bad)

    def test_roundtrip_exhaustive(self):
        for lam in partitions_upto(20):
            assert Partition.from_frequencies(lam.frequencies()) == lam


class TestConjugate:
    @pytest.mark.parametrize(
        "parts,expected",
        [
            ((3, 1), (2, 1, 1)),
            ((2, 2), (2, 2)),
            # transpose the diagram by hand
            ((8, 5, 4, 2, 1), (5, 4, 3, 3, 2, 1, 1, 1)),
            ((), ()),
            ((1,), (1,)),
        ],
    )
    def test_known_values(self, parts, expected):
        assert Partition(parts).conjugate().parts == expected

    def test_involution_and_swap_exhaustive(self):
        for lam in partitions_upto(20):
            star = lam.conjugate()
            assert star.conjugate() == lam
            assert star.size == lam.size
            assert star.length == lam.largest
            assert star.largest == lam.length

    def test_formula_path_agrees_exhaustive(self):
        for lam in partitions_upto(20):
            assert lam.conjugate() == transpose(lam)


class TestDeleteParts:
    def test_single_deletion(self):
        assert Partition((3, 3, 2)).delete_parts(3, 1).parts == (3, 2)

    def test_multi_deletion(self):
        assert Partition((7, 7, 7, 5, 5)).delete_parts(7, 3).parts == (5, 5)

    def test_absent_part(self):
        with pytest.raises(InsufficientMultiplicity):
            Partition((4,)).delete_parts(2, 1)

    def test_too_many_copies(self):
        with pytest.raises(InsufficientMultiplicity):
            Partition((3, 3)).delete_parts(3, 3)

    def test_size_drops_by_product(self):
        lam = Partition((5, 5, 5, 2))
        assert lam.delete_parts(5, 2).size == lam.size - 10


def test_ferrers_rows():
    assert Partition((3, 1)).ferrers() == "...\n."
    assert EMPTY.ferrers() == ""


def test_value_semantics():
    a = Partition((3, 1))
    b = Partition.from_parts([1, 3])
    assert a == b and hash(a) == hash(b)
    assert len(a) == 2 and list(a) == [3, 1]
    assert a != Partition((3, 1, 1))


@given(partitions_st())
def test_frequency_roundtrip_property(lam):
    assert Partition.from_frequencies(lam.frequencies()) == lam


@given(partitions_st())
def test_conjugate_involution_property(lam):
    star = lam.conjugate()
    assert star.conjugate() == lam
    assert star.size == lam.size
    assert star == transpose(lam)
