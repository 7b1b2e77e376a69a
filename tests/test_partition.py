import pytest
from hypothesis import given, settings, strategies as st

from seqcong import (
    EMPTY,
    InsufficientMultiplicity,
    InvalidPart,
    Partition,
    ResourceBound,
    SequenceSpec,
    partitions_of,
    parts_in,
)
from seqcong.errors import _shown


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


def old_from_parts(raw):
    """The runs of from_parts as it was built: check every entry, drop the
    zeros, sort the rest descending, then read the runs off the parts."""
    vals = []
    for v in raw:
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise InvalidPart(f"part {_shown(v)} is not a nonnegative integer")
        if v:
            vals.append(v)
    vals.sort(reverse=True)
    runs, prev, count = [], 0, 0
    for v in vals:
        if v == prev:
            count += 1
        else:
            if count:
                runs.append((prev, count))
            prev, count = v, 1
    if count:
        runs.append((prev, count))
    return tuple(runs)


class Sub(int):
    """An int subclass, which from_parts takes as an int."""


def built(fn, raw):
    """The runs, with the class of each value, or the refusal's class and text."""
    try:
        runs = fn(raw)
    except Exception as e:
        return type(e), str(e)
    return runs, [v.__class__ for v, _ in runs]


entries = st.one_of(
    st.integers(-2, 9),
    st.integers(-2, 9).map(Sub),  # equal to the plain ints beside them
    st.just(0),
    st.booleans(),
    st.floats(allow_nan=False, min_value=-3, max_value=9),
    st.integers(10**29, 10**30 - 1),  # 30 digits
    st.sampled_from([10**5000, -(10**5000), "3", None]),  # past the digit limit; no numbers
)


@settings(max_examples=400)
@given(st.lists(entries, max_size=12), st.booleans())
def test_from_parts_matches_the_sorting_loop(raw, descending):
    if descending:  # the common input, already in order, where no sort is needed
        raw = sorted((v for v in raw if type(v) in (int, Sub)), reverse=True) + raw[:1]
    assert built(lambda r: Partition.from_parts(iter(r)).runs, raw) == built(old_from_parts, raw)


HUGE = -(10**4000)
PAST_LIMIT = -(10**5000)  # past Python's 4,300-digit limit on integer text


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Partition((-1,)), "part -1 is not a positive integer"),
        (lambda: Partition(("x",)), "part 'x' is not a positive integer"),
        (lambda: Partition((HUGE,)), f"part {str(HUGE)[:40]}... (4002 characters) is not"),
        (lambda: Partition.from_parts([3, HUGE]), "part -1000"),
        (lambda: Partition.from_frequencies({HUGE: 1}), "part -1000"),
        (lambda: Partition.from_frequencies({3: HUGE}), "multiplicity -1000"),
        (lambda: Partition((1, 2) * 5000), "parts (1, 2, 1, 2,"),
        (lambda: SequenceSpec.table([1, HUGE]), "got (1, -1000"),
        (lambda: SequenceSpec.constant(HUGE), "got -1000"),
        pytest.param(lambda: Partition((PAST_LIMIT,)), f"part -1{'0' * 38}... (5002 characters) is not",
                     id="part-past-the-digit-limit"),
        pytest.param(lambda: SequenceSpec.constant(PAST_LIMIT), "got -1000",
                     id="constant-past-the-digit-limit"),
        # a tuple holding an int past the limit is quoted element by element
        pytest.param(lambda: SequenceSpec.table([0, -PAST_LIMIT]), "got (0, 1000",
                     id="table-past-the-digit-limit"),
        pytest.param(lambda: parts_in([0, -PAST_LIMIT], 3), "got (0, 1000",
                     id="part-set-past-the-digit-limit"),
        pytest.param(lambda: Partition((3, -PAST_LIMIT)), "parts (3, 1000",
                     id="parts-past-the-digit-limit"),
    ],
)
def test_refused_values_are_quoted_short(build, message):
    with pytest.raises(InvalidPart) as refused:
        build()
    assert message in str(refused.value) and len(str(refused.value)) < 200


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

    def test_truth_and_len_past_maxsize(self):
        huge = Partition.from_frequencies({1: 10**30})
        assert huge and huge.length == 10**30
        with pytest.raises(ResourceBound, match=r"read \.length"):
            len(huge)
        assert not EMPTY and len(EMPTY) == 0
        assert Partition((1,)) and len(Partition((3, 3, 1))) == 3


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
