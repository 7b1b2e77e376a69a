"""The package's immutable records keep the contract of the frozen
dataclasses they replace: each is held, on generated field values, to a
frozen-dataclass twin with the same name, fields and defaults."""

import copy
import pickle
import random
from dataclasses import make_dataclass
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcong.families import EquivalenceReport, FamilyDescriptor, InvarianceReport
from seqcong.maps import OrbitTrace
from seqcong.predicates import ViolationReport
from seqcong.sequences import SequenceSpec
from seqcong.series import WeightSpec
from seqcong.sums import SeriesComparison, ZetaEvaluation

# class -> (fields without a default, fields defaulting to None)
FIELDS = {
    SequenceSpec: (("kind",), ("terms", "k")),
    ViolationReport: (("ok", "index", "detail"), ()),
    OrbitTrace: (("states", "cycle_length", "closed"), ()),
    FamilyDescriptor: (("kind", "n"), ("part_set", "a_seq", "b_seq")),
    EquivalenceReport: (("equivalent", "first_difference", "counts_first", "counts_second"), ()),
    InvarianceReport: (("ok", "detail", "sets_differ_at", "counts"), ()),
    WeightSpec: (("kind",), ("table", "members", "seed", "extent")),
    SeriesComparison: (
        ("equal",), ("x_exponent", "q_exponent", "lhs_coefficient", "rhs_coefficient"),
    ),
    ZetaEvaluation: (("sum_side", "product_side", "qdepth", "terms"), ()),
}


def _twin(cls):
    required, defaulted = FIELDS[cls]
    # SequenceSpec defined its own repr, which the dataclass kept
    namespace = {"__repr__": cls.__repr__, "describe": cls.describe} if cls is SequenceSpec else {}
    return make_dataclass(
        cls.__name__,
        [*required, *((name, object, None) for name in defaulted)],
        frozen=True,
        namespace=namespace,
    )


TWINS = {cls: _twin(cls) for cls in FIELDS}

# hashable field values with a repr that round-trips through pickle
field_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 5),
    st.text(max_size=3),
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.fractions(max_denominator=4),
    st.frozensets(st.integers(0, 3), max_size=2),
)


@st.composite
def arguments(draw, cls):
    """Positional values for the required fields, then keyword values for
    any subset of the defaulted ones."""
    required, defaulted = FIELDS[cls]
    args = tuple(draw(field_values) for _ in required)
    kwargs = {name: draw(field_values) for name in defaulted if draw(st.booleans())}
    return args, kwargs


classes = st.sampled_from(sorted(FIELDS, key=lambda c: c.__name__))


def _values(obj):
    return tuple(getattr(obj, name) for name in obj.__match_args__)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_each_record_matches_its_frozen_dataclass_twin(data):
    cls = data.draw(classes)
    twin = TWINS[cls]
    (args, kwargs), (args2, kwargs2) = data.draw(arguments(cls)), data.draw(arguments(cls))
    if data.draw(st.booleans()):  # equal values built differently, half the time
        args2, kwargs2 = (), {**dict(zip(FIELDS[cls][0], args)), **kwargs}
    ours, other = cls(*args, **kwargs), cls(*args2, **kwargs2)
    theirs, twin_other = twin(*args, **kwargs), twin(*args2, **kwargs2)

    assert cls.__match_args__ == twin.__match_args__
    assert _values(ours) == _values(theirs)
    assert repr(ours) == repr(theirs)
    assert (ours == other) is (theirs == twin_other)
    assert (ours != other) is (theirs != twin_other)
    assert hash(ours) == hash(theirs) == hash(_values(theirs))
    if ours == other:
        assert hash(ours) == hash(other)
    with pytest.raises(TypeError):
        ours < other  # noqa: B015

    # another class never compares equal, even with the same values
    for foreign in (theirs, _values(ours), list(_values(ours)), object()):
        assert ours != foreign and not ours == foreign
        assert ours.__eq__(foreign) is NotImplemented

    for clone in (copy.copy(ours), copy.deepcopy(ours), pickle.loads(pickle.dumps(ours))):
        assert clone.__class__ is cls and clone == ours and repr(clone) == repr(ours)


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
def test_signature_and_immutability_match_the_twin(cls):
    twin = TWINS[cls]
    required, defaulted = FIELDS[cls]
    args = tuple(range(len(required)))
    for call in (
        lambda c: c(*args[:-1]),  # a required field missing
        lambda c: c(*args, *range(len(defaulted) + 1)),  # one positional too many
        lambda c: c(*args, nonexistent=1),
        lambda c: c(*args, **{required[0]: 0}),  # a field given twice
    ):
        with pytest.raises(TypeError):
            call(twin)
        with pytest.raises(TypeError):
            call(cls)
    ours = cls(*args)
    assert repr(ours) == repr(twin(*args))
    assert all(getattr(ours, name) is None for name in defaulted)
    for name in (*required, *defaulted, "nonexistent"):
        with pytest.raises(AttributeError):
            setattr(ours, name, 1)
        with pytest.raises(AttributeError):
            delattr(ours, name)
    assert _values(ours) == _values(twin(*args))
    match ours:
        case cls(first):
            assert first == getattr(ours, required[0])
        case _:
            pytest.fail("a positional class pattern did not match")


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10**6), extent=st.integers(1, 30))
def test_random_weights_are_drawn_once_and_survive_copies(seed, extent):
    rng = random.Random(seed)
    expected = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(extent)]
    spec = WeightSpec.random_table(seed, extent)
    with mock.patch.object(random, "Random", wraps=random.Random) as drawn:  # series imports it on the draw
        assert [spec.value(n) for n in range(1, extent + 1)] == expected
        assert [spec.value(n) for n in range(extent, 0, -1)] == expected[::-1]
        assert drawn.call_count == 1
    for clone in (copy.copy(spec), copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
        assert clone == spec and repr(clone) == repr(spec)
        assert [clone.value(n) for n in range(1, extent + 1)] == expected
