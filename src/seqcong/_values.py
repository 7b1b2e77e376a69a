"""The base of the package's immutable records (reports, specs, traces).

A record names its fields once, in ``_fields``, with the number of leading
ones that have no default in ``_required``; the rest default to None.  One
``__init__`` binds them by position, then by keyword, and raises
:class:`TypeError` where a dataclass would.  Equality holds only between
records of the same class with equal fields; the hash is the hash of the
field tuple; the repr is ``Cls(name=value, ...)``, with an int too long
for Python to write, alone or in a tuple, shown by its leading digits.
Assigning or deleting an attribute raises :class:`AttributeError`.  Copies
and pickles rebuild a record from its fields through ``__init__``.  Here
too are the two rules and the one table of families, which the
predicates, the counters and the CLI share.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import _written


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _required = 0  # the leading fields without a default

    def __init_subclass__(cls):  # each field's slot setter, which binds it past __setattr__
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)

    def __init__(self, *args, **kwargs):
        if not kwargs and len(args) == len(self._setters):  # every field by position
            for set_field, value in zip(self._setters, args):
                set_field(self, value)
            return
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(
                f"{type(self).__qualname__}() takes {len(fields)} positional arguments "
                f"but {len(args)} were given"
            )
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        for i in range(len(args), len(fields)):
            name = fields[i]
            if name in kwargs:
                object.__setattr__(self, name, kwargs.pop(name))
            elif i < self._required:
                raise TypeError(f"{type(self).__qualname__}() missing required argument {name!r}")
            else:
                object.__setattr__(self, name, None)
        for name in kwargs:
            problem = "multiple values for" if name in fields else "an unexpected keyword"
            raise TypeError(f"{type(self).__qualname__}() got {problem} argument {name!r}")

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        body = ", ".join([f"{name}={_repr(getattr(self, name))}" for name in self._fields])
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._astuple()


def _repr(value) -> str:
    """repr, but an int or a tuple as _written writes it, which never raises."""
    return _written(value) if isinstance(value, (int, tuple)) else repr(value)


class MultiplicityRule(Value):
    """The partitions in which each part j occurs m_j times, m_j in M_j
    (Andrews, *The Theory of Partitions*, ch. 8); all three fields required.
    `values` are the allowed j, given lazily: an int g for 1, 1 + g, 1 + 2g,
    ..., a frozenset, or a SequenceSpec's terms.  `step` makes each M_j
    a·ℕ = {0, a, 2a, ...}: an int a, None for a = j, or A, a SequenceSpec,
    for A's term at j's first position in `values` (B of P_B(A); a j past
    A's table is not allowed).  `cap` makes every M_j {0, a}: one block.

    `step_of(j)` is the one reader of `values` and `step`: the step a of
    M_j, or None where j is not allowed.  The check, the tables and the
    deletions all take M_j from it.  It is bound once per rule, in
    __init__, to a reader for the kind of `values`, so that a check pays
    one call per part and no attribute lookups."""

    __slots__ = ("values", "step", "cap", "step_of")
    _fields = __match_args__ = ("values", "step", "cap")
    _required = 3

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        values, step = self.values, self.step
        if values.__class__ is int:  # 1, 1 + g, 1 + 2g, ...
            step_of = lambda j: None if (j - 1) % values else step or j
        elif values.__class__ is frozenset:
            step_of = lambda j: (step or j) if j in values else None
        else:  # a SequenceSpec, read at j's first position in it

            def step_of(j: int):
                pos = values.index_of(j)
                if pos is None or step is None or step.__class__ is int:
                    return None if pos is None else step or j
                return None if step.extent is not None and pos > step.extent else step.at(pos)

        object.__setattr__(self, "step_of", step_of)


class StepRule(Value):
    """The paper's S_N(A): lambda_i - lambda_{i+1} = a_i e_i, with
    lambda_{r+1} = 0, e_r >= 1 and e_i in ℕ, or in {0, 1} under `cap`; a_i
    is the i-th of `terms`, a SequenceSpec, or i when `terms` is None.
    Both fields required."""

    __slots__ = _fields = __match_args__ = ("terms", "cap")
    _required = 2


# A row of FAMILIES: the `keys` a family's text takes; its `rule`, given
# their values, None for selfconj, which no rule fixes; its enum
# `listings`, text suffix -> (families constructor by name, which takes n
# after the keys, and the descriptor kind it builds); and its `check`, the
# name of a predicates function that takes the keys' values after the
# partition, or the details of a member and a non-member.
Family = namedtuple("Family", ("keys", "rule", "listings", "check"))

# The families, each named once.  A text is `name` or `name:key=value;...`;
# the first key may be written bare, as in `parts:2,3` or `all:5`.  A
# listing's n is the members' largest part under a StepRule, their length
# for a kind ending in -len and their size otherwise.
FAMILIES = {
    "all": Family((), lambda: MultiplicityRule(1, 1, False), {"": ("all_of_size", "all")},
                  ("every partition", "")),
    "empty": Family((), lambda: MultiplicityRule(frozenset(), 1, False), {}, ("empty", "not empty")),
    "oddparts": Family((), lambda: MultiplicityRule(2, 1, False), {}, ("all parts odd", "a part is even")),
    "distinct": Family((), lambda: MultiplicityRule(1, 1, True), {"": ("distinct_of_size", "distinct")},
                       ("all parts distinct", "a part repeats")),
    "selfconj": Family((), None, {}, ("self-conjugate", "not self-conjugate")),
    "parts": Family(("T",), lambda t: MultiplicityRule(frozenset(t), 1, False),
                    {"": ("parts_in", "parts-in")}, ("all parts allowed", "a part is not allowed")),
    "seqcong": Family((), lambda: StepRule(None, False), {"-lg": ("seqcong_largest", "seqcong-lg")},
                      "is_sequentially_congruent"),
    "freqcong": Family((), lambda: MultiplicityRule(1, None, False), {}, "is_frequency_congruent"),
    "step": Family((), lambda: StepRule(None, True), {"-lg": ("step_bounded_largest", "step-lg")},
                   "is_step_bounded_seqcong"),
    "pba": Family(("A", "B"), lambda a, b: MultiplicityRule(b, a, False), {"": ("pba_length", "pba-len")},
                  "is_member_pba"),
    "sna": Family(("A",), lambda a: StepRule(a, False), {"-lg": ("sna_largest", "sna-lg")}, "is_member_sna"),
}
# enum name -> (the keys its text takes, families constructor by name)
_LISTINGS = {name + suffix: ((*keys, "n"), ctor)
             for name, (keys, _, listings, _) in FAMILIES.items() for suffix, (ctor, _) in listings.items()}
