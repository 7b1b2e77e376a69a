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
too is the multiplicity rule, which the predicates and the counters share.
"""

from __future__ import annotations

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
    A's table is not allowed).  `cap` makes every M_j {0, 1}."""

    __slots__ = _fields = __match_args__ = ("values", "step", "cap")
    _required = 3


# CLI family name -> its rule, given the values of the keys of its text
_RULES = {
    "all": lambda: MultiplicityRule(1, 1, False),
    "empty": lambda: MultiplicityRule(frozenset(), 1, False),
    "oddparts": lambda: MultiplicityRule(2, 1, False),
    "distinct": lambda: MultiplicityRule(1, 1, True),
    "parts": lambda t: MultiplicityRule(frozenset(t), 1, False),
    "freqcong": lambda: MultiplicityRule(1, None, False),
    "pba": lambda a, b: MultiplicityRule(b, a, False),
}
