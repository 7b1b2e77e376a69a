"""Finite-or-rule descriptions of the integer sequences fed to predicates,
maps, enumerators and series builders.

A sequence is described either by an explicit finite table (the complete
sequence; querying past its end raises, it is never silently extended) or
by one of a few total rules: ``naturals`` (i -> i), ``ones`` (i -> 1),
``constant(k)`` (i -> k) and ``odds`` (i -> 2i - 1).  Every rule is the
arithmetic progression a_i = a_1 + (i - 1) step, so each lookup reads a
sequence one of two ways: as a table or as a progression.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional, Sequence

from ._values import Value
from .errors import ExtentExceeded, InvalidPart, _shown, _written

# rule -> (a_1, step); ``constant:k`` is (k, 0)
_PROGRESSIONS = {"naturals": (1, 1), "odds": (1, 2), "ones": (1, 0)}


class SequenceSpec(Value):
    """A sequence: `kind`, required, and the table's `terms` and the
    constant's `k`, None unless the kind reads them.  The slots `_first` and
    `_step` hold a rule's (a_1, step), looked up once in __init__, so that a
    lookup reads them without a call."""

    __slots__ = ("kind", "terms", "k", "_first", "_step")
    _fields = __match_args__ = ("kind", "terms", "k")
    _required = 1

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        first, step = _PROGRESSIONS.get(self.kind, (self.k, 0))
        object.__setattr__(self, "_first", first)
        object.__setattr__(self, "_step", step)

    @classmethod
    def table(cls, terms) -> "SequenceSpec":
        t = tuple(int(v) for v in terms)
        if any(v < 1 for v in t):
            raise InvalidPart(f"table terms must be positive, got {_shown(t)}")
        return cls("table", terms=t)

    @classmethod
    def naturals(cls) -> "SequenceSpec":
        return cls("naturals")

    @classmethod
    def ones(cls) -> "SequenceSpec":
        return cls("ones")

    @classmethod
    def constant(cls, k: int) -> "SequenceSpec":
        if k < 1:
            raise InvalidPart(f"constant term must be positive, got {_shown(k)}")
        return cls("constant", k=k)

    @classmethod
    def odds(cls) -> "SequenceSpec":
        return cls("odds")

    @property
    def extent(self) -> Optional[int]:
        """Largest defined index for tables; None when the rule is total."""
        return len(self.terms) if self.kind == "table" else None

    def at(self, i: int) -> int:
        """The i-th term (1-based).  Tables raise past their extent."""
        if i < 1:
            raise ExtentExceeded(f"sequence index {_shown(i)} must be >= 1")
        if self.kind == "table":
            if i > len(self.terms):
                raise ExtentExceeded(
                    f"table {list(self.terms)} has no term at index {_shown(i)}"
                )
            return self.terms[i - 1]
        return self._first + (i - 1) * self._step

    def index_of(self, value: int) -> Optional[int]:
        """Smallest 1-based index whose term equals `value`, or None.

        Every kind gives a definite answer: tables are complete finite
        sequences and the rules are total.
        """
        if value < 1:
            return None
        if self.kind == "table":
            try:
                return self.terms.index(value) + 1
            except ValueError:
                return None
        first, step = self._first, self._step
        if value == first:
            return 1
        if step and value > first and (value - first) % step == 0:
            return (value - first) // step + 1
        return None

    def values_upto(self, n: int) -> Sequence[int]:
        """Distinct term values <= n, ascending.  The rules give a range, so
        taking its length costs nothing however large n is."""
        if self.kind == "table":
            return tuple(sorted({v for v in self.terms if v <= n}))
        if self._step:
            return range(self._first, n + 1, self._step)
        return (self._first,) if self._first <= n else ()

    def is_distinct_through(self, n: int) -> bool:
        """True when the first n terms are pairwise distinct."""
        if n <= 1:
            return True
        if self.kind == "table":
            head = self.terms[:n]
            return len(set(head)) == len(head)
        return self._step > 0

    @property
    def strictly_increasing(self) -> bool:
        """True when terms provably grow without bound (or the table does so)."""
        if self.kind == "table":
            return all(a < b for a, b in zip(self.terms, self.terms[1:]))
        return self._step > 0

    def first_at_least(self, c: int) -> int:
        """The first index whose term is >= c, for a strictly increasing
        sequence: a closed form for a progression, a bisection for a table.
        A table whose terms all stay below c raises the
        :class:`ExtentExceeded` that ``at(extent + 1)`` raises; so does a
        constant rule below c, which never reaches it."""
        if self.kind == "table":
            i = bisect_left(self.terms, c) + 1
            if i > len(self.terms):
                self.at(i)  # raises, as reading the term after the last does
            return i
        first, step = self._first, self._step
        if c <= first:
            return 1
        if not step:
            raise ExtentExceeded(f"{self.describe()} never reaches {c}")
        return (c - first - 1) // step + 2

    def describe(self) -> str:
        if self.kind == "table":
            return ",".join(map(_written, self.terms))
        if self.kind == "constant":
            return f"constant:{_written(self.k)}"
        return self.kind

    def __repr__(self) -> str:
        return f"SequenceSpec({self.describe()})"


NATURALS = SequenceSpec.naturals()
ONES = SequenceSpec.ones()
ODDS = SequenceSpec.odds()
