"""Finite-or-rule descriptions of the integer sequences fed to predicates,
maps, enumerators and series builders.

A sequence is described either by an explicit finite table (the complete
sequence; querying past its end raises, it is never silently extended) or
by one of a few total rules: ``naturals`` (i -> i), ``ones`` (i -> 1),
``constant(k)`` (i -> k) and ``odds`` (i -> 2i - 1).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ._values import Value
from .errors import ExtentExceeded, InvalidPart

_RULES = ("naturals", "ones", "constant", "odds")


class SequenceSpec(Value):
    __slots__ = _fields = __match_args__ = ("kind", "terms", "k")

    def __init__(self, kind: str, terms: tuple[int, ...] | None = None, k: int | None = None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "k", k)

    @classmethod
    def table(cls, terms) -> "SequenceSpec":
        t = tuple(int(v) for v in terms)
        if any(v < 1 for v in t):
            raise InvalidPart(f"table terms must be positive, got {t}")
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
            raise InvalidPart(f"constant term must be positive, got {k}")
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
            raise ExtentExceeded(f"sequence index {i} must be >= 1")
        if self.kind == "table":
            if i > len(self.terms):
                raise ExtentExceeded(
                    f"table {list(self.terms)} has no term at index {i}"
                )
            return self.terms[i - 1]
        if self.kind == "naturals":
            return i
        if self.kind == "ones":
            return 1
        if self.kind == "constant":
            return self.k
        if self.kind == "odds":
            return 2 * i - 1
        raise ValueError(f"unknown sequence kind {self.kind!r}")

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
        if self.kind == "naturals":
            return value
        if self.kind == "ones":
            return 1 if value == 1 else None
        if self.kind == "constant":
            return 1 if value == self.k else None
        if self.kind == "odds":
            return (value + 1) // 2 if value % 2 == 1 else None
        raise ValueError(f"unknown sequence kind {self.kind!r}")

    def values_upto(self, n: int) -> Sequence[int]:
        """Distinct term values <= n, ascending.  The rules give a range, so
        taking its length costs nothing however large n is."""
        if self.kind == "table":
            return tuple(sorted({v for v in self.terms if v <= n}))
        if self.kind == "naturals":
            return range(1, n + 1)
        if self.kind == "odds":
            return range(1, n + 1, 2)
        if self.kind == "ones":
            return (1,) if n >= 1 else ()
        if self.kind == "constant":
            return (self.k,) if self.k <= n else ()
        raise ValueError(f"unknown sequence kind {self.kind!r}")

    def is_distinct_through(self, n: int) -> bool:
        """True when the first n terms are pairwise distinct."""
        if n <= 1:
            return True
        if self.kind in ("naturals", "odds"):
            return True
        if self.kind in ("ones", "constant"):
            return False
        head = self.terms[: min(n, len(self.terms))]
        return len(set(head)) == len(head)

    @property
    def strictly_increasing(self) -> bool:
        """True when terms provably grow without bound (or the table does so)."""
        if self.kind in ("naturals", "odds"):
            return True
        if self.kind == "table":
            return all(a < b for a, b in zip(self.terms, self.terms[1:]))
        return False

    def describe(self) -> str:
        if self.kind == "table":
            return ",".join(str(v) for v in self.terms)
        if self.kind == "constant":
            return f"constant:{self.k}"
        return self.kind

    def __repr__(self) -> str:
        return f"SequenceSpec({self.describe()})"


NATURALS = SequenceSpec.naturals()
ONES = SequenceSpec.ones()
ODDS = SequenceSpec.odds()
