"""Canonical partition values and Young-diagram utilities.

A partition is stored as its runs: (value, multiplicity) pairs with values
strictly decreasing, so ``Partition((3, 3, 1))`` holds ``((3, 2), (1, 1))``
and the empty partition holds no runs.  Sizes, views, conjugation and
deletion cost time in the number of distinct parts, not in the number of
parts; the weakly decreasing tuple of parts is built on first use of
:attr:`Partition.parts` and cached.  All values are immutable and all
operations are pure, so they can be shared freely across threads.  Parts
are plain Python integers and therefore unbounded.
"""

from __future__ import annotations

import sys
from itertools import chain, repeat, starmap
from typing import Iterable, Iterator, Mapping

from .errors import DEFAULT_ITEM_CAP, InsufficientMultiplicity, InvalidPart, ResourceBound


def _runs_of(parts: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The runs of a weakly decreasing tuple of positive parts."""
    runs = []
    prev = count = 0
    for v in parts:
        if v == prev:
            count += 1
        else:
            if count:
                runs.append((prev, count))
            prev, count = v, 1
    if count:
        runs.append((prev, count))
    return tuple(runs)


def _run_ends(runs: tuple[tuple[int, int], ...]) -> Iterator[tuple[int, int, int]]:
    """(e, a, b) for each run in order: its last index e (1-based), its
    value a, and the value b of the next run (0 after the last one).  A
    difference of successive parts can be nonzero only at such an e."""
    e = 0
    for j, (a, m) in enumerate(runs, start=1):
        e += m
        yield e, a, runs[j][0] if j < len(runs) else 0


class Partition:
    """A weakly decreasing sequence of positive integers.

    The constructor demands canonical input; use :meth:`from_parts` to
    sort and drop zeros, or :meth:`from_frequencies` to build from a
    part -> multiplicity mapping without expanding it.
    """

    __slots__ = ("_runs", "_parts")

    def __init__(self, parts: Iterable[int] = ()):
        t = tuple(parts)
        for i, v in enumerate(t):
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise InvalidPart(f"part {v!r} is not a positive integer")
            if i and t[i - 1] < v:
                raise InvalidPart(f"parts {t} are not weakly decreasing")
        self._runs = _runs_of(t)
        self._parts = t

    @classmethod
    def _from_runs(cls, runs: tuple[tuple[int, int], ...]) -> "Partition":
        """Trusted: `runs` already has strictly decreasing values and
        positive multiplicities.  Nothing is checked or expanded."""
        p = cls.__new__(cls)
        p._runs = runs
        p._parts = None
        return p

    @classmethod
    def from_parts(cls, raw: Iterable[int]) -> "Partition":
        """Canonicalize an arbitrary finite sequence: drop zeros, sort descending.

        Negative entries are rejected with :class:`InvalidPart`.
        """
        vals = []
        for v in raw:
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise InvalidPart(f"part {v!r} is not a nonnegative integer")
            if v:
                vals.append(v)
        vals.sort(reverse=True)
        return cls._from_runs(_runs_of(tuple(vals)))

    @classmethod
    def from_frequencies(cls, fv: Mapping[int, int]) -> "Partition":
        """Build the partition with the given part -> multiplicity mapping;
        multiplicities are stored, never expanded."""
        for part, mult in fv.items():
            if not isinstance(part, int) or isinstance(part, bool) or part < 1:
                raise InvalidPart(f"part {part!r} is not a positive integer")
            if not isinstance(mult, int) or isinstance(mult, bool) or mult < 1:
                raise InvalidPart(f"multiplicity {mult!r} of part {part} is not positive")
        return cls._from_runs(tuple(sorted(fv.items(), reverse=True)))

    @property
    def runs(self) -> tuple[tuple[int, int], ...]:
        """(value, multiplicity) pairs, values strictly decreasing."""
        return self._runs

    @property
    def parts(self) -> tuple[int, ...]:
        """The parts, weakly decreasing; built on first use, then cached."""
        if self._parts is None:
            self._parts = tuple(chain.from_iterable(starmap(repeat, self._runs)))
        return self._parts

    @property
    def size(self) -> int:
        """Sum of the parts."""
        return sum(v * m for v, m in self._runs)

    @property
    def length(self) -> int:
        """Number of parts."""
        return sum(m for _, m in self._runs)

    @property
    def largest(self) -> int:
        """First part, or 0 for the empty partition."""
        return self._runs[0][0] if self._runs else 0

    def part_at(self, k: int) -> int:
        """The k-th part (1-based); 0 for every index beyond the length."""
        if k < 1:
            raise IndexError(f"part index {k} must be >= 1")
        for v, m in self._runs:
            k -= m
            if k <= 0:
                return v
        return 0

    def frequencies(self) -> dict[int, int]:
        """Part -> multiplicity mapping; absent parts are simply missing."""
        return dict(self._runs)

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram, from the runs alone.

        Writing lam = (a_1^{m_1} ... a_r^{m_r}) with a_1 > ... > a_r >= 1,
        the conjugate has the r distinct parts m_1 + ... + m_j, the j-th of
        which occurs a_j - a_{j+1} times (taking a_{r+1} = 0).
        """
        out = [(e, a - b) for e, a, b in _run_ends(self._runs)]
        out.reverse()
        return Partition._from_runs(tuple(out))

    def delete_parts(self, value: int, count: int = 1) -> "Partition":
        """Remove `count` copies of `value`; the rest of the partition is unchanged."""
        if value < 1 or count < 1:
            raise InvalidPart(f"cannot delete {count} copies of {value}")
        runs = list(self._runs)
        for j, (v, have) in enumerate(runs):
            if v == value:
                break
        else:
            j, have = len(runs), 0
        if have < count:
            held = " ".join(f"{v}^{m}" for v, m in self._runs)
            raise InsufficientMultiplicity(
                f"partition {held or '()'} has only {have} copies of {value}, "
                f"cannot delete {count}"
            )
        if have == count:
            del runs[j]
        else:
            runs[j] = (value, have - count)
        return Partition._from_runs(tuple(runs))

    def ferrers(self) -> str:
        """ASCII Young diagram, one row of dots per part (debug aid).

        A diagram of more than DEFAULT_ITEM_CAP cells raises
        :class:`ResourceBound` before any row is built.
        """
        cells = self.size
        if cells > DEFAULT_ITEM_CAP:
            raise ResourceBound(
                f"a diagram of {cells} cells is more than the cap of {DEFAULT_ITEM_CAP}"
            )
        return "\n".join("." * v for v in self.parts)

    def __iter__(self) -> Iterator[int]:
        return chain.from_iterable(starmap(repeat, self._runs))

    def __bool__(self) -> bool:
        return bool(self._runs)

    def __len__(self) -> int:
        if (length := self.length) > sys.maxsize:  # len() would raise OverflowError
            raise ResourceBound(f"{length} parts are more than len() can report; read .length")
        return length

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Partition):
            return self._runs == other._runs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._runs)

    def __repr__(self) -> str:
        return f"Partition({self.parts!r})"


EMPTY = Partition()
