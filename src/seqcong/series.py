"""Truncated bivariate formal power series with exact rational coefficients,
their weight functions, and the product side of each of the package's
generating-function identities, built by the dense kernel of
:mod:`seqcong._counters`.

The sum sides, built from the partitions themselves, the comparison of two
sides and the zeta evaluation live in :mod:`seqcong.sums`, so a product-side
``series expand`` compiles none of them.  All series here have nonnegative
exponents only, so truncation commutes with multiplication: a coefficient
within bounds depends only on in-range factors.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from ._values import FAMILIES, MultiplicityRule, Value
from .errors import BoundsMismatch, ExtentExceeded, InvalidExponent, NonDistinctA, _shown
from ._counters import (
    _dense_product, _exact, _fraction, _positions, _require_cells, _rule_row, _sized_list, _zeros,
)
from .sequences import SequenceSpec

if TYPE_CHECKING:  # fractions and random load in the calls that use them
    from fractions import Fraction


class BivariateSeries:
    """Truncated series in x and q over the rationals, stored dense: row a
    holds the coefficients of x^a q^0, ..., x^a q^qtrunc, each an int or a
    Fraction.

    Coefficients beyond the truncation bounds are unknown and never stored;
    arithmetic silently discards out-of-range terms.  A grid of more than
    DEFAULT_ITEM_CAP cells raises :class:`ResourceBound` before it is
    allocated, as in the product sides.
    """

    __slots__ = ("xtrunc", "qtrunc", "_rows")

    def __init__(
        self, xtrunc: int, qtrunc: int, coeffs: Mapping[tuple[int, int], Fraction] | None = None
    ):
        _require_cells(f"series x^{_shown(xtrunc)} q^{_shown(qtrunc)}", 1, qtrunc, xtrunc)
        rows = _zeros(xtrunc, qtrunc)
        for (a, b), c in (coeffs or {}).items():
            if a < 0 or b < 0:
                raise InvalidExponent(f"exponent pair ({a}, {b}) is negative")
            if a <= xtrunc and b <= qtrunc:
                rows[a][b] = _exact(_fraction(c))
        self.xtrunc = xtrunc
        self.qtrunc = qtrunc
        self._rows = rows

    @classmethod
    def _of_rows(cls, rows: list[list]) -> "BivariateSeries":
        """Adopt a grid of exact values, neither copied nor converted."""
        s = cls.__new__(cls)
        s.xtrunc, s.qtrunc, s._rows = len(rows) - 1, len(rows[0]) - 1, rows
        return s

    def coefficient(self, xexp: int, qexp: int) -> Fraction:
        if xexp < 0 or qexp < 0 or xexp > self.xtrunc or qexp > self.qtrunc:
            raise BoundsMismatch(
                f"coefficient ({xexp}, {qexp}) is outside the truncation "
                f"bounds ({self.xtrunc}, {self.qtrunc})"
            )
        return _fraction(self._rows[xexp][qexp])

    def items(self) -> list[tuple[tuple[int, int], Fraction]]:
        """Nonzero coefficients by (q-exponent, x-exponent), column by column."""
        return [((x, q), _fraction(c)) for x, q, c in self._cells()]

    def _cells(self) -> Iterator[tuple[int, int, int | Fraction]]:
        """(x, q, c) for each nonzero c, as stored (an int or a Fraction), in items' order."""
        columns = enumerate(zip(*self._rows))
        return ((x, q, c) for q, col in columns for x, c in enumerate(col) if c)

    def __mul__(self, other: "BivariateSeries") -> "BivariateSeries":
        """Term by term over the nonzero coefficients, independent of the
        dense kernel: the tests fold factors with it."""
        self._require_same_bounds(other)
        rows = _zeros(self.xtrunc, self.qtrunc)
        right = other.items()
        for (a1, b1), c1 in self.items():
            for (a2, b2), c2 in right:
                a, b = a1 + a2, b1 + b2
                if a <= self.xtrunc and b <= self.qtrunc:
                    rows[a][b] += c1 * c2
        return BivariateSeries._of_rows(rows)

    def _require_same_bounds(self, other: "BivariateSeries") -> None:
        if self.xtrunc != other.xtrunc or self.qtrunc != other.qtrunc:
            raise BoundsMismatch(
                f"series bounds ({self.xtrunc}, {self.qtrunc}) != "
                f"({other.xtrunc}, {other.qtrunc})"
            )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BivariateSeries):
            return self._rows == other._rows  # equal grids have equal bounds
        return NotImplemented

    def __hash__(self):
        return hash(tuple(map(tuple, self._rows)))  # an int hashes as its equal Fraction

    def __repr__(self) -> str:
        terms = sum(len(row) - row.count(0) for row in self._rows)
        return f"BivariateSeries(xtrunc={self.xtrunc}, qtrunc={self.qtrunc}, {terms} terms)"


class WeightSpec(Value):
    """Exact rational weight function on positive integers: `kind`, required,
    and `table`, `members`, `seed` and `extent`, None unless the kind reads
    them.

    kinds: ``one`` (constant 1), ``table`` (explicit values for 1..extent,
    hard error beyond), ``random`` (a seeded table, drawn on first lookup),
    ``indicator`` (1 on a finite set, else 0).  :meth:`value` gives an int
    for ``one`` and ``indicator`` and a Fraction for the tables, so an
    integral weight makes no Fraction.
    """

    _fields = __match_args__ = ("kind", "table", "members", "seed", "extent")
    __slots__ = _fields + ("_drawn",)  # _drawn caches the random table, not a field
    _required = 1

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        object.__setattr__(self, "_drawn", None)

    @classmethod
    def one(cls) -> "WeightSpec":
        return cls("one")

    @classmethod
    def from_values(cls, values: Iterable) -> "WeightSpec":
        return cls("table", table=tuple(_fraction(v) for v in values))

    @classmethod
    def indicator(cls, members: Iterable[int]) -> "WeightSpec":
        return cls("indicator", members=frozenset(int(v) for v in members))

    @classmethod
    def random_table(cls, seed: int, extent: int) -> "WeightSpec":
        """Seeded table of `extent` rationals u / w, -4 <= u <= 4 and
        1 <= w <= 4, for identity spot checks.

        Nothing is drawn until the first lookup, so a side that refuses its
        size before reading any weight never pays for `extent` values.
        """
        return cls("random", seed=seed, extent=extent)

    def _values(self) -> tuple[Fraction, ...]:
        """The table; a random spec draws it in full on the first call and
        keeps it.  Each drawing starts from a fresh generator, so two calls
        racing on one spec store the same values."""
        if self.kind == "table":
            return self.table
        drawn = self._drawn
        if drawn is None:
            import random

            rng = random.Random(self.seed)
            drawn = tuple(_fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(self.extent))
            object.__setattr__(self, "_drawn", drawn)
        return drawn

    def value(self, n: int) -> int | Fraction:
        if n < 1:
            raise ExtentExceeded(f"weight index {_shown(n)} must be >= 1")
        if self.kind == "one":
            return 1
        if self.kind in ("table", "random"):
            extent = len(self.table) if self.kind == "table" else self.extent
            if n > extent:
                raise ExtentExceeded(
                    f"weight table of extent {extent} has no value at {_shown(n)}"
                )
            return self._values()[n - 1]
        if self.kind == "indicator":
            return int(n in self.members)
        raise ValueError(f"unknown weight kind {self.kind!r}")


def product_side(f: WeightSpec, qtrunc: int) -> BivariateSeries:
    """Product over n of 1 / (1 - f(n) q^n), truncated at q^qtrunc.

    Factors with n beyond the truncation cannot move retained coefficients,
    so the finite product is exact.
    """
    factors = ((f.value(n), 0, n) for n in range(1, qtrunc + 1))
    grid = _dense_product(f"product side q^{_shown(qtrunc)}", qtrunc, factors, 0, qtrunc)
    return BivariateSeries._of_rows(grid)


def two_var_product_side(
    a_seq: SequenceSpec, b_seq: SequenceSpec, xtrunc: int, qtrunc: int
) -> BivariateSeries:
    """Product over positions n of 1 / (1 - x^{a_n} q^{a_n b_n}), truncated."""
    label = f"two-variable product side x^{_shown(xtrunc)} q^{_shown(qtrunc)}"
    positions = _positions(a_seq, b_seq, qtrunc, lambda a, b: a * b)
    live = ((1, a, a * b) for a, b in positions if a <= xtrunc and a * b <= qtrunc)
    factors = _sized_list(label, live, qtrunc, xtrunc)
    return BivariateSeries._of_rows(_dense_product(label, len(factors), factors, xtrunc, qtrunc))


def euler_limit_side(a_seq: SequenceSpec, xtrunc: int) -> BivariateSeries:
    """Product over distinct terms a of A of 1 / (1 - x^a), truncated at
    x^xtrunc; the x^n coefficient counts partitions of n with parts in A.

    Computed directly from the product, never by a numeric limit.
    """
    if not a_seq.is_distinct_through(a_seq.extent or 2):  # a rule repeats by its 2nd term
        raise NonDistinctA(f"A ({a_seq.describe()}) must have distinct terms")
    label = f"euler side x^{_shown(xtrunc)}"
    _require_cells(label, 1, 0, xtrunc)  # before a range too long for len() is sized
    row = _rule_row(MultiplicityRule(a_seq, 1, False), xtrunc, label)
    return BivariateSeries._of_rows([[c] for c in row])


def distinct_product_side(qtrunc: int) -> BivariateSeries:
    """Product over n of (1 + q^n), truncated; the q^n coefficient counts
    partitions of n into distinct parts."""
    label = f"distinct product side q^{_shown(qtrunc)}"
    return BivariateSeries._of_rows([_rule_row(FAMILIES["distinct"].rule(), qtrunc, label)])
