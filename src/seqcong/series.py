"""Truncated bivariate formal power series with exact rational coefficients,
the product/sum sides of the package's generating-function identities, and
the one approximate operation (zeta-style evaluation over restricted
partitions).

All series here have nonnegative exponents only, so truncation commutes
with multiplication: a coefficient within bounds depends only on in-range
factors.  Identity verification is exact; no tolerances are involved
anywhere except in the zeta evaluation, which reports both sides and its
truncation depth instead of asserting agreement.
"""

from __future__ import annotations

from itertools import accumulate
import operator
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from ._values import FAMILIES, MultiplicityRule, Value
from .errors import (
    BoundsMismatch,
    DivergentParameters,
    ExtentExceeded,
    InvalidExponent,
    NonDistinctA,
    ResourceBound,
    _shown,
)
from ._counters import (
    _allowed, _dense_product, _exact, _fraction, _multipliers, _pentagonal_counts, _positions,
    _require_cells, _require_members, _rule_row, _scales, _sized_list, _zeros, sna_weight_sums,
)
from .sequences import NATURALS, SequenceSpec

if TYPE_CHECKING:  # fractions, decimal and random load in the calls that use them
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


def _size_totals(values: list[int], factors: list[list], bound: int, one) -> tuple[list, int]:
    """Totals by size, 0 to bound, of the weights of the partitions of size
    <= bound into parts among `values` (ascending), and how many there
    are.  ``factors[size][k][m]`` weighs a run of m copies of ``values[k]``
    grown from a node of that size; a partition weighs the product of its
    runs, the empty one `one`.  Each node of the walk is a member, and a
    child adds one run of a value below the node's smallest part: its
    weight is the node's times one factor, added to the total for its size.
    One step per member."""
    totals = [0] * (bound + 1)
    totals[0] = one
    members = 1
    room = bound - (values[0] if values else 0)  # the largest size a child can grow from
    stack = [(one, 0, len(values))]  # (weight, size, values allowed below it)
    while stack:
        w, size, k = stack.pop()
        rem, row = bound - size, factors[size]
        for j in range(k):
            v = values[j]
            if v > rem:
                break
            runs, s = row[j], size
            for m in range(1, rem // v + 1):
                s += v
                c = w * runs[m]
                totals[s] += c
                if j and s <= room:
                    stack.append((c, s, j))
            members += rem // v
    return totals, members


def product_side(f: WeightSpec, qtrunc: int) -> BivariateSeries:
    """Product over n of 1 / (1 - f(n) q^n), truncated at q^qtrunc.

    Factors with n beyond the truncation cannot move retained coefficients,
    so the finite product is exact.
    """
    factors = ((f.value(n), 0, n) for n in range(1, qtrunc + 1))
    grid = _dense_product(f"product side q^{_shown(qtrunc)}", qtrunc, factors, 0, qtrunc)
    return BivariateSeries._of_rows(grid)


def partition_sum_side(f: WeightSpec, qtrunc: int) -> BivariateSeries:
    """Sum over all partitions of q^size weighted by the product of f over
    the parts (with multiplicity), by direct enumeration.

    This side stays enumerative on purpose: it is the independent side of
    the ``product-sum`` identity, so no dynamic program replaces it.  The
    pentagonal counts only size it: more than DEFAULT_ITEM_CAP partitions
    of size <= qtrunc raise :class:`ResourceBound` before any is built.
    Then f(1), ..., f(qtrunc) are read in that order (so a short table
    raises :class:`ExtentExceeded` at its extent + 1), and one walk over all
    sizes carries each weight down from the parent, one factor per run.
    """
    # In integers, on the product kernel's scales S_n: a node of size n
    # holds S_n times its weight, and a run of m copies of v grown from it
    # multiplies by cq[n + v] ... cq[n + m v], cq[q] = S_q f(v) / S_{q-v},
    # kept as prefix products per size; each total is divided by S_n once.
    # Parts of weight 0 are left out, as every partition holding one adds 0.
    label = f"partition sum side q^{_shown(qtrunc)}"
    _require_members(label, _pentagonal_counts(label, qtrunc))
    weights = [_exact(f.value(v)) for v in range(1, qtrunc + 1)]
    live = [(w, 0, v) for v, w in enumerate(weights, start=1) if w]
    scales, ratios = _scales(label, live, qtrunc)
    if scales is None:  # integral weights: every S_n is 1
        scales = ratios = [1] * (qtrunc + 1)
    values, mul = [v for _, _, v in live], operator.mul
    cqs = [_multipliers(c, v, scales, ratios, qtrunc) for c, _, v in live]
    factors = [
        [list(accumulate(cq[n + v :: v], mul, initial=1)) for cq, v in zip(cqs, values)]
        for n in range(qtrunc + 1)
    ]
    totals, _ = _size_totals(values, factors, qtrunc, 1)
    return BivariateSeries._of_rows([[_exact(_fraction(t, s)) for t, s in zip(totals, scales)]])


def seqcong_sum_side(f: WeightSpec, qtrunc: int) -> BivariateSeries:
    """Sum over sequentially congruent partitions of q^(largest part),
    weighted by f(i) raised to the i-th successive difference over i.

    Read off one row table of :func:`_counters.sna_weight_sums` with
    A = naturals, which holds every largest part up to qtrunc at once; the
    enumerator is its oracle in the tests.  Lengths never exceed the
    largest part, so f's extent need only reach qtrunc, and a shorter table
    raises :class:`ExtentExceeded`.
    """
    sums = sna_weight_sums(
        NATURALS, qtrunc, lambda i: _exact(f.value(i)), f"seqcong-lg:{_shown(qtrunc)}"
    )
    return BivariateSeries._of_rows([sums])


def two_var_product_side(
    a_seq: SequenceSpec, b_seq: SequenceSpec, xtrunc: int, qtrunc: int
) -> BivariateSeries:
    """Product over positions n of 1 / (1 - x^{a_n} q^{a_n b_n}), truncated."""
    label = f"two-variable product side x^{_shown(xtrunc)} q^{_shown(qtrunc)}"
    positions = _positions(a_seq, b_seq, qtrunc, lambda a, b: a * b)
    live = ((1, a, a * b) for a, b in positions if a <= xtrunc and a * b <= qtrunc)
    factors = _sized_list(label, live, qtrunc, xtrunc)
    return BivariateSeries._of_rows(_dense_product(label, len(factors), factors, xtrunc, qtrunc))


def pba_sum_side(
    a_seq: SequenceSpec, b_seq: SequenceSpec, xtrunc: int, qtrunc: int
) -> BivariateSeries:
    """Coefficient of x^m q^n counts the members of the (A, B) divisibility
    family with length m and size n, by direct enumeration.

    The dense kernel only sizes it, over the (B-value, A-term) pairs the
    enumeration walks (a length never exceeds its size): more than
    DEFAULT_ITEM_CAP members raise :class:`ResourceBound` before any is built.
    """
    from ._walkers import _gen_pba_by_size  # the one side that walks members

    label = f"pba sum side x^{_shown(xtrunc)} q^{_shown(qtrunc)}"
    _require_cells(label, 1, qtrunc, xtrunc)  # the grid of counts
    values, steps = _allowed(FAMILIES["pba"].rule(a_seq, b_seq), qtrunc, False, label)
    sizing = ((1, a, a * b) for b, a in zip(values, steps))
    counts = _dense_product(label, len(values), sizing, min(xtrunc, qtrunc), qtrunc)
    _require_members(label, map(sum, counts))
    rows = _zeros(xtrunc, qtrunc)
    for runs in _gen_pba_by_size(values, steps, qtrunc, xtrunc):
        rows[sum(m for _, m in runs)][sum(v * m for v, m in runs)] += 1
    return BivariateSeries._of_rows(rows)


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


def step_bounded_sum_side(qtrunc: int) -> BivariateSeries:
    """Sum of q^(largest part) over sequentially congruent partitions whose
    steps are all 0 or the index, read off one row table of
    :func:`_counters.sna_weight_sums` with A = naturals under the cap; the
    enumerator is its oracle in the tests."""
    sums = sna_weight_sums(NATURALS, qtrunc, lambda i: 1, f"step-lg:{_shown(qtrunc)}", cap=True)
    return BivariateSeries._of_rows([sums])


class SeriesComparison(Value):
    """Outcome of a coefficientwise comparison: `equal`, required; on
    inequality the first differing `x_exponent` and `q_exponent` and both
    values, `lhs_coefficient` and `rhs_coefficient`, else those four None."""

    __slots__ = _fields = __match_args__ = (
        "equal", "x_exponent", "q_exponent", "lhs_coefficient", "rhs_coefficient",
    )
    _required = 1


def compare(lhs: BivariateSeries, rhs: BivariateSeries) -> SeriesComparison:
    """Exact coefficientwise equality over the shared truncation bounds."""
    lhs._require_same_bounds(rhs)
    if lhs._rows != rhs._rows:  # walk (q, x) only to find the first difference
        for q, (left, right) in enumerate(zip(zip(*lhs._rows), zip(*rhs._rows))):
            for x, (lc, rc) in enumerate(zip(left, right)):
                if lc != rc:
                    return SeriesComparison(False, x, q, _fraction(lc), _fraction(rc))
    return SeriesComparison(True)


class ZetaEvaluation(Value):
    """Both sides of the restricted-partition zeta identity, `sum_side` and
    `product_side`, each the exact Fraction of its dps-digit decimal, with
    the `qdepth` that produced the sum and its `terms`; no field has a default."""

    __slots__ = _fields = __match_args__ = ("sum_side", "product_side", "qdepth", "terms")
    _required = 4


MAX_DPS = 10**4  # the most decimal digits of working precision partition_zeta accepts


def partition_zeta(
    part_set: Iterable[int], s, qdepth: int, dps: int = 30
) -> ZetaEvaluation:
    """Evaluate the sum of N^(-s) over partitions with parts in the given
    set (N = product of the parts, sizes up to qdepth) alongside the closed
    product over the set of 1 / (1 - t^(-s)).

    Requires every set element >= 2 and s > 1 for convergence, qdepth >= 0
    and dps >= 1 (decimal digits of working precision); anything else
    raises :class:`DivergentParameters`.  A dps above MAX_DPS, or more than
    DEFAULT_ITEM_CAP partitions of size <= qdepth, totalled by the row of
    their rule before any is built, raise :class:`ResourceBound` before any power is
    taken; the sum is one walk with one step per partition, so this bounds
    its work too.  Each call computes in a decimal context of its own, so
    concurrent calls at any precisions leave one another's digits alone.
    No equality is asserted here; callers decide what agreement to demand
    at which depth.
    """
    from decimal import Context, Decimal, localcontext

    values = sorted(set(int(v) for v in part_set))
    if not values:
        raise DivergentParameters("the part set must not be empty")
    if any(v < 2 for v in values):
        raise DivergentParameters(f"every part must be >= 2, got {values}")
    s = _fraction(s)
    if s <= 1:
        raise DivergentParameters(f"exponent s must exceed 1, got {s}")
    if qdepth < 0:
        raise DivergentParameters(f"qdepth must be >= 0, got {qdepth}")
    if dps < 1:
        raise DivergentParameters(f"dps must be >= 1, got {dps}")
    if dps > MAX_DPS:
        raise ResourceBound(f"dps {dps} is more than the cap of {MAX_DPS} digits")
    label = f"zeta sum over parts in {values} to depth {_shown(qdepth)}"
    _require_members(label, _rule_row(FAMILIES["parts"].rule(values), qdepth, label))
    with localcontext(Context(prec=dps)):
        # the terms past the empty partition's 1 are fewer than 2^24 (the item
        # cap) and each below 2^-s: past s = 4 dps + 32 they sum to less than
        # 2^-8 * 16^-dps and round away against 1, so both sides are 1 and a
        # larger s runs as that one, whatever its digits
        s = min(s, 4 * dps + 32)
        minus_s = -(Decimal(s.numerator) / s.denominator)
        bases = [Decimal(t) ** minus_s for t in values]
        prod = Decimal(1)
        for b in bases:
            prod /= 1 - b
        # a term is its parent's times t^(-s m) for its last run, m copies
        # of t: one power per part, however deep the walk goes
        runs = [[None] + [b**m for m in range(1, qdepth // t + 1)] for t, b in zip(values, bases)]
        factors = [runs] * (qdepth + 1)
        totals, terms = _size_totals(values, factors, qdepth, Decimal(1))
        total = sum(filter(None, totals), Decimal(0))  # skip the sizes no partition has
    return ZetaEvaluation(_fraction(total), _fraction(prod), qdepth, terms)
