"""The exact counters that families and series share: the size guards,
the walk over the positions of P_B(A), the one row of the largest-part
families (S_N(A), with or without the cap), Euler's pentagonal numbers,
the rows of the multiplicity rules and the dense product kernel.  None enumerates,
and each refuses, before it allocates anything, a table of more than
``DEFAULT_ITEM_CAP`` cells.
"""

from __future__ import annotations

import math
from itertools import islice, repeat
from typing import Any, Callable, Iterable, Iterator, Optional

from .errors import DEFAULT_ITEM_CAP, InternalContradiction, InvalidExponent, ResourceBound, _shown
from .sequences import SequenceSpec


def _require_cells(label: str, rows: int, n: int, xtrunc: int = 0) -> None:
    """Refuse a negative bound (:class:`InvalidExponent`), and `rows`
    passes (at least one) over xtrunc + 1 rows of n + 1 cells that would
    exceed DEFAULT_ITEM_CAP cells.  Every table and grid is checked so
    before it is allocated, so time and memory follow the input text."""
    if xtrunc < 0 or n < 0:
        raise InvalidExponent(f"truncation bounds ({_shown(xtrunc)}, {_shown(n)}) must be >= 0")
    cells = max(rows, 1) * (xtrunc + 1) * (n + 1)
    if cells > DEFAULT_ITEM_CAP:
        raise ResourceBound(
            f"{label} needs a table of {_shown(cells)} cells, more than the cap of "
            f"{DEFAULT_ITEM_CAP}"
        )


def _sized_list(label: str, items: Iterable, n: int, xtrunc: int = 0) -> list:
    """The items as a list, each the cost of one pass over xtrunc + 1 rows
    of n + 1 cells, refused by :func:`_require_cells` as soon as the next
    item would pass DEFAULT_ITEM_CAP cells: a table is refused as its items
    arrive, before the rest are listed or sorted."""
    _require_cells(label, 1, n, xtrunc)
    items = iter(items)
    most = DEFAULT_ITEM_CAP // ((xtrunc + 1) * (n + 1))
    listed = list(islice(items, most))
    for _ in items:
        _require_cells(label, most + 1, n, xtrunc)
    return listed


def _require_members(label: str, counts: Iterable[int]) -> None:
    """Refuse a walk whose members, totalled from exact counts before any
    is built, would exceed DEFAULT_ITEM_CAP."""
    total = sum(counts)
    if total > DEFAULT_ITEM_CAP:
        raise ResourceBound(
            f"{label} would enumerate {total} members, more than the cap of "
            f"{DEFAULT_ITEM_CAP}"
        )

def _require_strictly_increasing(a_seq: SequenceSpec) -> None:
    if not a_seq.strictly_increasing:
        raise ResourceBound(
            f"A ({a_seq.describe()}) does not increase strictly; the family "
            "has members of unbounded length and cannot be enumerated"
        )


def _positions(
    a_seq: SequenceSpec, b_seq: SequenceSpec, bound: int, weight: Callable[[int, int], int]
) -> Iterator[tuple[int, int]]:
    """(a_i, b_i) for i = 1, 2, ...: every position up to the shorter
    extent when A or B is a table, whatever its weight(a_i, b_i); for two
    rules, whose weights never decrease with i, the positions up to the
    last with weight <= bound.  Pairs are yielded lazily, so a caller can
    stop the walk early.  Two rules that keep more than `bound` positions
    within the bound raise :class:`ResourceBound`: the walk would not end.
    """
    extents = [e for e in (a_seq.extent, b_seq.extent) if e is not None]
    if extents:
        for i in range(1, min(extents) + 1):
            yield a_seq.at(i), b_seq.at(i)
        return
    i = 1
    while True:
        a, b = a_seq.at(i), b_seq.at(i)
        if weight(a, b) > bound:
            return
        if i > bound:
            raise ResourceBound(
                f"A ({a_seq.describe()}) and B ({b_seq.describe()}) keep infinitely "
                f"many positions within the bound {bound}"
            )
        yield a, b
        i += 1


def _pba_value_pairs(
    a_seq: SequenceSpec, b_seq: SequenceSpec, bound: int, weight: Callable[[int, int], int], label: str
) -> list[tuple[int, int]]:
    """Distinct B-values paired with the A-term at their first position,
    by B-value descending, for the first positions of :func:`_positions`
    with weight(a, b) <= bound.  The table is sized as its pairs arrive
    (:func:`_sized_list`), each one pass over bound + 1 cells, and refused
    under `label`.

    A repeated B-value keeps its first position, matching the membership
    predicate, even when that position is out of bound: then the value
    has no pair.  A rule B that repeats a term repeats its first one
    forever, so its walk stops after one position.
    """
    walk = _positions(a_seq, b_seq, bound, weight)
    if b_seq.extent is None and not b_seq.is_distinct_through(2):
        walk = islice(walk, 1)
    seen: set[int] = set()

    def pairs() -> Iterator[tuple[int, int]]:
        for a, b in walk:
            if b not in seen:
                seen.add(b)
                if weight(a, b) <= bound:
                    yield b, a

    return sorted(_sized_list(label, pairs(), bound), reverse=True)


def sna_weight_sums(
    a_seq: SequenceSpec, n: int, weight: Callable[[int], Any], label: str, cap: bool = False
) -> list:
    """Entry v (0 <= v <= n) sums, over the members of S_N(A) with largest
    part v, the product over i of weight(i) ** e_i, where lambda_i -
    lambda_{i+1} = a_i e_i (lambda_{r+1} = 0, e_r >= 1) and e_i is in ℕ, or
    in {0, 1} under the cap.  With weight 1 it counts them.

    With f = weight, W(i, v) weighs the completions at depth i with current
    part v: stop at v = a_i e, or go on to v - a_i e >= a_{i+1}, each with
    weight f(i)^e.  So W(i, v) is T(i, v) plus the stops, where T(i, v) =
    W(i+1, v) + f(i) T(i, v - a_i), or W(i+1, v) + f(i) W(i+1, v - a_i)
    under the cap, the second term for v - a_i >= a_{i+1} only.  One row is
    updated in place, ascending, or descending under the cap, as the
    kernel's geometric and linear factors are.  Rows roll from D, the first
    index with a_D >= n, down to 1, and row 1 answers every largest part at
    once.  `weight` is called once per i, from D down to 1, so a weight
    table shorter than D raises from its own lookup; a weight of 1
    multiplies nothing.  A must increase strictly; a table that never
    reaches n raises :class:`ExtentExceeded`.  A table of more than
    DEFAULT_ITEM_CAP cells is refused under `label`.
    """
    _require_strictly_increasing(a_seq)
    _require_cells(label, 1, n)
    if n == 0:  # no rows: the empty partition alone
        return [1]
    depth = a_seq.first_at_least(n)
    _require_cells(label, depth, n)
    w = [1] + [0] * n  # W(i+1, v) before row i, W(i, v) after; zero for 0 < v < a_{i+1}
    floor = n + 1  # a_{D+1} > n
    for i in range(depth, 0, -1):
        a, f = a_seq.at(i), weight(i)
        ends = range(n, a + floor - 1, -1) if cap else range(a + floor, n + 1)
        if f == 1:
            for v in ends:
                w[v] += w[v - a]
        else:
            for v in ends:
                w[v] += f * w[v - a]
        stops, stop = range(a, n + 1, a), 1
        for v in stops[:1] if cap else stops:
            stop *= f
            w[v] += stop
        floor = a
    return w


def _pentagonal_counts(label: str, n: int) -> list[int]:
    """p(0), ..., p(n) by Euler's pentagonal-number recurrence: p(m) is the
    sum over k >= 1 of (-1)^(k+1) (p(m - k(3k-1)/2) + p(m - k(3k+1)/2)).
    `label` names the caller's request in a refusal."""
    _require_cells(label, 1, n)  # also bounds the walk over the offsets
    offsets: list[tuple[int, int]] = []  # (generalized pentagonal number, sign), ascending
    k = 1
    while k * (3 * k - 1) // 2 <= n:
        sign = 1 if k % 2 else -1
        offsets += [(k * (3 * k - 1) // 2, sign), (k * (3 * k + 1) // 2, sign)]
        k += 1
    _require_cells(label, len(offsets), n)
    p = [1] + [0] * n
    for m in range(1, n + 1):
        total = 0
        for g, sign in offsets:
            if g > m:
                break
            total += sign * p[m - g]
        p[m] = total
    return p


def _exact(c):
    """An integral int or Fraction as an int, which keeps the arithmetic it
    enters in ints; any other value unchanged."""
    return c.numerator if c.denominator == 1 else c


def _fraction(*args):
    """Fraction(*args), with fractions loaded by the first call that makes one."""
    from fractions import Fraction

    return Fraction(*args)


def _zeros(xtrunc: int, qtrunc: int) -> list[list]:
    return [[0] * (qtrunc + 1) for _ in range(xtrunc + 1)]


def _scales(label: str, live: list[tuple], qtrunc: int) -> tuple[Optional[list], Optional[list]]:
    """S_0, ..., S_qtrunc for the factors (c, a, b) of :func:`_dense_product`,
    and the ratios S_q / S_{q-1}; (None, None) when every weight is integral.

    S_0 = 1, and S_q is the lcm of S_{q-1} and of S_{q-b} w for each
    reduced denominator w > 1, b the smallest q-exponent among the factors
    with that denominator.  Since S_{q-b} divides S_{q-1}, the lcm is S_{q-1}
    times the ratio t that makes w divide t S_{q-1} / S_{q-b}; so each
    denominator costs one remainder of that span, kept for the next q by
    the ratios that enter and leave it, and no lcm of two scales is taken.
    """
    first: dict[int, int] = {}  # denominator w > 1 -> the smallest b that has it
    for c, _, b in live:
        w = c.denominator
        if w > 1:
            if not b:
                raise InternalContradiction(f"{label}: weight {c} has no q-exponent to scale on")
            first[w] = min(b, first.get(w, b))
    if not first:
        return None, None
    steps = sorted((b, w) for w, b in first.items())
    scales, ratios = [1], [1]
    spans: list[int] = []  # S_{q-1} / S_{q-b} for the first len(spans) steps, those with b <= q
    for q in range(1, qtrunc + 1):
        while len(spans) < len(steps) and steps[len(spans)][0] <= q:
            spans.append(scales[-1] // scales[q - steps[len(spans)][0]])
        t = 1
        for span, (_, w) in zip(spans, steps):
            g = math.gcd(span % w * t, w)
            if g != w:
                t *= w // g
        ratios.append(t)
        scales.append(scales[-1] * t)
        for k, (b, _) in enumerate(steps[: len(spans)]):
            if t != ratios[q + 1 - b]:
                spans[k] = spans[k] * t // ratios[q + 1 - b]
    return scales, ratios


def _multipliers(c, b: int, scales: list, ratios: list, qtrunc: int) -> list[int]:
    """cq[q] = u S_q / (S_{q-b} w) for q >= b (0 below), the weight c = u / w
    at q-exponent b, stepped by the ratios S_q / S_{q-1} of :func:`_scales`."""
    u, m = c.numerator, scales[b] // c.denominator
    cq = [0] * b + [u * m]
    for q in range(b + 1, qtrunc + 1):
        if ratios[q] != ratios[q - b]:
            m = m * ratios[q] // ratios[q - b]
        cq.append(u * m)
    return cq


def _dense_product(
    label: str, nfactors: int, factors: Iterable[tuple], xtrunc: int, qtrunc: int, *,
    linear: bool = False,
) -> list[list]:
    """Rows x = 0..xtrunc of coefficients q^0..q^qtrunc of the product of
    `nfactors` factors (c, a, b), (a, b) != (0, 0), each 1 / (1 - c x^a q^b),
    or 1 + c x^a q^b when `linear`: the one kernel of every product side and
    of the rows of the multiplicity rules (:func:`_rule_row`).

    The size is checked before the grid is allocated or a factor is read.
    One pass per factor updates the grid g in place, g[x][q] += c g[x-a][q-b],
    ascending for a geometric factor (the source holds the new value) and
    descending for a linear one (it holds the old), with no multiplication
    when c = 1.  Integral weights stay ints.

    Rational weights run on ints too.  Column q is scaled by S_q
    (:func:`_scales`): S_0 = 1, and S_q = lcm(S_{q-1}, S_{q-b} w) over each
    reduced denominator w > 1, b the smallest q-exponent of a factor with
    denominator w.  So S_{q-1} | S_q, and for every factor u/w at exponent b
    (w = 1 included), S_{q-b} w divides S_{q-b'} w | S_q, b' <= b the
    exponent that entered w.  With G = S_q g, the pass becomes
    G[x][q] += (S_q // (S_{q-b} w)) u G[x-a][q-b], exact in ints, and one
    last pass turns each cell into G / S_q, an int where it is integral.
    Every product reaching q^q has a denominator dividing S_q, and S_q stays
    near the largest reduced denominator, where one global D^q would not.
    A rational weight needs b >= 1; b = 0 raises InternalContradiction.
    """
    _require_cells(label, nfactors, qtrunc, xtrunc)
    live = []
    for c, a, b in factors:
        c = _exact(c)
        if c and a <= xtrunc and b <= qtrunc:  # else only the constant term is in range
            live.append((c, a, b))
    scales, ratios = _scales(label, live, qtrunc)
    grid = _zeros(xtrunc, qtrunc)
    grid[0][0] = 1
    for c, a, b in live:
        if linear:
            xs, qs = range(xtrunc, a - 1, -1), range(qtrunc, b - 1, -1)
        else:
            xs, qs = range(a, xtrunc + 1), range(b, qtrunc + 1)
        if scales is not None:
            cq = _multipliers(c, b, scales, ratios, qtrunc)
        for x in xs:
            row, src = grid[x], grid[x - a]
            if scales is not None:
                for q in qs:
                    row[q] += cq[q] * src[q - b]
            elif c == 1:
                for q in qs:
                    row[q] += src[q - b]
            else:
                for q in qs:
                    row[q] += c * src[q - b]
    if scales is not None:
        for row in grid:
            for q, s in enumerate(scales):
                if s != 1:
                    row[q] = _exact(_fraction(row[q], s))
    return grid


def _allowed(rule, bound: int, length: bool, label: str) -> tuple:
    """The values j of a multiplicity rule (``_values.MultiplicityRule``)
    one block of whose copies fits `bound`, ascending, and their steps a,
    each from ``rule.step_of``; a block is a copies, bounded on length when
    `length`, else a j, bounded on size.  (None, None) for 1, 2, ... with
    step 1 (`all`, `distinct`) on size.  P_B(A) gives the pairs of
    :func:`_pba_value_pairs`, sized under `label` as they arrive; the
    candidates of a rule or a range are sized by their number, one pass
    over bound + 1 cells each, before any is listed, and a frozenset's not
    at all."""
    values, step = rule.values, rule.step
    if (values, step) == (1, 1) and not length:
        return None, None  # all and distinct, which _gen_rule walks on size
    if isinstance(step, SequenceSpec):
        weight = (lambda a, b: a) if length else (lambda a, b: a * b)
        pairs = _pba_value_pairs(step, values, bound, weight, label)[::-1]
    else:
        if values.__class__ is not frozenset:  # a rule's values, listed and sized by the bound
            _require_cells(label, 1, bound)  # before a range too long for len() is sized
            values = range(1, bound + 1, values) if values.__class__ is int else values.values_upto(bound)
            _require_cells(label, len(values), bound)
        pairs = [(j, a) for j in sorted(values) if j <= bound and (a := rule.step_of(j))
                 and (a if length else a * j) <= bound]
    return [j for j, _ in pairs], [a for _, a in pairs]


def _rule_row(rule, n: int, label: str, length: bool = False, table: Optional[tuple] = None) -> list:
    """Entry v (0 <= v <= n) counts the members of a multiplicity rule of
    size v, or of length v when `length`: the product over the values j of
    :func:`_allowed` (or `table`), with step a, of 1 / (1 - q^e), or of
    1 + q^e under the cap, e the size a j or the length a of one block."""
    values, steps = table or _allowed(rule, n, length, label)
    count = n if values is None else len(values)
    values = range(1, n + 1) if values is None else values
    factors = ((1, 0, a if length else a * j) for j, a in zip(values, steps or repeat(1)))
    return _dense_product(label, count, factors, 0, n, linear=rule.cap)[0]
