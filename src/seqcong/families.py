"""Deterministic run walkers and exact counters for every partition family
in the package, plus the finite-truncation ideal checks.

Enumeration order for every family is strictly decreasing lexicographic on
the parts sequence, and two runs produce identical streams.  A configurable
item cap (default 10**7) turns runaway requests into a clean
:class:`ResourceBound` error.

A level of every walker picks one (value, multiplicity) run, so a member
costs time in its distinct parts, not its parts, and becomes a
:class:`Partition` as the runs it was built from.

Counts never enumerate.  :func:`count` runs a dynamic program for each
kind: one row recursion over (index i, current part), with modulus a_i
and floor a_{i+1}, read off the congruences modulo A for ``sna-lg`` and,
with A = naturals, ``seqcong-lg`` (:func:`sna_weight_sums`), its variant
with steps 0 or i for ``step-lg``, Euler's pentagonal-number recurrence
for ``all``, and the series product kernel :func:`_dense_product` for
``distinct`` (a 0/1 knapsack) and ``parts-in`` and ``pba-len`` (coin
change).  Each program refuses, before it allocates anything, a table of
more than ``DEFAULT_ITEM_CAP`` cells.  The walkers stay as the oracles the
tests hold the counters to.

The sequentially congruent walker builds members directly from the
congruence conditions (right-to-left residue choices, realized as a DFS
from the fixed largest part); it deliberately does not reuse the dual map,
so that counting agreement with the plain enumerator is a genuine check.
"""

from __future__ import annotations

import math
from itertools import accumulate, islice
from typing import Any, Callable, Iterable, Iterator, Optional

from ._values import Value
from .errors import (
    InternalContradiction, InvalidDeletion, InvalidExponent, InvalidPart, NonDistinctA, ResourceBound,
)
from .partition import DEFAULT_ITEM_CAP, Partition
from .predicates import ViolationReport, is_member_pba
from .sequences import NATURALS, SequenceSpec

Membership = Callable[[Partition], bool]  # or a check: a ViolationReport is truthy when ok


class FamilyDescriptor(Value):
    """A named finite family of partitions: `kind` and `n`, required, and
    `part_set`, `a_seq` and `b_seq`, None unless the kind reads them.

    kinds: ``all`` (size n), ``parts-in`` (size n, parts from a set),
    ``distinct`` (size n), ``seqcong-lg`` (largest part n), ``pba-len``
    (length n, divisibility family), ``sna-lg`` (largest part n, congruences
    modulo A), ``step-lg`` (largest part n, steps 0 or the index).
    """

    __slots__ = _fields = __match_args__ = ("kind", "n", "part_set", "a_seq", "b_seq")
    _required = 2

    def describe(self) -> str:
        bits = [self.kind, str(self.n)]
        if self.part_set is not None:
            bits.append("T=" + ",".join(map(str, self.part_set)))
        if self.a_seq is not None:
            bits.append("A=" + self.a_seq.describe())
        if self.b_seq is not None:
            bits.append("B=" + self.b_seq.describe())
        return ":".join(bits)


def all_of_size(n: int) -> FamilyDescriptor:
    return FamilyDescriptor("all", _check_n(n))


def parts_in(part_set: Iterable[int], n: int) -> FamilyDescriptor:
    t = tuple(sorted(set(int(v) for v in part_set)))
    if any(v < 1 for v in t):
        raise InvalidPart(f"part set must contain positive integers, got {t}")
    return FamilyDescriptor("parts-in", _check_n(n), part_set=t)


def distinct_of_size(n: int) -> FamilyDescriptor:
    return FamilyDescriptor("distinct", _check_n(n))


def seqcong_largest(n: int) -> FamilyDescriptor:
    return FamilyDescriptor("seqcong-lg", _check_n(n))


def pba_length(a_seq: SequenceSpec, b_seq: SequenceSpec, n: int) -> FamilyDescriptor:
    return FamilyDescriptor("pba-len", _check_n(n), a_seq=a_seq, b_seq=b_seq)


def sna_largest(a_seq: SequenceSpec, n: int) -> FamilyDescriptor:
    return FamilyDescriptor("sna-lg", _check_n(n), a_seq=a_seq)


def step_bounded_largest(n: int) -> FamilyDescriptor:
    return FamilyDescriptor("step-lg", _check_n(n))


def _check_n(n: int, name: str = "family parameter n") -> int:
    if n < 0:
        raise InvalidPart(f"{name} must be >= 0, got {n}")
    return n


# ---------------------------------------------------------------------------
# run walkers (tuples of runs, strictly decreasing lexicographic on the parts)

Run = tuple[int, int]  # (value, multiplicity)
# A level offers (run, below, stop) choices: the run that extends the prefix,
# the level of runs that may follow it (None when the extended prefix is a
# member and nothing follows), and whether the extended prefix is also a
# member once its extensions are done.
Level = Iterator[tuple[Run, Optional[Iterator], bool]]


def _walk_runs(n: int, top: Level, empty: bool = False) -> Iterator[tuple[Run, ...]]:
    """Members as tuples of runs; for n = 0 the empty partition is the only
    one, and otherwise it comes last when `empty` says it is a member.  A
    member is yielded after its extensions, which are lexicographically
    larger, so levels that offer larger values first, and more copies of a
    value before fewer, give the members in strictly decreasing
    lexicographic order on the parts.  The stack is explicit: a member may
    have thousands of runs, past Python's recursion limit."""
    if n == 0:
        yield ()
        return
    runs: list[Run] = []  # the run each open level below the top was opened by
    stops = [empty]  # whether the prefix each open level extends is a member
    stack = [top]
    while stack:
        for run, below, stop in stack[-1]:
            if below is None:
                yield (*runs, run)
                continue
            runs.append(run)
            stops.append(stop)
            stack.append(below)
            break
        else:  # choices exhausted: close the level and the prefix it extends
            stack.pop()
            if stops.pop():
                yield tuple(runs)
            if runs:
                runs.pop()


def _gen_by_size(n: int, distinct: bool) -> Iterator[tuple[Run, ...]]:
    """Every partition of n, or those into distinct parts.  Only choices
    that lead to a member are offered: 1s can fill any remainder, and
    distinct parts up to v sum to at most v (v + 1) / 2."""

    def level(top: int, rem: int) -> Level:  # runs of parts <= top summing to rem
        for v in range(min(top, rem), 0, -1):
            if distinct and 2 * rem > v * (v + 1):
                return
            copies = (1,) if distinct else (rem,) if v == 1 else range(rem // v, 0, -1)
            for m in copies:
                left = rem - v * m
                if left:
                    yield (v, m), level(v - 1, left), False
                else:
                    yield (v, m), None, True

    return _walk_runs(n, level(n, n))


def _gen_parts_in(part_set: tuple[int, ...], n: int) -> Iterator[tuple[Run, ...]]:
    allowed = sorted(part_set, reverse=True)
    gcds = [*accumulate(reversed(allowed), math.gcd, initial=0)][::-1]  # of allowed[k:]; 0 past

    def level(k: int, rem: int) -> Level:  # runs of allowed[k:] summing to rem
        if math.gcd(rem, gcds[k]) != gcds[k]:  # no sum of allowed[k:] is rem
            return
        for idx in range(k, len(allowed)):
            v = allowed[idx]
            if v > rem:
                continue
            if idx + 1 == len(allowed):  # the smallest part takes the rest or nothing
                if rem % v == 0:
                    yield (v, rem // v), None, True
                return
            for m in range(rem // v, 0, -1):
                left = rem - v * m
                if left:
                    yield (v, m), level(idx + 1, left), False
                else:
                    yield (v, m), None, True

    return _walk_runs(n, level(0, n))


# The largest-part walkers below choose, for a run of c that starts at index
# i, the index j at which it ends.  Only the congruence at j can fail (the
# steps inside a run are 0), so a run ending at j is a member if c meets the
# last-part condition at j, and continues with a smaller part c' that meets
# the congruence at j.  More copies of c come first, then the continuations
# by c' descending, then the stop.


def _gen_seqcong_lg(n: int) -> Iterator[tuple[Run, ...]]:
    # A member's last part is a positive multiple of its index, so a part
    # at index r is at least r, and a continuation at j is c' = c - k j > j;
    # a run of c from index i <= c can always run on to index c and stop.
    # An end j >= c/2 admits no continuation and stops only at j = c or
    # j = c/2; every end j < c/2 has the continuation c - j, and stops
    # where j | c.
    def level(i: int, values: Iterable[int]) -> Level:
        for c in values:
            yield (c, c - i + 1), None, True
            if c % 2 == 0 and 2 * i <= c:
                yield (c, c // 2 - i + 1), None, True
            for j in range((c - 1) // 2, i - 1, -1):
                yield (c, j - i + 1), level(j + 1, range(c - j, j, -j)), c % j == 0

    return _walk_runs(n, level(1, (n,)))


def _gen_step_lg(n: int) -> Iterator[tuple[Run, ...]]:
    # Steps of 0 or j: a run of c stops only at j = c and continues only
    # with c - j, which must exceed j, as every later stop needs a part
    # equal to its index.
    def level(i: int, c: int) -> Level:
        yield (c, c - i + 1), None, True
        for j in range((c - 1) // 2, i - 1, -1):
            yield (c, j - i + 1), level(j + 1, c - j), False

    return _walk_runs(n, level(1, n))


def _require_strictly_increasing(a_seq: SequenceSpec) -> None:
    if not a_seq.strictly_increasing:
        raise ResourceBound(
            f"A ({a_seq.describe()}) does not increase strictly; the family "
            "has members of unbounded length and cannot be enumerated"
        )


def _gen_sna_lg(a_seq: SequenceSpec, n: int) -> Iterator[tuple[Run, ...]]:
    # Stops at index r need a_r | part_r, so part_r >= a_r; strictly
    # increasing terms bound the length.  Constant-like rules admit members
    # of every length and the family is infinite.  A run of c from index i
    # runs on while c > a_j and c >= a_{j+1}, so its last possible end is
    # k = max(i, first index with a_k >= c), a stop when a_k = c.  Below k,
    # an end j with a_j >= c/2 admits no continuation (c - a_j < a_{j+1}),
    # so only the first such j can stop, when a_j = c/2.  Every end j with
    # a_j < c/2 may continue with a c' = c (mod a_j), a_{j+1} <= c' < c.
    # A table that never reaches c raises from first_at_least, before any
    # member of the run is offered, where the per-part walk did.
    _require_strictly_increasing(a_seq)
    at, first_at_least = a_seq.at, a_seq.first_at_least

    def level(i: int, values: Iterable[int]) -> Level:
        for c in values:
            k = max(i, first_at_least(c))
            if at(k) == c:
                yield (c, k - i + 1), None, True
            half = max(i, first_at_least((c + 1) // 2))
            if half < k and 2 * at(half) == c:
                yield (c, half - i + 1), None, True
            for j in range(half - 1, i - 1, -1):
                a_j = at(j)
                nxt = range(c - a_j, at(j + 1) - 1, -a_j)
                stop = c % a_j == 0
                if nxt:
                    yield (c, j - i + 1), level(j + 1, nxt), stop
                elif stop:
                    yield (c, j - i + 1), None, True

    return _walk_runs(n, level(1, (n,)))


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


def _gen_pba_len(desc: FamilyDescriptor) -> Iterator[tuple[Run, ...]]:
    # A level takes the next pair, by B-value descending, that gets copies,
    # and a positive multiple of its A-term copies, from the most down.
    # Larger values and more copies of them come first, so members are
    # strictly decreasing.  Bit r of reach[i] says whether pairs[i:] can
    # place r copies, so only choices that lead to a member are taken and
    # the work before each member is at most one step per pair.
    n = desc.n
    pairs = _pba_value_pairs(desc.a_seq, desc.b_seq, n, lambda a, b: a, desc.describe())
    mask = (1 << (n + 1)) - 1
    reach = [0] * len(pairs) + [1]
    for i in range(len(pairs) - 1, -1, -1):
        row, a = reach[i + 1], pairs[i][1]
        while a <= n:  # row |= row << k*a for every k >= 1, by doubling
            row |= (row << a) & mask
            a *= 2
        reach[i] = row

    def level(k: int, rem: int) -> Level:  # runs of pairs[k:] placing rem copies
        for idx in range(k, len(pairs)):
            if not reach[idx] >> rem & 1:
                return
            (b, a), after = pairs[idx], reach[idx + 1]
            for m in range(rem - rem % a, 0, -a):
                left = rem - m
                if not left:
                    yield (b, m), None, True
                elif after >> left & 1:
                    yield (b, m), level(idx + 1, left), False

    return _walk_runs(n, level(0, n))


def iter_pba_by_size(
    a_seq: SequenceSpec,
    b_seq: SequenceSpec,
    max_size: int,
    max_length: int | None = None,
) -> Iterator[Partition]:
    """All members of the (A, B) divisibility family with size <= max_size
    (and, optionally, length <= max_length), including the empty partition,
    in strictly decreasing lexicographic order: the empty one comes last.
    A negative max_size or max_length raises :class:`InvalidPart`.

    A part b with A-term a occurs in multiples of a copies, so it only
    contributes when a*b <= max_size; that keeps the candidate value set
    finite for every sequence kind.  The pairs are sized as they arrive
    (:func:`_sized_list`), each one pass over max_size + 1 cells.
    """
    # A level takes the next pair, by B-value descending, that gets copies,
    # and a positive multiple of its A-term copies within both budgets, from
    # the most down.  Every prefix is a member, and the last pair opens no
    # level below it.  B-values are >= 1, so max_size also bounds the length.
    _check_n(max_size, "max_size")
    if max_length is not None:
        _check_n(max_length, "max_length")
    label = f"P_B(A) members to size {max_size}"
    pairs = _pba_value_pairs(a_seq, b_seq, max_size, lambda a, b: a * b, label)

    def level(k: int, size_left: int, len_left: int) -> Level:
        for idx in range(k, len(pairs)):
            (b, a), leaf = pairs[idx], idx + 1 == len(pairs)
            most = min(size_left // b, len_left)
            for m in range(most - most % a, 0, -a):
                below = None if leaf else level(idx + 1, size_left - m * b, len_left - m)
                yield (b, m), below, True

    top = level(0, max_size, max_size if max_length is None else max_length)
    yield from map(Partition._from_runs, _walk_runs(max_size, top, empty=True))


# ---------------------------------------------------------------------------
# exact counters (dynamic programs; the generators above are their oracles)


def _require_cells(label: str, rows: int, n: int, xtrunc: int = 0) -> None:
    """Refuse a negative bound (:class:`InvalidExponent`), and `rows`
    passes (at least one) over xtrunc + 1 rows of n + 1 cells that would
    exceed DEFAULT_ITEM_CAP cells.  Every table and grid is checked so
    before it is allocated, so time and memory follow the input text."""
    if xtrunc < 0 or n < 0:
        raise InvalidExponent(f"truncation bounds ({xtrunc}, {n}) must be >= 0")
    cells = max(rows, 1) * (xtrunc + 1) * (n + 1)
    if cells > DEFAULT_ITEM_CAP:
        raise ResourceBound(
            f"{label} needs a table of {cells} cells, more than the cap of "
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


def sna_weight_sums(
    a_seq: SequenceSpec, n: int, weight: Callable[[int], Any], label: str
) -> list:
    """Entry v (0 <= v <= n) sums, over the partitions with largest part v
    whose successive parts are congruent modulo A (the members of S_N(A);
    A = naturals gives the sequentially congruent ones), the product over
    i of weight(i) raised to (lambda_i - lambda_{i+1}) / a_i.  With weight
    1 it counts them.

    With f = weight, W(i, v) weighs the completions at depth i with current
    part v: stop when a_i | v, with weight f(i)^(v/a_i), or go on to a part
    c = v (mod a_i) with a_{i+1} <= c <= v, with weight f(i)^((v-c)/a_i).
    So W(i, v) = [a_i | v] f(i)^(v/a_i) + T(i, v), where T(i, v) =
    W(i+1, v) + f(i) T(i, v - a_i) for v >= a_{i+1} and T(i, v) = 0 below.
    Rows roll from D, the first index with a_D >= n (no continuation
    there), down to 1 in O(n) memory, and row 1 answers every largest part
    at once.  `weight` is called once per i, from D down to 1, so a weight
    table shorter than D raises from its own lookup.  A must increase
    strictly; a table that never reaches n raises :class:`ExtentExceeded`.
    A table of more than DEFAULT_ITEM_CAP cells is refused under `label`.
    """
    _require_strictly_increasing(a_seq)
    _require_cells(label, 1, n)
    if n == 0:  # no rows: the empty partition alone
        return [1]
    depth = a_seq.first_at_least(n)
    _require_cells(label, depth, n)
    w = [1] + [0] * n  # W(i+1, v) before row i, W(i, v) after; zero for 0 < v < a_{i+1}
    t = [0] * (n + 1)  # T(i, v); zero below a_{i+1}
    floor = n + 1  # a_{D+1} > n
    for i in range(depth, 0, -1):
        a, f = a_seq.at(i), weight(i)
        for v in range(floor, n + 1):
            t[v] = w[v] + f * t[v - a]
            w[v] = t[v]
        stop = 1
        for v in range(a, n + 1, a):
            stop *= f
            w[v] += stop
        floor = a
    return w


def step_bounded_counts(n: int) -> list[int]:
    """Entry v (0 <= v <= n) counts the sequentially congruent partitions
    with largest part v whose steps lambda_i - lambda_{i+1} are all 0 or i.

    The rows of :func:`sna_weight_sums` for A = naturals, with transitions only to
    c in {v, v-i} and a stop only at v = i:
    W(i, v) = [v = i] + [v > i] W(i+1, v) + [v-i > i] W(i+1, v-i).
    """
    _require_cells(f"step-lg:{n}", n, n)
    w = [1] + [0] * n  # W(i+1, v) before row i, W(i, v) after; zero for 0 < v <= i
    for i in range(n, 0, -1):
        for v in range(n, 2 * i, -1):  # descending, so w[v - i] is still row i+1
            w[v] += w[v - i]
        w[i] = 1
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
    of the coin-change and knapsack counters.

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
        from fractions import Fraction

        for row in grid:
            for q, s in enumerate(scales):
                if s != 1:
                    row[q] = _exact(Fraction(row[q], s))
    return grid


def _coin_change(label: str, coins: Iterable[int], n: int) -> list[int]:
    """Entry v (0 <= v <= n) counts the ways to write v as a sum of one
    multiple of each coin; equal coins count as different coins."""
    coins = [c for c in coins if c <= n]
    return _dense_product(label, len(coins), ((1, 0, c) for c in coins), 0, n)[0]


def _count_distinct(desc: FamilyDescriptor) -> int:
    """0/1 knapsack over the parts 1..n: the kernel's product of 1 + q^k."""
    n = desc.n
    parts = ((1, 0, k) for k in range(1, n + 1))
    return _dense_product(desc.describe(), n, parts, 0, n, linear=True)[0][n]


def _count_pba_len(desc: FamilyDescriptor) -> int:
    """Coin change over the A-terms of the same (B-value, A-term) pairs the
    enumerator uses: each B-value takes a multiple of its A-term copies."""
    label, n = desc.describe(), desc.n
    pairs = _pba_value_pairs(desc.a_seq, desc.b_seq, n, lambda a, b: a, label)
    return _coin_change(label, [a for _, a in pairs], n)[n]


# ---------------------------------------------------------------------------
# public enumeration and counting API


# kind -> (run walker, exact counter), both given the descriptor
_KINDS = {
    "all": (
        lambda d: _gen_by_size(d.n, False),
        lambda d: _pentagonal_counts(d.describe(), d.n)[d.n],
    ),
    "parts-in": (
        lambda d: _gen_parts_in(d.part_set, d.n),
        lambda d: _coin_change(d.describe(), d.part_set, d.n)[d.n],
    ),
    "distinct": (lambda d: _gen_by_size(d.n, True), _count_distinct),
    "seqcong-lg": (
        lambda d: _gen_seqcong_lg(d.n),
        lambda d: sna_weight_sums(NATURALS, d.n, lambda i: 1, d.describe())[d.n],
    ),
    "step-lg": (lambda d: _gen_step_lg(d.n), lambda d: step_bounded_counts(d.n)[d.n]),
    "sna-lg": (
        lambda d: _gen_sna_lg(d.a_seq, d.n),
        lambda d: sna_weight_sums(d.a_seq, d.n, lambda i: 1, d.describe())[d.n],
    ),
    "pba-len": (_gen_pba_len, _count_pba_len),
}


def _kind(desc: FamilyDescriptor):
    try:
        return _KINDS[desc.kind]
    except KeyError:
        raise ValueError(f"unknown family kind {desc.kind!r}") from None


def enumerate_family(
    desc: FamilyDescriptor, max_items: int | None = None
) -> Iterator[Partition]:
    """Yield every member of the family once, in strictly decreasing
    lexicographic order on the parts sequence, built from runs."""
    cap = DEFAULT_ITEM_CAP if max_items is None else max_items
    produced = 0
    generate, _ = _kind(desc)
    for runs in generate(desc):
        produced += 1
        if produced > cap:
            raise ResourceBound(
                f"enumeration of {desc.describe()} exceeded the cap of {cap} items"
            )
        yield Partition._from_runs(runs)


def count(desc: FamilyDescriptor) -> int:
    """Number of members; by contract the length of :func:`enumerate_family`.

    Computed by the kind's dynamic program, never by enumerating; the
    enumerators are the oracles the tests hold these counts to.  Nothing is
    built per member, so no count is capped; a count whose table would
    exceed DEFAULT_ITEM_CAP cells raises :class:`ResourceBound` before the
    table is allocated.
    """
    return _kind(desc)[1](desc)


def partitions_of(n: int) -> Iterator[Partition]:
    """Convenience iterator over all partitions of n (decreasing lex)."""
    return enumerate_family(all_of_size(n))


def partition_count(n: int) -> int:
    """p(n), by Euler's pentagonal-number recurrence (the counter of the
    ``all`` kind).  It shares nothing with the row recursion behind
    ``count(seqcong_largest(n))``, so comparing the two is a genuine check."""
    return count(all_of_size(n))


def counts_by_size(membership: Membership, bound: int) -> list[int]:
    """Entry n is the number of partitions of n satisfying `membership`,
    for 0 <= n <= bound (the empty partition counts at n = 0).  More than
    DEFAULT_ITEM_CAP partitions in all, totalled first, raise
    :class:`ResourceBound` before any is built: bound 62 fits, 63 does not.
    A bound below 0 raises :class:`InvalidPart`.
    """
    _check_n(bound, "bound")
    label = f"counts by size to {bound}"
    _require_members(label, _pentagonal_counts(label, bound))
    return [
        sum(1 for p in partitions_of(n) if membership(p)) for n in range(bound + 1)
    ]


class EquivalenceReport(Value):
    """`equivalent`, the `first_difference` size (None if none) and the counts
    by size, `counts_first` and `counts_second`; no field has a default."""

    __slots__ = _fields = __match_args__ = (
        "equivalent", "first_difference", "counts_first", "counts_second",
    )
    _required = 4


def ideal_equivalent_upto(
    first: Membership, second: Membership, bound: int
) -> EquivalenceReport:
    """Compare size-n member counts of two families for all n <= bound."""
    c1 = counts_by_size(first, bound)
    c2 = counts_by_size(second, bound)
    for n, (x, y) in enumerate(zip(c1, c2)):
        if x != y:
            return EquivalenceReport(False, n, tuple(c1), tuple(c2))
    return EquivalenceReport(True, None, tuple(c1), tuple(c2))


def check_ideal_closure(membership: Membership, bound: int) -> ViolationReport:
    """Verify closure under deleting a single part, over members of size
    <= bound.  Closure under single deletions gives closure under arbitrary
    ones by induction, so this check is complete.

    On failure the report's index is the deleted part and the detail names
    the witness member.  Partitions are totalled first, as in
    :func:`counts_by_size`.  A bound below 0 raises :class:`InvalidPart`.
    """
    _check_n(bound, "bound")
    label = f"ideal closure to size {bound}"
    _require_members(label, _pentagonal_counts(label, bound)[1:])
    for n in range(1, bound + 1):
        for p in partitions_of(n):
            if not membership(p):
                continue
            for value, _ in reversed(p.runs):
                reduced = p.delete_parts(value, 1)
                if not membership(reduced):
                    return ViolationReport(
                        False,
                        value,
                        f"deleting one copy of {value} from {list(p.parts)} "
                        f"leaves {list(reduced.parts)}, which is outside the family",
                    )
    return ViolationReport(True, None, "closed under single-part deletion")


def scaled_deletion(
    lam: Partition,
    a_seq: SequenceSpec,
    b_seq: SequenceSpec,
    value: int,
    copies: int,
) -> Partition:
    """Delete `copies` copies of `value`, where `copies` must be a positive
    multiple of the A-term at the value's B-position.  Any other request is
    outside the quasi-ideal contract and raises :class:`InvalidDeletion`."""
    pos = b_seq.index_of(value)
    if pos is None:
        raise InvalidDeletion(f"value {value} is not a term of B ({b_seq.describe()})")
    a = a_seq.at(pos)
    if copies < 1 or copies % a:
        raise InvalidDeletion(
            f"may only delete positive multiples of {a} copies of {value}, "
            f"not {copies}"
        )
    return lam.delete_parts(value, copies)


def check_quasi_ideal(
    a_seq: SequenceSpec, b_seq: SequenceSpec, bound: int
) -> ViolationReport:
    """Verify that deleting any allowed multiple of copies of any part keeps
    membership in the (A, B) divisibility family, over members of size
    <= bound.  Every member of size <= bound is walked, so deleting one
    block of a copies (a the part's A-term) from each gives every multiple
    by induction, and the check is complete.  More than DEFAULT_ITEM_CAP
    members, totalled first by coin change over the products a b of the
    pairs, raise :class:`ResourceBound` before any is built.  A bound below
    0 raises :class:`InvalidPart`."""
    _check_n(bound, "bound")
    label = f"quasi-ideal check to size {bound}"
    products = [a * b for b, a in _pba_value_pairs(a_seq, b_seq, bound, lambda a, b: a * b, label)]
    _require_members(label, _coin_change(label, products, bound))
    for p in iter_pba_by_size(a_seq, b_seq, bound):
        for value, _ in reversed(p.runs):  # a member holds a positive multiple of a copies
            a = a_seq.at(b_seq.index_of(value))
            reduced = scaled_deletion(p, a_seq, b_seq, value, a)
            if not is_member_pba(reduced, a_seq, b_seq).ok:
                return ViolationReport(
                    False,
                    value,
                    f"deleting {a} copies of {value} from {list(p.parts)} "
                    f"leaves {list(reduced.parts)}, which is outside the family",
                )
    return ViolationReport(True, None, "closed under scaled deletions")


def restricted_count(a_seq: SequenceSpec, n: int) -> int:
    """Number of partitions of n with all parts among the terms of A."""
    values = a_seq.values_upto(n)
    if n == 0:
        return 1
    if not values:
        return 0
    return count(parts_in(values, n))


class InvarianceReport(Value):
    """`ok`, a `detail`, the first size `sets_differ_at` at which permuting A
    changes the family as a set (None if none) and the `counts` by size; no
    field has a default."""

    __slots__ = _fields = __match_args__ = ("ok", "detail", "sets_differ_at", "counts")
    _required = 4


def count_invariance_suite(
    a_seq: SequenceSpec,
    b_seq: SequenceSpec,
    bound: int,
    a_prime: SequenceSpec | None = None,
    b_prime: SequenceSpec | None = None,
) -> InvarianceReport:
    """Check, for every n <= bound, that the family count is unchanged by
    permuting A and by replacing B, and equals the count of partitions of n
    with parts in A.

    `a_prime` defaults to the reversed table of A; `b_prime` defaults to
    the rule naturals, one term per term of B.  A, B and `b_prime` must
    have distinct terms, otherwise :class:`NonDistinctA` is raised.  The
    report also records the first n at which the A-permuted family differs
    as a set, which it must somewhere when the permutation is nontrivial.

    The families with A and with `a_prime` are walked member by member, the
    independent side of every comparison.  Their members, totalled first by
    coin change over their pairs' A-terms, raise :class:`ResourceBound`
    past DEFAULT_ITEM_CAP before any is built.  The counts with `b_prime`,
    and of the partitions with parts in A, are one coin change each.  A
    bound below 0 raises :class:`InvalidPart`.
    """
    _check_n(bound, "bound")
    probe = max(bound, a_seq.extent or 0)
    if not a_seq.is_distinct_through(probe):
        raise NonDistinctA(f"A ({a_seq.describe()}) must have distinct terms")
    if a_prime is None:
        if a_seq.extent is None:
            raise InvalidPart("a_prime is required when A is not an explicit table")
        a_prime = SequenceSpec.table(tuple(reversed(a_seq.terms)))
    if a_seq.extent is not None and a_prime.extent is not None:
        if sorted(a_seq.terms) != sorted(a_prime.terms):
            raise InvalidPart(
                f"a_prime ({a_prime.describe()}) is not a permutation of A "
                f"({a_seq.describe()})"
            )
    if b_prime is None:
        b_prime = NATURALS
    for name, seq in (("B", b_seq), ("b_prime", b_prime)):
        if not seq.is_distinct_through(max(bound, seq.extent or 0)):
            raise NonDistinctA(f"{name} ({seq.describe()}) must have distinct terms")
    label = f"count invariance to size {bound}"

    def coin_counts(a: SequenceSpec, b: SequenceSpec) -> list[int]:  # by length, to bound
        pairs = _pba_value_pairs(a, b, bound, lambda a, b: a, label)
        return _coin_change(label, [t for _, t in pairs], bound)

    walked = coin_counts(a_seq, b_seq) + coin_counts(a_prime, b_seq)
    _require_members(label, walked)
    replaced = coin_counts(a_seq, b_prime)
    expected = _coin_change(label, _sized_list(label, a_seq.values_upto(bound), bound), bound)

    counts: list[int] = []
    differs_at: Optional[int] = None
    for n in range(bound + 1):
        base = sorted(p.runs for p in enumerate_family(pba_length(a_seq, b_seq, n)))
        permuted = sorted(p.runs for p in enumerate_family(pba_length(a_prime, b_seq, n)))
        counts.append(len(base))
        if len(base) != len(permuted):
            failure = f"permuting A changed the count {len(base)} -> {len(permuted)}"
        elif len(base) != replaced[n]:
            failure = f"replacing B changed the count {len(base)} -> {replaced[n]}"
        elif len(base) != expected[n]:
            failure = (
                f"family count {len(base)} differs from the {expected[n]} partitions with parts in A"
            )
        else:
            failure = None
        if failure:
            return InvarianceReport(False, f"n={n}: {failure}", differs_at, tuple(counts))
        if differs_at is None and base != permuted:
            differs_at = n
    return InvarianceReport(
        True, "counts invariant under permuting A and replacing B", differs_at, tuple(counts)
    )
