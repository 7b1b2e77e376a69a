"""The run walkers: the members of each family as tuples of (value,
multiplicity) runs, in strictly decreasing lexicographic order on the parts.
A level of every walker picks one run, so a member costs time in its
distinct parts, not its parts.

Three walkers own every walk over a family's positions: the multiplicity
rules by size or length (``_gen_rule``), P_B(A) by size
(``_gen_pba_by_size``), and the largest-part families by the rule (A, cap)
of their successive differences (``_gen_sna_lg``): ``seqcong-lg`` is
(naturals, no cap), ``step-lg`` (naturals, cap) and ``sna-lg`` (A, no
cap).  The last builds members directly from the congruence conditions,
as a DFS from the fixed largest part; it deliberately does not reuse the
dual map, so that counting agreement with the plain enumerator is a
genuine check.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate, repeat
from typing import Iterable, Iterator, Optional

from ._counters import _require_strictly_increasing
from .errors import DEFAULT_ITEM_CAP
from .sequences import SequenceSpec


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
    push_run, push_stop, push_level = runs.append, stops.append, stack.append
    while stack:
        for run, below, stop in stack[-1]:
            if below is None:
                yield (*runs, run)
                continue
            push_run(run)
            push_stop(stop)
            push_level(below)
            break
        else:  # choices exhausted: close the level and the prefix it extends
            stack.pop()
            if stops.pop():
                yield tuple(runs)
            if runs:
                runs.pop()


def _gen_rule(
    values, steps, n: int, cap: bool = False, length: bool = False
) -> Iterator[tuple[Run, ...]]:
    """The members of a multiplicity rule that place exactly n (their size,
    or their length when `length`) over the values and steps of
    ``_counters._allowed``: a value takes a positive multiple of its step
    (1 when None) copies.  A level takes the next value down and its copies
    from the most down, so members are strictly decreasing, and offers a
    choice only when the values below can place what it leaves.  1, 2, ...
    (values None, on size) place any rest, and under the cap, one copy
    each (`distinct`), at most v (v + 1) / 2; a table's reach is read from
    the rows of :func:`_reach`, and the smallest value takes the rest or
    nothing."""
    if values is None:

        def level(top: int, rem: int) -> Level:  # runs of parts <= top summing to rem
            for v in range(min(top, rem), 0, -1):
                if cap and 2 * rem > v * (v + 1):
                    return
                for m in (1,) if cap else (rem,) if v == 1 else range(rem // v, 0, -1):
                    left = rem - v * m
                    yield ((v, m), level(v - 1, left), False) if left else ((v, m), None, True)

        return _walk_runs(n, level(n, n))
    rows, mods = _reach(values, steps, n, length)

    def level(k: int, rem: int) -> Level:  # runs of values[:k] placing rem
        for idx in range((k if length else bisect_right(values, rem, 0, k)) - 1, -1, -1):
            if not rows[idx + 1] >> rem % mods[idx + 1] & 1:  # nor can fewer values
                return
            v, a = values[idx], 1 if steps is None else steps[idx]
            cost = 1 if length else v
            if not idx:  # the smallest value takes the rest or nothing
                if rem % cost == 0 and rem // cost % a == 0:
                    yield (v, rem // cost), None, True
                return
            for m in range(rem // (a * cost) * a, 0, -a):
                left = rem - m * cost
                if not left:
                    yield (v, m), None, True
                elif rows[idx] >> left % mods[idx] & 1:
                    yield (v, m), level(idx, left), False

    return _walk_runs(n, level(len(values), n))


def _reach(values: list[int], steps, n: int, length: bool) -> tuple[list[int], list]:
    """(rows, mods): bit rem % mods[k] of rows[k] says whether the first k
    values of :func:`_gen_rule` can place exactly rem.  A row holds n + 1
    bits, one per rem, while the rows fit DEFAULT_ITEM_CAP cells; past it
    row k is 1 and mods[k] the gcd of the first k blocks, which divides
    every rem they place: an odd n of any size lists nothing over even
    values, at once."""
    blocks = [a if length else a * v for v, a in zip(values, steps or repeat(1))]
    if blocks[:1] == [1] or (len(blocks) + 1) * (n + 1) > DEFAULT_ITEM_CAP:  # a block of 1 places any rem
        gcds = [*accumulate(blocks, math.gcd, initial=0)]
        return [1] * len(gcds), gcds
    rows, full = [1], (1 << (n + 1)) - 1
    for block in blocks:
        row = rows[-1]
        while block <= n:  # row |= row << k*block for every k >= 1, by doubling
            row |= (row << block) & full
            block *= 2
        rows.append(row)
    return rows, [n + 1] * len(rows)


def _gen_sna_lg(a_seq: SequenceSpec, n: int, cap: bool = False) -> Iterator[tuple[Run, ...]]:
    # S_N(A) with largest part n: a level picks the index j at which a run
    # of c from index i ends; only the step at j can break the rule, so the
    # run stops there if c = a_j e and goes on with c - a_j e >= a_{j+1}.
    # More copies of c come first, then the continuations descending, then
    # the stop.  Part r is at least a_r, so strictly increasing terms bound
    # the length.  As c >= a_i, the last end is k, the first with a_k >= c,
    # a stop if a_k = c.  Of the ends with a_j >= c/2, which cannot go on,
    # only the first, half, can stop, at e = 2.  Each end j < half goes on
    # with c - a_j, and without the cap also with every smaller c' = c (mod
    # a_j) down to a_{j+1}, and stops where a_j | c.
    _require_strictly_increasing(a_seq)
    first_at_least = a_seq.first_at_least
    terms = a_seq.values_upto(a_seq.at(first_at_least(n))) if n else ()  # a_j is terms[j - 1]

    def level(i: int, a_i: int, values: Iterable[int]) -> Level:
        for c in values:
            k = first_at_least(c)
            if terms[k - 1] == c:
                yield (c, k - i + 1), None, True
            if 2 * a_i >= c:  # half is i: no end continues
                if not cap and 2 * a_i == c:
                    yield (c, 1), None, True
                continue
            half = first_at_least((c + 1) // 2)
            a_next = terms[half - 1]
            if not cap and 2 * a_next == c:
                yield (c, half - i + 1), None, True
            for j in range(half - 1, i - 1, -1):
                a_j = terms[j - 1]
                if cap:
                    if c - a_j >= a_next:
                        yield (c, j - i + 1), level(j + 1, a_next, (c - a_j,)), False
                else:
                    nxt = range(c - a_j, a_next - 1, -a_j)
                    if nxt:
                        yield (c, j - i + 1), level(j + 1, a_next, nxt), c % a_j == 0
                    elif c % a_j == 0:
                        yield (c, j - i + 1), None, True
                a_next = a_j

    return _walk_runs(n, level(1, terms[0], (n,)) if n else None)


def _gen_pba_by_size(
    values: list[int], steps: list[int], max_size: int, max_length: int
) -> Iterator[tuple[Run, ...]]:
    # The pairs of _counters._allowed, B-values ascending.  Unlike
    # _gen_rule, both budgets are upper bounds and every prefix is a member:
    # a level takes the next pair down that gets copies, and a positive
    # multiple of its A-term copies within both budgets, from the most
    # down.  B-values are >= 1, so max_size also bounds the length.
    def level(k: int, size_left: int, len_left: int) -> Level:
        for idx in range(k - 1, -1, -1):
            b, a = values[idx], steps[idx]
            most = min(size_left // b, len_left)
            for m in range(most - most % a, 0, -a):
                below = level(idx, size_left - m * b, len_left - m) if idx else None
                yield (b, m), below, True

    return _walk_runs(max_size, level(len(values), max_size, max_length), empty=True)
