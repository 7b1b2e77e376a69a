"""The run walkers: the members of each family as tuples of (value,
multiplicity) runs, in strictly decreasing lexicographic order on the parts.
A level of every walker picks one run, so a member costs time in its
distinct parts, not its parts.

The sequentially congruent walker builds members directly from the
congruence conditions (right-to-left residue choices, realized as a DFS
from the fixed largest part); it deliberately does not reuse the dual map,
so that counting agreement with the plain enumerator is a genuine check.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import Iterable, Iterator, Optional

from ._counters import _require_strictly_increasing
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


def _gen_pba_len(pairs: list[tuple[int, int]], n: int) -> Iterator[tuple[Run, ...]]:
    # A level takes the next pair, by B-value descending, that gets copies,
    # and a positive multiple of its A-term copies (none past n), from the
    # most down.  Larger values and more copies of them come first, so
    # members are strictly decreasing.  Bit r of reach[i] says whether
    # pairs[i:] can place r copies, so only choices that lead to a member
    # are taken and the work before each member is at most one per pair.
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


def _gen_pba_by_size(
    pairs: list[tuple[int, int]], max_size: int, max_length: int
) -> Iterator[tuple[Run, ...]]:
    # A level takes the next pair, by B-value descending, that gets copies,
    # and a positive multiple of its A-term copies within both budgets, from
    # the most down.  Every prefix is a member, and the last pair opens no
    # level below it.  B-values are >= 1, so max_size also bounds the length.
    def level(k: int, size_left: int, len_left: int) -> Level:
        for idx in range(k, len(pairs)):
            (b, a), leaf = pairs[idx], idx + 1 == len(pairs)
            most = min(size_left // b, len_left)
            for m in range(most - most % a, 0, -a):
                below = None if leaf else level(idx + 1, size_left - m * b, len_left - m)
                yield (b, m), below, True

    return _walk_runs(max_size, level(0, max_size, max_length), empty=True)
