"""Deterministic run walkers and exact counters for every partition family
in the package, plus the finite-truncation ideal checks.

Enumeration order for every family is strictly decreasing lexicographic on
the parts sequence, and two runs produce identical streams.  A configurable
item cap (default 10**7) turns runaway requests into a clean
:class:`ResourceBound` error.

A level of every walker picks one (value, multiplicity) run, so a member
costs time in its distinct parts, not its parts, and becomes a
:class:`Partition` as the runs it was built from.

Counts never enumerate: :func:`count` runs a dynamic program of
``_counters`` for each kind (row recursions, Euler's pentagonal numbers, the
product kernel), and the walkers stay as the oracles the tests hold them to.

The sequentially congruent walker builds members directly from the
congruence conditions (right-to-left residue choices, realized as a DFS
from the fixed largest part); it deliberately does not reuse the dual map,
so that counting agreement with the plain enumerator is a genuine check.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import Callable, Iterable, Iterator, Optional

from ._counters import (
    _coin_change, _dense_product, _pba_value_pairs, _pentagonal_counts, _require_members,
    _require_strictly_increasing, _sized_list, sna_weight_sums, step_bounded_counts,
)
from ._values import Value
from .errors import DEFAULT_ITEM_CAP, InvalidDeletion, InvalidPart, NonDistinctA, ResourceBound
from .partition import Partition
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
