"""Descriptors, enumeration and exact counts for every partition family
in the package, plus the finite-truncation ideal checks.

Seven families are fixed by one condition per part value j: j occurs m_j
times, m_j in M_j (``_values.MultiplicityRule``, Andrews, *The Theory of
Partitions*, ch. 8).  The x^m q^n coefficient of the product over j of
the sum over m in M_j of x^m q^(j m) counts their members of length m
and size n:

    all       M_j = ℕ                      Π_j 1 / (1 - x q^j)
    empty     M_j = {0}                    1
    oddparts  M_j = ℕ for odd j, else {0}  Π_{j odd} 1 / (1 - x q^j)
    distinct  M_j = {0, 1}                 Π_j (1 + x q^j)
    parts:T   M_j = ℕ for j in T, else {0} Π_{j in T} 1 / (1 - x q^j)
    freqcong  M_j = j·ℕ                    Π_j 1 / (1 - x^j q^(j^2))
    pba       M_{b_i} = a_i·ℕ              Π_i 1 / (1 - x^(a_i) q^(a_i b_i))

(for pba over each B-value at its first position).  The first five are
partition ideals of order 1, each M_j closed under removing one copy;
freqcong and pba are only quasi-ideals, closed under removing a_j copies,
so ``ideal closure freqcong`` exits 1.  One rule checks (``predicates``),
counts (``_counters._rule_row``, a geometric or linear factor per value)
and walks (``_walkers._gen_rule``) them; ``all`` is counted by Euler's
pentagonal numbers, the independent side of the ``seqcong-lg`` checks.

Three families are fixed by their successive differences, the paper's
S_N(A): lambda_i - lambda_{i+1} = a_i e_i, with lambda_{r+1} = 0, e_r >= 1
and e_i in E_i.  So lambda_1 is the sum of a_k e_k, and the x^n
coefficient of the product over k of the sum over e in E_k of x^(a_k e)
counts their members of largest part n:

    seqcong-lg  a_i = i             E_i = ℕ       Π_k 1 / (1 - x^k)
    step-lg     a_i = i             E_i = {0, 1}  Π_k (1 + x^k)
    sna-lg:A    a_i the i-th of A   E_i = ℕ       Π_k 1 / (1 - x^(a_k))

So they have p(n), q(n) and as many members as the partitions of n into
terms of A.  One rule (A, cap) (``_values.StepRule``), the cap making
each E_i {0, 1}, checks
(``predicates._first_step_break``), counts (``_counters.sna_weight_sums``,
a geometric or linear row per index) and walks (``_walkers._gen_sna_lg``)
them; A must increase strictly.

``_values.FAMILIES`` names each family once: the keys of its text, its
rule, its listings and its check.  :func:`enumerate_family` and
:func:`count` take a descriptor's rule from there and branch on its class.

Enumeration order is strictly decreasing lexicographic on the parts, and
two runs produce identical streams; an item cap (default 10**7) turns
runaway requests into :class:`ResourceBound`.  Members are built as the
runs the walkers of ``_walkers`` give.  Counts never enumerate, and the
walkers stay as the oracles the tests hold them to.  The walkers,
``partition`` and ``predicates`` are imported by the calls that build
members or reports, so a count compiles none of them.
"""

from __future__ import annotations

import sys
from itertools import islice
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional

from ._counters import (
    _allowed, _pentagonal_counts, _require_members, _rule_row, sna_weight_sums,
)
from ._values import FAMILIES, MultiplicityRule, StepRule, Value
from .errors import (
    DEFAULT_ITEM_CAP, InvalidDeletion, InvalidPart, NonDistinctA, ResourceBound, _shown, _written,
)
from .sequences import NATURALS, SequenceSpec

if TYPE_CHECKING:
    from .partition import Partition
    from .predicates import ViolationReport

Membership = Callable[["Partition"], bool]  # or a check: a ViolationReport is truthy when ok


class FamilyDescriptor(Value):
    """A named finite family of partitions: `kind` and `n`, required, and
    `part_set`, `a_seq` and `b_seq`, None unless the kind reads them.

    The kinds are the listings of ``_values.FAMILIES``: ``all``,
    ``parts-in`` and ``distinct`` (size n), ``pba-len`` (length n), and
    ``seqcong-lg``, ``step-lg`` and ``sna-lg`` (largest part n); the module
    docstring gives each one's rule and generating function.
    """

    __slots__ = _fields = __match_args__ = ("kind", "n", "part_set", "a_seq", "b_seq")
    _required = 2

    def describe(self) -> str:
        bits = [self.kind, _shown(self.n)]
        if self.part_set is not None:
            bits.append("T=" + ",".join(map(_written, self.part_set)))
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
        raise InvalidPart(f"part set must contain positive integers, got {_shown(t)}")
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
        raise InvalidPart(f"{name} must be >= 0, got {_shown(n)}")
    return n


def iter_pba_by_size(
    a_seq: SequenceSpec,
    b_seq: SequenceSpec,
    max_size: int,
    max_length: int | None = None,
) -> Iterator[Partition]:
    """All members of the (A, B) divisibility family with size <= max_size
    (and, optionally, length <= max_length), in strictly decreasing
    lexicographic order, the empty one last.  A negative max_size or
    max_length raises :class:`InvalidPart`.  Only a part b whose A-term a
    has a b <= max_size can occur, and the pairs are sized as they arrive,
    each one pass over max_size + 1 cells."""
    from ._walkers import _gen_pba_by_size
    from .partition import Partition

    _check_n(max_size, "max_size")
    if max_length is not None:
        _check_n(max_length, "max_length")
    label = f"P_B(A) members to size {_shown(max_size)}"
    values, steps = _allowed(FAMILIES["pba"].rule(a_seq, b_seq), max_size, False, label)
    runs = _gen_pba_by_size(values, steps, max_size, max_size if max_length is None else max_length)
    yield from map(Partition._from_runs, runs)


# ---------------------------------------------------------------------------
# public enumeration and counting API


# descriptor kind -> the keys of its family's text and its rule, one per listing
_LISTED = {kind: (keys, rule) for keys, rule, listings, _ in FAMILIES.values() for _, kind in listings.values()}


def _rule_of(desc: FamilyDescriptor) -> tuple:
    """The rule of the descriptor's family, from the fields its keys name,
    and whether n is the members' length (a kind ending in -len)."""
    if desc.kind not in _LISTED:
        raise ValueError(f"unknown family kind {desc.kind!r}")
    keys, rule = _LISTED[desc.kind]
    fields = {"T": desc.part_set, "A": desc.a_seq, "B": desc.b_seq}
    if any(fields[key] is None for key in keys):  # a StepRule's terms of None would read as 1, 2, ...
        raise ValueError(f"family kind {desc.kind!r} needs {' and '.join(keys)}")
    return rule(*[fields[key] for key in keys]), desc.kind.endswith("-len")


def enumerate_family(
    desc: FamilyDescriptor, max_items: int | None = None
) -> Iterator[Partition]:
    """Yield every member of the family once, in strictly decreasing
    lexicographic order on the parts sequence, built from runs."""
    from ._walkers import _gen_rule, _gen_sna_lg
    from .partition import Partition

    cap = DEFAULT_ITEM_CAP if max_items is None else max_items
    (rule, length), n = _rule_of(desc), desc.n
    if rule.__class__ is StepRule:
        members = _gen_sna_lg(rule.terms or NATURALS, n, rule.cap)
    else:
        members = _gen_rule(*_allowed(rule, n, length, desc.describe()), n, rule.cap, length)
    yield from map(Partition._from_runs, islice(members, max(min(cap, sys.maxsize), 0)))  # islice takes 0..maxsize
    if next(members, None) is not None:  # one member past the cap
        raise ResourceBound(f"enumeration of {desc.describe()} exceeded the cap of {cap} items")


def count(desc: FamilyDescriptor) -> int:
    """Number of members; by contract the length of :func:`enumerate_family`.
    Computed by the kind's dynamic program, never by enumerating, so no
    count is capped; a count whose table would exceed DEFAULT_ITEM_CAP
    cells raises :class:`ResourceBound` before the table is allocated.
    ``all`` is counted by Euler's pentagonal numbers, which reach sizes
    whose product of n factors over n + 1 cells would pass the cell cap."""
    (rule, length), n, label = _rule_of(desc), desc.n, desc.describe()
    if rule.__class__ is StepRule:
        return sna_weight_sums(rule.terms or NATURALS, n, lambda i: 1, label, rule.cap)[n]
    if rule == FAMILIES["all"].rule():
        return _pentagonal_counts(label, n)[n]
    return _rule_row(rule, n, label, length)[n]


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
    label = f"counts by size to {_shown(bound)}"
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
    c1, c2 = counts_by_size(first, bound), counts_by_size(second, bound)
    differ = next((n for n, (x, y) in enumerate(zip(c1, c2)) if x != y), None)
    return EquivalenceReport(differ is None, differ, tuple(c1), tuple(c2))


def check_ideal_closure(membership: Membership, bound: int) -> ViolationReport:
    """Verify closure under deleting a single part, over members of size
    <= bound.  Closure under single deletions gives closure under arbitrary
    ones by induction, so this check is complete.

    On failure the report's index is the deleted part and the detail names
    the witness member.  Partitions are totalled first, as in
    :func:`counts_by_size`.  A bound below 0 raises :class:`InvalidPart`.
    """
    _check_n(bound, "bound")
    label = f"ideal closure to size {_shown(bound)}"
    _require_members(label, _pentagonal_counts(label, bound)[1:])
    members = (p for n in range(1, bound + 1) for p in partitions_of(n) if membership(p))
    return _first_bad_deletion(members, membership, None, "closed under single-part deletion")


def _first_bad_deletion(members: Iterable[Partition], membership: Membership, copies: Optional[dict],
                        passed: str) -> ViolationReport:
    """The first of `members`, in order, from which deleting one block of
    a part, the smallest part first, leaves a partition outside the family,
    as a failing report indexed by that part; a block is copies[part]
    copies, or one when `copies` is None.  A passing report of `passed`
    when there is none."""
    from .predicates import ViolationReport

    for p in members:
        for value, _ in reversed(p.runs):
            block = 1 if copies is None else copies[value]
            reduced = p.delete_parts(value, block)
            if not membership(reduced):
                deleted = "one copy" if copies is None else f"{block} copies"
                return ViolationReport(False, value, f"deleting {deleted} of {value} from {list(p.parts)} "
                                       f"leaves {list(reduced.parts)}, which is outside the family")
    return ViolationReport(True, None, passed)


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
        raise InvalidDeletion(f"value {_shown(value)} is not a term of B ({b_seq.describe()})")
    ext = a_seq.extent
    if ext is not None and pos > ext:
        raise InvalidDeletion(
            f"value {_shown(value)} is at B position {_shown(pos)}, past the {ext} terms of A"
        )
    a = a_seq.at(pos)
    if copies < 1 or copies % a:
        raise InvalidDeletion(
            f"may only delete positive multiples of {a} copies of {_shown(value)}, "
            f"not {_shown(copies)}"
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
    members, totalled first by the rule's row over the pairs they are walked
    on, raise :class:`ResourceBound` before any is built.  A bound below 0
    raises :class:`InvalidPart`."""
    from ._walkers import _gen_pba_by_size
    from .partition import Partition
    from .predicates import is_member_pba

    _check_n(bound, "bound")
    label = f"quasi-ideal check to size {_shown(bound)}"
    rule = FAMILIES["pba"].rule(a_seq, b_seq)
    values, steps = table = _allowed(rule, bound, False, label)
    _require_members(label, _rule_row(rule, bound, label, table=table))
    # a member holds a positive multiple of each part's A-term
    members = map(Partition._from_runs, _gen_pba_by_size(values, steps, bound, bound))
    return _first_bad_deletion(members, lambda p: is_member_pba(p, a_seq, b_seq), dict(zip(values, steps)),
                               "closed under scaled deletions")


def restricted_count(a_seq: SequenceSpec, n: int) -> int:
    """Number of partitions of n with all parts among the terms of A."""
    if n < 0:  # no partition has a negative size
        return 0
    label = f"parts-in:{_shown(n)}:A={a_seq.describe()}"
    return _rule_row(MultiplicityRule(a_seq, 1, False), n, label)[n]


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
    independent side of every comparison; their members, totalled first by
    their rows by length, raise :class:`ResourceBound` past DEFAULT_ITEM_CAP
    before any is built.  The counts with `b_prime`, and of the partitions
    with parts in A, are one rule row each.  A bound below 0 raises
    :class:`InvalidPart`.
    """
    from ._walkers import _gen_rule

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
    label = f"count invariance to size {_shown(bound)}"

    def by_length(a: SequenceSpec, b: SequenceSpec) -> tuple:  # the pair table and its row
        rule = FAMILIES["pba"].rule(a, b)
        table = _allowed(rule, bound, True, label)
        return table, _rule_row(rule, bound, label, True, table)

    (table, walked), (table_prime, walked_prime) = by_length(a_seq, b_seq), by_length(a_prime, b_seq)
    _require_members(label, walked + walked_prime)
    replaced = by_length(a_seq, b_prime)[1]
    expected = _rule_row(MultiplicityRule(a_seq, 1, False), bound, label)

    counts: list[int] = []
    differs_at: Optional[int] = None
    for n in range(bound + 1):  # each list strictly decreasing, so equal lists are equal sets
        base = list(_gen_rule(*table, n, length=True))
        permuted = list(_gen_rule(*table_prime, n, length=True))
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
