"""The bijections between ordinary and sequentially congruent partitions,
their compositions, orbit traces, and the frequency-scaling bijection for
divisibility families.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ._values import Value
from .errors import (
    InternalContradiction,
    NonDistinctA,
    NotMemberPBA,
    NotSequentiallyCongruent,
    PartNotInA,
    _shown,
)
from .partition import Partition, _run_ends

# predicates is imported by the functions that check membership

if TYPE_CHECKING:
    from .sequences import SequenceSpec


def pi(lam: Partition) -> Partition:
    """Sequentially congruent dual: the i-th output part is i times the i-th
    input part plus the sum of all later parts.

    The image of a partition of n has largest part n and the same length.
    A run of value v ending at index e maps to a run of the same length and
    value e*v plus the sum of the parts after it, so the work is one step
    per run.
    """
    from .predicates import is_sequentially_congruent

    out = []
    tail = 0  # sum of the parts after the current run
    end = lam.length  # last index of the current run
    for v, m in reversed(lam.runs):
        out.append((end * v + tail, m))
        tail += v * m
        end -= m
    out.reverse()
    result = Partition._from_runs(tuple(out))
    # guaranteed by construction; a failure here is a defect, not user error
    if not (report := is_sequentially_congruent(result)).ok:
        raise InternalContradiction(f"the image under pi is not sequentially congruent: {report.detail}")
    return result


def pi_inverse(phi: Partition) -> Partition:
    """Invert :func:`pi` by working right to left: the smallest part divided
    by the length, then each earlier part minus the recovered tail, divided
    by its index.

    Raises :class:`NotSequentiallyCongruent` when the input is not in the
    domain; any inexact division or ordering failure afterwards would mean a
    library defect and raises :class:`InternalContradiction`.  Inside a run
    ending at index e every index recovers the same part (c - tail) / e, so
    the division is made once per run.
    """
    from .predicates import is_sequentially_congruent

    if not (report := is_sequentially_congruent(phi)).ok:
        raise NotSequentiallyCongruent(report)
    out = []
    tail = 0  # sum of the recovered parts after the current run
    end = phi.length
    for c, m in reversed(phi.runs):
        num = c - tail
        if num <= 0 or num % end:
            raise InternalContradiction(
                f"recovering part {end} of {list(phi.parts)}: residue {num} not a "
                f"positive multiple of {end}"
            )
        v = num // end
        if out and v <= out[-1][0]:
            raise InternalContradiction(
                f"recovered runs {out[::-1]} and ({v}, {m}) are not ordered"
            )
        out.append((v, m))
        tail += v * m
        end -= m
    out.reverse()
    return Partition._from_runs(tuple(out))


def sigma(phi: Partition) -> Partition:
    """Map a sequentially congruent partition to the partition whose
    multiplicity of i is the i-th successive difference divided by i
    (zero-extended past the length).

    The result has size equal to the largest part of the input.  Only the
    last index of each run has a nonzero difference, so the result has one
    run per run of the input.
    """
    from .predicates import is_sequentially_congruent

    if not (report := is_sequentially_congruent(phi)).ok:
        raise NotSequentiallyCongruent(report)
    out = []
    for i, a, b in _run_ends(phi.runs):
        d = a - b
        if d % i:
            raise InternalContradiction(
                f"difference {d} at index {i} of {list(phi.parts)} not divisible by {i}"
            )
        out.append((i, d // i))
    out.reverse()
    return Partition._from_runs(tuple(out))


def sigma_inverse(gam: Partition) -> Partition:
    """Right inverse of :func:`sigma`, realized as pi composed with
    conjugation (sigma after pi is exactly conjugation)."""
    return pi(gam.conjugate())


class OrbitTrace(Value):
    """Alternating trace of the two maps, starting and ending at the input.

    `states` alternates between the plain-partition side and the
    sequentially congruent side; `cycle_length` counts full round trips
    (always 1 or 2); `closed` says the trace returned to its start.  All
    three fields are required.
    """

    __slots__ = _fields = __match_args__ = ("states", "cycle_length", "closed")
    _required = 3


def orbit(start: Partition, side: str = "P") -> OrbitTrace:
    """Alternate the two maps from `start` until it recurs.

    side="P" starts on the plain side (apply pi first); side="S" starts on
    the sequentially congruent side (apply sigma first) and requires a
    sequentially congruent input.  Round trips beyond two are impossible;
    hitting the bound raises :class:`InternalContradiction`.
    """
    if side not in ("P", "S"):
        raise ValueError(f"side must be 'P' or 'S', got {side!r}")
    ops = (sigma, pi) if side == "S" else (pi, sigma)  # sigma refuses a start that is not sequentially congruent
    states = [start]
    current = start
    for half_step in range(1, 5):
        current = ops[(half_step + 1) % 2](current)
        states.append(current)
        if half_step % 2 == 0 and current == start:
            return OrbitTrace(tuple(states), half_step // 2, True)
    raise InternalContradiction(
        f"orbit of {list(start.parts)} did not close within two round trips"
    )


def _require_distinct(a_seq: SequenceSpec, b_seq: SequenceSpec, through: int) -> None:
    """Both sequences need distinct terms over the consulted positions: a
    repeated A-term makes positions ambiguous, and a repeated B-term merges
    the images of two positions into one part."""
    for name, seq in (("A", a_seq), ("B", b_seq)):
        if not seq.is_distinct_through(through):
            raise NonDistinctA(
                f"{name} ({seq.describe()}) repeats terms within the first "
                f"{through}; the scaling bijection needs distinct terms"
            )


def scale_map(lam: Partition, a_seq: SequenceSpec, b_seq: SequenceSpec) -> Partition:
    """Send a partition with parts among the terms of A to the member of the
    (A, B) divisibility family obtained by replacing each part a_i of
    multiplicity m by the part b_i of multiplicity a_i * m.

    The result's length equals the input's size.  A and B must have distinct
    terms over the consulted range, otherwise :class:`NonDistinctA` is
    raised: repeated A-terms make positions ambiguous, and repeated B-terms
    would merge two positions into one part outside the family.
    """
    freq = lam.frequencies()
    out: dict[int, int] = {}
    max_pos = 0
    for part, mult in freq.items():
        pos = a_seq.index_of(part)
        if pos is None:
            raise PartNotInA(f"part {_shown(part)} is not a term of A ({a_seq.describe()})")
        max_pos = max(max_pos, pos)
        b = b_seq.at(pos)
        out[b] = out.get(b, 0) + part * mult
    _require_distinct(a_seq, b_seq, max_pos)
    return Partition.from_frequencies(out)


def scale_map_inverse(mu: Partition, a_seq: SequenceSpec, b_seq: SequenceSpec) -> Partition:
    """Invert :func:`scale_map`: each part b_i of multiplicity a_i * m maps
    back to the part a_i with multiplicity m.

    The input must belong to the (A, B) divisibility family, otherwise
    :class:`NotMemberPBA` is raised with the violation report.  As for
    :func:`scale_map`, repeated A- or B-terms over the consulted range raise
    :class:`NonDistinctA`.
    """
    from .predicates import is_member_pba

    if not (report := is_member_pba(mu, a_seq, b_seq)).ok:
        raise NotMemberPBA(report)
    freq = mu.frequencies()
    out: dict[int, int] = {}
    max_pos = 0
    for part, mult in freq.items():
        pos = b_seq.index_of(part)
        if pos is None:  # membership above already guarantees a position
            raise InternalContradiction(f"part {_shown(part)} lost its position in B")
        max_pos = max(max_pos, pos)
        a = a_seq.at(pos)
        out[a] = out.get(a, 0) + mult // a
    _require_distinct(a_seq, b_seq, max_pos)
    return Partition.from_frequencies(out)
