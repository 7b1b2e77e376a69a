"""Membership tests for the partition families handled by this package.

Each structured predicate returns a :class:`ViolationReport` rather than a
bare boolean so that callers (and the CLI) can point at the first broken
condition.  Every predicate reads the partition's runs: a condition on the
difference lambda_i - lambda_{i+1} holds trivially inside a run, where the
difference is 0, so it is checked at the last index of each run only, and
the index reported is the one the definition numbers.  The families fixed
by one condition per part value are checked by their multiplicity rule,
and the largest-part ones (S_N(A)) by one walk over the run ends.  The
CLI checks a family by its row of the family table (``_family_check``).
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING

from ._values import FAMILIES, Family, MultiplicityRule, Value
from .errors import ExtentExceeded, _shown, _written
from .partition import Partition

if TYPE_CHECKING:
    from typing import Optional

    from .sequences import SequenceSpec


class ViolationReport(Value):
    """Outcome of a membership test: `ok`, the `index` that pins the first
    failure (None when none does) and a `detail` text; all three required."""

    __slots__ = _fields = __match_args__ = ("ok", "index", "detail")
    _required = 3

    def __bool__(self) -> bool:
        return self.ok


def _failed(index: int, detail: str, *values) -> ViolationReport:
    """A failing report, each {} of `detail` filled with the next value as
    str writes it: an int past Python's limit on integer text is shown by
    its leading digits, so that no part too long to print breaks the check."""
    return ViolationReport(False, index, detail.format(*map(_written, values)))


# each predicate's passing report, built once and shared, as records are
# immutable; a failing one carries the input's detail
_SEQCONG_OK = ViolationReport(True, None, "all sequential congruences hold")
_FREQCONG_OK = ViolationReport(True, None, "every part divides its multiplicity")
_PBA_OK = ViolationReport(True, None, "all multiplicities divisible as required")
_SNA_OK = ViolationReport(True, None, "all congruences modulo A hold")
_STEP_OK = ViolationReport(True, None, "all steps are 0 or the index")


def _first_step_break(lam: Partition, term=None, cap: bool = False) -> Optional[tuple]:
    """(i, lambda_i, lambda_{i+1}, a_i) at the first run end i whose step,
    positive there, is not a_i e with e in ℕ (e = 1 under the cap); a_i is
    term(i), or i when term is None; None when every step keeps the rule."""
    runs, i = lam.runs, 0
    for j, (a, m) in enumerate(runs, 1):
        i += m
        b = runs[j][0] if j < len(runs) else 0
        d = i if term is None else term(i)
        if a - b != d if cap else (a - b) % d:
            return i, a, b, d
    return None


def is_sequentially_congruent(lam: Partition) -> ViolationReport:
    """Successive parts congruent modulo their index; smallest part divisible
    by the length.  The empty partition passes vacuously.

    Index i < length reports a broken congruence between parts i and i+1;
    index == length reports the divisibility condition on the smallest part.
    """
    if (broken := _first_step_break(lam)) is None:
        return _SEQCONG_OK
    i, a, b, _ = broken
    if not b:
        return _failed(i, "smallest part {} is not congruent to 0 modulo {}", a, i)
    return _failed(i, "lambda_{}={} is not congruent to lambda_{}={} modulo {}", i, a, i + 1, b, i)


def _first_break(lam: Partition, rule: MultiplicityRule) -> Optional[tuple]:
    """The first run, smallest part first, that breaks `rule`, as (part,
    mult, a) with a = rule.step_of(part), None where the part is not
    allowed; None when every run keeps the rule."""
    step_of, cap = rule.step_of, rule.cap
    for part, mult in reversed(lam.runs):
        a = step_of(part)
        if a is None or mult % a or (cap and mult > a):
            return part, mult, a
    return None


_DISTINCT, _FREQCONG = FAMILIES["distinct"].rule(), FAMILIES["freqcong"].rule()


def is_frequency_congruent(lam: Partition) -> ViolationReport:
    """Each part divides its own multiplicity (M_j = j·ℕ); the failing part
    is the index."""
    broken = _first_break(lam, _FREQCONG)
    if broken is None:
        return _FREQCONG_OK
    part, mult, _ = broken
    return _failed(part, "part {} has multiplicity {}, not divisible by {}", part, mult, part)


def is_member_pba(lam: Partition, a_seq: SequenceSpec, b_seq: SequenceSpec) -> ViolationReport:
    """Parts drawn from the terms of B, with the multiplicity of the i-th
    B-term divisible by the i-th A-term (M_{b_i} = a_i·ℕ).

    As in every P_B(A) walker, the parts are the B-terms whose first position
    has an A-term: a part that B lacks, or whose first B-position lies past a
    table A, fails at that part.  With A = B = naturals this reduces exactly
    to :func:`is_frequency_congruent`.
    """
    return _pba_report(FAMILIES["pba"].rule(a_seq, b_seq), a_seq, b_seq, lam)


def _pba_report(rule: MultiplicityRule, a_seq: SequenceSpec, b_seq: SequenceSpec, lam: Partition) -> ViolationReport:
    """:func:`is_member_pba` under its rule, which a caller that checks
    many partitions builds once and binds with ``partial``."""
    broken = _first_break(lam, rule)
    if broken is None:
        return _PBA_OK
    part, mult, a = broken
    pos = b_seq.index_of(part)
    if pos is None:
        return _failed(part, "part {} is not a term of B ({})", part, b_seq.describe())
    if a is None:
        return _failed(part, "part {} is at B position {}, past the {} terms of A", part, pos, a_seq.extent)
    return _failed(
        part, "multiplicity {} of part {} is not divisible by {} (A term at position {})",
        mult, part, a, pos,
    )


def is_member_sna(lam: Partition, a_seq: SequenceSpec) -> ViolationReport:
    """Successive parts congruent modulo the terms of A (zero-extended), so
    the final condition is divisibility of the smallest part by A's term at
    the length."""
    if (ext := a_seq.extent) is not None and lam.length > ext:
        raise ExtentExceeded(f"partition of length {_shown(lam.length)} needs A terms beyond extent {ext}")
    if (broken := _first_step_break(lam, a_seq.at)) is None:
        return _SNA_OK
    i, a, b, m = broken
    return _failed(i, "lambda_{}={} is not congruent to lambda_{}={} modulo {}", i, a, i + 1, b, m)


def has_distinct_parts(lam: Partition) -> bool:
    """True when every multiplicity is at most 1 (M_j = {0, 1})."""
    return _first_break(lam, _DISTINCT) is None


def is_step_bounded_seqcong(lam: Partition) -> ViolationReport:
    """Every difference lambda_i - lambda_{i+1} (zero-extended) is 0 or i.

    Partitions passing this are automatically sequentially congruent.
    """
    if (broken := _first_step_break(lam, cap=True)) is None:
        return _STEP_OK
    i, a, b, _ = broken
    return _failed(i, "step {} at index {} is neither 0 nor {}", a - b, i, i)


def is_self_conjugate(lam: Partition) -> bool:
    """True when the partition equals its own diagram transpose (compared
    run by run)."""
    return lam.conjugate() == lam


def _family_check(family: Family, values: list):
    """The check of a row of ``_values.FAMILIES``, given the values of its
    keys, as a Partition -> ViolationReport callable: the predicate it
    names, or its two details as reports, built once and shared, by its
    rule (by conjugation where it has none)."""
    if family.check.__class__ is str:
        test = globals()[family.check]
        if test is is_member_pba:  # its rule built once, not per partition
            return partial(_pba_report, family.rule(*values), *values)
        return (lambda lam: test(lam, *values)) if values else test
    yes, no = family.check
    passed, failed = ViolationReport(True, None, yes), ViolationReport(False, None, no)
    if family.rule is None:
        return lambda lam: passed if is_self_conjugate(lam) else failed
    rule = family.rule(*values)
    return lambda lam: failed if _first_break(lam, rule) else passed
