"""Exception types shared by every module of the package, and the item cap."""

# the most items (members, table cells, parts of a written partition) any
# one call builds; above it the call raises ResourceBound before building
DEFAULT_ITEM_CAP = 10**7


class SeqcongError(Exception):
    """Base class for all errors raised by this package."""


class InvalidPart(SeqcongError):
    """A part or multiplicity is not a positive integer."""


class InsufficientMultiplicity(SeqcongError):
    """A deletion asked for more copies of a part than are present."""


class ExtentExceeded(SeqcongError):
    """A sequence was queried at an index its table does not cover."""


class PartNotInA(SeqcongError):
    """A part is provably not a term of the given sequence."""


class NonDistinctA(SeqcongError):
    """The sequence has repeated terms where distinct terms are required."""


class NotSequentiallyCongruent(SeqcongError):
    """The input partition fails a sequential congruence condition.

    Carries the failing `ViolationReport` as the `report` attribute.
    """

    def __init__(self, report):
        super().__init__(report.detail)
        self.report = report


class NotMemberPBA(SeqcongError):
    """The input partition is not in the requested divisibility family."""

    def __init__(self, report):
        super().__init__(report.detail)
        self.report = report


class InternalContradiction(SeqcongError):
    """An intermediate state that should be impossible; a library defect."""


class InvalidExponent(SeqcongError):
    """A series factor needs a positive exponent to stay finite."""


class InvalidDeletion(SeqcongError):
    """A deletion request is outside the contract of the checker."""


class ResourceBound(SeqcongError):
    """An enumeration exceeded its configured item cap, or is provably infinite."""


class BoundsMismatch(SeqcongError):
    """Two series with different truncation bounds cannot be compared."""


class DivergentParameters(SeqcongError):
    """Zeta parameters outside their valid range: s <= 1, a part below 2,
    an empty part set, or a negative depth or precision."""


class ParseError(SeqcongError):
    """Malformed command-line input."""
