"""Exception types shared by every module of the package, the item cap,
and the quoting of refused values in their messages."""

# the most items (members, table cells, parts of a written partition) any
# one call builds; above it the call raises ResourceBound before building
DEFAULT_ITEM_CAP = 10**7

# characters of a refused value that an error message quotes
_SHOWN = 40


def _shown(value: object) -> str:
    """A refused value for its error message: a text quoted as repr quotes
    it, anything else as its repr, whole up to _SHOWN characters, else its
    first _SHOWN and its length, so that the message stays short however
    long the value.  An int past Python's limit on integer text is shown
    the same way, from its leading digits, alone or in a tuple or list."""
    if isinstance(value, str):
        return _clipped(value, repr(value[:_SHOWN]))
    try:
        text = repr(value)
    except ValueError:
        if isinstance(value, int):
            return _leading_digits(value)
        text = _written(value)
    return _clipped(text, text[:_SHOWN])


def _written(value) -> str:
    """str of a value, whatever its length, with an int past Python's limit
    on integer text, alone or in a tuple or list, shown as _shown shows it."""
    try:
        return str(value)
    except ValueError:
        if isinstance(value, int):
            return _leading_digits(value)
        if not isinstance(value, (tuple, list)):
            raise
        texts = [_written(v) if isinstance(v, (int, tuple, list)) else repr(v) for v in value]
        ends = "[]" if isinstance(value, list) else "(,)" if len(value) == 1 else "()"
        return ends[0] + ", ".join(texts) + ends[1:]


def _clipped(text: str, head: str) -> str:
    return head if len(text) <= _SHOWN else f"{head}... ({len(text)} characters)"


def _leading_digits(value: int) -> str:
    """_shown of an int too long for str: its digits are counted from its
    bit length, and only its first _SHOWN are turned into text."""
    size = abs(value)
    digits = int(size.bit_length() * 0.30102999566398120)  # log10(2): one digit short at most
    if size >= 10**digits:
        digits += 1
    text = ("-" if value < 0 else "") + str(size // 10 ** (digits - _SHOWN))
    return f"{text[:_SHOWN]}... ({digits + (value < 0)} characters)"


def _short_numbers(message: str) -> str:
    """The message with every number, and every run of numbers separated
    by commas (a table as ``1,2,3`` or ``[1, 2, 3]``), of more than _SHOWN
    characters shown as _shown shows it."""
    if len(message) <= _SHOWN:
        return message
    import re  # here, so that a short message and importing errors load nothing

    return re.sub(r"-?\d+(?:, ?-?\d+)*", lambda m: _clipped(m[0], m[0][:_SHOWN]), message)


class SeqcongError(Exception):
    """Base class for all errors raised by this package.  A message names
    each number, and each comma-separated run of numbers, of more than
    _SHOWN characters by its first _SHOWN and its length, as :func:`_shown`
    does, so that it stays short however large or long the values it was
    made from."""

    def __init__(self, message: str = ""):
        super().__init__(_short_numbers(message))


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
