"""Family texts read against the family table, ``_values.FAMILIES``, with
the commands enum and ideal; also the family of check."""

from __future__ import annotations

import sys
from itertools import islice
from typing import TYPE_CHECKING

from ._values import _LISTINGS, FAMILIES
from .cli import _json_array, _record_json, _why, _write_lines, parse_sequence
from .errors import ParseError, ResourceBound, _shown

if TYPE_CHECKING:
    from .families import FamilyDescriptor


def _part_set(text: str) -> frozenset[int]:
    allowed = frozenset(int(v) for v in text.split(","))
    if any(v < 1 for v in allowed):
        raise ParseError(f"part set {_shown(text)} must be positive integers")
    return allowed


# key in a family text -> parser of its value
_VALUES = {"T": _part_set, "A": parse_sequence, "B": parse_sequence, "n": int}


def _parse_family_text(text: str, table: dict) -> tuple:
    """The entry of `table` that a family text names, and the parsed values
    of the keys the entry takes, in the entry's order.  Keys the entry does
    not take are ignored."""
    name, colon, rest = text.partition(":")
    if name not in table:
        raise ParseError(f"unknown family {_shown(name)}")
    keys, *_ = table[name]
    given = {}
    for pos, piece in enumerate(rest.split(";") if colon else ()):
        key, eq, value = piece.partition("=")
        if not eq:
            if pos or not keys:
                raise ParseError(f"expected key=value in family {_shown(text)}, got {_shown(piece)}")
            key, value = keys[0], piece
        given[key.strip()] = value.strip()
    missing = [f"{key}=..." for key in keys if key not in given]
    if missing:
        raise ParseError(f"family {name} needs {' and '.join(missing)}")
    try:
        return table[name], [_VALUES[key](given[key]) for key in keys]
    except ValueError as e:
        raise ParseError(f"bad value in family {_shown(text)}: {_why(e)}")


def _parse_check(text: str):
    """A family text as a Partition -> ViolationReport callable."""
    from .predicates import _family_check

    return _family_check(*_parse_family_text(text, FAMILIES))


def parse_family(text: str) -> FamilyDescriptor:
    """An enum family text as the descriptor its listing constructor builds."""
    from . import families

    (_, ctor), values = _parse_family_text(text, _LISTINGS)
    return getattr(families, ctor)(*values)


def _cmd_enum(args) -> int:
    from . import families

    desc = parse_family(args.family)
    if args.count_only:
        # the count of the listing --limit and --max-items would allow
        total = families.count(desc)
        if args.limit is not None:
            total = min(total, args.limit)
        if args.max_items is not None and total > args.max_items:
            raise ResourceBound(f"{desc.describe()} would list {total} members, more than the "
                                f"cap of {args.max_items} items")
        print(total)
        return 0
    stream = families.enumerate_family(desc, max_items=args.max_items)
    if args.limit is not None:
        stream = islice(stream, min(args.limit, sys.maxsize))  # the most islice takes
    from ._clipartition import _partition_texts

    texts = _partition_texts(stream)
    if args.json:  # one array, in chunks too: an error part way leaves it as far as it got
        texts = _json_array(texts, "", "\n")
    _write_lines(texts, end="" if args.json else "\n")
    return 0


def _cmd_ideal(args) -> int:
    from . import families

    if args.ideal_cmd == "closure":
        record = families.check_ideal_closure(_parse_check(args.family), args.max_size)
    elif args.ideal_cmd == "quasi":
        record = families.check_quasi_ideal(parse_sequence(args.A), parse_sequence(args.B), args.max_size)
    elif args.ideal_cmd == "equiv":
        record = families.ideal_equivalent_upto(_parse_check(args.family), _parse_check(args.other),
                                                args.max_size)
    else:
        record = families.count_invariance_suite(
            parse_sequence(args.A), parse_sequence(args.B), args.max_size,
            a_prime=parse_sequence(args.A_prime) if args.A_prime else None,
            b_prime=parse_sequence(args.B_prime) if args.B_prime else None)
    print(_record_json(record))
    return 0 if getattr(record, record._fields[0]) else 1  # the verdict: ok or equivalent
