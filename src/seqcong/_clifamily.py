"""Family texts read against ``cli._FAMILIES``, with the commands enum and
ideal; also the family of check."""

from __future__ import annotations

import sys
from itertools import islice
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Iterator

from .cli import _FAMILIES, _LISTINGS, _json_array, _record_json, _why, _write_lines, parse_sequence
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


def _parse_family_text(text: str, table: dict) -> tuple[str, list]:
    """The name of a family text, which must be in `table`, and the parsed
    values of the keys its entry takes, in the entry's order.  Keys the
    entry does not take are ignored."""
    name, colon, rest = text.partition(":")
    if name not in table:
        raise ParseError(f"unknown family {_shown(name)}")
    keys = table[name][0]
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
        return name, [_VALUES[key](given[key]) for key in keys]
    except ValueError as e:
        raise ParseError(f"bad value in family {_shown(text)}: {_why(e)}")


def _parse_check(text: str):
    """A family text as a Partition -> ViolationReport callable."""
    from . import predicates

    name, values = _parse_family_text(text, _FAMILIES)
    return _FAMILIES[name][2](predicates, *values)


def parse_family(text: str) -> FamilyDescriptor:
    """An enum family text as the descriptor its listing constructor builds."""
    from . import families

    name, values = _parse_family_text(text, _LISTINGS)
    return getattr(families, _LISTINGS[name][1])(*values)


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
    texts = _listing_texts(stream)
    if args.json:  # one array, in chunks too: an error part way leaves it as far as it got
        texts = _json_array(texts, "", "\n")
    _write_lines(texts, end="" if args.json else "\n")
    return 0


class _RunTexts(dict):
    """A run's text, each part with its comma; the texts of up to 4096 short runs are kept."""

    def __missing__(self, run: tuple[int, int]) -> str:
        v, m = run
        text = f"{v}," * m
        if len(text) <= 64 and len(self) < 4096:
            self[run] = text
        return text


def _listing_texts(members: Iterable) -> Iterator[str | Iterator[str]]:
    """_partition_json of each member of a listing.  The members of a walk
    share most of their runs, so each text is joined from the kept texts
    of its runs.  A member that _partition_json writes in pieces, or
    refuses, goes through it, so no joined text passes a chunk."""
    from ._clipartition import _one_str_parts, _partition_json

    run_text, length = _RunTexts().__getitem__, itemgetter(1)
    top, most = None, 0
    for p in members:
        runs = p.runs
        if runs and runs[0][0] != top:  # a new largest part
            top, most = runs[0][0], _one_str_parts(runs[0][0])
        yield _partition_json(p) if sum(map(length, runs)) > most else f"[{''.join(map(run_text, runs))[:-1]}]"


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
