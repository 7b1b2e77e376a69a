"""Command-line entry point.

Subcommands: check, map, orbit, enum, ideal, series, zeta.  Results go to
stdout (JSON unless noted), diagnostics to stderr.  Exit codes: 0 success
or property verified; 1 predicate false or property violation (witness on
stdout); 2 usage, parse, or extent error; 3 resource cap exceeded (an item
cap, a count or series side whose table would exceed 10**7 cells, an
enumerative side that would build more than 10**7 members, or a partition
of more than 10**7 parts to print).  ``python -m seqcong.cli`` and the
``seqcong`` script run :func:`run`, which ends the process without
interpreter teardown; :func:`main` returns the code.

This module holds the grammar and the tables its choices come from; main
imports the handler of the command it runs when it runs it, from
``_clipartition`` (check, map, orbit), ``_clifamily`` (enum, ideal) or
``_cliseries`` (series, zeta).
"""

from __future__ import annotations

import os
import sys
from functools import cache
from importlib import import_module
from itertools import chain, repeat, zip_longest
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterable, Iterator, NoReturn

# every other module is imported by the calls that use it: the handler
# modules, json by the calls that read a JSON partition or print a record,
# partition, predicates, maps, families, series, sequences and fractions by
# the commands they run
from .errors import (
    _SHOWN,
    InternalContradiction,
    InvalidPart,
    NotMemberPBA,
    NotSequentiallyCongruent,
    ParseError,
    PartNotInA,
    ResourceBound,
    SeqcongError,
    _shown,
)

if TYPE_CHECKING:
    from ._values import Value
    from .sequences import SequenceSpec


def _dump(obj) -> str:
    """json.dumps(obj, separators=(",", ":")), without a new encoder per call."""
    return _encoder().encode(obj)


@cache
def _encoder():
    import json

    return json.JSONEncoder(separators=(",", ":"))


def _record_json(record: Value) -> str:
    """A record as one JSON object: its fields and values, in field order."""
    return _dump(dict(zip(record._fields, record._astuple())))


# characters per sys.stdout.write: print costs two writes a line, each a
# system call when stdout is unbuffered
_CHUNK_CHARS = 1 << 16


def _write_lines(lines: Iterable[str | Iterable[str]], end: str = "\n") -> None:
    """Write each line and `end` to stdout, as print would, in writes of
    about _CHUNK_CHARS characters.  A line is a str, or the pieces of a line
    too long to build whole, which are written the same way with no end
    between them.  A chunk is written as soon as it reaches that size, so at
    most one chunk is held however long the lines are.  The text taken
    before `lines` raises is written before the error propagates, so partial
    output is unchanged."""
    pending: list[str] = []
    size = 0
    try:
        for line in lines:
            if line.__class__ is not str:  # in pieces: the lines before it go first
                _write_chunk(pending, end)
                _write_lines(line, "")
                line, size = "", 0  # its end goes with the next chunk
            pending.append(line)
            size += len(line) + len(end)
            if size >= _CHUNK_CHARS:
                _write_chunk(pending, end)
                size = 0
    finally:
        _write_chunk(pending, end)


def _json_array(texts: Iterable[str | Iterator[str]], head: str, tail: str) -> Iterator:
    """`head`, a JSON array of the texts and `tail`, as the lines of one
    line: to be written with no end between them."""
    commas = chain(("",), repeat(","))  # none before the first text
    return chain((head + "[",), chain.from_iterable(zip(commas, texts)), ("]" + tail,))


def _write_chunk(pending: list[str], end: str) -> None:
    if pending:
        pending.append("")
        text = end.join(pending)
        pending.clear()
        if sys.stdout is not None:  # None when fd 1 was closed at startup; print skips it too
            sys.stdout.write(text)


def _why(e: Exception) -> str:
    """Why a value was refused.  Python's refusal of an integer past its
    digit limit is said plainly, without its advice to raise the limit,
    which a command line cannot take."""
    if str(e).startswith("Exceeds the limit"):
        return f"integers of more than {sys.get_int_max_str_digits()} digits are not accepted"
    return str(e)


def parse_sequence(text: str) -> SequenceSpec:
    from .sequences import SequenceSpec

    text = text.strip()
    if text in ("naturals", "nat"):
        return SequenceSpec.naturals()
    if text == "ones":
        return SequenceSpec.ones()
    if text == "odds":
        return SequenceSpec.odds()
    if text.startswith(("constant:", "const:")):
        try:
            return SequenceSpec.constant(int(text.split(":", 1)[1]))
        except (ValueError, InvalidPart) as e:
            raise ParseError(f"bad constant sequence {_shown(text)}: {_why(e)}")
    try:
        return SequenceSpec.table(int(v) for v in text.split(","))
    except (ValueError, InvalidPart) as e:
        raise ParseError(f"bad sequence {_shown(text)}: {_why(e)}")


def _bool_check(predicate, yes: str, no: str):
    """A boolean predicate as a ViolationReport callable, evaluated once per
    input; the two reports are built once and shared, as records are
    immutable."""
    from .predicates import ViolationReport

    passed, failed = ViolationReport(True, None, yes), ViolationReport(False, None, no)
    return lambda p: passed if predicate(p) else failed


def _by_rule(name: str, yes: str, no: str = ""):
    """The check of a multiplicity family by its rule, `yes` for a member."""
    return lambda pr, *keys: pr._rule_check(pr._RULES[name](*keys), yes, no)


# The families, each named once: name -> (the keys its text takes, its
# enum listings as suffix -> families constructor by name, which takes n
# after the keys, and the ViolationReport check built from the predicates
# module and the keys' values).  A text is `name` or `name:key=value;...`;
# the first key may be written bare, as in `parts:2,3` or `all:5`.
# freqcong and pba, multiplicity families too, name their failing part.
_FAMILIES = {
    "all": ((), {"": "all_of_size"}, _by_rule("all", "every partition")),
    "empty": ((), {}, _by_rule("empty", "empty", "not empty")),
    "oddparts": ((), {}, _by_rule("oddparts", "all parts odd", "a part is even")),
    "distinct": ((), {"": "distinct_of_size"}, _by_rule(
        "distinct", "all parts distinct", "a part repeats")),
    "selfconj": ((), {}, lambda pr: _bool_check(
        pr.is_self_conjugate, "self-conjugate", "not self-conjugate")),
    "parts": (("T",), {"": "parts_in"}, _by_rule("parts", "all parts allowed", "a part is not allowed")),
    "seqcong": ((), {"-lg": "seqcong_largest"}, lambda pr: pr.is_sequentially_congruent),
    "freqcong": ((), {}, lambda pr: pr.is_frequency_congruent),
    "step": ((), {"-lg": "step_bounded_largest"}, lambda pr: pr.is_step_bounded_seqcong),
    "pba": (("A", "B"), {"": "pba_length"}, lambda pr, a, b: lambda p: pr.is_member_pba(p, a, b)),
    "sna": (("A",), {"-lg": "sna_largest"}, lambda pr, a: lambda p: pr.is_member_sna(p, a)),
}
# enum name -> (the keys its text takes, families constructor by name)
_LISTINGS = {
    name + suffix: ((*keys, "n"), ctor)
    for name, (keys, listings, _) in _FAMILIES.items()
    for suffix, ctor in listings.items()
}
# enum name -> constructor name, a view the benchmark's tracer reads
_SIMPLE_FAMILIES = {name: ctor for name, (_, ctor) in _LISTINGS.items()}


def _rational(text: str):
    """An integer, fraction or decimal as a Fraction.  Exponent notation is
    refused, since ``1e1000000000`` is 13 bytes of text for a billion digits."""
    from fractions import Fraction

    try:
        if "e" not in text.lower():
            return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(f"bad rational {_shown(text)}: {_why(e)}")
    raise ParseError(f"bad rational {_shown(text)}: exponent notation is not accepted")


def _int_at_least(low: float = float("-inf")):
    """An int option's converter: a value below `low` is a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise ParseError(f"invalid int value: {_shown(text)}")
        if value < low:
            raise ParseError(f"must be >= {low}, got {_shown(value)}")
        return value

    return parse


# map op -> the seqcong.maps function it runs, looked up when called; None
# for conjugate, a method of Partition, which loads no maps
_MAP_OPS = {
    "pi": "pi",
    "pi-inv": "pi_inverse",
    "sigma": "sigma",
    "sigma-inv": "sigma_inverse",
    "conjugate": None,
    "scale": "scale_map",
    "scale-inv": "scale_map_inverse",
}


# series expand side -> (series function by name, the flags it takes, in order)
_SIDES = {
    "product": ("product_side", ("f", "qtrunc")),
    "partition-sum": ("partition_sum_side", ("f", "qtrunc")),
    "seqcong-sum": ("seqcong_sum_side", ("f", "qtrunc")),
    "two-variable": ("two_var_product_side", ("A", "B", "xtrunc", "qtrunc")),
    "pba-sum": ("pba_sum_side", ("A", "B", "xtrunc", "qtrunc")),
    "euler": ("euler_limit_side", ("A", "xtrunc")),
    "distinct-product": ("distinct_product_side", ("qtrunc",)),
    "step-sum": ("step_bounded_sum_side", ("qtrunc",)),
}
# series verify identity -> (left side, right side)
_IDENTITIES = {
    "product-sum": ("product", "partition-sum"),
    "product-seqcong": ("product", "seqcong-sum"),
    "two-variable": ("two-variable", "pba-sum"),
    "distinct": ("distinct-product", "step-sum"),
}


# ---------------------------------------------------------------------------
# command table and parser

# command word -> (handler, positionals, options), or a group: the words
# that may follow it.  A handler is named `module.function`, in the module
# that main imports only for that command.  A positional maps to str or to
# the tuple of its choices; one whose name ends in ? may be left out.  An
# option maps to (converter or choices, default, required); a flag has no
# converter.  A handler reads each as args.<name>, with - read as _.
_INT, _TEXT, _FLAG = (_int_at_least(), None, False), (str, None, False), (None, False, False)
_NEED, _NEED_INT, _COUNT = (str, None, True), (_int_at_least(), None, True), (_int_at_least(0), None, False)
_SIZE = {"max-size": (_int_at_least(0), None, True)}
_AB = {"A": _NEED, "B": _NEED}
_TERMS = {"qtrunc": _INT, "xtrunc": _INT, "f": (str, "one", False), "A": _TEXT, "B": _TEXT}
_IDEAL = "_clifamily._cmd_ideal"
_COMMANDS = {
    "check": ("_clipartition._cmd_check", {"family": str, "partition?": str}, {}),
    "map": ("_clipartition._cmd_map", {"op": tuple(_MAP_OPS), "partition": str}, {"A": _TEXT, "B": _TEXT}),
    "orbit": ("_clipartition._cmd_orbit", {"partition": str}, {"side": (("P", "S"), "P", False)}),
    "enum": ("_clifamily._cmd_enum", {"family": str},
             {"limit": _COUNT, "count-only": _FLAG, "json": _FLAG, "max-items": _COUNT}),
    "ideal": {
        "closure": (_IDEAL, {"family": str}, _SIZE),
        "quasi": (_IDEAL, {}, {**_AB, **_SIZE}),
        "equiv": (_IDEAL, {"family": str, "other": str}, _SIZE),
        "invariance": (_IDEAL, {}, {**_AB, "A-prime": _TEXT, "B-prime": _TEXT, **_SIZE}),
    },
    "series": {
        "verify": ("_cliseries._cmd_series_verify", {"identity": tuple(_IDENTITIES)},
                   {**_TERMS, "qtrunc": _NEED_INT}),
        "expand": ("_cliseries._cmd_series_expand", {"side": tuple(_SIDES)}, {**_TERMS, "json": _FLAG}),
    },
    "zeta": ("_cliseries._cmd_zeta", {}, {"T": _NEED, "s": (_rational, None, True), "depth": _NEED_INT}),
}


def _unrecognized(words: list[str]) -> ParseError:
    """The error for words no command takes: each as typed up to _SHOWN
    characters, a longer one quoted by _shown, and at most three of them,
    so that the line stays short however many words there are."""
    listed = [word if len(word) <= _SHOWN else _shown(word) for word in words[:3]]
    if len(words) > 3:
        listed.append(f"... ({len(words)} words)")
    return ParseError(f"unrecognized arguments: {' '.join(listed)}")


def _convert(name: str, convert, text: str):
    if not isinstance(convert, tuple):
        try:
            return convert(text)
        except ParseError as e:
            raise ParseError(f"{name}: {e}")
    if text not in convert:
        raise ParseError(f"{name}: invalid choice: {_shown(text)} (choose from {', '.join(convert)})")
    return text


def _parse(argv: list[str]):
    """The namespace of a command line, read from _COMMANDS as argparse
    read it: options anywhere after the command words, as `--name value`,
    `--name=value` or a unique prefix of the name, and positionals only
    after `--`.  None once the help that -h or --help asks for is printed."""
    args, entry, dest, path = SimpleNamespace(), _COMMANDS, "command", "seqcong"
    words, given, tokens, ended = [], {}, iter(argv), False
    for token in tokens:
        if token == "--" and not ended:
            ended = True
        elif ended or token[:1] != "-" or token == "-":
            if isinstance(entry, tuple):
                words.append(token)
            else:
                entry = entry[_convert(dest, tuple(entry), token)]
                setattr(args, dest, token)
                dest, path = token + "_cmd", f"{path} {token}"
        else:
            options = entry[2] if isinstance(entry, tuple) else {}
            name, eq, value = ("--help" if token == "-h" else token).partition("=")
            found = [key for key in (*options, "help") if f"--{key}".startswith(name)]
            found = [name[2:]] if name[2:] in found else found  # the name, or a unique prefix
            if len(found) != 1:
                if not found:
                    raise _unrecognized([token])
                raise ParseError(f"ambiguous option: {name} could match --{', --'.join(found)}")
            name = found[0]
            if name == "help":
                from ._clihelp import describe

                print(describe(path, entry, _FAMILIES, _LISTINGS))
                return None
            convert = options[name][0]
            if convert is None and eq:
                raise ParseError(f"--{name}: ignored explicit argument {_shown(value)}")
            if convert is not None and not eq:
                value = next(tokens, None)
                if value is None:
                    raise ParseError(f"--{name}: expected one argument")
            given[name] = True if convert is None else _convert("--" + name, convert, value)
    if not isinstance(entry, tuple):
        raise ParseError(f"the following arguments are required: {dest}")
    args.func, positionals, options = entry
    missing = [name for name in list(positionals)[len(words):] if name[-1] != "?"]
    missing += [f"--{name}" for name, spec in options.items() if spec[2] and name not in given]
    if missing:
        raise ParseError(f"the following arguments are required: {', '.join(missing)}")
    if len(words) > len(positionals):
        raise _unrecognized(words[len(positionals):])
    for name, text in zip_longest(positionals, words):
        setattr(args, name.rstrip("?"), None if text is None else _convert(name, positionals[name], text))
    for name, spec in options.items():
        setattr(args, name.replace("-", "_"), given.get(name, spec[1]))
    return args


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if args is None:
            return 0
        module, name = args.func.split(".")
        return getattr(import_module(f".{module}", __package__), name)(args)
    except (NotSequentiallyCongruent, NotMemberPBA) as e:
        print(_record_json(e.report))
        return 1
    except PartNotInA as e:
        from .predicates import ViolationReport

        print(_record_json(ViolationReport(False, None, str(e))))
        return 1
    except SeqcongError as e:
        if isinstance(e, InternalContradiction):  # a defect, not a usage error
            raise
        print(f"error: {e}", file=sys.stderr)
        return 3 if isinstance(e, ResourceBound) else 2


def run() -> NoReturn:
    """Exit with main's code once stdout and stderr are flushed, skipping
    interpreter teardown: the final collection, module clearing and atexit
    callbacks cost about 10 ms after the output is written.  A flush that
    fails falls back to sys.exit, which reports it as teardown would."""
    rc = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when its fd was closed at startup
                stream.flush()
    except OSError:
        sys.exit(rc)
    os._exit(rc)


if __name__ == "__main__":
    # the handler modules import their tables from seqcong.cli: under
    # ``python -m`` that name must be this module, not a second copy of it
    sys.modules[__spec__.name] = sys.modules[__name__]
    run()
