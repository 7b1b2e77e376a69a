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
"""

from __future__ import annotations

import os
import re
import sys
from functools import cache
from itertools import chain, islice, zip_longest
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterable, NoReturn

# every other module is imported by the calls that use it: json by those that
# read a JSON partition or print a record, partition, predicates, maps,
# families, series, sequences, fractions and mpmath by the commands they run
from .errors import (
    DEFAULT_ITEM_CAP,
    InternalContradiction,
    InvalidPart,
    NotMemberPBA,
    NotSequentiallyCongruent,
    ParseError,
    PartNotInA,
    ResourceBound,
    SeqcongError,
)

if TYPE_CHECKING:
    from ._values import Value
    from .families import FamilyDescriptor
    from .partition import Partition
    from .sequences import SequenceSpec
    from .series import BivariateSeries, WeightSpec


def _dump(obj) -> str:
    """json.dumps(obj, separators=(",", ":")), without a new encoder per call."""
    return _encoder().encode(obj)


@cache
def _encoder():
    import json

    return json.JSONEncoder(separators=(",", ":"))


def _partition_json(p: Partition) -> str:
    """The parts as a JSON array, byte for byte ``_dump(list(p.parts))``,
    written one run at a time without expanding the parts.  A partition of
    more than DEFAULT_ITEM_CAP parts raises :class:`ResourceBound` before
    any text is built."""
    if p.length > DEFAULT_ITEM_CAP:
        raise ResourceBound(f"printing {p.length} parts is more than the cap of {DEFAULT_ITEM_CAP}")
    return "[" + ",".join([(f"{v}," * m)[:-1] for v, m in p.runs]) + "]"


def _record_json(record: Value) -> str:
    """A record as one JSON object: its fields and values, in field order."""
    return _dump(dict(zip(record._fields, record._astuple())))


# characters per sys.stdout.write: print costs two writes a line, each a
# system call when stdout is unbuffered
_CHUNK_CHARS = 1 << 16


def _write_lines(lines: Iterable[str], end: str = "\n") -> None:
    """Write each line and `end` to stdout, as print would, in writes of
    about _CHUNK_CHARS characters.  A chunk is written as soon as it reaches
    that size, so at most one chunk and one line are held however long the
    lines are.  The lines taken before `lines` raises are written before the
    error propagates, so partial output is unchanged."""
    pending: list[str] = []
    size = 0
    try:
        for line in lines:
            pending.append(line)
            size += len(line) + len(end)
            if size >= _CHUNK_CHARS:
                _write_chunk(pending, end)
                size = 0
    finally:
        _write_chunk(pending, end)


def _write_chunk(pending: list[str], end: str) -> None:
    if pending:
        pending.append("")
        text = end.join(pending)
        pending.clear()
        if sys.stdout is not None:  # None when fd 1 was closed at startup; print skips it too
            sys.stdout.write(text)


# characters of a refused text that an error line quotes
_SHOWN = 40


def _shown(text: str) -> str:
    """A refused text quoted for its error line: whole up to _SHOWN
    characters, else its first _SHOWN and its length, so that the line
    stays short however long the text."""
    if len(text) <= _SHOWN:
        return repr(text)
    return f"{text[:_SHOWN]!r}... ({len(text)} characters)"


def _why(e: Exception) -> str:
    """Why a value was refused.  Python's refusal of an integer past its
    digit limit is said plainly, without its advice to raise the limit,
    which a command line cannot take."""
    if str(e).startswith("Exceeds the limit"):
        return f"integers of more than {sys.get_int_max_str_digits()} digits are not accepted"
    return str(e)


def parse_partition(text: str) -> Partition:
    """JSON array (e.g. ``[5,3,3]``) or frequency form (e.g. ``1^3 2 5^2``)."""
    Partition = _partition_class()
    text = text.strip()
    if not text:
        raise ParseError("empty partition text")
    if text.startswith("["):
        import json

        try:
            data = json.loads(text)
        except json.JSONDecodeError as e:
            raise ParseError(f"bad JSON at position {e.pos}: {e.msg}")
        except ValueError as e:  # an integer past the digit limit
            raise ParseError(f"partition JSON: {_why(e)}")
        if not isinstance(data, list):
            raise ParseError("partition JSON must be an array of integers")
        try:
            return Partition.from_parts(data)
        except InvalidPart as e:
            # a non-integer anywhere outranks a negative one before it
            if not all(isinstance(v, int) and not isinstance(v, bool) for v in data):
                raise ParseError("partition JSON must be an array of integers")
            raise ParseError(str(e))
    freq: dict[int, int] = {}
    for pos, tok in enumerate(text.split(), start=1):
        m = re.fullmatch(r"(\d+)(?:\^(\d+))?", tok)
        if not m:
            raise ParseError(f"bad token {_shown(tok)} at position {pos}")
        try:
            v = int(m.group(1))
            k = int(m.group(2)) if m.group(2) else 1
        except ValueError as e:  # past the digit limit
            raise ParseError(f"token {_shown(tok)} at position {pos}: {_why(e)}")
        if v < 1 or k < 1:
            raise ParseError(f"token {_shown(tok)} at position {pos}: values must be positive")
        freq[v] = freq.get(v, 0) + k
    return Partition.from_frequencies(freq)


@cache
def _partition_class():
    """seqcong.partition.Partition, imported on first use and bound once:
    `check` parses one partition a line, and the import costs about 2 us."""
    from .partition import Partition

    return Partition


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


def _part_set(text: str) -> frozenset[int]:
    allowed = frozenset(int(v) for v in text.split(","))
    if any(v < 1 for v in allowed):
        raise ParseError(f"part set {_shown(text)} must be positive integers")
    return allowed


# key in a family text -> parser of its value
_VALUES = {"T": _part_set, "A": parse_sequence, "B": parse_sequence, "n": int}


def _bool_check(predicate, yes: str, no: str):
    """A boolean predicate as a ViolationReport callable, evaluated once per
    input; the two reports are built once and shared, as records are
    immutable."""
    from .predicates import ViolationReport

    passed, failed = ViolationReport(True, None, yes), ViolationReport(False, None, no)
    return lambda p: passed if predicate(p) else failed


# The families, each named once: name -> (the keys its text takes, its
# enum listings as suffix -> families constructor by name, which takes n
# after the keys, and the ViolationReport check built from the predicates
# module and the keys' values).  A text is `name` or `name:key=value;...`;
# the first key may be written bare, as in `parts:2,3` or `all:5`.
_FAMILIES = {
    "all": ((), {"": "all_of_size"}, lambda _: _bool_check(lambda p: True, "every partition", "")),
    "empty": ((), {}, lambda _: _bool_check(lambda p: p.length == 0, "empty", "not empty")),
    "oddparts": ((), {}, lambda _: _bool_check(
        lambda p: all(v % 2 for v, _ in p.runs), "all parts odd", "a part is even")),
    "distinct": ((), {"": "distinct_of_size"}, lambda pr: _bool_check(
        pr.has_distinct_parts, "all parts distinct", "a part repeats")),
    "selfconj": ((), {}, lambda pr: _bool_check(
        pr.is_self_conjugate, "self-conjugate", "not self-conjugate")),
    "parts": (("T",), {"": "parts_in"}, lambda _, t: _bool_check(
        lambda p: all(v in t for v, _ in p.runs), "all parts allowed", "a part is not allowed")),
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


def parse_weights(text: str, extent: int) -> WeightSpec:
    from . import series

    if text in ("one", "1"):
        return series.WeightSpec.one()
    if text.startswith(("random-seeded:", "random:")):
        try:
            seed = int(text.split(":", 1)[1])
        except ValueError as e:
            raise ParseError(f"bad seed in {_shown(text)}: {_why(e)}")
        return series.WeightSpec.random_table(seed, extent)
    if text.startswith("table:"):
        return series.WeightSpec.from_values(map(_rational, text[6:].split(",")))
    if text.startswith("indicator:"):
        try:
            return series.WeightSpec.indicator(int(v) for v in text[10:].split(","))
        except ValueError as e:
            raise ParseError(f"bad indicator set {_shown(text)}: {_why(e)}")
    raise ParseError(f"unknown weight spec {_shown(text)}")


def _int_at_least(low: float = float("-inf")):
    """An int option's converter: a value below `low` is a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise ParseError(f"invalid int value: {_shown(text)}")
        if value < low:
            raise ParseError(f"must be >= {low}, got {value}")
        return value

    return parse


# zeta prints _ZETA_PLACES decimal places from partition_zeta's 30 working
# digits.  A sum of up to 10**7 terms (the item cap), each rounded once, can
# lose about seven of them, which leaves eleven for the digits before the
# point.  The sum never exceeds the product over T of 1 / (1 - t^-s), and
# for distinct t >= 2 and s > 1 that is below the product over t = 2..|T|+1
# of t / (t - 1) = |T| + 1: eleven digits cover every T of fewer than 10**11
# terms, far more than a command line holds.
_ZETA_PLACES = 12


def _format_fixed(value, places: int = _ZETA_PLACES) -> str:
    from fractions import Fraction

    # rounded exactly: at mpmath's default 53 bits a value above 9000 lost places
    man, exp = value.man_exp  # |value| = man * 2**exp
    scaled = round(Fraction(man * 10**places) * Fraction(2) ** exp)
    sign = "-" if scaled and value < 0 else ""
    ip, fp = divmod(scaled, 10**places)
    return f"{sign}{ip}.{fp:0{places}d}"


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_check(args) -> int:
    fn = _parse_check(args.family)
    if args.partition is not None:
        texts = [args.partition]
    else:
        texts = [line for line in sys.stdin.read().splitlines() if line.strip()]
    # parse everything first so bad input never yields partial output
    inputs = [parse_partition(text) for text in texts]
    worst = 0
    encoded = {}  # report -> its JSON; a stream repeats its passing report

    def lines():
        nonlocal worst
        for lam in inputs:
            report = fn(lam)
            text = encoded.get(report)
            if text is None:
                text = encoded[report] = _record_json(report)
                if not report.ok:
                    worst = 1
            yield text

    _write_lines(lines())
    return worst


def _on_maps(name: str):
    """The function `name` of seqcong.maps, looked up when called: only map
    and orbit load the module, and the attribute that runs is the one the
    module holds at that moment."""

    def call(lam: Partition) -> Partition:
        from . import maps

        return getattr(maps, name)(lam)

    return call


_MAP_OPS = {
    "pi": _on_maps("pi"),
    "pi-inv": _on_maps("pi_inverse"),
    "sigma": _on_maps("sigma"),
    "sigma-inv": _on_maps("sigma_inverse"),
    "conjugate": lambda p: p.conjugate(),
}


def _cmd_map(args) -> int:
    lam = parse_partition(args.partition)
    if args.op in _MAP_OPS:
        result = _MAP_OPS[args.op](lam)
    else:
        if args.A is None or args.B is None:
            raise ParseError(f"map {args.op} needs --A and --B")
        from . import maps

        a, b = parse_sequence(args.A), parse_sequence(args.B)
        if args.op == "scale":
            result = maps.scale_map(lam, a, b)
        else:
            result = maps.scale_map_inverse(lam, a, b)
    print(_partition_json(result))
    return 0


def _cmd_orbit(args) -> int:
    from . import maps

    lam = parse_partition(args.partition)
    trace = maps.orbit(lam, side=args.side)
    states = ",".join([_partition_json(p) for p in trace.states])
    print(f'{{"states":[{states}],"cycle_length":{trace.cycle_length},"closed":{_dump(trace.closed)}}}')
    return 0


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
    texts = map(_partition_json, stream)
    if args.json:  # one array, in chunks too: an error part way leaves it as far as it got
        items = ("," + text if i else text for i, text in enumerate(texts))
        texts = chain(("[",), items, ("]\n",))
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


def _expand_side(side: str, args) -> BivariateSeries:
    """Build one side from the flags it takes; the function is looked up in
    `series` on each call."""
    from . import series

    name, flags = _SIDES[side]
    given = {flag: getattr(args, flag) for flag in flags}
    missing = [f"--{flag}" for flag, value in given.items() if value is None]
    if missing:
        raise ParseError(f"side {side} needs {', '.join(missing)}")
    for flag in ("A", "B"):
        if flag in given:
            given[flag] = parse_sequence(given[flag])
    if "f" in given:
        given["f"] = parse_weights(given["f"], args.qtrunc)
    return getattr(series, name)(*given.values())


def _cmd_series_verify(args) -> int:
    from . import series

    lhs, rhs = (_expand_side(side, args) for side in _IDENTITIES[args.identity])
    outcome = series.compare(lhs, rhs)
    if outcome.equal:
        print(f"PASS {args.identity} qtrunc={args.qtrunc}")
        return 0
    print(f"FAIL {args.identity} at x^{outcome.x_exponent} q^{outcome.q_exponent}: "
          f"lhs={outcome.lhs_coefficient} rhs={outcome.rhs_coefficient}")
    return 1


def _cmd_series_expand(args) -> int:
    s = _expand_side(args.side, args)
    if args.json:
        coefficients = [[a, b, str(c)] for (a, b), c in s.items()]
        print(_dump({"xtrunc": s.xtrunc, "qtrunc": s.qtrunc, "coefficients": coefficients}))
        return 0
    if s.xtrunc == 0:
        line = "q^{1}: {2}"
    elif s.qtrunc == 0:
        line = "x^{0}: {2}"
    else:
        line = "x^{0} q^{1}: {2}"
    _write_lines(line.format(a, b, c) for (a, b), c in s.items())
    return 0


def _cmd_zeta(args) -> int:
    from . import series

    try:
        part_set = [int(v) for v in args.T.split(",")]
    except ValueError as e:
        raise ParseError(f"bad zeta parameters: {_why(e)}")
    result = series.partition_zeta(part_set, args.s, args.depth)
    print(f"sum_side {_format_fixed(result.sum_side)}")
    print(f"product_side {_format_fixed(result.product_side)}")
    print(f"depth {result.qdepth} terms {result.terms}")
    return 0


# ---------------------------------------------------------------------------
# command table and parser

# command word -> (handler, positionals, options), or a group: the words
# that may follow it.  A positional maps to str or to the tuple of its
# choices; one whose name ends in ? may be left out.  An option maps to
# (converter or choices, default, required); a flag has no converter.  A
# handler reads each as args.<name>, with - read as _.
_INT, _TEXT, _FLAG = (_int_at_least(), None, False), (str, None, False), (None, False, False)
_NEED, _NEED_INT, _COUNT = (str, None, True), (_int_at_least(), None, True), (_int_at_least(0), None, False)
_SIZE = {"max-size": (_int_at_least(0), None, True)}
_AB = {"A": _NEED, "B": _NEED}
_TERMS = {"qtrunc": _INT, "xtrunc": _INT, "f": (str, "one", False), "A": _TEXT, "B": _TEXT}
_COMMANDS = {
    "check": (_cmd_check, {"family": str, "partition?": str}, {}),
    "map": (_cmd_map, {"op": (*_MAP_OPS, "scale", "scale-inv"), "partition": str}, {"A": _TEXT, "B": _TEXT}),
    "orbit": (_cmd_orbit, {"partition": str}, {"side": (("P", "S"), "P", False)}),
    "enum": (_cmd_enum, {"family": str},
             {"limit": _COUNT, "count-only": _FLAG, "json": _FLAG, "max-items": _COUNT}),
    "ideal": {
        "closure": (_cmd_ideal, {"family": str}, _SIZE),
        "quasi": (_cmd_ideal, {}, {**_AB, **_SIZE}),
        "equiv": (_cmd_ideal, {"family": str, "other": str}, _SIZE),
        "invariance": (_cmd_ideal, {}, {**_AB, "A-prime": _TEXT, "B-prime": _TEXT, **_SIZE}),
    },
    "series": {
        "verify": (_cmd_series_verify, {"identity": tuple(_IDENTITIES)}, {**_TERMS, "qtrunc": _NEED_INT}),
        "expand": (_cmd_series_expand, {"side": tuple(_SIDES)}, {**_TERMS, "json": _FLAG}),
    },
    "zeta": (_cmd_zeta, {}, {"T": _NEED, "s": (_rational, None, True), "depth": _NEED_INT}),
}


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
                raise ParseError(f"ambiguous option: {name} could match --{', --'.join(found)}"
                                 if found else f"unrecognized arguments: {token}")
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
        raise ParseError(f"unrecognized arguments: {' '.join(words[len(positionals):])}")
    for name, text in zip_longest(positionals, words):
        setattr(args, name.rstrip("?"), None if text is None else _convert(name, positionals[name], text))
    for name, spec in options.items():
        setattr(args, name.replace("-", "_"), given.get(name, spec[1]))
    return args


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        return 0 if args is None else args.func(args)
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
    run()
