"""Partition text in and out, with the commands check, map and orbit; also
the lines of an enum listing."""

from __future__ import annotations

import re
import sys

from .cli import _MAP_OPS, _dump, _record_json, _why, _write_lines, parse_sequence
from .errors import DEFAULT_ITEM_CAP, InvalidPart, ParseError, ResourceBound, _shown
from .partition import Partition


def parse_partition(text: str) -> Partition:
    """JSON array (e.g. ``[5,3,3]``) or frequency form (e.g. ``1^3 2 5^2``)."""
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


def _partition_json(p: Partition) -> str:
    """The parts as a JSON array, byte for byte ``_dump(list(p.parts))``,
    written one run at a time without expanding the parts.  A partition of
    more than DEFAULT_ITEM_CAP parts, or whose largest part has more digits
    than Python writes, raises :class:`ResourceBound` before any text is
    built."""
    if p.length > DEFAULT_ITEM_CAP:
        raise ResourceBound(f"printing {_shown(p.length)} parts is more than the cap of {DEFAULT_ITEM_CAP}")
    top, limit = p.runs[0][0] if p.runs else 0, sys.get_int_max_str_digits()
    if limit and top.bit_length() > 3 * limit and top >= 10**limit:  # 10**limit has ~3.3 limit bits
        raise ResourceBound(f"printing part {_shown(top)} is past the limit of {limit} digits")
    return "[" + ",".join([(f"{v}," * m)[:-1] for v, m in p.runs]) + "]"


def _cmd_check(args) -> int:
    from ._clifamily import _parse_check

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


def _cmd_map(args) -> int:
    lam = parse_partition(args.partition)
    name = _MAP_OPS[args.op]
    if name is None:
        result = lam.conjugate()
    else:
        sequences = ()
        if args.op.startswith("scale"):
            if args.A is None or args.B is None:
                raise ParseError(f"map {args.op} needs --A and --B")
            sequences = parse_sequence(args.A), parse_sequence(args.B)
        from . import maps

        result = getattr(maps, name)(lam, *sequences)
    print(_partition_json(result))
    return 0


def _cmd_orbit(args) -> int:
    from . import maps

    lam = parse_partition(args.partition)
    trace = maps.orbit(lam, side=args.side)
    states = ",".join([_partition_json(p) for p in trace.states])
    print(f'{{"states":[{states}],"cycle_length":{trace.cycle_length},"closed":{_dump(trace.closed)}}}')
    return 0
