"""Partition text in and out, with the commands check, map and orbit: the
one writer of partition text, which also writes the lines of an enum
listing."""

from __future__ import annotations

import re
import sys
from functools import cache
from itertools import chain, repeat
from operator import itemgetter
from typing import Iterable, Iterator

from .cli import _CHUNK_CHARS, _MAP_OPS, _dump, _json_array, _record_json, _why, _write_lines, parse_sequence
from .errors import DEFAULT_ITEM_CAP, InvalidPart, ParseError, ResourceBound, SeqcongError, _shown
from .partition import Partition


def parse_partition(text: str) -> Partition:
    """JSON array (e.g. ``[5,3,3]``) or frequency form (e.g. ``1^3 2 5^2``)."""
    text = text.strip()
    if not text:
        raise ParseError("empty partition text")
    if text.startswith("["):
        try:  # what json.loads runs, without its checks per call
            data, end = _decoder().scan_once(text, 0)
        except (StopIteration, ValueError):
            end = None
        if end != len(text):  # not one array: json.loads says why
            try:
                data = _decoder().decode(text)
            except ValueError as e:  # a JSONDecodeError, or an integer past the digit limit
                raise ParseError(f"bad JSON at position {e.pos}: {e.msg}" if hasattr(e, "pos")
                                 else f"partition JSON: {_why(e)}")
        try:  # data is a list: the text starts with "["
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
def _decoder():
    import json

    return json.JSONDecoder()


def _partition_texts(partitions: Iterable[Partition]) -> Iterator[str | Iterator[str]]:
    """Each partition's parts as a JSON array, byte for byte
    ``_dump(list(p.parts))``, written one run at a time without expanding
    the parts: one str, or the pieces of a text that may pass _CHUNK_CHARS
    characters, as :func:`_write_lines` takes a line.  The members of a
    walk share most of their runs, so a short text is joined from the kept
    texts of its runs, each part with its comma (up to 4096 texts of at
    most 64 characters).  A partition of more than DEFAULT_ITEM_CAP parts,
    or whose largest part has more digits than Python writes, raises
    :class:`ResourceBound` before any text of it is yielded."""

    class Kept(dict):
        def __missing__(self, run: tuple[int, int]) -> str:
            v, m = run
            text = f"{v}," * m
            if len(text) <= 64 and len(self) < 4096:
                self[run] = text
            return text

    run_text, length, limit = Kept().__getitem__, itemgetter(1), sys.get_int_max_str_digits()
    top, most = None, 0
    for p in partitions:
        runs = p.runs
        if runs and runs[0][0] != top:  # a new largest part: the most parts one str holds under it
            top, bits = runs[0][0], runs[0][0].bit_length()
            # 0 past the digit limit (10**limit has ~3.3 limit bits); a part
            # and its comma take at most bits // 3 + 2 characters
            most = 0 if limit and bits > 3 * limit and top >= 10**limit else (_CHUNK_CHARS - 1) // (bits // 3 + 2)
        if sum(map(length, runs)) <= most:  # no joined text passes a chunk
            yield f"[{''.join(map(run_text, runs))[:-1]}]"
        elif p.length > DEFAULT_ITEM_CAP:
            raise ResourceBound(f"printing {_shown(p.length)} parts is more than the cap of {DEFAULT_ITEM_CAP}")
        elif not most:
            raise ResourceBound(f"printing part {_shown(top)} is past the limit of {limit} digits")
        else:
            yield _json_pieces(runs)


def _json_pieces(runs: tuple[tuple[int, int], ...]) -> Iterator[str]:
    """The text of _partition_texts in pieces of at most a sixteenth of a
    chunk, or of one part and its comma: a run's pieces are one str,
    repeated."""
    yield "["
    last = len(runs) - 1
    for i, (v, m) in enumerate(runs):
        unit = f"{v},"
        k = _CHUNK_CHARS // 16 // len(unit) or 1  # parts per piece
        whole, rest = divmod(m - (i == last), k)  # the last part ends in "]", not in a comma
        yield from repeat(unit * k, whole)
        yield unit * rest
    yield f"{runs[-1][0]}]"


def _cmd_check(args) -> int:
    from ._clifamily import _parse_check

    fn = _parse_check(args.family)
    if args.partition is not None:
        texts = [args.partition]
    else:  # stdin ends a line only at "\n", where splitlines ends one too
        texts = filter(str.strip, chain.from_iterable(map(str.splitlines, sys.stdin)))
    # every line is parsed before any report is written, so bad input never
    # yields partial output; only the reports are kept
    reports, failure = [], None
    for text in texts:
        lam = parse_partition(text)
        if failure is None:
            try:
                reports.append(fn(lam))
            except SeqcongError as e:  # raised after the reports before it, once every line parses
                failure = e
    # one encoding per report object, found by identity: a passing report is shared
    distinct = {id(report): report for report in reports}
    worst = int(not all(report.ok for report in distinct.values()))
    encoded = {key: _record_json(report) for key, report in distinct.items()}
    _write_lines(map(encoded.__getitem__, map(id, reports)))
    if failure is not None:
        raise failure
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
    _write_lines(_partition_texts((result,)))
    return 0


def _cmd_orbit(args) -> int:
    from . import maps

    lam = parse_partition(args.partition)
    trace = maps.orbit(lam, side=args.side)
    states = list(_partition_texts(trace.states))  # each refusal before any text
    tail = f',"cycle_length":{trace.cycle_length},"closed":{_dump(trace.closed)}}}\n'
    _write_lines(_json_array(states, '{"states":', tail), end="")
    return 0
