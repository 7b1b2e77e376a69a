"""Weight texts and series sides, with the commands series verify, series
expand and zeta."""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING

from .cli import _IDENTITIES, _SIDES, _json_array, _rational, _why, _write_lines, parse_sequence
from .errors import ParseError, _shown

if TYPE_CHECKING:
    from fractions import Fraction

    from .series import BivariateSeries, WeightSpec


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


# zeta prints _ZETA_PLACES decimal places from partition_zeta's 30 working
# digits.  A sum of up to 10**7 terms (the item cap), each rounded once, can
# lose about seven of them, which leaves eleven for the digits before the
# point.  The sum never exceeds the product over T of 1 / (1 - t^-s), and
# for distinct t >= 2 and s > 1 that is below the product over t = 2..|T|+1
# of t / (t - 1) = |T| + 1: eleven digits cover every T of fewer than 10**11
# terms, far more than a command line holds.
_ZETA_PLACES = 12


def _format_fixed(value: Fraction) -> str:
    scaled = round(abs(value) * 10**_ZETA_PLACES)  # exact: a float's 53 bits lose places above 9000
    sign = "-" if scaled and value < 0 else ""
    ip, fp = divmod(scaled, 10**_ZETA_PLACES)
    return f"{sign}{ip}.{fp:0{_ZETA_PLACES}d}"


def _expand_side(side: str, args, parsed: dict | None = None) -> BivariateSeries:
    """Build one side from the flags it takes; the function is looked up in
    its module, `series` or `sums`, on each call, and only that module is
    imported.  A flag already in `parsed` is taken from it, and one parsed
    here is added, so that the two sides of an identity parse each flag
    once: a random table is drawn once."""
    function, flags = _SIDES[side]
    module, name = function.split(".")
    missing = [f"--{flag}" for flag in flags if getattr(args, flag) is None]
    if missing:
        raise ParseError(f"side {side} needs {', '.join(missing)}")
    parsed = {} if parsed is None else parsed
    for flag in flags:
        if flag not in parsed:
            text = getattr(args, flag)
            parsed[flag] = (parse_sequence(text) if flag in ("A", "B")
                            else parse_weights(text, args.qtrunc) if flag == "f" else text)
    return getattr(import_module(f".{module}", __package__), name)(*(parsed[flag] for flag in flags))


def _cmd_series_verify(args) -> int:
    from . import sums

    parsed: dict = {}
    lhs, rhs = (_expand_side(side, args, parsed) for side in _IDENTITIES[args.identity])
    outcome = sums.compare(lhs, rhs)
    if outcome.equal:
        print(f"PASS {args.identity} qtrunc={args.qtrunc}")
        return 0
    print(f"FAIL {args.identity} at x^{outcome.x_exponent} q^{outcome.q_exponent}: "
          f"lhs={outcome.lhs_coefficient} rhs={outcome.rhs_coefficient}")
    return 1


def _cmd_series_expand(args) -> int:
    s = _expand_side(args.side, args)
    if args.json:  # a coefficient's text, an int's or a Fraction's, never needs escaping
        head = f'{{"xtrunc":{s.xtrunc},"qtrunc":{s.qtrunc},"coefficients":'
        _write_lines(_json_array((f'[{a},{b},"{c}"]' for a, b, c in s._cells()), head, "}\n"), end="")
        return 0
    if s.xtrunc == 0:
        line = "q^{1}: {2}"
    elif s.qtrunc == 0:
        line = "x^{0}: {2}"
    else:
        line = "x^{0} q^{1}: {2}"
    _write_lines(line.format(a, b, c) for a, b, c in s._cells())
    return 0


def _cmd_zeta(args) -> int:
    from . import sums

    try:
        part_set = [int(v) for v in args.T.split(",")]
    except ValueError as e:
        raise ParseError(f"bad zeta parameters: {_why(e)}")
    result = sums.partition_zeta(part_set, args.s, args.depth)
    print(f"sum_side {_format_fixed(result.sum_side)}")
    print(f"product_side {_format_fixed(result.product_side)}")
    print(f"depth {result.qdepth} terms {result.terms}")
    return 0
