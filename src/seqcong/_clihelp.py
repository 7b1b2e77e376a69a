"""The help that ``seqcong -h`` and ``seqcong <command> --help`` print.

The usage line and the choices come from the CLI's command table, and the
family texts from the family table; this module adds the prose.  It is
loaded only when help is asked for, so no other call compiles it.
"""

from __future__ import annotations

from ._values import _LISTINGS, FAMILIES

# command path -> what it does
_ABOUT = {
    "seqcong": "Sequentially congruent partitions: predicates, bijections, enumerators, "
    "series identities.",
    "seqcong check": "membership test with first-violation witness",
    "seqcong map": "apply a bijection to one partition",
    "seqcong orbit": "alternate the two maps until the input recurs",
    "seqcong enum": "stream a family as JSON lines",
    "seqcong ideal": "deletion-closure and count-invariance checks",
    "seqcong ideal closure": "closure under deleting one part, up to --max-size",
    "seqcong ideal quasi": "closure of P_B(A) under scaled deletions, up to --max-size",
    "seqcong ideal equiv": "equal counts of two families at every size up to --max-size",
    "seqcong ideal invariance": "counts of P_B(A) unchanged by permuting A and replacing B",
    "seqcong series": "expand or verify generating-function identities",
    "seqcong series verify": "compare the two sides of an identity up to the truncation",
    "seqcong series expand": "print the coefficients of one side",
    "seqcong zeta": "restricted-partition zeta values, both sides",
}
_SEQUENCE = "a sequence: naturals, ones, odds, constant:k or a comma-separated table"
# positional or option -> what it takes
_ARGS = {
    "partition": "JSON array or frequency form",
    "other": "a second family, as above",
    "--A": _SEQUENCE,
    "--B": _SEQUENCE,
    "--A-prime": "a permutation of --A; by default --A reversed",
    "--B-prime": "a sequence to replace --B; by default 1, 2, ..., one term per term of --B",
    "--side": "P starts with pi, S with sigma on a sequentially congruent input",
    "--limit": "list at most this many members",
    "--count-only": "print min(count, --limit), computed without enumerating",
    "--json": "one JSON document instead of lines",
    "--max-items": "exit 3 rather than list more members than this",
    "--max-size": "the largest size checked",
    "--qtrunc": "the highest power of q kept",
    "--xtrunc": "the highest power of x kept",
    "--f": "weights: one, random-seeded:SEED, table:w1,w2,... or indicator:k1,k2,...",
    "--T": "comma-separated part set, all >= 2",
    "--s": "rational exponent > 1, e.g. 2, 5/2 or 1.5; no exponent notation",
    "--depth": "the highest power of q summed",
}


def _forms(table: dict, example: str) -> str:
    """Help text naming every family text of a table of families or listings."""
    forms = [name + (":" + ";".join(f"{key}=..." for key in keys) if keys else "")
             for name, (keys, *_) in table.items()]
    return " | ".join(forms) + f"; the first key may be written bare, as in {example}"


def describe(path: str, entry) -> str:
    """The help of a command path, whose entry in the command table is
    `entry`."""
    if isinstance(entry, dict):
        rows = [(word, _ABOUT.get(f"{path} {word}", "")) for word in entry]
        return f"usage: {path} {{{','.join(entry)}}} ...\n\n{_ABOUT[path]}\n" + "".join(
            f"\n  {word:<12}{text}" for word, text in rows)
    _, positionals, options = entry
    usage, rows = [path], []
    for name, convert in positionals.items():
        name, optional = name.rstrip("?"), name.endswith("?")
        usage.append(f"[{name}]" if optional else name)
        if name == "family" and path == "seqcong enum":
            unlisted = ", ".join(family for family, row in FAMILIES.items() if not row.listings)
            text = _forms(_LISTINGS, "all:5") + f"; no listing for {unlisted}"
        elif name == "family":
            text = _forms(FAMILIES, "parts:2,3")
        else:
            text = " | ".join(convert) if isinstance(convert, tuple) else _ARGS[name]
        if optional:
            text += "; omitted, one is read from each line of stdin"
        rows.append((name, text))
    for name, (convert, _, required) in options.items():
        spelled = f"--{name}"
        if convert is not None:
            spelled += " " + ("{" + ",".join(convert) + "}" if isinstance(convert, tuple)
                              else name.upper().replace("-", "_"))
        usage.append(spelled if required else f"[{spelled}]")
        rows.append((spelled, _ARGS[f"--{name}"]))
    return f"usage: {' '.join(usage)}\n\n{_ABOUT[path]}\n" + "".join(
        f"\n  {name:<20}{text}" if len(name) < 20 else f"\n  {name}\n  {'':<20}{text}"
        for name, text in rows)
