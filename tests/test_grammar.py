"""The family grammar of every subcommand, pinned byte for byte.

GOLDEN holds one line per family form and series side or identity that
the CLI accepts, with its exit code and stdout; REJECTED holds the texts
each subcommand refuses with exit 2.  The cases after them pin what one
namespace of family names changes: ``check`` takes every family
``ideal`` takes, a repeated B-value keeps its first position even when
that position is out of bound, and a negative ``--max-size`` is a usage
error.  OPTION_GRAMMAR and the property after it pin how options may be
spelled and placed, and the usage errors of the command line itself.  The
last property sweeps every command path with degenerate texts and holds
each call to the exit-code contract."""

import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from seqcong._values import _LISTINGS, FAMILIES
from seqcong.cli import main

GOLDEN = [
    # check: one report a partition
    (("check", "seqcong", "[20,17,15,9,5]"), 0,
     '{"ok":true,"index":null,"detail":"all sequential congruences hold"}\n'),
    (("check", "seqcong", "[21,18,16,10,6]"), 1,
     '{"ok":false,"index":5,"detail":"smallest part 6 is not congruent to 0 modulo 5"}\n'),
    (("check", "freqcong", "1 2^2 3^3"), 0,
     '{"ok":true,"index":null,"detail":"every part divides its multiplicity"}\n'),
    (("check", "freqcong", "[2,1,1]"), 1,
     '{"ok":false,"index":2,"detail":"part 2 has multiplicity 1, not divisible by 2"}\n'),
    (("check", "step", "[3,2,2]"), 1,
     '{"ok":false,"index":3,"detail":"step 2 at index 3 is neither 0 nor 3"}\n'),
    (("check", "step", "[3,1]"), 1,
     '{"ok":false,"index":1,"detail":"step 2 at index 1 is neither 0 nor 1"}\n'),
    (("check", "distinct", "[3,1]"), 0, '{"ok":true,"index":null,"detail":"all parts distinct"}\n'),
    (("check", "distinct", "[3,3]"), 1, '{"ok":false,"index":null,"detail":"a part repeats"}\n'),
    (("check", "selfconj", "[2,1]"), 0, '{"ok":true,"index":null,"detail":"self-conjugate"}\n'),
    (("check", "selfconj", "[3]"), 1, '{"ok":false,"index":null,"detail":"not self-conjugate"}\n'),
    (("check", "pba:A=2,3;B=5,7", "[7,7,7,5,5]"), 0,
     '{"ok":true,"index":null,"detail":"all multiplicities divisible as required"}\n'),
    (("check", "pba:A=2,3;B=5,7", "[7,7,7,5]"), 1,
     '{"ok":false,"index":5,"detail":"multiplicity 1 of part 5 is not divisible by 2 '
     '(A term at position 1)"}\n'),
    (("check", "pba:A=2,3;B=5,7;n=4", "[5,5]"), 0,
     '{"ok":true,"index":null,"detail":"all multiplicities divisible as required"}\n'),
    (("check", "sna:A=2,3,1", "[9,5,2]"), 0,
     '{"ok":true,"index":null,"detail":"all congruences modulo A hold"}\n'),
    (("check", "sna:A=2,3,1", "[9,4]"), 1,
     '{"ok":false,"index":1,"detail":"lambda_1=9 is not congruent to lambda_2=4 modulo 2"}\n'),
    # ideal closure and equiv, every family
    (("ideal", "closure", "all", "--max-size", "5"), 0,
     '{"ok":true,"index":null,"detail":"closed under single-part deletion"}\n'),
    (("ideal", "closure", "all", "--max-size", "0"), 0,
     '{"ok":true,"index":null,"detail":"closed under single-part deletion"}\n'),
    (("ideal", "closure", "empty", "--max-size", "5"), 0,
     '{"ok":true,"index":null,"detail":"closed under single-part deletion"}\n'),
    (("ideal", "closure", "oddparts", "--max-size", "6"), 0,
     '{"ok":true,"index":null,"detail":"closed under single-part deletion"}\n'),
    (("ideal", "closure", "parts:2,3", "--max-size", "6"), 0,
     '{"ok":true,"index":null,"detail":"closed under single-part deletion"}\n'),
    (("ideal", "closure", "distinct", "--max-size", "6"), 0,
     '{"ok":true,"index":null,"detail":"closed under single-part deletion"}\n'),
    (("ideal", "closure", "selfconj", "--max-size", "6"), 1,
     '{"ok":false,"index":1,"detail":"deleting one copy of 1 from [2, 1] leaves [2], '
     'which is outside the family"}\n'),
    (("ideal", "closure", "seqcong", "--max-size", "6"), 0,
     '{"ok":true,"index":null,"detail":"closed under single-part deletion"}\n'),
    (("ideal", "closure", "freqcong", "--max-size", "6"), 1,
     '{"ok":false,"index":2,"detail":"deleting one copy of 2 from [2, 2] leaves [2], '
     'which is outside the family"}\n'),
    (("ideal", "closure", "step", "--max-size", "6"), 1,
     '{"ok":false,"index":2,"detail":"deleting one copy of 2 from [2, 2] leaves [2], '
     'which is outside the family"}\n'),
    (("ideal", "closure", "pba:A=2,3;B=5,7", "--max-size", "20"), 1,
     '{"ok":false,"index":5,"detail":"deleting one copy of 5 from [5, 5] leaves [5], '
     'which is outside the family"}\n'),
    (("ideal", "closure", "sna:A=naturals", "--max-size", "6"), 0,
     '{"ok":true,"index":null,"detail":"closed under single-part deletion"}\n'),
    (("ideal", "equiv", "distinct", "oddparts", "--max-size", "8"), 0,
     '{"equivalent":true,"first_difference":null,"counts_first":[1,1,1,2,2,3,4,5,6],'
     '"counts_second":[1,1,1,2,2,3,4,5,6]}\n'),
    (("ideal", "equiv", "all", "empty", "--max-size", "3"), 1,
     '{"equivalent":false,"first_difference":1,"counts_first":[1,1,2,3],'
     '"counts_second":[1,0,0,0]}\n'),
    (("ideal", "equiv", "parts:2,3", "parts:3,2", "--max-size", "8"), 0,
     '{"equivalent":true,"first_difference":null,"counts_first":[1,0,1,1,1,1,2,1,2],'
     '"counts_second":[1,0,1,1,1,1,2,1,2]}\n'),
    (("ideal", "equiv", "seqcong", "freqcong", "--max-size", "8"), 0,
     '{"equivalent":true,"first_difference":null,"counts_first":[1,1,1,1,2,2,2,2,3],'
     '"counts_second":[1,1,1,1,2,2,2,2,3]}\n'),
    (("ideal", "quasi", "--A", "2,3", "--B", "5,7", "--max-size", "20"), 0,
     '{"ok":true,"index":null,"detail":"closed under scaled deletions"}\n'),
    (("ideal", "invariance", "--A", "2,3", "--B", "5,7", "--B-prime", "1,2", "--max-size", "8"), 0,
     '{"ok":true,"detail":"counts invariant under permuting A and replacing B",'
     '"sets_differ_at":2,"counts":[1,0,1,1,1,1,2,1,2]}\n'),
    # enum, every listing
    (("enum", "all:4"), 0, "[4]\n[3,1]\n[2,2]\n[2,1,1]\n[1,1,1,1]\n"),
    (("enum", "all:0"), 0, "[]\n"),
    (("enum", "distinct:6"), 0, "[6]\n[5,1]\n[4,2]\n[3,2,1]\n"),
    (("enum", "seqcong-lg:4"), 0, "[4,4,4,4]\n[4,4]\n[4,3,3]\n[4,2]\n[4]\n"),
    (("enum", "step-lg:6"), 0, "[6,6,6,6,6,6]\n[6,6,4,4]\n[6,5,5,5,5]\n[6,5,3]\n"),
    (("enum", "parts:T=2,3;n=7"), 0, "[3,2,2]\n"),
    (("enum", "pba:A=2,3;B=5,7;n=6"), 0, "[7,7,7,7,7,7]\n[5,5,5,5,5,5]\n"),
    (("enum", "pba:A=2,3;B=5,7;n=6;x=1"), 0, "[7,7,7,7,7,7]\n[5,5,5,5,5,5]\n"),
    (("enum", "pba:A=1,5;B=3,3;n=2"), 0, "[3,3]\n"),
    (("enum", "sna-lg:A=2,3,5,7;n=6"), 0, "[6,6]\n[6]\n"),
    (("enum", "sna-lg:A=naturals;n=5"), 0,
     "[5,5,5,5,5]\n[5,5,3]\n[5,4,4,4]\n[5,4]\n[5,3,3]\n[5,2]\n[5]\n"),
    (("enum", "all:6", "--count-only"), 0, "11\n"),
    (("enum", "seqcong-lg:5", "--json"), 0,
     "[[5,5,5,5,5],[5,5,3],[5,4,4,4],[5,4],[5,3,3],[5,2],[5]]\n"),
    (("enum", "pba:A=2,3;B=5,7;n=6", "--count-only"), 0, "2\n"),
    (("enum", "sna-lg:A=odds;n=9", "--count-only"), 0, "8\n"),
    # series expand, every side
    (("series", "expand", "product", "--qtrunc", "5"), 0,
     "q^0: 1\nq^1: 1\nq^2: 2\nq^3: 3\nq^4: 5\nq^5: 7\n"),
    (("series", "expand", "product", "--qtrunc", "4", "--f", "table:2,1/2,1,3"), 0,
     "q^0: 1\nq^1: 2\nq^2: 9/2\nq^3: 10\nq^4: 93/4\n"),
    (("series", "expand", "partition-sum", "--qtrunc", "5"), 0,
     "q^0: 1\nq^1: 1\nq^2: 2\nq^3: 3\nq^4: 5\nq^5: 7\n"),
    (("series", "expand", "seqcong-sum", "--qtrunc", "5"), 0,
     "q^0: 1\nq^1: 1\nq^2: 2\nq^3: 3\nq^4: 5\nq^5: 7\n"),
    (("series", "expand", "distinct-product", "--qtrunc", "6"), 0,
     "q^0: 1\nq^1: 1\nq^2: 1\nq^3: 2\nq^4: 2\nq^5: 3\nq^6: 4\n"),
    (("series", "expand", "step-sum", "--qtrunc", "6"), 0,
     "q^0: 1\nq^1: 1\nq^2: 1\nq^3: 2\nq^4: 2\nq^5: 3\nq^6: 4\n"),
    (("series", "expand", "euler", "--A", "2,3", "--xtrunc", "6"), 0,
     "x^0: 1\nx^2: 1\nx^3: 1\nx^4: 1\nx^5: 1\nx^6: 2\n"),
    (("series", "expand", "two-variable", "--A", "2,3", "--B", "5,7", "--xtrunc", "3",
      "--qtrunc", "20"), 0, "x^0 q^0: 1\nx^2 q^10: 1\n"),
    (("series", "expand", "pba-sum", "--A", "2,3", "--B", "5,7", "--xtrunc", "3",
      "--qtrunc", "20"), 0, "x^0 q^0: 1\nx^2 q^10: 1\n"),
    (("series", "expand", "step-sum", "--qtrunc", "4", "--json"), 0,
     '{"xtrunc":0,"qtrunc":4,"coefficients":[[0,0,"1"],[0,1,"1"],[0,2,"1"],[0,3,"2"],'
     '[0,4,"2"]]}\n'),
    # series verify, every identity
    (("series", "verify", "product-sum", "--qtrunc", "10"), 0, "PASS product-sum qtrunc=10\n"),
    (("series", "verify", "product-sum", "--qtrunc", "8", "--f", "random-seeded:3"), 0,
     "PASS product-sum qtrunc=8\n"),
    (("series", "verify", "product-seqcong", "--qtrunc", "10", "--f", "random-seeded:42"), 0,
     "PASS product-seqcong qtrunc=10\n"),
    (("series", "verify", "distinct", "--qtrunc", "12"), 0, "PASS distinct qtrunc=12\n"),
    (("series", "verify", "two-variable", "--A", "2,3", "--B", "5,7", "--xtrunc", "4",
      "--qtrunc", "30"), 0, "PASS two-variable qtrunc=30\n"),
]

REJECTED = [
    # unknown names, and a listing or a check under the other's name
    ("check", "mystery", "[5,5]"),
    ("check", "seqcong-lg:5", "[5]"),
    ("enum", "mystery:3"),
    ("enum", "everything:4"),
    ("enum", "seqcong:5"),
    ("ideal", "closure", "seqcong-lg:5", "--max-size", "3"),
    ("ideal", "equiv", "all", "mystery", "--max-size", "3"),
    # a missing key
    ("check", "pba:A=2,3", "[5]"),
    ("check", "sna:B=3", "[5,5]"),
    ("enum", "all"),
    ("enum", "parts:2,3"),
    ("enum", "parts:T=2,3"),
    ("enum", "pba:A=2,3;n=4"),
    ("enum", "sna-lg:n=4"),
    # a value where none is taken, an empty piece, a bad value
    ("check", "distinct:", "[5,5]"),
    ("check", "seqcong:", "[5,5]"),
    ("check", "pba:A=2,3;B=5,7;", "[5,5]"),
    ("enum", "all:x"),
    ("enum", "all:-1"),
    ("enum", "parts:T=0;n=3"),
    ("ideal", "closure", "parts:0", "--max-size", "3"),
    ("ideal", "closure", "parts:", "--max-size", "3"),
    ("ideal", "closure", "parts:x", "--max-size", "3"),
    ("ideal", "equiv", "all", "all", "--max-size", "-1"),
    # an A table too short for the listing
    ("enum", "sna-lg:A=2,3,5;n=6"),
    # each series side and identity without a flag it needs
    ("series", "expand", "product"),
    ("series", "expand", "partition-sum"),
    ("series", "expand", "seqcong-sum"),
    ("series", "expand", "distinct-product"),
    ("series", "expand", "step-sum"),
    ("series", "expand", "euler", "--xtrunc", "4"),
    ("series", "expand", "euler", "--A", "2,3"),
    ("series", "expand", "two-variable", "--B", "5,7", "--xtrunc", "3", "--qtrunc", "20"),
    ("series", "expand", "two-variable", "--A", "2,3", "--xtrunc", "3", "--qtrunc", "20"),
    ("series", "expand", "two-variable", "--A", "2,3", "--B", "5,7", "--qtrunc", "20"),
    ("series", "expand", "pba-sum", "--A", "2,3", "--B", "5,7", "--xtrunc", "3"),
    ("series", "expand", "pba-sum", "--B", "5,7", "--xtrunc", "3", "--qtrunc", "20"),
    ("series", "verify", "two-variable", "--B", "5,7", "--xtrunc", "4", "--qtrunc", "30"),
    ("series", "verify", "two-variable", "--A", "2,3", "--xtrunc", "4", "--qtrunc", "30"),
    ("series", "verify", "two-variable", "--A", "2,3", "--B", "5,7", "--qtrunc", "30"),
]


def _run(capsys, argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.parametrize("argv, code, out", GOLDEN, ids=[" ".join(c[0]) for c in GOLDEN])
def test_golden(capsys, argv, code, out):
    assert _run(capsys, argv) == (code, out)


@pytest.mark.parametrize("argv", REJECTED, ids=[" ".join(a) for a in REJECTED])
def test_rejected(capsys, argv):
    assert _run(capsys, argv) == (2, "")


# check takes every family ideal takes, with a report and exit 0 or 1
@pytest.mark.parametrize(
    "family, parts, code, detail",
    [
        ("all", "[3,3]", 0, "every partition"),
        ("empty", "[]", 0, "empty"),
        ("empty", "[1]", 1, "not empty"),
        ("oddparts", "[3,1,1]", 0, "all parts odd"),
        ("oddparts", "[3,2]", 1, "a part is even"),
        ("parts:2,3", "[3,2,2]", 0, "all parts allowed"),
        ("parts:T=2,3", "[3,1]", 1, "a part is not allowed"),
    ],
)
def test_check_takes_every_family(capsys, family, parts, code, detail):
    ok = "true" if code == 0 else "false"
    assert _run(capsys, ("check", family, parts)) == (
        code, f'{{"ok":{ok},"index":null,"detail":"{detail}"}}\n'
    )


def test_a_family_text_means_the_same_in_check_and_ideal(capsys):
    # the first key may be written bare wherever the family is named
    for family in ("parts:2,3", "parts:T=2,3"):
        assert _run(capsys, ("ideal", "equiv", family, "parts:3,2", "--max-size", "6"))[0] == 0
    assert _run(capsys, ("enum", "parts:2,3;n=7")) == (0, "[3,2,2]\n")
    assert _run(capsys, ("check", "pba:2,3;B=5,7", "[5,5]"))[0] == 0


# A = 5,1 and B = 3,3: the B-value 3 belongs to position 1, whose A-term 5
# is out of bound at length 2 and in the q^3 coefficient
def test_repeated_b_value_keeps_its_first_position(capsys):
    assert _run(capsys, ("enum", "pba:A=5,1;B=3,3;n=2")) == (0, "")
    assert _run(capsys, ("enum", "pba:A=5,1;B=3,3;n=5")) == (0, "[3,3,3,3,3]\n")
    assert _run(capsys, ("check", "pba:A=5,1;B=3,3", "[3,3]")) == (
        1,
        '{"ok":false,"index":3,"detail":"multiplicity 2 of part 3 is not divisible by 5 '
        '(A term at position 1)"}\n',
    )
    assert _run(
        capsys,
        ("series", "verify", "two-variable", "--A", "5,1", "--B", "3,3", "--xtrunc", "4",
         "--qtrunc", "12"),
    ) == (1, "FAIL two-variable at x^1 q^3: lhs=1 rhs=0\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("ideal", "closure", "all"),
        ("ideal", "quasi", "--A", "2,3", "--B", "5,7"),
        ("ideal", "equiv", "all", "all"),
        ("ideal", "invariance", "--A", "2,3", "--B", "5,7"),
    ],
)
def test_negative_max_size_is_a_usage_error(capsys, argv):
    code = main([*argv, "--max-size", "-1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "--max-size: must be >= 0, got -1" in captured.err


@pytest.mark.parametrize("command", ["check", "enum"])
def test_help_names_every_family(capsys, command):
    assert main([command, "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    for name in FAMILIES:
        assert re.search(rf"\b{name}\b", text), name


# The option grammar, as the parser must keep accepting it: (argv, exit
# code, stdout, a fragment of stderr).  Every case held for the argparse
# parser the command table replaced.
EQUIV = (
    '{"equivalent":true,"first_difference":null,"counts_first":[1,1,1,2,2,3,4,5,6],'
    '"counts_second":[1,1,1,2,2,3,4,5,6]}\n'
)
CLOSED = '{"ok":true,"index":null,"detail":"closed under single-part deletion"}\n'
ORBIT = '{"states":[[3,1],[4,2],[2,1,1],[4,3,3],[3,1]],"cycle_length":2,"closed":true}\n'
OPTION_GRAMMAR = [
    # options before, between or after positionals
    (("ideal", "equiv", "--max-size", "8", "distinct", "oddparts"), 0, EQUIV, ""),
    (("ideal", "equiv", "distinct", "--max-size", "8", "oddparts"), 0, EQUIV, ""),
    (("ideal", "equiv", "distinct", "oddparts", "--max-size", "8"), 0, EQUIV, ""),
    (("map", "--A", "2,3", "scale", "--B", "5,7", "[3,2,2]"), 0, "[7,7,7,5,5,5,5]\n", ""),
    (("series", "verify", "--qtrunc", "10", "distinct"), 0, "PASS distinct qtrunc=10\n", ""),
    (("orbit", "--side", "P", "[3,1]"), 0, ORBIT, ""),
    # --flag value and --flag=value
    (("enum", "all:5", "--limit=2"), 0, "[5]\n[4,1]\n", ""),
    (("series", "verify", "distinct", "--qtrunc=10"), 0, "PASS distinct qtrunc=10\n", ""),
    (("map", "scale", "[3,2,2]", "--A=2,3", "--B=5,7"), 0, "[7,7,7,5,5,5,5]\n", ""),
    (("ideal", "closure", "all", "--max-size=-1"), 2, "", "--max-size: must be >= 0, got -1"),
    # unique-prefix abbreviations
    (("enum", "all:5", "--count"), 0, "7\n", ""),
    (("enum", "all:5", "--li", "2"), 0, "[5]\n[4,1]\n", ""),
    (("enum", "all:5", "--li=2"), 0, "[5]\n[4,1]\n", ""),
    (("orbit", "[3,1]", "--si", "P"), 0, ORBIT, ""),
    (("ideal", "closure", "all", "--max", "3"), 0, CLOSED, ""),
    (("zeta", "--T", "2", "--s", "2", "--d", "5"), 0,
     "sum_side 1.312500000000\nproduct_side 1.333333333333\ndepth 5 terms 3\n", ""),
    (("enum", "all:5", "--=2"), 2, "",
     "ambiguous option: -- could match --limit, --count-only, --json, --max-items, --help"),
    # -- ends the options
    (("map", "pi", "--", "[3,1]"), 0, "[4,2]\n", ""),
    (("ideal", "closure", "--max-size", "3", "--", "all"), 0, CLOSED, ""),
    # a value that starts with - is taken as the value
    (("ideal", "closure", "all", "--max-size", "-1"), 2, "", "--max-size: must be >= 0, got -1"),
    (("enum", "all:5", "--limit", "-1"), 2, "", "--limit: must be >= 0, got -1"),
    (("enum", "all:2", "--limit", "1" + "0" * 30), 0, "[2]\n[1,1]\n", ""),  # past sys.maxsize
    (("zeta", "--T", "2,3", "--s", "2", "--depth", "10", "--dps", "-3"), 2, "",
     "unrecognized arguments: --dps"),
    # usage errors
    ((), 2, "", "the following arguments are required: command"),
    (("bogus",), 2, "", "invalid choice: 'bogus'"),
    (("ideal",), 2, "", "the following arguments are required:"),
    (("series", "bogus"), 2, "", "invalid choice: 'bogus'"),
    (("map", "bogus", "[3,1]"), 2, "", "invalid choice: 'bogus'"),
    (("orbit", "--side", "Q", "[3,1]"), 2, "", "invalid choice: 'Q'"),
    (("series", "verify", "nope", "--qtrunc", "3"), 2, "", "invalid choice: 'nope'"),
    (("series", "expand", "nope"), 2, "", "invalid choice: 'nope'"),
    (("ideal", "closure", "all"), 2, "", "the following arguments are required: --max-size"),
    (("zeta", "--T", "2", "--s", "2"), 2, "", "the following arguments are required: --depth"),
    (("map", "pi"), 2, "", "the following arguments are required: partition"),
    (("series", "verify", "distinct", "--qtrunc", "x"), 2, "",
     "--qtrunc: invalid int value: 'x'"),
    (("ideal", "closure", "all", "--max-size", "x"), 2, "", "--max-size: invalid int value: 'x'"),
    (("enum", "all:5", "--limit"), 2, "", "--limit: expected one argument"),
    (("enum", "all:5", "--json=1"), 2, "", "--json: ignored explicit argument '1'"),
    (("map", "pi", "[3,1]", "extra"), 2, "", "unrecognized arguments: extra"),
    (("enum", "all:5", "--bogus"), 2, "", "unrecognized arguments: --bogus"),
]


@pytest.mark.parametrize(
    "argv, code, out, err", OPTION_GRAMMAR, ids=[" ".join(c[0]) or "(none)" for c in OPTION_GRAMMAR]
)
def test_option_grammar(capsys, argv, code, out, err):
    got = main(list(argv))
    captured = capsys.readouterr()
    assert (got, captured.out) == (code, out)
    assert err in captured.err
    assert (captured.err == "") == (code == 0)


@pytest.mark.parametrize(
    "argv, usage",
    [
        (("-h",), "usage: seqcong "),
        (("--help",), "usage: seqcong "),
        (("enum", "-h"), "usage: seqcong enum "),
        (("map", "pi", "[3,1]", "--help"), "usage: seqcong map "),
        (("ideal", "--help"), "usage: seqcong ideal "),
        (("ideal", "closure", "-h"), "usage: seqcong ideal closure "),
        (("series", "verify", "--help"), "usage: seqcong series verify "),
        (("zeta", "-h"), "usage: seqcong zeta "),
    ],
)
def test_help_prints_the_usage_and_exits_zero(capsys, argv, usage):
    assert main(list(argv)) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(usage) and captured.err == ""


# Spelling does not matter: the options of a call may come in any order,
# before, between or after its positionals, each as `--f v` or `--f=v`.
def _respelled(data, positionals, options, flags):
    """The positionals in their order, with the options and flags (options
    that take no value) permuted, respelled and spread between them."""
    groups = [[f"{k}={v}"] if data.draw(st.booleans()) else [k, v] for k, v in options]
    groups = data.draw(st.permutations(groups + [[flag] for flag in flags]))
    slots = data.draw(st.lists(st.integers(0, len(groups)), min_size=len(positionals),
                               max_size=len(positionals)))
    for slot, word in reversed(list(zip(sorted(slots), positionals))):
        groups.insert(slot, [word])
    return [word for group in groups for word in group]


def _enum_call(data):
    family = data.draw(st.sampled_from(["all:6", "distinct:9", "seqcong-lg:7", "parts:2,3;n=9"]))
    options = [("--limit", str(data.draw(st.integers(0, 12))))] if data.draw(st.booleans()) else []
    if data.draw(st.booleans()):
        options.append(("--max-items", str(data.draw(st.integers(0, 12)))))
    flags = data.draw(st.sampled_from([[], ["--count-only"], ["--json"]]))
    return ["enum"], [family], options, flags


def _series_call(data):
    identity = data.draw(st.sampled_from(["product-sum", "distinct", "two-variable"]))
    options = [("--qtrunc", str(data.draw(st.integers(0, 12))))]
    if identity == "two-variable":
        options += [("--A", "2,3"), ("--B", "5,7"), ("--xtrunc", str(data.draw(st.integers(0, 4))))]
    elif data.draw(st.booleans()):
        options.append(("--f", data.draw(st.sampled_from(["one", "random-seeded:5", "table:2,1/2"]))))
    return ["series", "verify"], [identity], options, []


def _ideal_call(data):
    size = ("--max-size", str(data.draw(st.integers(0, 6))))
    kind = data.draw(st.sampled_from(["closure", "quasi", "equiv", "invariance"]))
    if kind == "closure":
        return ["ideal", kind], [data.draw(st.sampled_from(["selfconj", "seqcong"]))], [size], []
    if kind == "equiv":
        return ["ideal", kind], ["distinct", "oddparts"], [size], []
    options = [("--A", "2,3"), ("--B", "5,7"), size]
    if kind == "invariance" and data.draw(st.booleans()):
        options.append(("--B-prime", "1,2"))
    return ["ideal", kind], [], options, []


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_spelling_does_not_matter(capsys, data):
    command, positionals, options, flags = data.draw(
        st.sampled_from([_enum_call, _series_call, _ideal_call]))(data)
    canonical = [*command, *positionals, *(word for pair in options for word in pair), *flags]
    expected = main(canonical), capsys.readouterr().out
    argv = [*command, *_respelled(data, positionals, options, flags)]
    assert (main(argv), capsys.readouterr().out) == expected


# The contract sweep: every command path of the command table, with
# degenerate texts, returns 0-3, raises nothing and, on exit 2 or 3, writes
# exactly one error line of under 300 bytes.  Numbers are small, 30 digits,
# 2,201 digits (whose square passes Python's 4,300-digit limit on integer
# text), past that limit, or invalid; tables are short or of 2,000 terms;
# sizes that would list members stay small, as a listing's length is its
# output.
HUGE = str(10**30 - 7)
SQUARE_OVER_LIMIT = "1" + "0" * 2200
OVER_LIMIT = "1" + "0" * 4300
NUMBERS = st.sampled_from(["-1", "0", "1", "2", "3", "7", "12", HUGE, "-" + HUGE, SQUARE_OVER_LIMIT,
                           "-" + SQUARE_OVER_LIMIT, OVER_LIMIT, "x", ""])
TERMS = st.sampled_from(["-2", "0", "1", "2", "3", "5", "7", HUGE, OVER_LIMIT])
LONG_TABLE = ",".join(map(str, range(1, 2001)))
TABLES = st.one_of(st.lists(TERMS, max_size=4).map(",".join), st.just(LONG_TABLE))
SEQUENCES = st.one_of(
    st.sampled_from(["naturals", "nat", "ones", "odds", "constant:0", "constant:-1",
                     "constant:3", "constant:" + HUGE, "const:2", "bogus", LONG_TABLE]),
    st.lists(TERMS, max_size=5).map(",".join),  # repeated terms, short tables, 30 digits
)
WEIGHTS = st.one_of(
    st.sampled_from(["one", "1", "random:" + HUGE, "random-seeded:-3", "random:x", "indicator:",
                     "indicator:0,2," + HUGE, "table:1/0", "table:", "table:nan", "bogus"]),
    st.lists(st.sampled_from(["0", "-1", "1/2", "3", f"1/{HUGE}", f"{HUGE}/7", "1/0"]),
             max_size=14).map(lambda ws: "table:" + ",".join(ws)),
)
PARTITIONS = st.one_of(
    st.lists(TERMS, max_size=6).map(lambda ps: "[" + ",".join(ps) + "]"),
    st.sampled_from(["[]", "[1,", "{}", "[true]", "[2.5]", "", " ", "1^3 2 5^2", "0",
                     f"1^{HUGE}", f"{HUGE}^2 3", f"1^{OVER_LIMIT}", "2^0", "a^b", "[3]\n[2]"]),
)


@st.composite
def _family_text(draw, table, small_n: bool):
    """A family text of `table` (the check or the listing families), its
    keys drawn from the degenerate texts; n is small unless `small_n` is
    False."""
    name = draw(st.sampled_from(sorted(table)))
    keys, *_ = table[name]
    values = {"T": TABLES, "A": SEQUENCES, "B": SEQUENCES,
              "n": st.sampled_from(["-1", "0", "3", "7", "12", "x"]) if small_n else NUMBERS}
    pieces = [f"{key}={draw(values[key])}" for key in keys if draw(st.integers(0, 9))]
    return name + (":" + ";".join(pieces) if pieces else "")


_OPTION_TEXTS = {"A": SEQUENCES, "B": SEQUENCES, "A-prime": SEQUENCES, "B-prime": SEQUENCES,
                 "f": WEIGHTS, "T": TABLES,
                 "s": st.sampled_from(["2", "1", "0", "-2", "21/20", "1/0", "nan", "inf", "1e400",
                                       f"{HUGE}/{HUGE[:-1]}", HUGE, "x"])}


def _command_paths(entry, path=()):
    if isinstance(entry, tuple):
        return [path]
    return [p for word, below in entry.items() for p in _command_paths(below, (*path, word))]


@st.composite
def _contract_call(draw, path):
    from seqcong import cli

    entry = cli._COMMANDS
    for word in path:
        entry = entry[word]
    _, positionals, options = entry
    count_only = path == ("enum",) and draw(st.booleans())
    argv = list(path)
    for name, convert in positionals.items():
        if name.endswith("?") and draw(st.booleans()):
            continue
        if isinstance(convert, tuple):
            argv.append(draw(st.sampled_from(convert)))
        elif name == "family" and path == ("enum",):
            # a listing is as long as its members: n is small unless only counted
            argv.append(draw(_family_text(_LISTINGS, small_n=not count_only)))
        elif name in ("family", "other"):
            argv.append(draw(_family_text(FAMILIES, small_n=True)))
        else:
            argv.append(draw(PARTITIONS))
    for name, (convert, _, required) in options.items():
        if not (draw(st.integers(0, 19)) if required else draw(st.booleans())):  # a required one, rarely
            continue
        if convert is None:
            argv.append(f"--{name}")
        elif isinstance(convert, tuple):
            argv += [f"--{name}", draw(st.sampled_from(convert))]
        else:
            argv += [f"--{name}", draw(_OPTION_TEXTS.get(name, NUMBERS))]
    if count_only:
        argv.append("--count-only")
    return argv


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_every_command_path_keeps_the_exit_contract(data):
    import contextlib
    import io
    from unittest import mock

    from seqcong import cli

    path = data.draw(st.sampled_from(_command_paths(cli._COMMANDS)))
    argv = data.draw(_contract_call(path))
    out, err = io.StringIO(), io.StringIO()
    stdin = io.StringIO(data.draw(PARTITIONS) + "\n")
    with mock.patch("sys.stdin", stdin), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
    if code in (2, 3):
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, argv
        assert len(err.getvalue().encode()) < 300, argv
    else:
        assert err.getvalue() == "", argv
