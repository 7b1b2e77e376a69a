"""Lazy loading: ``import seqcong`` resolves each export on first use, and
each CLI subcommand imports only the modules it runs."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import seqcong
from seqcong import cli

SRC = str(Path(__file__).resolve().parents[1] / "src")

# every name `seqcong` exports, by the submodule that defines it
EXPORTS = {
    "errors": (
        "BoundsMismatch", "DivergentParameters", "ExtentExceeded", "InsufficientMultiplicity",
        "InternalContradiction", "InvalidDeletion", "InvalidExponent", "InvalidPart",
        "NonDistinctA", "NotMemberPBA", "NotSequentiallyCongruent", "ParseError", "PartNotInA",
        "ResourceBound", "SeqcongError",
    ),
    "families": (
        "FamilyDescriptor", "all_of_size", "check_ideal_closure", "check_quasi_ideal", "count",
        "count_invariance_suite", "counts_by_size", "distinct_of_size", "enumerate_family",
        "ideal_equivalent_upto", "iter_pba_by_size", "partition_count", "partitions_of",
        "parts_in", "pba_length", "restricted_count", "scaled_deletion", "seqcong_largest",
        "sna_largest", "step_bounded_largest",
    ),
    "maps": (
        "OrbitTrace", "orbit", "pi", "pi_inverse", "scale_map", "scale_map_inverse", "sigma",
        "sigma_inverse",
    ),
    "partition": ("EMPTY", "Partition"),
    "predicates": (
        "ViolationReport", "has_distinct_parts", "is_frequency_congruent", "is_member_pba",
        "is_member_sna", "is_self_conjugate", "is_sequentially_congruent",
        "is_step_bounded_seqcong",
    ),
    "sequences": ("NATURALS", "ODDS", "ONES", "SequenceSpec"),
    "series": (
        "BivariateSeries", "WeightSpec", "distinct_product_side", "euler_limit_side",
        "product_side", "two_var_product_side",
    ),
    "sums": (
        "SeriesComparison", "ZetaEvaluation", "compare", "partition_sum_side", "partition_zeta",
        "pba_sum_side", "seqcong_sum_side", "step_bounded_sum_side",
    ),
}
ALL_NAMES = [name for names in EXPORTS.values() for name in names]


def _python(code: str, *argv: str, stdin: str | None = None) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, input=stdin, capture_output=True, text=True, timeout=60,
    )


def test_every_export_resolves_to_its_definition():
    assert len(ALL_NAMES) == 71
    assert sorted(seqcong.__all__) == sorted(ALL_NAMES)
    for module, names in EXPORTS.items():
        owner = importlib.import_module(f"seqcong.{module}")
        for name in names:
            assert getattr(seqcong, name) is getattr(owner, name)


def test_star_import_and_dir():
    namespace: dict = {}
    exec("from seqcong import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == sorted(ALL_NAMES)
    listed = dir(seqcong)
    assert set(ALL_NAMES) <= set(listed)
    assert set(EXPORTS) <= set(listed)
    assert "__version__" in listed


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        seqcong.nonexistent  # noqa: B018


def test_submodules_are_attributes_right_after_import():
    done = _python(
        "import sys, seqcong\n"
        "before = sorted(m for m in sys.modules if m.startswith('seqcong'))\n"
        "n = seqcong.families.count(seqcong.families.all_of_size(10))\n"
        "q = seqcong.series.product_side(seqcong.series.WeightSpec.one(), 3)\n"
        "print(before, n, q.coefficient(0, 3), seqcong.__version__)\n"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "['seqcong', 'seqcong.errors'] 42 3 0.1.0\n"


# dataclasses (with inspect) costs every process about 14 ms, argparse (with
# gettext) about 3 ms and building its parser 5 ms more; no subcommand uses
# them.  Each command compiles only its handler module: _clipartition for
# check, map and orbit (and the lines of an enum listing), _clifamily for
# enum, ideal and check, _cliseries for series and zeta.  sequences is
# loaded only by the calls that read a sequence or count, maps only by map
# and orbit, predicates only by the calls that check membership, json only
# by the calls that read a JSON partition or print a record, and the run
# walkers only by the calls that build members: a count builds none, and
# of the series commands only the pba sum side does.  The sum sides,
# compare and zeta (sums) are loaded only by series verify, zeta and an
# expand of a sum side, never by a product side.  fractions (which
# loads decimal) is loaded only by the series calls that make a Fraction: a
# weight, a rational coefficient or zeta's sides; an integer side writes its
# ints as they are, even under --json, and an integral weight is an int.
WATCHED = (
    "argparse", "dataclasses", "decimal", "fractions", "gettext", "inspect", "json", "mpmath",
    "seqcong._clifamily", "seqcong._clipartition", "seqcong._cliseries", "seqcong._walkers",
    "seqcong.families", "seqcong.maps", "seqcong.partition", "seqcong.predicates",
    "seqcong.sequences", "seqcong.series", "seqcong.sums",
)
# the probe imports nothing of WATCHED itself, so it prints a repr, not JSON
PROBE = (
    "import contextlib, io, sys\n"
    "from seqcong import cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    rc = cli.main(sys.argv[1:])\n"
    f"print(repr([rc, [m for m in {WATCHED!r} if m in sys.modules]]))\n"
)
COUNT_MODULES = ["seqcong._clifamily", "seqcong.families", "seqcong.sequences"]
SERIES_MODULES = ["seqcong._cliseries", "seqcong.sequences", "seqcong.series"]
RATIONAL_MODULES = ["decimal", "fractions", *SERIES_MODULES]
SUMS_MODULES = [*SERIES_MODULES, "seqcong.sums"]
RATIONAL_SUMS_MODULES = [*RATIONAL_MODULES, "seqcong.sums"]
MEMBER_MODULES = ["seqcong._walkers", "seqcong.families", "seqcong.partition", "seqcong.sequences"]
CHECK_MODULES = [
    "json", "seqcong._clifamily", "seqcong._clipartition", "seqcong.partition", "seqcong.predicates",
]
MAP_MODULES = ["json", "seqcong._clipartition", "seqcong.maps", "seqcong.partition"]


def _loaded(argv, stdin: str | None = None) -> list:
    done = _python(PROBE, *argv, stdin=stdin)
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout)


# the paths first pinned, then one case for each job shape of the
# benchmark's workloads that they do not cover
@pytest.mark.parametrize(
    "argv, rc, loaded",
    [
        (("map", "pi", "[3,1]"), 0, [*MAP_MODULES, "seqcong.predicates"]),
        (("check", "seqcong", "[3,1]"), 1, CHECK_MODULES),
        (("orbit", "[3,1]"), 0, [*MAP_MODULES, "seqcong.predicates"]),
        (("enum", "all:5", "--count-only"), 0, COUNT_MODULES),
        # an integral weight makes no Fraction, so --f one loads neither fractions nor decimal
        (("series", "expand", "product", "--qtrunc", "10"), 0, SERIES_MODULES),
        (("series", "expand", "distinct-product", "--qtrunc", "10"), 0, SERIES_MODULES),
        (("series", "expand", "euler", "--A", "2,3", "--xtrunc", "10"), 0, SERIES_MODULES),
        (("series", "expand", "product", "--qtrunc", "3", "--json"), 0, SERIES_MODULES),
        (("series", "verify", "distinct", "--qtrunc", "10"), 0, SUMS_MODULES),
        (("zeta", "--T", "2", "--s", "2", "--depth", "5"), 0, RATIONAL_SUMS_MODULES),
        (("--help",), 0, []),
        (("map", "scale", "[3,2,2]", "--A", "2,3", "--B", "5,7"), 0, [*MAP_MODULES, "seqcong.sequences"]),
        (("check", "sna:A=2,3,1", "[9,5,2]"), 0, [*CHECK_MODULES, "seqcong.sequences"]),
        # count-verify
        (("enum", "seqcong-lg:10", "--count-only"), 0, COUNT_MODULES),
        (("enum", "step-lg:10", "--count-only"), 0, COUNT_MODULES),
        (("enum", "sna-lg:A=odds;n=10", "--count-only"), 0, COUNT_MODULES),
        (("enum", "pba:A=naturals;B=naturals;n=10", "--count-only"), 0, COUNT_MODULES),
        (
            ("ideal", "invariance", "--A", "3,1,2", "--B", "naturals", "--max-size", "6"), 0,
            ["json", "seqcong._clifamily", "seqcong._walkers", "seqcong.families", "seqcong.sequences"],
        ),
        (("series", "verify", "product-sum", "--qtrunc", "10", "--f", "random:3"), 0, RATIONAL_SUMS_MODULES),
        (("series", "verify", "product-seqcong", "--qtrunc", "10", "--f", "random:3"), 0, RATIONAL_SUMS_MODULES),
        (
            ("series", "verify", "two-variable", "--qtrunc", "5", "--xtrunc", "5", "--A", "naturals",
             "--B", "naturals"), 0,
            ["seqcong._cliseries", "seqcong._walkers", "seqcong.sequences", "seqcong.series", "seqcong.sums"],
        ),
        # series-expand
        (
            ("series", "expand", "two-variable", "--A", "naturals", "--B", "naturals", "--xtrunc", "3",
             "--qtrunc", "3"), 0, SERIES_MODULES,
        ),
        # member-io: a listing, its members checked on stdin, and small calls
        (("enum", "seqcong-lg:8"), 0, ["seqcong._clifamily", "seqcong._clipartition", *MEMBER_MODULES]),
        (("check", "seqcong"), 1, CHECK_MODULES),
        (
            ("map", "sigma-inv", "1^2 3"), 0,
            ["seqcong._clipartition", "seqcong.maps", "seqcong.partition", "seqcong.predicates"],
        ),
        (("map", "conjugate", "[3,1]"), 0, ["json", "seqcong._clipartition", "seqcong.partition"]),
        (("check", "freqcong", "1^2"), 0, CHECK_MODULES),
        (("check", "selfconj", "[2,1]"), 0, CHECK_MODULES),
        # an integer side writes --json without json or fractions; a random table loads fractions
        (("series", "expand", "distinct-product", "--qtrunc", "3", "--json"), 0, SERIES_MODULES),
        (("series", "expand", "product", "--qtrunc", "150", "--f", "random:3"), 0, RATIONAL_MODULES),
    ],
)
def test_each_subcommand_loads_only_what_it_runs(argv, rc, loaded):
    assert _loaded(argv, stdin="[3,1]\n[2]\n") == [rc, loaded]


def test_zeta_runs_where_mpmath_cannot_be_imported():
    # as the installed console script runs it, with `import mpmath` failing
    done = _python(
        "import sys\nsys.modules['mpmath'] = None\nfrom seqcong.cli import run\nrun()\n",
        "zeta", "--T", "2,3", "--s", "2", "--depth", "40",
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "sum_side 1.499999999997\nproduct_side 1.500000000000\ndepth 40 terms 154\n"


def test_an_integer_side_runs_where_fractions_cannot_be_imported():
    # an integer side makes no Fraction: series expand writes its ints
    done = _python(
        "import sys\nsys.modules['fractions'] = None\nfrom seqcong.cli import run\nrun()\n",
        "series", "expand", "two-variable", "--A", "naturals", "--B", "naturals", "--xtrunc", "3", "--qtrunc", "3",
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "x^0 q^0: 1\nx^1 q^1: 1\nx^2 q^2: 1\nx^3 q^3: 1\n"


TERMS = ("--A", "naturals", "--B", "naturals", "--xtrunc", "3", "--qtrunc", "3")


@pytest.mark.parametrize(
    "argv",
    [("series", "expand", side, *TERMS) for side in cli._SIDES]
    + [("series", "verify", identity, *TERMS) for identity in cli._IDENTITIES],
)
def test_only_the_pba_sum_side_loads_families(argv):
    # the pba sum side walks its runs without building a Partition, so no
    # series path loads families or partition; it alone loads the walkers
    rc, loaded = _loaded(argv)
    assert rc == 0
    walks_members = argv[1:3] in (("expand", "pba-sum"), ("verify", "two-variable"))
    assert "seqcong.families" not in loaded and "seqcong.partition" not in loaded, loaded
    assert ("seqcong._walkers" in loaded) == walks_members, loaded


PRODUCT_SIDES = ("product", "distinct-product", "euler", "two-variable")


def test_the_product_sides_are_the_sides_series_defines():
    in_series = [side for side, (function, _) in cli._SIDES.items() if function.startswith("series.")]
    assert sorted(in_series) == sorted(PRODUCT_SIDES)
    assert all(function.startswith(("series.", "sums.")) for function, _ in cli._SIDES.values())


@pytest.mark.parametrize(
    "argv",
    [("series", "expand", side, *TERMS, *json) for side in cli._SIDES for json in ((), ("--json",))]
    + [("series", "verify", identity, *TERMS) for identity in cli._IDENTITIES]
    + [("zeta", "--T", "2,3", "--s", "2", "--depth", "5")],
)
def test_only_verify_zeta_and_the_sum_sides_load_sums(argv):
    # a product-side expand compiles no sum side, compare or zeta
    rc, loaded = _loaded(argv)
    assert rc == 0
    product_expand = argv[1:2] == ("expand",) and argv[2] in PRODUCT_SIDES
    assert ("seqcong.sums" in loaded) != product_expand, loaded
