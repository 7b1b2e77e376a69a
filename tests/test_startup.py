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
        "BivariateSeries", "SeriesComparison", "WeightSpec", "ZetaEvaluation", "compare",
        "distinct_product_side", "euler_limit_side", "partition_sum_side",
        "partition_zeta", "pba_sum_side", "product_side", "seqcong_sum_side",
        "step_bounded_sum_side", "two_var_product_side",
    ),
}
ALL_NAMES = [name for names in EXPORTS.values() for name in names]


def _python(code: str, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=60,
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
# them.  sequences is loaded only by the calls that read a sequence, maps
# only by map and orbit, json only by the calls that read a JSON partition
# or print a record, and the series commands build no partition, so only
# the pba sum side loads families, partition and predicates.
WATCHED = (
    "argparse", "dataclasses", "fractions", "gettext", "inspect", "json", "mpmath",
    "seqcong.families", "seqcong.maps", "seqcong.partition", "seqcong.predicates",
    "seqcong.sequences", "seqcong.series",
)
# the probe imports nothing of WATCHED itself, so it prints a repr, not JSON
PROBE = (
    "import contextlib, io, sys\n"
    "from seqcong import cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    rc = cli.main(sys.argv[1:])\n"
    f"print(repr([rc, [m for m in {WATCHED!r} if m in sys.modules]]))\n"
)
SERIES_MODULES = ["fractions", "seqcong.sequences", "seqcong.series"]
PARTITION_MODULES = ["seqcong.partition", "seqcong.predicates"]


def _loaded(argv) -> list:
    done = _python(PROBE, *argv)
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout)


@pytest.mark.parametrize(
    "argv, rc, loaded",
    [
        (("map", "pi", "[3,1]"), 0, ["json", "seqcong.maps", *PARTITION_MODULES]),
        (("check", "seqcong", "[3,1]"), 1, ["json", *PARTITION_MODULES]),
        (("orbit", "[3,1]"), 0, ["json", "seqcong.maps", *PARTITION_MODULES]),
        (("enum", "all:5", "--count-only"), 0, ["seqcong.families", *PARTITION_MODULES, "seqcong.sequences"]),
        (("series", "expand", "product", "--qtrunc", "10"), 0, SERIES_MODULES),
        (("series", "expand", "distinct-product", "--qtrunc", "10"), 0, SERIES_MODULES),
        (("series", "expand", "euler", "--A", "2,3", "--xtrunc", "10"), 0, SERIES_MODULES),
        (
            ("series", "expand", "product", "--qtrunc", "3", "--json"), 0,
            ["fractions", "json", "seqcong.sequences", "seqcong.series"],
        ),
        (("series", "verify", "distinct", "--qtrunc", "10"), 0, SERIES_MODULES),
        (
            ("zeta", "--T", "2", "--s", "2", "--depth", "5"), 0,
            ["fractions", "mpmath", "seqcong.sequences", "seqcong.series"],
        ),
        (("--help",), 0, []),
        (
            ("map", "scale", "[3,2,2]", "--A", "2,3", "--B", "5,7"), 0,
            ["json", "seqcong.maps", *PARTITION_MODULES, "seqcong.sequences"],
        ),
        (("check", "sna:A=2,3,1", "[9,5,2]"), 0, ["json", *PARTITION_MODULES, "seqcong.sequences"]),
    ],
)
def test_each_subcommand_loads_only_what_it_runs(argv, rc, loaded):
    assert _loaded(argv) == [rc, loaded]


TERMS = ("--A", "naturals", "--B", "naturals", "--xtrunc", "3", "--qtrunc", "3")


@pytest.mark.parametrize(
    "argv",
    [("series", "expand", side, *TERMS) for side in cli._SIDES]
    + [("series", "verify", identity, *TERMS) for identity in cli._IDENTITIES],
)
def test_only_the_pba_sum_side_loads_families(argv):
    rc, loaded = _loaded(argv)
    assert rc == 0
    builds_members = argv[1:3] in (("expand", "pba-sum"), ("verify", "two-variable"))
    assert ("seqcong.families" in loaded) == builds_members, loaded
