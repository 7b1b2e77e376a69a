"""Lazy loading: ``import seqcong`` resolves each export on first use, and
each CLI subcommand imports only the modules it runs."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import seqcong

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
# them.  sequences is loaded only by the calls that read a sequence, and
# maps only by map and orbit.
WATCHED = (
    "argparse", "dataclasses", "fractions", "gettext", "inspect", "mpmath", "seqcong.families",
    "seqcong.maps", "seqcong.sequences", "seqcong.series",
)
PROBE = (
    "import contextlib, io, json, sys\n"
    "from seqcong import cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    rc = cli.main(sys.argv[1:])\n"
    f"print(json.dumps([rc, [m for m in {WATCHED!r} if m in sys.modules]]))\n"
)
SERIES_MODULES = ["fractions", "seqcong.families", "seqcong.sequences", "seqcong.series"]


@pytest.mark.parametrize(
    "argv, rc, loaded",
    [
        (("map", "pi", "[3,1]"), 0, ["seqcong.maps"]),
        (("check", "seqcong", "[3,1]"), 1, []),
        (("orbit", "[3,1]"), 0, ["seqcong.maps"]),
        (("enum", "all:5", "--count-only"), 0, ["seqcong.families", "seqcong.sequences"]),
        (("series", "verify", "distinct", "--qtrunc", "10"), 0, SERIES_MODULES),
        (
            ("zeta", "--T", "2", "--s", "2", "--depth", "5"), 0,
            ["fractions", "mpmath", "seqcong.families", "seqcong.sequences", "seqcong.series"],
        ),
        (("--help",), 0, []),
        (("map", "scale", "[3,2,2]", "--A", "2,3", "--B", "5,7"), 0, ["seqcong.maps", "seqcong.sequences"]),
        (("check", "sna:A=2,3,1", "[9,5,2]"), 0, ["seqcong.sequences"]),
    ],
)
def test_each_subcommand_loads_only_what_it_runs(argv, rc, loaded):
    done = _python(PROBE, *argv)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [rc, loaded]
