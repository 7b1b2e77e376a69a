"""Exact-arithmetic toolkit for sequentially congruent partitions.

The package provides the partition value type and Young-diagram utilities,
membership predicates with first-violation witnesses, the bijections
between plain and sequentially congruent partitions (and their scaling
generalization), deterministic family enumerators that double as
brute-force oracles, and truncated exact-rational series for verifying the
associated generating-function identities coefficientwise.

Exports are loaded on first access (PEP 562), so ``import seqcong`` and a
CLI call import only the submodules they use.
"""

from importlib import import_module

from .errors import (
    BoundsMismatch,
    DivergentParameters,
    ExtentExceeded,
    InsufficientMultiplicity,
    InternalContradiction,
    InvalidDeletion,
    InvalidExponent,
    InvalidPart,
    NonDistinctA,
    NotMemberPBA,
    NotSequentiallyCongruent,
    ParseError,
    PartNotInA,
    ResourceBound,
    SeqcongError,
)

__version__ = "0.1.0"

# submodule -> the names it exports
_LAZY = {
    "families": (
        "FamilyDescriptor",
        "all_of_size",
        "check_ideal_closure",
        "check_quasi_ideal",
        "count",
        "count_invariance_suite",
        "counts_by_size",
        "distinct_of_size",
        "enumerate_family",
        "ideal_equivalent_upto",
        "iter_pba_by_size",
        "partition_count",
        "partitions_of",
        "parts_in",
        "pba_length",
        "restricted_count",
        "scaled_deletion",
        "seqcong_largest",
        "sna_largest",
        "step_bounded_largest",
    ),
    "maps": (
        "OrbitTrace",
        "orbit",
        "pi",
        "pi_inverse",
        "scale_map",
        "scale_map_inverse",
        "sigma",
        "sigma_inverse",
    ),
    "partition": ("EMPTY", "Partition"),
    "predicates": (
        "ViolationReport",
        "has_distinct_parts",
        "is_frequency_congruent",
        "is_member_pba",
        "is_member_sna",
        "is_self_conjugate",
        "is_sequentially_congruent",
        "is_step_bounded_seqcong",
    ),
    "sequences": ("NATURALS", "ODDS", "ONES", "SequenceSpec"),
    "series": (
        "BivariateSeries",
        "SeriesComparison",
        "WeightSpec",
        "ZetaEvaluation",
        "compare",
        "distinct_product_side",
        "euler_limit_side",
        "partition_sum_side",
        "partition_zeta",
        "pba_sum_side",
        "product_side",
        "seqcong_sum_side",
        "step_bounded_sum_side",
        "two_var_product_side",
    ),
}

# exported name -> the submodule that defines it; a submodule maps to itself
_ORIGIN = {name: module for module, names in _LAZY.items() for name in names}
_ORIGIN.update((module, module) for module in _LAZY)

__all__ = [
    "BoundsMismatch",
    "DivergentParameters",
    "ExtentExceeded",
    "InsufficientMultiplicity",
    "InternalContradiction",
    "InvalidDeletion",
    "InvalidExponent",
    "InvalidPart",
    "NonDistinctA",
    "NotMemberPBA",
    "NotSequentiallyCongruent",
    "ParseError",
    "PartNotInA",
    "ResourceBound",
    "SeqcongError",
    *(name for names in _LAZY.values() for name in names),
]


def __getattr__(name: str):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_ORIGIN))
