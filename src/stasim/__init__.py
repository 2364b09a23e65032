"""Cycle-level simulator of an N:M structured-sparse systolic tensor array.

The package models a weight-stationary grid of tensor processing elements
fed by structured-sparse packed weights, a periodic four-vector online
self-test with golden-reference comparison at the south edge, stuck-at fault
injection on every register class, fault localization from the test
signatures, and campaign tooling that measures coverage over a workload.
"""

from stasim.arith import (
    Word,
    bit_not,
    force_bit,
    is_bitwise_complement,
    wrap_add,
    wrap_signed,
)
from stasim.array import (
    ArrayConfig,
    FaultSite,
    RegClass,
    RegSpec,
    TensorArray,
    fault_sites,
)
from stasim.campaign import (
    CoverageReport,
    enumerate_faults,
    random_tiles,
    run_campaign,
)
from stasim.driver import (
    CycleStats,
    Layer,
    Workload,
    overhead_report,
    synthetic_workload,
    tiled_matmul,
)
from stasim.selftest import (
    VERDICT_KINDS,
    GoldenReference,
    TestReport,
    Verdict,
    VerdictKind,
    classify,
    compute_golden,
    fault_sessions,
    locate_activation,
    run_session,
    session_vectors,
    session_verdicts,
)
from stasim.sparsity import (
    SparseBlock,
    SparseWeightTile,
    densify,
    pack_tile,
    read_matrix_csv,
    write_matrix_csv,
)

__version__ = "0.1.0"

__all__ = [
    "VERDICT_KINDS",
    "ArrayConfig",
    "CoverageReport",
    "CycleStats",
    "FaultSite",
    "GoldenReference",
    "Layer",
    "RegClass",
    "RegSpec",
    "SparseBlock",
    "SparseWeightTile",
    "TensorArray",
    "TestReport",
    "Verdict",
    "VerdictKind",
    "Word",
    "Workload",
    "bit_not",
    "classify",
    "compute_golden",
    "densify",
    "enumerate_faults",
    "fault_sessions",
    "fault_sites",
    "force_bit",
    "is_bitwise_complement",
    "locate_activation",
    "overhead_report",
    "pack_tile",
    "random_tiles",
    "read_matrix_csv",
    "run_campaign",
    "run_session",
    "session_vectors",
    "session_verdicts",
    "synthetic_workload",
    "tiled_matmul",
    "wrap_add",
    "wrap_signed",
    "write_matrix_csv",
    "__version__",
]
