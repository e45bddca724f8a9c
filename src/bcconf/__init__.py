"""Configuration tuning for permissioned-ledger block verification.

The package models one verification round's latency, a polynomial security
level, and the per-transaction verification cost, combines them into a
single normalized utility, and selects the verifier count and block size
that minimize it. A deterministic discrete-event simulator of the round
validates the analytic latency term by term.
"""
from .model import (
    BlockchainConfig,
    ConstraintError,
    DataClass,
    GridCapError,
    ModeTableRule,
    NormalizationConstants,
    ParseError,
    QosWeights,
    ScenarioError,
    ScenarioParams,
    ValidationError,
    VerifierProfile,
    dump_scenario,
    load_scenario,
    parse_scenario,
)
from .metrics import (
    cost,
    latency,
    normalization,
    security,
)
from .optimizer import (
    SolverResult,
    UnimodalityReport,
    scan_unimodality,
    solve_exhaustive,
    solve_greedy,
)
from .qos import resolve as resolve_qos
from .dpos_sim import (
    ModelMismatchError,
    SimConfig,
    SimReport,
    SimSweepReport,
    run as run_simulation,
    sweep_sim,
)

__version__ = "0.1.0"
