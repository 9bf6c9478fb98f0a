"""Eavesdropping on BB84: analytic information-vs-disturbance curves and an
independent Monte Carlo protocol engine that cross-validates them.

The package models three attacks on the four-state protocol: intercept/resend
in an adjustable equatorial basis, and an ancilla interaction measured either
immediately (no quantum memory) or after the public basis reveal (with
memory). Closed forms live in ``analytic_strategies``; the simulator in
``protocol_sim`` re-derives every probability from raw state vectors so the
two routes stay independent.
"""

from .quantum_core import (
    EquatorBasis,
    Outcome,
    PureState,
    apply_eve_unitary,
    joint_outcome_probabilities,
    make_bb84_state,
    outcome_probabilities,
)
from .infotheory import JointCounts, binary_entropy, info_from_fidelity, mutual_information
from .analytic_strategies import (
    BasisStats,
    CurvePoint,
    StrategyReport,
    ancilla_no_memory,
    ancilla_with_memory,
    curve_sweep,
    intercept_resend,
    intercept_resend_curve,
)
from .protocol_sim import (
    AncillaNoMemory,
    AncillaWithMemory,
    AttackConfig,
    InsufficientSampleError,
    InterceptResend,
    NoAttack,
    SimEstimate,
    Trace,
    estimate,
    run_protocol,
)

__version__ = "0.1.0"

__all__ = [
    "AncillaNoMemory",
    "AncillaWithMemory",
    "AttackConfig",
    "BasisStats",
    "CurvePoint",
    "EquatorBasis",
    "InsufficientSampleError",
    "InterceptResend",
    "JointCounts",
    "NoAttack",
    "Outcome",
    "PureState",
    "SimEstimate",
    "StrategyReport",
    "Trace",
    "ancilla_no_memory",
    "ancilla_with_memory",
    "apply_eve_unitary",
    "binary_entropy",
    "curve_sweep",
    "estimate",
    "info_from_fidelity",
    "intercept_resend",
    "intercept_resend_curve",
    "joint_outcome_probabilities",
    "make_bb84_state",
    "mutual_information",
    "outcome_probabilities",
    "run_protocol",
]
