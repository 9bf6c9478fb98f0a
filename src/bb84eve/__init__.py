"""Eavesdropping on BB84: analytic information-vs-disturbance curves and an
independent Monte Carlo protocol engine that cross-validates them.

The package models three attacks on the four-state protocol: intercept/resend
in an adjustable equatorial basis, and an ancilla interaction measured either
immediately (no quantum memory) or after the public basis reveal (with
memory). The attack configs and families live in ``attacks``, which both
routes read. Closed forms live in ``analytic_strategies``; the simulator in
``protocol_sim`` re-derives every probability from raw state vectors so the
two routes stay independent.
"""

import importlib

# public name (the configs, closed forms and engine the CLI and README use) -> its
# submodule; __getattr__ imports it on first access, so `import bb84eve` loads no numpy
_MODULE_OF = {
    name: module
    for module, names in {
        "attacks": ("AncillaNoMemory", "AncillaWithMemory", "AttackConfig", "InterceptResend",
                    "NoAttack"),
        "analytic_strategies": ("CurvePoint", "StrategyReport", "ancilla_no_memory",
                                "ancilla_with_memory", "closed_form", "intercept_resend"),
        "protocol_sim": ("InsufficientSampleError", "SimEstimate", "Trace", "estimate",
                         "run_protocol"),
    }.items()
    for name in names
}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
