"""Closed-form fidelity, disturbance, and information for the three attacks.

Intercept/resend in the angle-phi equatorial basis, the entangling probe
measured immediately in an equatorial basis (no quantum memory), and the
probe stored and measured in the revealed preparation basis (with memory).
Each attack gets a StrategyReport of per-basis statistics; closed_form
places one attack config from ``attacks`` on the curve of Eve's information
against the disturbance Bob can detect.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .attacks import (
    FAMILIES,
    INTERCEPT_RESEND,
    AncillaNoMemory,
    AncillaWithMemory,
    AttackConfig,
    InterceptResend,
    Value,
    check_range,
    limit,
    parameters,
)
from .infotheory import info_from_fidelity

# the benchmark's checks read the strategy names from this module
ANCILLA_NO_MEMORY, ANCILLA_WITH_MEMORY = AncillaNoMemory.name, AncillaWithMemory.name


class BasisStats(Value):
    """Fidelity/disturbance pair; the disturbance is the exact complement."""

    __slots__ = ("fidelity",)

    def __init__(self, fidelity: float) -> None:
        if not (0.0 <= fidelity <= 1.0):
            raise ValueError(f"fidelity must lie in [0, 1], got {fidelity!r}")
        super().__init__(fidelity)

    @property
    def disturbance(self) -> float:
        return 1.0 - self.fidelity


class StrategyReport(NamedTuple):
    """Per-basis statistics of one attack at fixed parameters.

    eve_x/eve_y describe Eve's identification of x- and y-prepared bits for
    her phi measurement; the companion pi/2 - phi measurement has the same
    stats with x and y swapped. eve_avg_info is her mean information per
    attacked qubit under per-round basis symmetrization, bob_info the
    information Bob retains at his overall fidelity.
    """

    eve_x: BasisStats
    eve_y: BasisStats
    bob_x: BasisStats
    bob_y: BasisStats
    bob_overall: BasisStats
    eve_avg_info: float
    bob_info: float


class CurvePoint(NamedTuple):
    """One point of an information-vs-disturbance curve.

    Field order matches the CSV column order used by the reporting layer.
    Parameters that do not apply to the strategy are None.
    """

    strategy: str
    phi: float | None
    alpha: float | None
    fraction: float | None
    d_bob: float
    i_eve: float
    i_bob: float


def _report(eve_x_f: float, eve_y_f: float, bob_x_f: float, bob_y_f: float) -> StrategyReport:
    bob_overall_f = (bob_x_f + bob_y_f) / 2.0
    eve_avg_info = (info_from_fidelity(eve_x_f) + info_from_fidelity(eve_y_f)) / 2.0
    return StrategyReport(
        eve_x=BasisStats(eve_x_f),
        eve_y=BasisStats(eve_y_f),
        bob_x=BasisStats(bob_x_f),
        bob_y=BasisStats(bob_y_f),
        bob_overall=BasisStats(bob_overall_f),
        eve_avg_info=eve_avg_info,
        bob_info=info_from_fidelity(bob_overall_f),
    )


def intercept_resend(phi: float) -> StrategyReport:
    """Measure in the angle-phi basis and forward the found eigenstate.

    Eve identifies x-prepared bits with fidelity (1 + cos phi)/2 and
    y-prepared bits with (1 + sin phi)/2. Because Bob receives the projected
    eigenstate rather than a re-encoded protocol state, his per-basis
    fidelity compounds as F^2 + D^2, and its basis average is 3/4 for every
    phi: the detectable disturbance cannot be steered by Eve's basis choice.
    """
    check_range("phi", phi)
    eve_x_f = (1.0 + math.cos(phi)) / 2.0
    eve_y_f = (1.0 + math.sin(phi)) / 2.0
    bob_x_f = eve_x_f**2 + (1.0 - eve_x_f) ** 2
    bob_y_f = eve_y_f**2 + (1.0 - eve_y_f) ** 2
    return _report(eve_x_f, eve_y_f, bob_x_f, bob_y_f)


def ancilla_with_memory(alpha: float) -> StrategyReport:
    """Entangle an ancilla, store it, measure in the revealed basis.

    The attack treats x- and y-prepared qubits symmetrically: Bob keeps
    fidelity (1 + cos alpha)/2 in both bases while Eve's stored-ancilla
    measurement identifies the bit with fidelity (1 + sin alpha)/2.
    alpha = pi/2 swaps the roles of Bob and Eve entirely.
    """
    check_range("alpha", alpha)
    bob_f = (1.0 + math.cos(alpha)) / 2.0
    eve_f = (1.0 + math.sin(alpha)) / 2.0
    return _report(eve_f, eve_f, bob_f, bob_f)


def ancilla_no_memory(alpha: float, phi: float) -> StrategyReport:
    """Entangle an ancilla and measure it immediately in the angle-phi basis.

    Bob's statistics match the with-memory attack at the same alpha (his
    qubit is disturbed by the interaction alone), but Eve's immediate
    measurement identifies x-prepared bits with fidelity
    (1 + cos phi sin alpha)/2 and y-prepared bits with
    (1 + sin phi sin alpha)/2. At alpha = pi/2 this reduces exactly to
    intercept/resend at the same phi in all of Eve's statistics.
    """
    check_range("alpha", alpha)
    check_range("phi", phi)
    sin_a = math.sin(alpha)
    eve_x_f = (1.0 + math.cos(phi) * sin_a) / 2.0
    eve_y_f = (1.0 + math.sin(phi) * sin_a) / 2.0
    bob_f = (1.0 + math.cos(alpha)) / 2.0
    return _report(eve_x_f, eve_y_f, bob_f, bob_f)


def closed_form(attack: AttackConfig) -> CurvePoint:
    """The curve point of one attack: Bob's disturbance and both informations.

    Intercepting only a fraction f of the qubits scales both coordinates
    linearly, because untouched rounds are error-free and carry no
    information to Eve: d_bob = f/4 and i_eve = f * eve_avg_info(phi), so
    that curve ends at d_bob = 1/4. Symmetrization changes neither value.
    """
    if isinstance(attack, InterceptResend):
        f = attack.fraction
        d_bob = f / 4.0
        i_eve = f * intercept_resend(attack.phi).eve_avg_info
        i_bob = info_from_fidelity(1.0 - d_bob)
    else:
        if isinstance(attack, AncillaNoMemory):
            report = ancilla_no_memory(attack.alpha, attack.phi)
        elif isinstance(attack, AncillaWithMemory):
            report = ancilla_with_memory(attack.alpha)
        else:
            raise ValueError(f"no closed form for {attack!r}")
        d_bob, i_eve, i_bob = report.bob_overall.disturbance, report.eve_avg_info, report.bob_info
    return CurvePoint(attack.name, *parameters(attack), d_bob, i_eve, i_bob)


def at_disturbance(strategy: str, d_bob: float) -> float | None:
    """The swept value at which a family's curve reaches d_bob, or None past its end.

    Interception gives d_bob = f/4 and the ancilla attacks (1 - cos alpha)/2.
    """
    if strategy == INTERCEPT_RESEND:
        value = 4.0 * d_bob
    else:
        value = math.acos(1.0 - 2.0 * d_bob)
    return value if value <= limit(FAMILIES[strategy].swept) else None

