"""Closed-form fidelity, disturbance, and information for the three attacks.

Intercept/resend in the angle-phi equatorial basis, the entangling probe
measured immediately in an equatorial basis (no quantum memory), and the
probe stored and measured in the revealed preparation basis (with memory).
Each attack gets a StrategyReport of per-basis statistics, and the curve
helpers trace Eve's information against the disturbance Bob can detect.

phi covers [0, pi/4] only: the symmetrized protocol (a coin choosing between
phi and its companion pi/2 - phi per round) makes larger angles redundant,
so they are rejected rather than silently folded back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .infotheory import info_from_fidelity

INTERCEPT_RESEND = "intercept_resend"
ANCILLA_NO_MEMORY = "ancilla_no_memory"
ANCILLA_WITH_MEMORY = "ancilla_with_memory"

STRATEGIES = (INTERCEPT_RESEND, ANCILLA_NO_MEMORY, ANCILLA_WITH_MEMORY)

PHI_MAX = math.pi / 4
ALPHA_MAX = math.pi / 2


def _check_phi(phi: float) -> None:
    if not (0.0 <= phi <= PHI_MAX):
        raise ValueError(f"phi must lie in [0, pi/4], got {phi!r}")


def _check_alpha(alpha: float) -> None:
    if not (0.0 <= alpha <= ALPHA_MAX):
        raise ValueError(f"alpha must lie in [0, pi/2], got {alpha!r}")


@dataclass(frozen=True)
class BasisStats:
    """Fidelity/disturbance pair; the disturbance is the exact complement."""

    fidelity: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.fidelity <= 1.0):
            raise ValueError(f"fidelity must lie in [0, 1], got {self.fidelity!r}")

    @property
    def disturbance(self) -> float:
        return 1.0 - self.fidelity


@dataclass(frozen=True)
class StrategyReport:
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


@dataclass(frozen=True)
class CurvePoint:
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
    _check_phi(phi)
    eve_x_f = (1.0 + math.cos(phi)) / 2.0
    eve_y_f = (1.0 + math.sin(phi)) / 2.0
    bob_x_f = eve_x_f**2 + (1.0 - eve_x_f) ** 2
    bob_y_f = eve_y_f**2 + (1.0 - eve_y_f) ** 2
    return _report(eve_x_f, eve_y_f, bob_x_f, bob_y_f)


def intercept_resend_curve(phi: float, fractions) -> list[CurvePoint]:
    """Curve points for intercepting only a fraction f of the qubits.

    Untouched rounds are error-free and carry no information to Eve, so both
    coordinates scale linearly: d_bob = f/4 and i_eve = f * eve_avg_info(phi).
    The curve domain therefore ends at d_bob = 1/4.
    """
    report = intercept_resend(phi)
    points = []
    for fraction in fractions:
        f = float(fraction)
        if not (0.0 <= f <= 1.0):
            raise ValueError(f"fraction must lie in [0, 1], got {fraction!r}")
        d_bob = f / 4.0
        points.append(
            CurvePoint(
                strategy=INTERCEPT_RESEND,
                phi=phi,
                alpha=None,
                fraction=f,
                d_bob=d_bob,
                i_eve=f * report.eve_avg_info,
                i_bob=info_from_fidelity(1.0 - d_bob),
            )
        )
    return points


def ancilla_with_memory(alpha: float) -> StrategyReport:
    """Entangle an ancilla, store it, measure in the revealed basis.

    The attack treats x- and y-prepared qubits symmetrically: Bob keeps
    fidelity (1 + cos alpha)/2 in both bases while Eve's stored-ancilla
    measurement identifies the bit with fidelity (1 + sin alpha)/2.
    alpha = pi/2 swaps the roles of Bob and Eve entirely.
    """
    _check_alpha(alpha)
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
    _check_alpha(alpha)
    _check_phi(phi)
    sin_a = math.sin(alpha)
    eve_x_f = (1.0 + math.cos(phi) * sin_a) / 2.0
    eve_y_f = (1.0 + math.sin(phi) * sin_a) / 2.0
    bob_f = (1.0 + math.cos(alpha)) / 2.0
    return _report(eve_x_f, eve_y_f, bob_f, bob_f)


def _ancilla_point(strategy: str, alpha: float, phi: float | None) -> CurvePoint:
    if strategy == ANCILLA_WITH_MEMORY:
        report = ancilla_with_memory(alpha)
    else:
        report = ancilla_no_memory(alpha, phi)
    return CurvePoint(
        strategy=strategy,
        phi=phi,
        alpha=alpha,
        fraction=None,
        d_bob=report.bob_overall.disturbance,
        i_eve=report.eve_avg_info,
        i_bob=report.bob_info,
    )


def sweep_grid(strategy: str, grid: int) -> list[float]:
    """Evenly spaced values of a strategy's swept parameter over its range.

    The intercepted fraction in [0, 1] for intercept/resend, alpha in
    [0, pi/2] for the ancilla attacks. The values are those of
    ``numpy.linspace(0, stop, grid)``, bit for bit: i * step, then stop.
    """
    stop = 1.0 if strategy == INTERCEPT_RESEND else ALPHA_MAX
    if grid <= 1:
        return [0.0] * grid
    step = stop / (grid - 1)
    return [i * step for i in range(grid - 1)] + [stop]


def curve_sweep(strategy: str, phi: float | None = None, *, grid: int = 101, values=None) -> list[CurvePoint]:
    """Trace one strategy family as a list of curve points sorted by d_bob.

    For intercept/resend the sweep runs over the intercepted fraction in
    [0, 1]; for the ancilla attacks it runs over alpha in [0, pi/2], giving
    d_bob = (1 - cos alpha)/2 in [0, 1/2]. ``grid`` sets the number of evenly
    spaced points; ``values`` overrides the swept values explicitly.
    ``phi`` is required for the two phi-parameterized strategies and must be
    omitted for the with-memory attack.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if grid < 1:
        raise ValueError(f"grid must be at least 1, got {grid!r}")
    needs_phi = strategy in (INTERCEPT_RESEND, ANCILLA_NO_MEMORY)
    if needs_phi and phi is None:
        raise ValueError(f"{strategy} requires phi")
    if not needs_phi and phi is not None:
        raise ValueError(f"{strategy} takes no phi parameter")

    if values is None:
        values = sweep_grid(strategy, grid)
    if strategy == INTERCEPT_RESEND:
        points = intercept_resend_curve(phi, values)
    else:
        points = [_ancilla_point(strategy, float(a), phi) for a in values]
    return sorted(points, key=lambda p: p.d_bob)
