"""The attack model the three routes share: configs, parameter ranges, families.

The closed forms (``analytic_strategies``), the Monte Carlo engine
(``protocol_sim``) and the command line all read what an attack is from
here. The module holds no physics and imports only the standard library,
so it loads neither numpy nor either route.

phi covers [0, pi/4] only: the symmetrized protocol (a coin choosing between
phi and its companion pi/2 - phi per round) makes larger angles redundant,
so they are rejected rather than silently folded back.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

INTERCEPT_RESEND = "intercept_resend"
ANCILLA_NO_MEMORY = "ancilla_no_memory"
ANCILLA_WITH_MEMORY = "ancilla_with_memory"

PHI_MAX = math.pi / 4
ALPHA_MAX = math.pi / 2

# An attack's parameters in CSV column order, each with the upper end of its
# range [0, limit] and the way error messages write that limit.
_LIMITS = {"phi": (PHI_MAX, "pi/4"), "alpha": (ALPHA_MAX, "pi/2"), "fraction": (1.0, "1")}
PARAMETERS = tuple(_LIMITS)


def check_range(name: str, value: float) -> None:
    """Raise ValueError unless 0 <= value <= the limit of the named parameter."""
    limit, shown = _LIMITS[name]
    if not (0.0 <= value <= limit):
        raise ValueError(f"{name} must lie in [0, {shown}], got {value!r}")


@dataclass(frozen=True)
class NoAttack:
    """Eve stays out of the channel entirely."""


@dataclass(frozen=True)
class InterceptResend:
    """Measure a fraction of the qubits at angle phi and forward the eigenstate.

    With symmetrize on, each intercepted round measures at phi or its
    companion pi/2 - phi on a fair coin.
    """

    phi: float
    fraction: float = 1.0
    symmetrize: bool = True

    def __post_init__(self) -> None:
        check_range("phi", self.phi)
        check_range("fraction", self.fraction)


@dataclass(frozen=True)
class AncillaNoMemory:
    """Entangle every qubit, measure the ancilla immediately at angle phi."""

    alpha: float
    phi: float
    symmetrize: bool = True

    def __post_init__(self) -> None:
        check_range("alpha", self.alpha)
        check_range("phi", self.phi)


@dataclass(frozen=True)
class AncillaWithMemory:
    """Entangle every qubit, store the ancilla, measure in the revealed basis."""

    alpha: float

    def __post_init__(self) -> None:
        check_range("alpha", self.alpha)


AttackConfig = NoAttack | InterceptResend | AncillaNoMemory | AncillaWithMemory


def parameters(attack: AttackConfig) -> tuple:
    """The attack's (phi, alpha, fraction), None for each it does not take."""
    return tuple(getattr(attack, name, None) for name in PARAMETERS)


@dataclass(frozen=True)
class Family:
    """One attack family.

    takes_phi: Eve measures at an angle phi of her own before the basis
    reveal, i.e. the attack needs no quantum memory. swept names the
    parameter a sweep varies over [0, stop], and default is its single-row
    value when none is given (None: it is required). build makes the attack
    from (phi, swept value, symmetrize).
    """

    name: str
    takes_phi: bool
    swept: str
    default: float | None
    build: Callable[[float | None, float, bool], AttackConfig]

    @property
    def stop(self) -> float:
        return _LIMITS[self.swept][0]

    def config(self, phi: float | None, value: float, symmetrize: bool = True) -> AttackConfig:
        """The attack at one swept value; phi is given exactly when the family takes it."""
        if self.takes_phi and phi is None:
            raise ValueError(f"{self.name} requires phi")
        if not self.takes_phi and phi is not None:
            raise ValueError(f"{self.name} takes no phi parameter")
        return self.build(phi, value, symmetrize)


FAMILIES = {
    family.name: family
    for family in (
        Family(INTERCEPT_RESEND, takes_phi=True, swept="fraction", default=1.0,
               build=lambda phi, f, symmetrize: InterceptResend(phi, f, symmetrize)),
        Family(ANCILLA_NO_MEMORY, takes_phi=True, swept="alpha", default=None,
               build=lambda phi, a, symmetrize: AncillaNoMemory(a, phi, symmetrize)),
        Family(ANCILLA_WITH_MEMORY, takes_phi=False, swept="alpha", default=None,
               build=lambda phi, a, symmetrize: AncillaWithMemory(a)),
    )
}


def sweep_grid(strategy: str, grid: int) -> list[float]:
    """Evenly spaced values of a family's swept parameter over [0, stop].

    The values are those of ``numpy.linspace(0, stop, grid)``, bit for bit:
    i * step, then stop.
    """
    stop = FAMILIES[strategy].stop
    if grid <= 1:
        return [0.0] * grid
    step = stop / (grid - 1)
    return [i * step for i in range(grid - 1)] + [stop]
