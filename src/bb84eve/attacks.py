"""The attack model the three routes share: configs, parameter ranges, families.

The closed forms (``analytic_strategies``), the Monte Carlo engine
(``protocol_sim``) and the command line all read what an attack is from
here, and every module builds its frozen values on ``Value``. The module holds
no physics and imports only the standard library, so it loads neither route.

A family is its config class (see FAMILIES). It takes phi exactly when it
needs no quantum memory: Eve measures at her own angle before the basis reveal.

phi covers [0, pi/4] only: the symmetrized protocol (a coin choosing between
phi and its companion pi/2 - phi per round) makes larger angles redundant,
so they are rejected rather than silently folded back.
"""

from __future__ import annotations

import math

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
    """Raise ValueError unless value is a number with 0 <= value <= the named parameter's limit."""
    upper, shown = _LIMITS[name]
    try:
        inside = 0.0 <= value <= upper
    except TypeError:  # None, or another value that is not a number
        inside = False
    if not inside:
        raise ValueError(f"{name} must lie in [0, {shown}], got {value!r}")


class Value:
    """An immutable value whose fields are its __slots__, set once, in order, by __init__.

    A subclass validates its arguments, then passes them on to Value.__init__.
    Values of one type with equal fields are equal and hash alike, so they can key a memo.
    """

    __slots__ = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        cells = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({cells})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._values()


class NoAttack(Value):
    """Eve stays out of the channel entirely."""

    __slots__ = ()


class InterceptResend(Value):
    """Measure a fraction of the qubits at angle phi and forward the eigenstate.

    With symmetrize on, each intercepted round measures at phi or its
    companion pi/2 - phi on a fair coin.
    """

    __slots__ = ("phi", "fraction", "symmetrize")
    name, swept, default = INTERCEPT_RESEND, "fraction", 1.0

    def __init__(self, phi: float, fraction: float = 1.0, symmetrize: bool = True) -> None:
        check_range("phi", phi)
        check_range("fraction", fraction)
        super().__init__(phi, fraction, symmetrize)


class AncillaNoMemory(Value):
    """Entangle every qubit, measure the ancilla immediately at angle phi."""

    __slots__ = ("alpha", "phi", "symmetrize")
    name, swept, default = ANCILLA_NO_MEMORY, "alpha", None

    def __init__(self, alpha: float, phi: float, symmetrize: bool = True) -> None:
        check_range("alpha", alpha)
        check_range("phi", phi)
        super().__init__(alpha, phi, symmetrize)


class AncillaWithMemory(Value):
    """Entangle every qubit, store the ancilla, measure in the revealed basis."""

    __slots__ = ("alpha",)
    name, swept, default = ANCILLA_WITH_MEMORY, "alpha", None

    def __init__(self, alpha: float) -> None:
        check_range("alpha", alpha)
        super().__init__(alpha)


AttackConfig = NoAttack | InterceptResend | AncillaNoMemory | AncillaWithMemory


def parameters(attack: AttackConfig) -> tuple:
    """The attack's (phi, alpha, fraction), None for each it does not take."""
    return tuple(getattr(attack, name, None) for name in PARAMETERS)


# Each family is its config class: __slots__ are the parameters it takes ("phi"
# among them exactly when it is memoryless), name its --strategy choice, swept
# the parameter a sweep varies over [0, limit], and default that parameter's
# single-row value when none is given (None: it is required).
FAMILIES = {cls.name: cls for cls in (InterceptResend, AncillaNoMemory, AncillaWithMemory)}


def limit(name: str) -> float:
    """The upper end of the named parameter's range [0, limit]."""
    return _LIMITS[name][0]


def from_fields(cls: type, fields: dict) -> AttackConfig:
    """The config of class cls from a dict holding at least each of its fields by name."""
    return cls(**{name: fields[name] for name in cls.__slots__})


def sweep_grid(strategy: str, grid: int) -> list[float]:
    """Evenly spaced values of a family's swept parameter over [0, stop].

    The values are those of ``numpy.linspace(0, stop, grid)``, bit for bit:
    i * step, then stop.
    """
    stop = limit(FAMILIES[strategy].swept)
    if grid <= 1:
        return [0.0] * grid
    step = stop / (grid - 1)
    return [i * step for i in range(grid - 1)] + [stop]
