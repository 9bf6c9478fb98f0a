"""State vectors, equatorial measurement bases, and the entangling probe.

Everything lives on the Poincare-sphere equator: the four protocol states
|x+-> = (|0> +- |1>)/sqrt(2) and |y+-> = (|0> +- i|1>)/sqrt(2) are the
phi = 0 and phi = pi/2 members of the one-parameter eigenstate family
|+-phi> = (|0> +- e^{i phi}|1>)/sqrt(2). Measurements are projective onto
such a pair. The eavesdropping probe couples a signal qubit to an ancilla
prepared in |0> via the unitary

    |0>|0> -> |00>        |1>|0> -> cos(alpha)|10> + sin(alpha)|01>

with two-qubit amplitudes ordered |signal, ancilla> (index = 2*s + a).

States are rays: comparisons go through overlap probabilities, never through
raw amplitudes, so global phase is irrelevant throughout.
"""

from __future__ import annotations

import enum
import functools
import math

import numpy as np

from .attacks import Value

NORM_TOL = 1e-12
_MEMO_SIZE = 256  # entries per memo; a sweep uses a few angles, and any number stays bounded

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


class Outcome(enum.Enum):
    """Binary measurement result; PLUS maps to key bit 0, MINUS to 1."""

    PLUS = 0
    MINUS = 1

    @property
    def bit(self) -> int:
        return self.value

    @property
    def sign(self) -> int:
        return 1 if self is Outcome.PLUS else -1

    @classmethod
    def from_bit(cls, bit: int) -> "Outcome":
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit!r}")
        return cls.PLUS if bit == 0 else cls.MINUS


class PureState(Value):
    """Normalized complex amplitude vector of one qubit (2) or qubit+ancilla (4).

    A state equals only itself: states compare through overlaps, not amplitudes.
    """

    __slots__ = ("amplitudes",)
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, amplitudes) -> None:
        amps = np.array(amplitudes, dtype=np.complex128, copy=True)
        if amps.shape not in ((2,), (4,)):
            raise ValueError(f"state must have 2 or 4 amplitudes, got shape {amps.shape}")
        if not (np.all(np.isfinite(amps.real)) and np.all(np.isfinite(amps.imag))):
            raise ValueError("amplitudes must be finite")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"state not normalized: |psi|^2 = {norm_sq!r}")
        amps.setflags(write=False)
        super().__init__(amps)

    def __len__(self) -> int:
        return self.amplitudes.shape[0]

    def overlap(self, other: "PureState") -> complex:
        """Inner product <self|other>."""
        if len(self) != len(other):
            raise ValueError("states live in different spaces")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def overlap_probability(self, other: "PureState") -> float:
        """|<self|other>|^2, clamped into [0, 1]."""
        return _clamp01(abs(self.overlap(other)) ** 2)

    def __repr__(self) -> str:
        return f"PureState({self.amplitudes.tolist()!r})"


def _clamp01(p: float) -> float:
    return 0.0 if p < 0.0 else 1.0 if p > 1.0 else p


class EquatorBasis(Value):
    """Projective measurement onto |+-phi> = (|0> +- e^{i phi}|1>)/sqrt(2)."""

    __slots__ = ("phi",)

    def __init__(self, phi: float) -> None:
        if not math.isfinite(phi):
            raise ValueError("phi must be finite")
        super().__init__(phi)

    @functools.lru_cache(maxsize=_MEMO_SIZE)
    def eigenstate(self, outcome: Outcome) -> PureState:
        """|+-phi>, memoized per (phi, outcome); a PureState is read-only, so callers share it."""
        phase = complex(math.cos(self.phi), math.sin(self.phi))
        return PureState([_INV_SQRT2, outcome.sign * phase * _INV_SQRT2])


def make_bb84_state(basis: EquatorBasis, sign: Outcome) -> PureState:
    """Prepare a protocol state: |x+-> at phi=0 or |y+-> at phi=pi/2 only."""
    if not (abs(basis.phi) <= NORM_TOL or abs(basis.phi - math.pi / 2) <= NORM_TOL):
        raise ValueError(
            f"preparation uses only the x (phi=0) and y (phi=pi/2) bases, got phi={basis.phi!r}"
        )
    return basis.eigenstate(sign)


def outcome_probabilities(state: PureState, basis: EquatorBasis) -> tuple[float, float]:
    """Born probabilities (p_plus, p_minus) for measuring a single qubit."""
    if len(state) != 2:
        raise ValueError("outcome_probabilities takes a single-qubit state")
    p_plus = basis.eigenstate(Outcome.PLUS).overlap_probability(state)
    return p_plus, 1.0 - p_plus


def apply_eve_unitary(state: PureState, alpha: float) -> PureState:
    """Couple a single-qubit state to a fresh |0> ancilla.

    Linear extension of |0>|0> -> |00>, |1>|0> -> cos(alpha)|10> + sin(alpha)|01>,
    so a|0> + b|1> maps to a|00> + b sin(alpha)|01> + b cos(alpha)|10>.
    """
    if len(state) != 2:
        raise ValueError("apply_eve_unitary takes a single-qubit state")
    if not math.isfinite(alpha):
        raise ValueError("alpha must be finite")
    a, b = state.amplitudes
    return PureState([a, b * math.sin(alpha), b * math.cos(alpha), 0.0])


def joint_outcome_probabilities(
    state: PureState, bob_basis: EquatorBasis, eve_basis: EquatorBasis
) -> np.ndarray:
    """2x2 Born table for measuring both qubits of a two-qubit state.

    Entry [b, e] is the probability that the signal qubit (first tensor slot)
    gives outcome bit b in bob_basis while the ancilla gives bit e in
    eve_basis. Rows/columns are indexed PLUS=0, MINUS=1.
    """
    if len(state) != 4:
        raise ValueError("joint_outcome_probabilities takes a two-qubit state")
    bras = _product_bras(bob_basis.phi, eve_basis.phi)
    return np.array([[_clamp01(abs(bra @ state.amplitudes) ** 2) for bra in row] for row in bras])


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _product_bras(bob_phi: float, eve_phi: float) -> tuple:
    """bras[b][e] = <b| (x) <e|, read-only, for Bob's bit b at bob_phi and Eve's e at eve_phi."""
    bob, eve = ([np.conj(EquatorBasis(phi).eigenstate(out).amplitudes) for out in Outcome]
                for phi in (bob_phi, eve_phi))
    bras = np.array([[np.kron(bra_b, bra_e) for bra_e in eve] for bra_b in bob])
    bras.setflags(write=False)
    return tuple(map(tuple, bras))
