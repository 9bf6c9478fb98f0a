"""Single-shot quantum helpers and oracles used only as test references.

The engine samples whole blocks from precomputed Born tables; these helpers
draw, collapse and interpret one round at a time, so tests can re-derive a
round without going through any of the engine's code. The plug-in mutual
information of a 2x2 count table is here too, written apart from the
engine's one-pass estimator that tests check against it, and so is a
trace writer that unpacks one code at a time, the byte oracle of the CLI's,
and a code-at-a-time estimator, the exact oracle of estimate_counts, with
the stratified MI as a loop over numpy arrays.
An instrument oracle places any memoryless attack, given as Kraus
operators in raw numpy amplitudes, on the information-disturbance plane.
code_probabilities gives the exact expected histogram of round codes
that the engine's tables define, so the estimator can be checked against
the closed forms with no sampling noise. Last, philox_words is the engine's
word stream from Philox4x64-10 in Python integers, so the scalar replay
does not read numpy's generator.
"""

import contextlib
import math
from dataclasses import dataclass, field
from unittest import mock

import numpy as np

from bb84eve import protocol_sim
from bb84eve.attacks import InterceptResend
from bb84eve.protocol_sim import BASIS_ANGLES, BASIS_LABELS, N_CODES, REVEALED_BASIS_MARKER, TIE_TOL
from bb84eve.quantum_core import EquatorBasis, Outcome, PureState, _clamp01, outcome_probabilities
from bb84eve.report_cli import _fmt

PROB_SUM_TOL = 1e-9
ZERO_PROB_TOL = 1e-15

# the two preparation bases
X_BASIS = EquatorBasis(0.0)
Y_BASIS = EquatorBasis(math.pi / 2)


def intermediate_basis() -> EquatorBasis:
    """The basis at phi = pi/4, halfway between x and y."""
    return EquatorBasis(math.pi / 4)


def conjugate_basis(basis: EquatorBasis) -> EquatorBasis:
    """The companion basis at phi' = pi/2 - phi (x and y swap roles)."""
    return EquatorBasis(math.pi / 2 - basis.phi)


def project(state: PureState, basis: EquatorBasis, outcome: Outcome) -> PureState:
    """Post-measurement state: the basis eigenstate matching the outcome.

    Raises if the outcome has (numerically) zero probability, since asking for
    that collapse indicates a logic error in the caller.
    """
    p_plus, p_minus = outcome_probabilities(state, basis)
    p = p_plus if outcome is Outcome.PLUS else p_minus
    if p <= ZERO_PROB_TOL:
        raise ValueError(f"outcome {outcome} has zero probability in this basis")
    return basis.eigenstate(outcome)


def _check_distribution(probs: np.ndarray) -> None:
    if np.any(probs < -PROB_SUM_TOL):
        raise ValueError("probabilities must be non-negative")
    total = float(probs.sum())
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ValueError(f"probabilities must sum to 1, got {total!r}")


def sample_outcome(probabilities, rng: np.random.Generator) -> Outcome:
    """Inverse-CDF draw of a single outcome from (p_plus, p_minus)."""
    probs = np.asarray(probabilities, dtype=np.float64)
    if probs.shape != (2,):
        raise ValueError("expected a pair (p_plus, p_minus)")
    _check_distribution(probs)
    u = rng.random()
    return Outcome.PLUS if u < probs[0] else Outcome.MINUS


def sample_joint_outcome(table, rng: np.random.Generator) -> tuple[Outcome, Outcome]:
    """Inverse-CDF draw of (signal outcome, ancilla outcome) from a 2x2 table.

    Cells are flattened row-major: (+,+), (+,-), (-,+), (-,-). The same
    ordering is used by the vectorized protocol engine so the two sampling
    paths are interchangeable for a shared uniform draw.
    """
    probs = np.asarray(table, dtype=np.float64)
    if probs.shape != (2, 2):
        raise ValueError("expected a 2x2 probability table")
    _check_distribution(probs)
    cdf = np.cumsum(probs.reshape(4))
    u = rng.random()
    idx = min(int(np.searchsorted(cdf, u, side="right")), 3)
    return Outcome(idx >> 1), Outcome(idx & 1)


def interpret_outcome(
    eve_basis,
    eve_outcome: Outcome,
    revealed_basis,
    *,
    correlation_scale: float = 1.0,
    tie_coin: float | None = None,
) -> int:
    """Convert Eve's stored outcome into a bit guess after the basis reveal.

    eve_basis is an EquatorBasis, a plain angle, or the marker "revealed"
    (stored-ancilla attack: she measured in the revealed basis itself).
    revealed_basis is "x", "y", or an EquatorBasis. correlation_scale is 1
    for direct interception and sin(alpha) for ancilla outcomes. The
    correlation between her outcome bit and the key bit is
    scale * cos(eve angle - revealed angle); exact ties need tie_coin, a
    uniform from the round's stream.
    """
    if isinstance(revealed_basis, EquatorBasis):
        revealed_angle = revealed_basis.phi
    elif revealed_basis in BASIS_LABELS:
        revealed_angle = BASIS_ANGLES[BASIS_LABELS.index(revealed_basis)]
    else:
        raise ValueError(f"revealed_basis must be 'x', 'y', or an EquatorBasis, got {revealed_basis!r}")
    if eve_basis == REVEALED_BASIS_MARKER:
        eve_angle = revealed_angle
    elif isinstance(eve_basis, EquatorBasis):
        eve_angle = eve_basis.phi
    else:
        eve_angle = float(eve_basis)
    corr = correlation_scale * math.cos(eve_angle - revealed_angle)
    if corr > TIE_TOL:
        return eve_outcome.value
    if corr < -TIE_TOL:
        return 1 - eve_outcome.value
    if tie_coin is None:
        raise ValueError("outcome carries no information about this basis; a tie_coin is required")
    return int(tie_coin >= 0.5)


# fresh_eigenstate(basis, outcome) is basis.eigenstate(outcome) built anew, past its memo
fresh_eigenstate = EquatorBasis.eigenstate.__wrapped__


def fresh_joint_outcome_probabilities(
    state: PureState, bob_basis: EquatorBasis, eve_basis: EquatorBasis
) -> np.ndarray:
    """The 2x2 joint Born table from fresh eigenstates and one np.kron per cell, with no memo."""
    table = np.empty((2, 2), dtype=np.float64)
    for b_out in Outcome:
        bra_b = np.conj(fresh_eigenstate(bob_basis, b_out).amplitudes)
        for e_out in Outcome:
            bra_e = np.conj(fresh_eigenstate(eve_basis, e_out).amplitudes)
            amp = np.kron(bra_b, bra_e) @ state.amplitudes
            table[b_out.value, e_out.value] = _clamp01(abs(amp) ** 2)
    return table


def unmemoized_tables(attack):
    """The engine's Born tables for attack, built with every state, eigenstate, bra and table made afresh."""
    with contextlib.ExitStack() as patches:
        patches.enter_context(mock.patch.object(EquatorBasis, "eigenstate", fresh_eigenstate))
        patches.enter_context(mock.patch.object(
            protocol_sim, "joint_outcome_probabilities", fresh_joint_outcome_probabilities))
        for name in ("_protocol_states", "_untouched_p_plus"):  # built once per process
            patches.enter_context(mock.patch.object(protocol_sim, name, getattr(protocol_sim, name).__wrapped__))
        return protocol_sim._born_tables(attack)


@dataclass(frozen=True)
class JointCounts:
    """2x2 table of non-negative integer counts indexed (alice_bit, eve_guess)."""

    counts: np.ndarray = field(repr=False)

    def __init__(self, counts) -> None:
        table = np.array(counts, dtype=np.int64, copy=True)
        if table.shape != (2, 2):
            raise ValueError(f"counts must be a 2x2 table, got shape {table.shape}")
        if np.any(table < 0):
            raise ValueError("counts must be non-negative")
        table.setflags(write=False)
        object.__setattr__(self, "counts", table)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def __repr__(self) -> str:
        return f"JointCounts({self.counts.tolist()!r})"


def mutual_information(counts) -> float:
    """Plug-in estimator I(A;E) in bits from a 2x2 count table.

    Accepts a JointCounts or anything coercible to a 2x2 non-negative integer
    array. Zero-probability cells contribute nothing; an all-zero table is an
    error because no distribution can be estimated from it.
    """
    if not isinstance(counts, JointCounts):
        counts = JointCounts(counts)
    n = counts.total
    if n == 0:
        raise ValueError("cannot estimate mutual information from an empty table")
    p = counts.counts / n
    p_a = p.sum(axis=1)
    p_e = p.sum(axis=0)
    info = 0.0
    for a in (0, 1):
        for e in (0, 1):
            if p[a, e] > 0.0:
                info += p[a, e] * math.log2(p[a, e] / (p_a[a] * p_e[e]))
    return 0.0 if info < 0.0 else 1.0 if info > 1.0 else info


def _trace_cells(code: int, eve_labels: tuple) -> str:
    """The TRACE_HEADER cells after the round index, for one round code."""
    f = protocol_sim.unpack(code)
    acted = bool(f["acted"])
    eve = [None] * 3
    if acted:
        eve = [eve_labels[f["slot"]], Outcome(f["eve_bit"]).name.lower(), f["guess"]]
    cells = [BASIS_LABELS[f["alice_basis"]], f["alice_bit"], acted, *eve,
             BASIS_LABELS[f["bob_basis"]], f["bob_bit"], bool(f["alice_basis"] == f["bob_basis"])]
    return ",".join(_fmt(cell) for cell in cells)


def reference_trace_text(codes, eve_labels: tuple, start: int = 0) -> str:
    """The trace rows of codes, numbered from start, one f-string per row."""
    codes = np.asarray(codes).tolist()
    rows = {code: _trace_cells(code, eve_labels) for code in set(codes)}
    return "".join(f"{i},{rows[code]}\n" for i, code in enumerate(codes, start))


# --- the estimator, one code at a time -------------------------------------


def reference_stratified_mi(strata: np.ndarray) -> tuple[float | None, float | None]:
    """protocol_sim._stratified_mi as a loop over numpy arrays, the bit-exact oracle of its loop over floats."""
    totals = strata.sum(axis=(1, 2))
    n = int(totals.sum())
    if n == 0:
        return None, None
    point = 0.0
    score_sum = 0.0
    score_sq = 0.0
    for table, n_s in zip(strata, totals):
        if n_s == 0:
            continue
        p = table / n_s
        p_a = p.sum(axis=1)
        p_g = p.sum(axis=0)
        mi = 0.0
        for a in (0, 1):
            for g in (0, 1):
                if table[a, g] > 0:
                    score = math.log2(p[a, g] / (p_a[a] * p_g[g]))
                    mi += p[a, g] * score
                    score_sum += table[a, g] * score
                    score_sq += table[a, g] * score * score
        point += (n_s / n) * (0.0 if mi < 0.0 else 1.0 if mi > 1.0 else mi)
    mean = score_sum / n
    variance = max(score_sq / n - mean * mean, 0.0)
    return point, math.sqrt(variance / n)


def reference_estimate(hist) -> protocol_sim.SimEstimate:
    """estimate_counts by a loop over codes, each read by field name through unpack.

    The counts go into the engine's _rate and into reference_stratified_mi,
    which is bit-exact with the engine's _stratified_mi, so the two agree
    exactly, and a histogram with too few sifted rounds raises the same error
    with the same message.
    """
    n_sifted, n_errors, n_acted, n_correct = ([0, 0] for _ in range(4))
    gc = np.zeros((2,) * 5, dtype=np.int64)  # gc[acted, slot, rb, alice_bit, guess]
    for code, count in enumerate(np.asarray(hist).tolist()):
        f = {name: int(value) for name, value in protocol_sim.unpack(code).items()}
        rb = f["alice_basis"]
        if rb != f["bob_basis"]:
            continue
        n_sifted[rb] += count
        n_errors[rb] += count if f["alice_bit"] != f["bob_bit"] else 0
        if f["guess"] == protocol_sim.NO_GUESS:  # no eavesdropper: the round adds to none of Eve's counts
            continue
        gc[f["acted"], f["slot"], rb, f["alice_bit"], f["guess"]] += count
        if f["acted"]:
            n_acted[rb] += count
            n_correct[rb] += count if f["guess"] == f["alice_bit"] else 0
    if sum(n_sifted) < protocol_sim.MIN_SIFTED:
        raise protocol_sim.InsufficientSampleError(
            f"need at least {protocol_sim.MIN_SIFTED} sifted rounds to report standard errors, got {sum(n_sifted)}"
        )
    rate = protocol_sim._rate
    mi_full, mi_int = reference_stratified_mi(gc.reshape(8, 2, 2)), reference_stratified_mi(gc[1].reshape(4, 2, 2))
    fid_x, fid_y = rate(n_correct[0], n_acted[0]), rate(n_correct[1], n_acted[1])
    return protocol_sim.SimEstimate(
        int(np.sum(hist)), sum(n_sifted), sum(n_acted), *rate(sum(n_errors), sum(n_sifted)),
        rate(n_errors[0], n_sifted[0])[0], rate(n_errors[1], n_sifted[1])[0],
        *mi_full, *mi_int, *fid_x, *fid_y,
    )


# --- memoryless instruments, in raw amplitudes ------------------------------

# the protocol states: PREPARED[basis][bit], x basis then y basis
PREPARED = np.array([[[1, 1], [1, -1]], [[1, 1j], [1, -1j]]]) / math.sqrt(2)


def _info_bits(joint: np.ndarray) -> np.ndarray:
    """I(A; R) in bits of each joint distribution joint[..., a, r]."""
    outer = joint.sum(axis=-1, keepdims=True) * joint.sum(axis=-2, keepdims=True)
    cells = joint > 0
    ratio = np.divide(joint, outer, out=np.ones_like(joint), where=cells)
    return np.sum(joint * np.log2(ratio), axis=(-2, -1))


def instrument_point(kraus) -> tuple:
    """(d_bob, i_eve) of the instrument {K_r} applied to Alice's qubit, kraus[r] = K_r.

    Eve reads r before the basis reveal and Bob measures what is left in
    Alice's basis. d_bob is his error rate over the four protocol states;
    i_eve is I(A; R) given the revealed basis, averaged over the two bases.
    A stack of instruments, kraus[..., r], gives an array of each.
    """
    kraus = np.asarray(kraus, dtype=np.complex128)
    images = np.einsum("...rij,baj->...bari", kraus, PREPARED)  # K_r |PREPARED[b, a]>
    flips = np.einsum("...bari,bai->...bar", images, PREPARED[:, ::-1].conj())  # <PREPARED[b, 1-a]| ...
    d_bob = np.sum(np.abs(flips) ** 2, axis=(-3, -2, -1)) / 4
    i_eve = np.sum(_info_bits(np.sum(np.abs(images) ** 2, axis=-1) / 2), axis=-1) / 2
    return d_bob[()], i_eve[()]


def weak_x_instrument(d: float) -> np.ndarray:
    """The Lueders weak measurement of X at Bob's error rate d in [0, 1/4].

    K_pm = sqrt((1 +- s X)/2) with s = sqrt(8d(1 - 2d)): x states pass
    untouched, and y states' Bloch vectors shrink by sqrt(1 - s^2) = 1 - 4d.
    """
    s = math.sqrt(8 * d * (1 - 2 * d))
    plus, minus = (np.outer(state, state.conj()) for state in PREPARED[0])
    strong, weak = math.sqrt((1 + s) / 2), math.sqrt((1 - s) / 2)
    return np.array([strong * plus + weak * minus, weak * plus + strong * minus])


# --- the expected histogram of round codes ----------------------------------


def code_probabilities(attack) -> np.ndarray:
    """p[code]: the probability of each round code under attack, from the engine's tables.

    The bits of a round key are fair coins in columns 0, 1, 2, 4 and 7, the
    intercept coin in column 3 (set with probability fraction) and the
    Born-rule draws in columns 5 and 6, which read their thresholds at the
    key's other bits: bit 0 below p_eve or p_bob, or the joint cell, whose
    probability is a difference of joint_cdf. Each key's probability lands
    on its code. The tables are the Born probabilities the kernel's integer
    thresholds are made of.
    """
    tables = protocol_sim._born_tables(attack)
    keys = np.arange(protocol_sim.N_KEYS)
    bits = [keys >> column & 1 for column in range(protocol_sim.UNIFORMS_PER_ROUND)]
    p = np.full(len(keys), 0.5**5)  # the five fair coins
    fraction = attack.fraction if isinstance(attack, InterceptResend) else 0.5  # a coin the tables ignore
    p *= np.where(bits[3], fraction, 1.0 - fraction)
    if tables.joint_cdf is None:
        for column, plus in ((5, tables.p_eve), (6, tables.p_bob)):
            plus = 0.5 if plus is None else plus
            p *= np.where(bits[column], 1.0 - plus, plus)
    else:
        # the kernel's cell counts the three rows u5 passes, so cell 3 takes the rest up to 1
        cdf = np.vstack([np.zeros(len(keys)), tables.joint_cdf[:3], np.ones(len(keys))])
        cell = bits[5] + 2 * bits[6]  # Bob's bit high, Eve's low
        p *= cdf[cell + 1, keys] - cdf[cell, keys]
    return np.bincount(tables.codes, weights=p, minlength=N_CODES)


# --- Philox4x64-10 in Python integers ----------------------------------------

_MASK64 = (1 << 64) - 1
# the round multipliers and the Weyl key increments of Salmon, Moraes, Dror &
# Shaw, "Parallel random numbers: as easy as 1, 2, 3", SC 2011
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


def philox4x64_10(counter: int, key: int) -> tuple[int, int, int, int]:
    """The 4 words Philox4x64-10 makes of a 256-bit counter and a 128-bit key, low word first in each."""
    c0, c1, c2, c3 = (counter >> shift & _MASK64 for shift in (0, 64, 128, 192))
    k0, k1 = key & _MASK64, key >> 64 & _MASK64
    for _ in range(10):
        p0, p1 = _PHILOX_M[0] * c0, _PHILOX_M[1] * c2  # mulhilo: the high and low words of each product
        c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & _MASK64, (p0 >> 64) ^ c3 ^ k1, p0 & _MASK64
        k0, k1 = (k0 + _PHILOX_W[0]) & _MASK64, (k1 + _PHILOX_W[1]) & _MASK64
    return c0, c1, c2, c3


def philox_words(seed: int, n_rounds: int, start: int = 0) -> list[int]:
    """The engine's 8 words a round for n_rounds rounds from round start on.

    The stream is numpy's Philox(key=seed): the key is (seed mod 2**64,
    seed >> 64), and the 256-bit counter is incremented before each block,
    so after an advance of 2 * start blocks round r's words are the blocks
    at counters 2r + 1 and 2r + 2.
    """
    words = []
    for counter in range(2 * start + 1, 2 * (start + n_rounds) + 1):
        words.extend(philox4x64_10(counter, seed))
    return words
