"""Monte Carlo BB84 engine with deterministic counter-based randomness.

Every round consumes one fixed-width row of 8 64-bit words from a Philox
stream keyed by the run seed, so results are bit-identical for a given
(n_rounds, attack, seed) regardless of thread count. Word w stands for the
uniform u = (w >> 11) * 2**-53, the double numpy's Generator.random makes
of it. Column semantics, fixed for the life of the format:

    0 Alice basis   1 Alice bit      2 Bob basis      3 intercept coin
    4 symmetrization coin 5 Eve outcome / joint outcome draw
    6 Bob outcome (intercept/resend and untouched rounds)
    7 tie-break coin, doubling as the guess coin on untouched rounds

A value u maps to index (u >= 0.5), which is the word's top bit, so
u < 0.5 means x / bit 0 / PLUS.
Eve's angle slot (phi or its companion pi/2 - phi) comes from column 4
under symmetrization and is 0 without it; for the stored probe, which is
read in the revealed basis, the slot comes from column 0.

Share execution: count_codes gives each thread one contiguous share of the
rounds and one stream from the share's first round on. A share runs in
blocks of _BLOCK rounds, each drawn as one (n, 8) array of raw words, so no
kernel array grows with the share. One sign pass over the words gives every
fair-coin bit, and no word becomes a double: a run stores each Born-rule
probability p as the integer threshold ceil(p * 2**53), and u >= p holds
exactly when the word's top 53 bits, w >> 11, reach it. Each draw against a
threshold (interception, Eve's outcome, Bob's outcome, the joint cell)
compares the top bits of its column (3, 5 or 6) with a threshold read from
a flat per-run table by one take on the round key, the byte that gathers
the round's 8 column bits, and overwrites the column's bit. Each block adds
the bincount of its keys to the share's counts, and a traced run also hands
out their codes. One 256-entry table per run maps each key to its round
code, a uint16 below N_CODES = 384 that packs the fields of ROUND_FIELDS
(acted, slot, eve_bit, guess, the two bases and the two key bits); unpack
decodes it. count_codes, the one run loop, returns the run's histogram of
codes; estimate_counts derives every estimate from it, read as an array
with one axis per field of ROUND_FIELDS; and a trace keeps the codes, so
its estimate is the run's exactly.

All sampling probabilities are Born-rule values computed from raw state
vectors via quantum_core at run start; the engine never consults the
closed-form module, which keeps the two routes independent for
cross-validation. The attack configs it takes are defined in ``attacks``.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from .attacks import AncillaNoMemory, AncillaWithMemory, AttackConfig, InterceptResend, NoAttack, Value
from .quantum_core import (
    EquatorBasis,
    Outcome,
    apply_eve_unitary,
    make_bb84_state,
    joint_outcome_probabilities,
    outcome_probabilities,
)

UNIFORMS_PER_ROUND = 8
# Philox4x64 yields 4 words per counter block, so one 8-word round row is
# exactly 2 counter blocks; advancing 2*start of them aligns a share's stream
# with the corresponding rows of a one-shot draw.
_BLOCKS_PER_ROUND = 2
# An untraced run starts one thread per this many rounds, up to workers and CPUs.
_THREAD_ROUNDS = 1 << 16

TIE_TOL = 1e-12
MIN_SIFTED = 100

BASIS_LABELS = ("x", "y")
BASIS_ANGLES = (0.0, math.pi / 2)
REVEALED_BASIS_MARKER = "revealed"


class InsufficientSampleError(Exception):
    """Raised when too few sifted rounds exist to report standard errors."""


class SimEstimate(NamedTuple):
    """Empirical counterparts of the analytic quantities, over sifted rounds.

    eve_mutual_info is the full-key value: a weighted average of per-context
    plug-in MI, where a context is (acted, Eve's measurement basis, revealed
    basis) and untouched rounds enter as fair-coin guesses.
    eve_mutual_info_intercepted restricts to rounds Eve touched. Per-basis
    Eve fidelities condition on the revealed basis and on Eve having acted.
    Fields are None where the corresponding conditioning set is empty.
    """

    n_rounds: int
    n_sifted: int
    n_intercepted: int
    qber: float
    qber_se: float
    qber_x: float | None
    qber_y: float | None
    eve_mutual_info: float | None
    eve_mutual_info_se: float | None
    eve_mutual_info_intercepted: float | None
    eve_mutual_info_intercepted_se: float | None
    eve_fidelity_x: float | None
    eve_fidelity_x_se: float | None
    eve_fidelity_y: float | None
    eve_fidelity_y_se: float | None


# --- the round code ----------------------------------------------------------

# Every round is one integer: these fields in mixed radix, the first field
# most significant. slot is Eve's angle slot and eve_bit her outcome bit, both
# 0 on rounds she left alone; guess is her key-bit guess, which untouched
# rounds draw from the guess coin, or NO_GUESS when there is no eavesdropper.
ROUND_FIELDS = (
    ("acted", 2), ("slot", 2), ("eve_bit", 2), ("guess", 3),
    ("alice_basis", 2), ("alice_bit", 2), ("bob_basis", 2), ("bob_bit", 2),
)
_SHAPE = tuple(size for _, size in ROUND_FIELDS)
N_CODES = math.prod(_SHAPE)
NO_GUESS = 2


def _pack(*values):
    """Round code(s) of field values given in ROUND_FIELDS order."""
    return np.ravel_multi_index(values, _SHAPE).astype(np.uint16)


def unpack(codes) -> dict[str, np.ndarray]:
    """Field name -> value(s) of one round code or an array of them."""
    return dict(zip((name for name, _ in ROUND_FIELDS), np.unravel_index(codes, _SHAPE)))


class Trace(Value):
    """Every round of a run as its round code, in round order.

    eve_labels[slot] names Eve's measurement basis on the rounds she acted
    on: an angle in radians, or "revealed" for the probe read in the
    revealed basis. A trace equals only itself.
    """

    __slots__ = ("codes", "eve_labels")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __len__(self) -> int:
        return len(self.codes)


# --- Born-rule tables for the vectorized sampler ---------------------------


def _p_plus(states, bases) -> np.ndarray:
    """p[i, j, t]: the probability of PLUS for states[i][j] measured in bases[t]."""
    return np.array([[[outcome_probabilities(s, basis)[0] for basis in bases] for s in row] for row in states])


# The tables below depend on no attack, so each process builds them once;
# callers only read them.


@functools.cache
def _protocol_states() -> tuple:
    """states[basis][bit]: Alice's four states."""
    return tuple(
        tuple(make_bb84_state(EquatorBasis(BASIS_ANGLES[b]), Outcome(bit)) for bit in (0, 1))
        for b in (0, 1)
    )


@functools.cache
def _untouched_p_plus() -> np.ndarray:
    """p[basis, bit, bob_basis]: the probability of PLUS for Bob on a qubit Eve left alone; read-only."""
    p = _p_plus(_protocol_states(), [EquatorBasis(t) for t in BASIS_ANGLES])
    p.flags.writeable = False
    return p


# --- the round key and the tables it indexes -------------------------------

# The kernel reads each round through one byte, its round key: bit c is the
# round's bit in word column c, u >= 0.5 or, in the columns a draw
# replaces, the drawn bit (3: acted, 5: Eve's outcome, 6: Bob's outcome). The
# tables have one entry per key and ignore the bits their mode does not use.
N_KEYS = 256
_KEYS = np.arange(N_KEYS)
# Multiplying a little-endian word whose 8 bytes are each 0 or 1 by this
# constant puts byte c at bit 56 + c; the partial products below bit 56 never
# overlap, so none carries into the top byte.
_GATHER = np.uint64(0x0102040810204080)
# sifted rounds' keys, Alice's basis (column 0) equal to Bob's (column 2); a ufunc here adds RSS to importers
_SIFTED_KEYS = [key for key in range(N_KEYS) if key & 1 == key >> 2 & 1]


class _EngineTables(NamedTuple):
    """The tables of one run, indexed by round key, in one of two modes.

    codes[key] is the round code of a finished key; it applies Eve's
    maximum-likelihood reading of her outcome, so the kernel never guesses.
    eve_labels[slot] is the trace label of Eve's angle slot.

    Sequential mode (joint_cdf None): Bob's outcome is u6 >= p_bob[key].
    Eve's draw runs whenever the run has an interception table, p_eve: rounds
    with u3 < fraction are intercepted, and her outcome, which the codes read
    only on them, is u5 >= p_eve[key]; p_bob reads her forwarded eigenstate
    there and the untouched qubit elsewhere. Joint mode: Eve acts every round,
    and the joint cell, whose high bit is Bob's outcome and low bit Eve's,
    counts the j < 3 with u5 >= joint_cdf[j, key]. joint_cdf[:, key] is the
    cumulative distribution of the cell, so that count is the cell u5 falls in.

    _born_tables holds fraction, p_eve, p_bob and joint_cdf as the Born-rule
    probabilities, doubles; the kernel's tables, from _build_tables, hold
    each as its uint64 threshold (see _thresholds).
    """

    codes: np.ndarray
    eve_labels: tuple = ()
    fraction: float | None = None
    p_eve: np.ndarray | None = None
    p_bob: np.ndarray | None = None
    joint_cdf: np.ndarray | None = None


def _decisions(angles, correlation_scale: float) -> np.ndarray:
    """Maximum-likelihood reading of Eve's outcome, per angle and revealed basis.

    The correlation between her outcome bit at angle t and the key bit in
    the revealed angle-rho basis is scale * cos(t - rho): +1 means guess the
    outcome bit, -1 its complement, and 0 (an exact tie) the tie-break coin.
    """
    corr = [[correlation_scale * math.cos(angle - rho) for rho in BASIS_ANGLES] for angle in angles]
    return np.array([[(c > TIE_TOL) - (c < -TIE_TOL) for c in row] for row in corr], dtype=np.int8)


def _born_tables(attack: AttackConfig) -> _EngineTables:
    """The run's tables, with every probability a double."""
    states = _protocol_states()
    ab, abit, bb, acted, slot, e, bob_bit, coin = (_KEYS >> c & 1 for c in range(UNIFORMS_PER_ROUND))
    if isinstance(attack, NoAttack):
        p_bob = _untouched_p_plus()[ab, abit, bb]
        return _EngineTables(_pack(0, 0, 0, NO_GUESS, ab, abit, bb, bob_bit), p_bob=p_bob)

    # the slot rule: a memoryless family measures at once, at phi or its companion as the
    # symmetrization coin says; the stored probe is read in the revealed basis, i.e. Alice's
    if isinstance(attack, (InterceptResend, AncillaNoMemory)):
        angles = labels = (attack.phi, math.pi / 2 - attack.phi)
        k = slot if attack.symmetrize else 0  # Eve's angle slot
    elif isinstance(attack, AncillaWithMemory):
        angles, labels, k = BASIS_ANGLES, (REVEALED_BASIS_MARKER, REVEALED_BASIS_MARKER), ab
    else:
        raise ValueError(f"unsupported attack config: {attack!r}")
    bob_bases, eve_bases = ([EquatorBasis(t) for t in ts] for ts in (BASIS_ANGLES, angles))

    if isinstance(attack, InterceptResend):
        forwarded = [[basis.eigenstate(Outcome(bit)) for bit in (0, 1)] for basis in eve_bases]
        scale = 1.0
        thresholds = dict(
            fraction=attack.fraction,
            p_eve=_p_plus(states, eve_bases)[ab, abit, k],
            p_bob=np.where(acted, _p_plus(forwarded, bob_bases)[k, e, bb], _untouched_p_plus()[ab, abit, bb]),
        )
    else:
        # cdf[t, a, bit, b]: the joint cell's CDF when Alice's state states[a][bit], entangled once,
        # is read by Bob in bob_bases[b] and its probe by Eve in eve_bases[t]
        probes = [[apply_eve_unitary(s, attack.alpha) for s in row] for row in states]
        cdf = np.array([[[[np.cumsum(joint_outcome_probabilities(probe, bob, eve)) for bob in bob_bases]
                          for probe in row] for row in probes] for eve in eve_bases])
        # the kernel's three compares count the cell only on nondecreasing rows
        assert np.all(np.diff(cdf) >= 0), "a joint CDF row decreases"
        acted = 1
        scale = math.sin(attack.alpha)
        thresholds = dict(joint_cdf=np.ascontiguousarray(cdf[k, ab, abit, bb].T))

    d = _decisions(angles, scale)[k, ab]
    guess = np.where(acted, np.where(d == 1, e, np.where(d == -1, 1 - e, coin)), coin)
    codes = _pack(acted, k * acted, e * acted, guess, ab, abit, bb, bob_bit)
    return _EngineTables(codes, labels, **thresholds)


def _thresholds(p):
    """ceil(p * 2**53) as uint64, for probabilities p in [0, 1].

    A word's uniform is u = m * 2**-53 with m = w >> 11, an integer, so
    u >= p exactly when m >= ceil(p * 2**53), and u < p when m is below it:
    scaling by 2**53 and the ceiling of a value at most 2**53 lose no bit.
    """
    return np.ceil(np.ldexp(p, 53)).astype(np.uint64)


def _build_tables(attack: AttackConfig) -> _EngineTables:
    """The kernel's tables: the Born tables with every probability a threshold."""
    tables = _born_tables(attack)
    probabilities = {name: getattr(tables, name) for name in ("fraction", "p_eve", "p_bob", "joint_cdf")}
    return tables._replace(**{name: _thresholds(p) for name, p in probabilities.items() if p is not None})


# --- share execution --------------------------------------------------------

# Rounds per kernel block, the unit a share runs, checks for errors and hands
# out as trace: one block's words (512 KiB) and its temporaries, none above
# 64 KiB, fit a 2 MB L2 together.
_BLOCK = 1 << 13
# w >> 11 is the word's top 53 bits, the integer m of its uniform m * 2**-53
_MANTISSA_SHIFT = np.uint64(64 - 53)


def _stream(seed: int, start: int) -> np.random.Philox:
    """The run's words from round start on: each 8 words it draws are the next round's columns."""
    bit_gen = np.random.Philox(key=seed)
    bit_gen.advance(start * _BLOCKS_PER_ROUND)
    return bit_gen


def _keys(bits: np.ndarray) -> np.ndarray:
    """Round keys of an (n, 8) array of bits, as int64 indices."""
    return (bits.view("<u8")[:, 0] * _GATHER >> np.uint64(56)).view(np.int64)


def _run_block(tables: _EngineTables, stream: np.random.Philox, n: int) -> np.ndarray:
    """The round keys of the stream's next n rounds."""
    words = stream.random_raw(n * UNIFORMS_PER_ROUND).reshape(n, UNIFORMS_PER_ROUND)
    bits = words.view(np.int64) < 0  # u >= 0.5: the top bit

    def top(column):
        """The top 53 bits of the column's words, u * 2**53."""
        return words[:, column] >> _MANTISSA_SHIFT

    if tables.joint_cdf is None:
        if tables.p_eve is not None:  # Eve's draw runs whenever the run has an interception table
            bits[:, 3] = top(3) < tables.fraction
            bits[:, 5] = top(5) >= tables.p_eve.take(_keys(bits))
        bits[:, 6] = top(6) >= tables.p_bob.take(_keys(bits))
    else:
        # the cell counts the rows u5 passes, and rows are nondecreasing: Bob's
        # bit (cell >= 2) is row 1's, and Eve's (cell odd) the parity of all three
        cdf, keys, m = tables.joint_cdf, _keys(bits), top(5)
        d0, bob, d2 = (m >= cdf[j].take(keys) for j in range(3))
        bits[:, 6] = bob
        bits[:, 5] = d0 ^ bob ^ d2
    return _keys(bits)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform has one, else os.cpu_count()."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def count_codes(
    n_rounds: int,
    attack: AttackConfig,
    seed: int,
    *,
    on_trace: Callable[[Trace], None] | None = None,
    workers: int = 1,
) -> np.ndarray:
    """The run's histogram of round codes: N_CODES int64 counts, hist[code].

    Deterministic: the per-round stream depends only on (seed, round index),
    and the counts are integers, so the histogram is bit-identical for any
    workers. An untraced run uses min(workers, ceil(n_rounds /
    _THREAD_ROUNDS), _usable_cpus()) threads; thread i runs the contiguous share of
    rounds n_rounds * i // threads up to n_rounds * (i + 1) // threads from
    one stream, with its own key histogram, and this thread runs share 0
    and adds the histograms once every thread is done. A traced run
    (on_trace) runs every round on this thread, whatever workers is. Each
    share draws one block's words (512 KiB) at a time, and its temporaries
    hold one block, so memory does not grow with n_rounds.

    on_trace, if given, receives the trace as the run goes: each time a
    block finishes, it is called with a Trace of the next rounds in round
    order, so only one block's codes (2 bytes a round) wait for it. The
    first call waits until the rounds so far hold MIN_SIFTED sifted rounds,
    so a run whose histogram estimate_counts refuses hands out no round.
    """
    if not (1 <= n_rounds < 2**63):  # key counts are int64
        raise ValueError(f"n_rounds must lie in [1, 2**63), got {n_rounds!r}")
    if not (0 <= seed < 2**64):
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers!r}")

    tables = _build_tables(attack)
    traced = on_trace is not None
    threads = 1 if traced else min(workers, -(-n_rounds // _THREAD_ROUNDS), _usable_cpus())
    hists = [None] * threads
    errors = []  # any error stops every share at its next block
    held = []  # a traced run's codes not yet handed out

    def share(i):
        """Run share i's rounds block by block until a share fails."""
        try:
            # allocated in the share's own thread: a helper's histogram made by the
            # caller raised a --jobs 2 peak by 0.4 MB (glibc's per-thread arenas)
            hists[i] = hist = np.zeros(N_KEYS, dtype=np.int64)
            start, stop = n_rounds * i // threads, n_rounds * (i + 1) // threads
            stream = _stream(seed, start)
            for first in range(start, stop, _BLOCK):
                if errors:
                    return
                keys = _run_block(tables, stream, min(_BLOCK, stop - first))
                hist += np.bincount(keys, minlength=N_KEYS)
                if traced:  # one share, so hist counts every round so far
                    held.append(tables.codes.take(keys))
                    if hist[_SIFTED_KEYS].sum() >= MIN_SIFTED:
                        on_trace(Trace(np.concatenate(held), tables.eve_labels))
                        held.clear()
        except BaseException as exc:  # failed or interrupted: the caller raises it
            errors.append(exc)

    # shares 1 .. threads - 1 run on helper threads, share 0 on this one
    helpers = [threading.Thread(target=share, args=(i,)) for i in range(1, threads)]
    for helper in helpers:
        helper.start()
    share(0)
    for helper in helpers:
        try:
            helper.join()
        except BaseException as exc:  # Ctrl-C while waiting: every share stops at its next block
            errors.append(exc)
            helper.join()
    if errors:
        raise errors[0]
    hist = np.zeros(N_CODES, dtype=np.int64)  # each key's count lands on its code
    np.add.at(hist, tables.codes, sum(hists))
    return hist


def run_protocol(
    n_rounds: int,
    attack: AttackConfig,
    seed: int,
    *,
    keep_trace: bool = False,
    on_trace: Callable[[Trace], None] | None = None,
    workers: int = 1,
) -> tuple[SimEstimate, Trace | None]:
    """Run BB84 rounds under an attack and estimate the observable statistics:
    estimate_counts(count_codes(...)), where count_codes takes every argument
    but keep_trace. keep_trace also returns the Trace of every round, which
    holds 2 bytes per round.
    """
    kept = []

    def keep(trace):
        kept.append(trace)
        if on_trace is not None:
            on_trace(trace)

    est = estimate_counts(count_codes(n_rounds, attack, seed, on_trace=keep if keep_trace else on_trace,
                                      workers=workers))
    trace = Trace(np.concatenate([block.codes for block in kept]), kept[0].eve_labels) if keep_trace else None
    return est, trace


# --- estimation -------------------------------------------------------------


def _rate(numer: int, denom: int) -> tuple[float | None, float | None]:
    if denom == 0:
        return None, None
    p = numer / denom
    return p, math.sqrt(p * (1.0 - p) / denom)


def _stratified_mi(strata: np.ndarray) -> tuple[float | None, float | None]:
    """Weighted per-stratum plug-in MI and its standard error.

    strata has shape (n_strata, 2, 2). The point estimate is
    sum_s (n_s/n) MI_s, where MI_s, the stratum's mean of the per-round score
    log2(p_s(a,g)/(p_s(a) p_s(g))), is clamped into [0, 1]; the SE is the
    sample standard deviation of that score over sqrt(n), which is the
    delta-method error of the same mean and includes the weight noise.

    The arithmetic is on Python floats in numpy's order of operations, each
    count and total becoming a double where numpy's would, so the result is
    bit-identical to the same loop over numpy arrays at a tenth of the cost.
    """
    strata = strata.tolist()
    totals = [sum(row0) + sum(row1) for row0, row1 in strata]
    n = sum(totals)
    if n == 0:
        return None, None
    point = 0.0
    score_sum = 0.0
    score_sq = 0.0
    for (row0, row1), n_s in zip(strata, totals):
        if n_s == 0:
            continue
        cells = (*row0, *row1)  # cells[2 * a + g]
        p = [count / float(n_s) for count in cells]
        p_a = (p[0] + p[1], p[2] + p[3])
        p_g = (p[0] + p[2], p[1] + p[3])
        mi = 0.0
        for i, count in enumerate(cells):
            if count > 0:
                score = math.log2(p[i] / (p_a[i >> 1] * p_g[i & 1]))
                mi += p[i] * score
                score_sum += count * score
                score_sq += count * score * score
        point += (float(n_s) / n) * (0.0 if mi < 0.0 else 1.0 if mi > 1.0 else mi)
    mean = score_sum / n
    variance = max(score_sq / n - mean * mean, 0.0)
    return point, math.sqrt(variance / n)


def estimate_counts(hist: np.ndarray) -> SimEstimate:
    """Estimates from a histogram of round codes, such as count_codes returns.

    Refuses to report when fewer than MIN_SIFTED sifted rounds are counted,
    since the normal-approximation standard errors would be meaningless, and
    raises ValueError unless hist is N_CODES nonnegative integer counts.
    """
    if len(hist) != N_CODES:
        raise ValueError(f"a histogram of round codes has {N_CODES} cells, got {len(hist)}")
    if not np.issubdtype(hist.dtype, np.integer) or hist.min() < 0:
        raise ValueError(f"round code counts must be nonnegative integers, got {hist.dtype} from {hist.min()}")
    # subscripts name the fields in ROUND_FIELDS order: k acted, s slot, e eve_bit, g guess,
    # r the bases, twice so only sifted rounds count, a alice_bit, b bob_bit
    counts = hist.reshape(_SHAPE)
    sifted = np.einsum("ksegrarb->rab", counts)  # sifted rounds by revealed basis, Alice's bit and Bob's
    n_sifted_by_basis = sifted.sum(axis=(1, 2)).tolist()
    n_errors_by_basis = (sifted[:, 0, 1] + sifted[:, 1, 0]).tolist()
    n_sifted = sum(n_sifted_by_basis)
    if n_sifted < MIN_SIFTED:
        raise InsufficientSampleError(
            f"need at least {MIN_SIFTED} sifted rounds to report standard errors, got {n_sifted}"
        )
    qber, qber_se = _rate(sum(n_errors_by_basis), n_sifted)
    qber_x, _ = _rate(n_errors_by_basis[0], n_sifted_by_basis[0])
    qber_y, _ = _rate(n_errors_by_basis[1], n_sifted_by_basis[1])

    # gc[acted, slot, rb, alice_bit, guess] over sifted rounds; rounds without a guess drop out
    gc = np.einsum("ksegrarb->ksrag", counts[:, :, :, :NO_GUESS])
    mi_full, mi_full_se = _stratified_mi(gc.reshape(8, 2, 2))
    mi_int, mi_int_se = _stratified_mi(gc[1].reshape(4, 2, 2))
    # per revealed basis, the intercepted rounds by Alice's bit and Eve's guess
    fid = [_rate(int(m[0, 0] + m[1, 1]), int(m.sum())) for m in gc[1].sum(axis=0)]

    return SimEstimate(
        n_rounds=int(hist.sum()),
        n_sifted=n_sifted,
        n_intercepted=int(gc[1].sum()),
        qber=qber,
        qber_se=qber_se,
        qber_x=qber_x,
        qber_y=qber_y,
        eve_mutual_info=mi_full,
        eve_mutual_info_se=mi_full_se,
        eve_mutual_info_intercepted=mi_int,
        eve_mutual_info_intercepted_se=mi_int_se,
        eve_fidelity_x=fid[0][0],
        eve_fidelity_x_se=fid[0][1],
        eve_fidelity_y=fid[1][0],
        eve_fidelity_y_se=fid[1][1],
    )


def estimate(trace: Trace) -> SimEstimate:
    """Re-estimate a run from its trace; the result equals the run's own estimate."""
    return estimate_counts(np.bincount(trace.codes, minlength=N_CODES))
