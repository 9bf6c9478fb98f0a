"""Tests for the Monte Carlo protocol engine.

The heart of this file is a scalar replay check: every traced round is
recomputed from the same uniform stream with single-shot state-vector calls,
so the vectorized kernel has to agree with the slow reference path round by
round, not just in aggregate.
"""

import ast
import itertools
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import bb84eve
import oracles
from reference import (
    X_BASIS,
    Y_BASIS,
    code_probabilities,
    fresh_eigenstate,
    interpret_outcome,
    mutual_information,
    philox_words,
    reference_estimate,
    reference_stratified_mi,
    unmemoized_tables,
)
from bb84eve import protocol_sim, quantum_core
from bb84eve.analytic_strategies import (
    ancilla_no_memory,
    ancilla_with_memory,
    binary_entropy,
    closed_form,
    intercept_resend,
)
from bb84eve.attacks import AncillaNoMemory, AncillaWithMemory, InterceptResend, NoAttack
from bb84eve.protocol_sim import (
    BASIS_ANGLES,
    BASIS_LABELS,
    N_CODES,
    NO_GUESS,
    REVEALED_BASIS_MARKER,
    ROUND_FIELDS,
    UNIFORMS_PER_ROUND,
    InsufficientSampleError,
    Trace,
    _pack,
    count_codes,
    estimate,
    estimate_counts,
    run_protocol,
    unpack,
)
from bb84eve.quantum_core import (
    EquatorBasis,
    Outcome,
    apply_eve_unitary,
    joint_outcome_probabilities,
    make_bb84_state,
    outcome_probabilities,
)


def raw_uniforms(seed: int, n_rounds: int, start: int = 0) -> np.ndarray:
    """The engine's uniform stream from round start on, from the reference Philox: u = (w >> 11) * 2**-53."""
    uniforms = [(w >> 11) * 2.0**-53 for w in philox_words(seed, n_rounds, start)]
    return np.array(uniforms).reshape(n_rounds, UNIFORMS_PER_ROUND)


def replay_round(attack, u: np.ndarray) -> dict:
    """Scalar re-derivation of one round from its 8 uniforms.

    Returns the ROUND_FIELDS values plus eve_basis, the trace label of Eve's
    measurement basis (None where she did not act).
    """
    ab = int(u[0] >= 0.5)
    abit = int(u[1] >= 0.5)
    bb = int(u[2] >= 0.5)
    alice_basis = EquatorBasis(BASIS_ANGLES[ab])
    bob_basis = EquatorBasis(BASIS_ANGLES[bb])
    state = make_bb84_state(alice_basis, Outcome(abit))

    # untouched rounds: slot and outcome 0, the guess coin if there is an Eve
    t = 0
    eve_basis = None
    eve_outcome = Outcome.PLUS
    eve_guess = NO_GUESS if isinstance(attack, NoAttack) else int(u[7] >= 0.5)

    if isinstance(attack, NoAttack):
        acted = False
        p_bob = outcome_probabilities(state, bob_basis)[0]
        bob_bit = int(u[6] >= p_bob)
    elif isinstance(attack, InterceptResend):
        acted = u[3] < attack.fraction
        if acted:
            t = int(u[4] >= 0.5) if attack.symmetrize else 0
            angle = attack.phi if t == 0 else math.pi / 2 - attack.phi
            probe = EquatorBasis(angle)
            p_eve = outcome_probabilities(state, probe)[0]
            eve_outcome = Outcome(int(u[5] >= p_eve))
            forwarded = probe.eigenstate(eve_outcome)
            p_bob = outcome_probabilities(forwarded, bob_basis)[0]
            eve_basis = angle
            eve_guess = interpret_outcome(
                angle, eve_outcome, BASIS_LABELS[ab], tie_coin=u[7]
            )
        else:
            p_bob = outcome_probabilities(state, bob_basis)[0]
        bob_bit = int(u[6] >= p_bob)
    else:
        acted = True
        if isinstance(attack, AncillaNoMemory):
            t = int(u[4] >= 0.5) if attack.symmetrize else 0
            angle = attack.phi if t == 0 else math.pi / 2 - attack.phi
            probe = EquatorBasis(angle)
            eve_basis = angle
            alpha = attack.alpha
        else:
            # the stored probe is read in the revealed basis, Alice's, whose
            # index is the slot
            t = ab
            probe = alice_basis
            eve_basis = REVEALED_BASIS_MARKER
            alpha = attack.alpha
        entangled = apply_eve_unitary(state, alpha)
        table = joint_outcome_probabilities(entangled, bob_basis, probe)
        cdf = np.cumsum(table.reshape(4))
        cell = min(int((u[5] >= cdf).sum()), 3)
        bob_bit = cell >> 1
        eve_outcome = Outcome(cell & 1)
        eve_guess = interpret_outcome(
            eve_basis,
            eve_outcome,
            BASIS_LABELS[ab],
            correlation_scale=math.sin(alpha),
            tie_coin=u[7],
        )

    return dict(
        acted=int(acted),
        slot=t,
        eve_bit=eve_outcome.value,
        guess=eve_guess,
        alice_basis=ab,
        alice_bit=abit,
        bob_basis=bb,
        bob_bit=bob_bit,
        eve_basis=eve_basis,
    )


def assert_codes_replay(attack, codes: np.ndarray, eve_labels: tuple, uniforms: np.ndarray) -> None:
    """Every field of every round code equals the scalar replay of its uniforms."""
    fields = unpack(codes)
    for index, u in enumerate(uniforms):
        expected = replay_round(attack, u)
        for name, _ in ROUND_FIELDS:
            assert fields[name][index] == expected[name], (index, name)
        if expected["eve_basis"] is None:
            continue
        label = eve_labels[fields["slot"][index]]
        if isinstance(expected["eve_basis"], str):
            assert label == expected["eve_basis"]
        else:
            assert label == pytest.approx(expected["eve_basis"])


class TestAttackConfigs:
    def test_intercept_defaults(self):
        attack = InterceptResend(phi=0.2)
        assert attack.fraction == 1.0
        assert attack.symmetrize

    def test_intercept_rejects_bad_phi(self):
        with pytest.raises(ValueError):
            InterceptResend(phi=1.0)

    def test_intercept_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            InterceptResend(phi=0.0, fraction=1.5)

    def test_ancilla_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            AncillaNoMemory(alpha=2.0, phi=0.0)
        with pytest.raises(ValueError):
            AncillaWithMemory(alpha=-0.2)


class TestRoundCode:
    def test_every_field_combination_round_trips_to_a_distinct_code(self):
        combos = list(itertools.product(*(range(size) for _, size in ROUND_FIELDS)))
        assert len(combos) == N_CODES == 384
        codes = set()
        for combo in combos:
            code = _pack(*combo)
            assert code.dtype == np.uint16 and int(code) < 2**16
            assert tuple(unpack(code).values()) == combo
            codes.add(int(code))
        assert len(codes) == N_CODES


class TestInterpretOutcome:
    def test_aligned_basis_keeps_bit(self):
        assert interpret_outcome(0.0, Outcome.PLUS, "x") == 0
        assert interpret_outcome(0.0, Outcome.MINUS, "x") == 1

    def test_orthogonal_basis_is_a_tie(self):
        assert interpret_outcome(0.0, Outcome.PLUS, "y", tie_coin=0.3) == 0
        assert interpret_outcome(0.0, Outcome.PLUS, "y", tie_coin=0.7) == 1

    def test_tie_without_coin_raises(self):
        with pytest.raises(ValueError):
            interpret_outcome(0.0, Outcome.PLUS, "y")

    def test_intermediate_basis_keeps_bit_for_both(self):
        for revealed in BASIS_LABELS:
            assert interpret_outcome(math.pi / 4, Outcome.PLUS, revealed) == 0

    def test_obtuse_angle_flips_bit(self):
        # correlation cos(t - rho) < 0 means the complement is more likely
        assert interpret_outcome(math.pi, Outcome.PLUS, "x", tie_coin=0.0) == 1

    def test_revealed_marker_follows_basis(self):
        assert (
            interpret_outcome(
                REVEALED_BASIS_MARKER, Outcome.MINUS, "y", correlation_scale=0.5
            )
            == 1
        )

    def test_zero_scale_is_always_a_tie(self):
        assert (
            interpret_outcome(0.0, Outcome.PLUS, "x", correlation_scale=0.0, tie_coin=0.6)
            == 1
        )

    def test_accepts_equator_basis_arguments(self):
        basis = EquatorBasis(math.pi / 8)
        assert interpret_outcome(basis, Outcome.PLUS, X_BASIS) == 0


class TestDeterminism:
    def test_same_seed_same_estimate(self):
        attack = InterceptResend(phi=math.pi / 8, fraction=0.7)
        first, _ = run_protocol(40_000, attack, seed=5)
        second, _ = run_protocol(40_000, attack, seed=5)
        assert first == second

    def test_different_seeds_differ(self):
        attack = InterceptResend(phi=math.pi / 8)
        first, _ = run_protocol(40_000, attack, seed=5)
        second, _ = run_protocol(40_000, attack, seed=6)
        assert first != second

    def test_workers_and_block_size_do_not_change_results(self, monkeypatch):
        monkeypatch.setattr(protocol_sim, "_usable_cpus", lambda: 8)
        attack = AncillaNoMemory(alpha=1.0, phi=0.3)
        base, _ = run_protocol(100_001, attack, seed=9)
        for workers, rounds in ((1, 1 << 12), (3, 4096), (4, 977)):
            with monkeypatch.context() as patch:  # a thread per `rounds` rounds, in blocks of `rounds`
                patch.setattr(protocol_sim, "_THREAD_ROUNDS", rounds)
                patch.setattr(protocol_sim, "_BLOCK", rounds)
                other, _ = run_protocol(100_001, attack, seed=9, workers=workers)
            assert other == base

    def test_trace_is_deterministic_too(self, monkeypatch):
        attack = AncillaWithMemory(alpha=0.8)
        _, trace_a = run_protocol(500, attack, seed=3, keep_trace=True)
        monkeypatch.setattr(protocol_sim, "_BLOCK", 64)
        _, trace_b = run_protocol(500, attack, seed=3, keep_trace=True)
        assert np.array_equal(trace_a.codes, trace_b.codes)
        assert trace_a.eve_labels == trace_b.eve_labels

    def test_rejects_bad_seed_and_rounds(self):
        with pytest.raises(ValueError):
            run_protocol(0, NoAttack(), seed=1)
        with pytest.raises(ValueError):
            run_protocol(100, NoAttack(), seed=-1)
        with pytest.raises(ValueError):
            run_protocol(100, NoAttack(), seed=1 << 64)
        with pytest.raises(ValueError, match="workers"):
            run_protocol(1000, NoAttack(), seed=1, workers=0)

    @pytest.mark.parametrize("n_rounds", [2**63, 10**30])
    def test_rejects_rounds_beyond_int64_key_counts(self, n_rounds):
        with pytest.raises(ValueError, match="n_rounds"):
            run_protocol(n_rounds, NoAttack(), seed=1)


class TestScalarReplay:
    N_ROUNDS = 256
    SEED = 2024
    # about one round in fifty intercepted: at SPARSE_BLOCK rounds per block
    # the run mixes blocks with and without an intercepted round
    SPARSE = InterceptResend(phi=0.3, fraction=0.02)
    SPARSE_BLOCK = 16
    CONFIGS = [
        NoAttack(),
        InterceptResend(phi=0.3, fraction=0.6),
        InterceptResend(phi=0.0, symmetrize=False),
        AncillaNoMemory(alpha=1.1, phi=0.25),
        AncillaNoMemory(alpha=math.pi / 2, phi=0.0, symmetrize=False),
        AncillaWithMemory(alpha=math.pi / 3),
        AncillaWithMemory(alpha=0.0),
        InterceptResend(phi=0.2, fraction=0.0),
        SPARSE,
    ]

    def test_sparse_run_mixes_blocks_with_and_without_interception(self):
        acted = raw_uniforms(self.SEED, self.N_ROUNDS)[:, 3] < self.SPARSE.fraction
        blocks = {
            bool(acted[s : s + self.SPARSE_BLOCK].any())
            for s in range(0, self.N_ROUNDS, self.SPARSE_BLOCK)
        }
        assert blocks == {False, True}

    @pytest.mark.parametrize("attack", CONFIGS, ids=lambda a: type(a).__name__)
    def test_trace_matches_scalar_rederivation(self, monkeypatch, attack):
        n = self.N_ROUNDS
        seed = self.SEED
        monkeypatch.setattr(protocol_sim, "_BLOCK", self.SPARSE_BLOCK if attack == self.SPARSE else 91)
        est, trace = run_protocol(n, attack, seed=seed, keep_trace=True)
        uniforms = raw_uniforms(seed, n)
        assert trace is not None and len(trace) == n
        assert trace.codes.dtype == np.uint16
        assert_codes_replay(attack, trace.codes, trace.eve_labels, uniforms)
        assert estimate(trace) == est


_ALPHAS = st.one_of(st.sampled_from([0.0, math.pi / 2]), st.floats(0.0, math.pi / 2))
_PHIS = st.one_of(st.sampled_from([0.0, math.pi / 4]), st.floats(0.0, math.pi / 4))
_FRACTIONS = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-300, 1.0]), st.floats(0.0, 1e-6), st.floats(0.0, 1.0)
)
_JOINT_ATTACKS = st.one_of(
    st.builds(AncillaNoMemory, alpha=_ALPHAS, phi=_PHIS, symmetrize=st.booleans()),
    st.builds(AncillaWithMemory, alpha=_ALPHAS),
)
_ATTACKS = st.one_of(
    st.just(NoAttack()),
    st.builds(InterceptResend, phi=_PHIS, fraction=_FRACTIONS, symmetrize=st.booleans()),
    _JOINT_ATTACKS,
)


class TestWordStream:
    """The engine reads Philox4x64-10's raw words, which stand for numpy's uniforms."""

    # the first round's first 4 words at (seed, start), frozen from the reference and numpy's Philox
    FROZEN = {
        (0, 0): (0x02F4BA6408E4D89B, 0x3DD62B0B9CA8C5B2, 0x1C8667A55D902E79, 0x907D7A052FD5B4DC),
        (2**63 + 5, 65536): (0x6BCCA2786D980D5A, 0x9C4683B0E43D8067, 0x756BBADF6F5C67F1, 0xDF72C143AFFB85E6),
        (2**64 - 1, 2**40): (0x543426DF1F97AF07, 0xEAC788A2FE224BD1, 0x76BD4A28C16EBBF4, 0x8CA73B0ADEE6A96D),
    }

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.one_of(st.sampled_from([0, 2**63 + 5, 2**64 - 1]), st.integers(0, 2**64 - 1)),
        start=st.one_of(st.sampled_from([0, 1, 65536, 2**40]), st.integers(0, 2**63 - 65)),
        size=st.integers(1, 64),
    )
    @example(seed=0, start=0, size=1)
    @example(seed=2**63 + 5, start=65536, size=3)
    @example(seed=2**64 - 1, start=2**40, size=64)
    def test_words_are_the_generators_uniforms(self, seed, start, size):
        # the kernel draws a share's words block by block from one stream
        stream = protocol_sim._stream(seed, start)
        head = size // 2
        words = np.concatenate([stream.random_raw(head * UNIFORMS_PER_ROUND),
                                stream.random_raw((size - head) * UNIFORMS_PER_ROUND)])
        assert words.tolist() == philox_words(seed, size, start)
        u = np.random.Generator(protocol_sim._stream(seed, start)).random(size * UNIFORMS_PER_ROUND)
        assert u.tobytes() == ((words >> np.uint64(11)) * 2.0**-53).tobytes()
        assert np.array_equal(words.view(np.int64) < 0, u >= 0.5)

    @pytest.mark.parametrize("seed, start", list(FROZEN))
    def test_frozen_words(self, seed, start):
        assert tuple(philox_words(seed, 1, start)[:4]) == self.FROZEN[seed, start]
        assert tuple(protocol_sim._stream(seed, start).random_raw(4).tolist()) == self.FROZEN[seed, start]


_GRID_PROBABILITIES = st.integers(0, 2**53).map(lambda k: k * 2.0**-53)  # exactly k * 2**-53
_PROBABILITIES = st.one_of(
    st.sampled_from([0.0, 1.0, 5e-324, 0.5]),
    st.floats(0.0, 1.0),
    _GRID_PROBABILITIES,
    st.tuples(_GRID_PROBABILITIES, st.sampled_from([0.0, 1.0])).map(lambda pair: math.nextafter(*pair)),
)


class TestThresholds:
    """An integer compare of a word's top 53 bits is numpy's double compare of its uniform."""

    @settings(max_examples=300)
    @given(p=_PROBABILITIES, m=st.integers(0, 2**53 - 1))
    @example(p=0.0, m=0)
    @example(p=1.0, m=2**53 - 1)
    @example(p=5e-324, m=0)
    @example(p=math.nextafter(0.5, 0.0), m=2**52 - 1)
    @example(p=math.nextafter(0.5, 1.0), m=2**52)
    @example(p=3 * 2.0**-53, m=2)
    @example(p=math.nextafter(3 * 2.0**-53, 0.0), m=3)
    @example(p=math.nextafter(3 * 2.0**-53, 1.0), m=3)
    @example(p=math.nextafter(1.0, 0.0), m=2**53 - 1)
    def test_threshold_compares_are_the_uniform_compares(self, p, m):
        threshold = protocol_sim._thresholds(np.float64(p))
        assert threshold.dtype == np.uint64
        t = int(threshold)
        assert t == math.ceil(p * 2**53)
        for top in (m, t - 1, t, t + 1):  # a word's top 53 bits
            if 0 <= top < 2**53:
                u = top * 2.0**-53  # the uniform numpy's Generator.random makes of the word
                assert (top >= t) == (u >= p), (top, t)  # the Born-rule draws
                assert (top < t) == (u < p), (top, t)  # the intercept coin

    @settings(max_examples=60, deadline=None)
    @given(_ATTACKS)
    def test_tables_are_the_born_probabilities_as_thresholds(self, attack):
        born, tables = protocol_sim._born_tables(attack), protocol_sim._build_tables(attack)
        assert np.array_equal(born.codes, tables.codes) and born.eve_labels == tables.eve_labels
        for name in ("fraction", "p_eve", "p_bob", "joint_cdf"):
            p, t = getattr(born, name), getattr(tables, name)
            assert (p is None) == (t is None), name
            if p is not None:
                assert t.dtype == np.uint64 and np.shape(t) == np.shape(p), name
                want = [math.ceil(math.ldexp(x, 53)) for x in np.ravel(p).tolist()]
                assert np.ravel(t).tolist() == want, name

    def test_a_bad_probability_warns(self):
        with pytest.warns(RuntimeWarning):
            protocol_sim._thresholds(np.array([0.5, math.nan]))


class TestKernelProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        attack=_ATTACKS,
        seed=st.one_of(st.integers(2**64 - 8, 2**64 - 1), st.integers(0, 2**64 - 1)),
        start=st.integers(1, 600),
        size=st.integers(1, 48),
        share=st.integers(1, 48),
    )
    @example(attack=InterceptResend(phi=0.2, fraction=0.0), seed=2**64 - 1, start=3, size=40, share=7)
    @example(attack=InterceptResend(phi=0.2, fraction=5e-324), seed=0, start=1, size=40, share=48)
    def test_streams_at_any_start_match_scalar_replay(self, attack, seed, start, size, share):
        tables = protocol_sim._build_tables(attack)
        stop = start + size
        keys = np.concatenate([protocol_sim._run_block(tables, protocol_sim._stream(seed, s), min(share, stop - s))
                               for s in range(start, stop, share)])
        assert_codes_replay(attack, tables.codes.take(keys), tables.eve_labels, raw_uniforms(seed, size, start))

    @settings(max_examples=30)
    @given(_JOINT_ATTACKS)
    def test_joint_cdf_rows_are_nondecreasing(self, attack):
        # the premise of counting the joint cell with three compares; adjacent
        # rows are compared, since np.diff of unsigned thresholds would wrap
        for cdf in (protocol_sim._born_tables(attack).joint_cdf, protocol_sim._build_tables(attack).joint_cdf):
            assert cdf.shape == (4, protocol_sim.N_KEYS)
            assert np.all(cdf[1:] >= cdf[:-1])


class TestKernelBlocks:
    """Blocks inside a share change no round: at 5 rounds a block, every edge is crossed."""

    @settings(max_examples=60, deadline=None)
    @given(
        attack=_ATTACKS,
        seed=st.one_of(st.integers(2**64 - 8, 2**64 - 1), st.integers(0, 2**64 - 1)),
        start=st.one_of(st.integers(0, 30), st.sampled_from([2**40 - 7, 2**40]), st.integers(0, 2**40)),
        size=st.integers(1, 40),
        share=st.integers(1, 17),
    )
    @example(attack=AncillaWithMemory(alpha=0.8), seed=2**64 - 1, start=2**40, size=40, share=17)
    @example(attack=InterceptResend(phi=0.2, fraction=0.5), seed=0, start=4, size=11, share=6)
    def test_blocks_across_share_edges_match_scalar_replay(self, attack, seed, start, size, share):
        tables = protocol_sim._build_tables(attack)
        keys = []
        for s in range(start, start + size, share):  # each share draws its 5-round blocks from one stream
            stream, stop = protocol_sim._stream(seed, s), min(s + share, start + size)
            keys += [protocol_sim._run_block(tables, stream, min(5, stop - b)) for b in range(s, stop, 5)]
        keys = np.concatenate(keys)
        codes = tables.codes.take(keys)
        hist = np.zeros(N_CODES, dtype=np.int64)
        np.add.at(hist, tables.codes, np.bincount(keys, minlength=protocol_sim.N_KEYS))  # as count_codes folds
        assert np.array_equal(hist, np.bincount(codes, minlength=N_CODES))
        assert_codes_replay(attack, codes, tables.eve_labels, raw_uniforms(seed, size, start))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("thread_rounds", [37, 65536])
    def test_block_size_changes_no_estimate_or_code(self, monkeypatch, workers, thread_rounds):
        monkeypatch.setattr(protocol_sim, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(protocol_sim, "_THREAD_ROUNDS", thread_rounds)
        n_rounds = thread_rounds + 1000  # so an untraced run at workers=2 runs a helper
        for attack in (InterceptResend(phi=0.3, fraction=0.5), AncillaNoMemory(alpha=1.0, phi=0.3)):
            est, trace = run_protocol(n_rounds, attack, seed=8, keep_trace=True, workers=workers)
            with monkeypatch.context() as patch:
                patch.setattr(protocol_sim, "_BLOCK", 5)
                small, small_trace = run_protocol(n_rounds, attack, seed=8, keep_trace=True, workers=workers)
                untraced, _ = run_protocol(n_rounds, attack, seed=8, workers=workers)
            assert small == untraced == est
            assert np.array_equal(small_trace.codes, trace.codes)


class CraftedStream:
    """Stands in for a run's Philox stream: random_raw hands out the given words in order."""

    def __init__(self, words):
        self.words, self.drawn = np.asarray(words, dtype=np.uint64).ravel(), 0

    def random_raw(self, n):
        self.drawn += n
        return self.words[self.drawn - n : self.drawn].copy()


class TestCraftedWords:
    """Words whose top 53 bits equal a draw's threshold, or lie one below it,
    fed to the kernel as its stream: each drawn bit of the round keys is the
    u < fraction or u >= p of the uniform u = m * 2**-53."""

    # a draw's table reads only the key's bits below the columns the kernel has yet to draw
    EVE_MASK, BOB_MASK = 0x1F, 0x3F

    @staticmethod
    def at_or_below(threshold, below):
        """threshold - below, or threshold - (1 - below) where that leaves the 53-bit range."""
        m = threshold - below
        return m if 0 <= m < 2**53 else threshold - (1 - below)

    @staticmethod
    def word(m, rng):
        """A word with top 53 bits m and random low bits."""
        return m << 11 | int(rng.integers(1 << 11))

    @staticmethod
    def coin(bit, rng):
        """A word with top bit bit and random other bits."""
        return bit << 63 | int(rng.integers(1 << 63))

    @staticmethod
    def kernel_keys(tables, words):
        return protocol_sim._run_block(tables, CraftedStream(words), len(words)).tolist()

    @pytest.mark.parametrize(
        "attack",
        [InterceptResend(phi=0.3, fraction=0.3), InterceptResend(phi=0.2, fraction=0.7, symmetrize=False),
         # at fraction 0 no round is intercepted, and Eve's draw still writes column 5
         InterceptResend(phi=0.3, fraction=0.0), InterceptResend(phi=0.3, fraction=0.0, symmetrize=False)],
    )
    def test_sequential_draws_at_their_thresholds(self, attack):
        tables, born, rng = protocol_sim._build_tables(attack), protocol_sim._born_tables(attack), np.random.default_rng(5)
        keys = np.arange(protocol_sim.N_KEYS)
        assert np.array_equal(tables.p_eve, tables.p_eve[keys & self.EVE_MASK])
        assert np.array_equal(tables.p_bob, tables.p_bob[keys & self.BOB_MASK])
        words, want = [], []
        for coins, below3, below5, below6 in itertools.product(range(32), (0, 1), (0, 1), (0, 1)):
            bit = dict(zip((0, 1, 2, 4, 7), (coins >> i & 1 for i in range(5))))  # the columns not drawn
            m3 = self.at_or_below(int(tables.fraction), below3)
            key = bit[0] | bit[1] << 1 | bit[2] << 2 | (m3 * 2.0**-53 < born.fraction) << 3 | bit[4] << 4
            m5 = self.at_or_below(int(tables.p_eve[key]), below5)
            key |= (m5 * 2.0**-53 >= born.p_eve[key]) << 5
            m6 = self.at_or_below(int(tables.p_bob[key]), below6)
            want.append(key | (m6 * 2.0**-53 >= born.p_bob[key]) << 6 | bit[7] << 7)
            words.append([self.coin(bit[0], rng), self.coin(bit[1], rng), self.coin(bit[2], rng), self.word(m3, rng),
                          self.coin(bit[4], rng), self.word(m5, rng), self.word(m6, rng), self.coin(bit[7], rng)])
        assert self.kernel_keys(tables, words) == want

    @pytest.mark.parametrize("attack", [AncillaNoMemory(alpha=1.0, phi=0.3), AncillaWithMemory(alpha=0.8)])
    def test_joint_cell_at_each_cdf_row(self, attack):
        tables, born, rng = protocol_sim._build_tables(attack), protocol_sim._born_tables(attack), np.random.default_rng(6)
        cdf = tables.joint_cdf
        assert np.array_equal(cdf, cdf[:, np.arange(protocol_sim.N_KEYS) & self.EVE_MASK])
        words, want = [], []
        for coins, row, below in itertools.product(range(128), range(3), (0, 1)):
            bit = dict(zip((0, 1, 2, 3, 4, 6, 7), (coins >> i & 1 for i in range(7))))  # the columns not drawn
            key = sum(bit[c] << c for c in range(5))
            m5 = self.at_or_below(int(cdf[row, key]), below)
            cell = sum(m5 * 2.0**-53 >= born.joint_cdf[j, key] for j in range(3))  # the cell u5 falls in
            want.append(key | (cell & 1) << 5 | (cell >= 2) << 6 | bit[7] << 7)
            words.append([self.coin(bit[c], rng) for c in range(5)] + [self.word(m5, rng)]
                         + [self.coin(bit[6], rng), self.coin(bit[7], rng)])
        assert self.kernel_keys(tables, words) == want


def expected_estimates(attack) -> dict:
    """The SimEstimate fields that the closed forms fix, at the exact expected histogram."""
    if isinstance(attack, NoAttack):
        return dict(qber=0.0, qber_x=0.0, qber_y=0.0, eve_mutual_info=None, eve_mutual_info_intercepted=None,
                    eve_fidelity_x=None, eve_fidelity_y=None)
    if isinstance(attack, InterceptResend):
        report, fraction, symmetrize = intercept_resend(attack.phi), attack.fraction, attack.symmetrize
    elif isinstance(attack, AncillaNoMemory):
        report, fraction, symmetrize = ancilla_no_memory(attack.alpha, attack.phi), 1.0, attack.symmetrize
    else:
        report, fraction, symmetrize = ancilla_with_memory(attack.alpha), 1.0, False
    fidelity = [report.eve_x.fidelity, report.eve_y.fidelity]
    disturbance = [report.bob_x.disturbance, report.bob_y.disturbance]
    if symmetrize:  # the companion slot swaps x and y
        fidelity, disturbance = [sum(fidelity) / 2] * 2, [sum(disturbance) / 2] * 2
    acted = fraction > 0
    point = closed_form(attack)
    return dict(
        qber=point.d_bob,
        qber_x=fraction * disturbance[0],
        qber_y=fraction * disturbance[1],
        eve_mutual_info=point.i_eve,
        eve_mutual_info_intercepted=report.eve_avg_info if acted else None,
        eve_fidelity_x=fidelity[0] if acted else None,
        eve_fidelity_y=fidelity[1] if acted else None,
    )


_EXPECTED_ATTACKS = st.one_of(
    st.just(NoAttack()),
    st.builds(InterceptResend, phi=_PHIS, symmetrize=st.booleans(),
              fraction=st.one_of(st.sampled_from([0.0, 0.02, 0.5, 1.0]), st.floats(0.02, 1.0))),
    _JOINT_ATTACKS,
)


def expected_histogram_estimate(attack):
    """The engine's estimate at the attack's expected code histogram, scaled to 2**62 rounds.

    The counts stay int64-safe, and rounding them moves no estimate by more than about 1e-15.
    """
    return estimate_counts(np.rint(2**62 * code_probabilities(attack)).astype(np.int64))


class TestExpectedHistogram:
    """Tables -> estimator <-> closed form, with no sampling noise."""

    @settings(max_examples=120, deadline=None)
    @given(_EXPECTED_ATTACKS)
    @example(InterceptResend(phi=0.0, fraction=1.0, symmetrize=False))
    @example(AncillaNoMemory(alpha=0.0, phi=math.pi / 4))
    @example(InterceptResend(phi=0.006858332572561132, fraction=0.02, symmetrize=True))  # 1.1e-12 off at 2**52
    def test_estimates_at_the_expected_histogram_are_the_closed_forms(self, attack):
        p = code_probabilities(attack)
        assert p.sum() == pytest.approx(1.0, abs=1e-15)
        est = expected_histogram_estimate(attack)
        for name, want in expected_estimates(attack).items():
            got = getattr(est, name)
            assert (got is None) == (want is None), name
            if want is not None:
                assert got == pytest.approx(want, rel=0, abs=1e-12), name


class TestMultinomialCalibration:
    """The ±2 SE intervals over exact multinomial draws of the code histogram, with no engine run.

    At a light interception (f = 0.02, n = 4000 rounds, about 10 errors in
    2000 sifted rounds) the Wald qber interval covers the closed form less
    often than a normal ±2 SE interval should, and the plug-in MI estimate
    sits above the closed form by a fraction of its SE. Both facts are
    pinned by binomial bounds; they are what a Wilson interval and the
    Miller-Madow correction would mend.
    """

    N_ROUNDS, N_DRAWS = 4000, 2000
    NOMINAL = math.erf(2 / math.sqrt(2))  # the normal's mass within 2 SE, 0.9545

    def test_wald_qber_undercovers_and_plug_in_mi_runs_high(self):
        attack = InterceptResend(phi=0.0, fraction=0.02)
        want = closed_form(attack)
        draws = np.random.default_rng(1).multinomial(self.N_ROUNDS, code_probabilities(attack), size=self.N_DRAWS)
        estimates = [estimate_counts(counts) for counts in draws]
        # a draw with no error has a zero-width Wald interval, which misses the closed form
        qber_covered = np.mean([abs(e.qber - want.d_bob) <= 2 * e.qber_se for e in estimates])
        z = np.array([(e.eve_mutual_info - want.i_eve) / e.eve_mutual_info_se for e in estimates])
        binomial_se = math.sqrt(self.NOMINAL * (1 - self.NOMINAL) / self.N_DRAWS)
        assert qber_covered < self.NOMINAL - 3 * binomial_se
        assert z.mean() > 3 * z.std(ddof=1) / math.sqrt(self.N_DRAWS)


def binomial_pmf(n: int, p: float) -> list[float]:
    """P(k successes in n trials) for k = 0..n, from log-gamma sums."""
    log_p, log_q, log_n = math.log(p), math.log1p(-p), math.lgamma(n + 1)
    return [math.exp(log_n - math.lgamma(k + 1) - math.lgamma(n - k + 1) + k * log_p + (n - k) * log_q)
            for k in range(n + 1)]


class TestFourSeFalseAlarms:
    """Per-row false-alarm rates of a 4-SE gate |p̂ - p| > 4 SE on a rate p, n = 5000, from exact binomial sums.

    With the Wald SE at p̂, which the CSV reports and the gates use, a
    low-rate row alarms up to 20 times as often as the normal ideal, since
    a row with no error has SE 0 and always alarms. The SE at the closed
    form's p comes closer. These are the rates ROADMAP item 6 tabulates.
    """

    N = 5000

    @staticmethod
    def three_digits(x: float) -> float:
        return float(f"{x:.3g}")

    @pytest.mark.parametrize(
        "p, wald_rate, exact_rate",
        [(0.00616, 1.24e-3, 1.67e-4), (0.0125, 3.21e-4, 1.17e-4), (0.1, 8.91e-5, 7.09e-5)],
    )
    def test_rates_from_binomial_sums(self, p, wald_rate, exact_rate):
        n, pmf = self.N, binomial_pmf(self.N, p)
        wald = sum(w for k, w in enumerate(pmf) if abs(k / n - p) > 4 * math.sqrt(k / n * (1 - k / n) / n))
        exact = sum(w for k, w in enumerate(pmf) if abs(k / n - p) > 4 * math.sqrt(p * (1 - p) / n))
        assert (self.three_digits(wald), self.three_digits(exact)) == (wald_rate, exact_rate)

    def test_normal_ideal(self):
        assert self.three_digits(math.erfc(4 / math.sqrt(2))) == 6.33e-5


def g_test_p_value(observed: np.ndarray, expected: np.ndarray) -> float:
    """The p-value of a G-test of counts against expected counts, cells under 5 pooled."""
    small = expected < 5
    observed = np.append(observed[~small], observed[small].sum())
    expected = np.append(expected[~small], expected[small].sum())
    seen = observed > 0
    g = 2.0 * float(np.sum(observed[seen] * np.log(observed[seen] / expected[seen])))
    dof = np.count_nonzero(expected) - 1
    return float(mpmath.gammainc(dof / 2, g / 2, mpmath.inf, regularized=True))


class TestCodeHistogram:
    """One seeded run's code histogram against the expected one: a G-test
    sees a threshold or stream-layout error that leaves qber and Eve's
    information inside their 4-SE windows."""

    N_ROUNDS = 10**6

    @pytest.mark.parametrize(
        "attack",
        [NoAttack(), InterceptResend(phi=0.3, fraction=0.6), AncillaNoMemory(alpha=1.1, phi=0.25),
         AncillaWithMemory(alpha=math.pi / 3)],
        ids=lambda attack: type(attack).__name__,
    )
    def test_code_histogram_fits_the_code_probabilities(self, attack):
        observed = count_codes(self.N_ROUNDS, attack, seed=11)
        expected = self.N_ROUNDS * code_probabilities(attack)
        assert not observed[expected == 0].any(), "a round got an impossible code"
        assert g_test_p_value(observed, expected) >= 1e-6

    def test_g_test_rejects_a_biased_draw(self):
        expected = np.array([250_000.0, 250_000.0, 499_998.0, 2.0])
        assert g_test_p_value(np.array([250_000, 250_000, 499_998, 2]), expected) == 1.0
        assert g_test_p_value(np.array([252_500, 247_500, 499_998, 2]), expected) < 1e-6


class TestFggnpBound:
    """Eve's information at the expected histogram against the optimal
    individual attack of Fuchs, Gisin, Griffiths, Niu and Peres (PRA 56, 1163,
    1997): at error rate D no attack on single qubits, read once the basis is
    revealed, gives Eve more than 1 - h(1/2 + sqrt(D (1 - D))) bits per sifted bit."""

    @staticmethod
    def bound(d):
        return 1.0 - binary_entropy(0.5 + math.sqrt(d * (1.0 - d)))

    @settings(max_examples=120, deadline=None)
    @given(_EXPECTED_ATTACKS)
    @example(InterceptResend(phi=0.0, fraction=1.0, symmetrize=False))
    @example(InterceptResend(phi=math.pi / 4, fraction=1.0, symmetrize=False))
    @example(AncillaWithMemory(alpha=0.0))
    @example(AncillaWithMemory(alpha=math.pi / 2))
    def test_eve_information_is_within_the_bound(self, attack):
        est = expected_histogram_estimate(attack)
        i_eve, bound = est.eve_mutual_info or 0.0, self.bound(est.qber)  # no eavesdropper, no information
        assert i_eve <= bound + 1e-12
        if isinstance(attack, AncillaWithMemory):  # the stored probe is the optimal attack
            assert i_eve == pytest.approx(bound, rel=0, abs=1e-12)


_MEMOS = (EquatorBasis.eigenstate, quantum_core._product_bras)
# the attack-independent tables each process builds once
_PROCESS_TABLES = (protocol_sim._protocol_states, protocol_sim._untouched_p_plus)
_SIGNED_PHIS = st.one_of(st.sampled_from([0.0, -0.0, math.pi / 4]), st.floats(0.0, math.pi / 4))


def assert_tables_equal_unmemoized(attack):
    """The engine's Born tables for attack equal, bit for bit, those built with no memo."""
    tables = protocol_sim._born_tables(attack)
    used = [memo.cache_info() for memo in (*_MEMOS, *_PROCESS_TABLES)]
    reference = unmemoized_tables(attack)
    assert [memo.cache_info() for memo in (*_MEMOS, *_PROCESS_TABLES)] == used, "the reference read a memo"
    for name in ("codes", "p_eve", "p_bob", "joint_cdf"):
        got, want = getattr(tables, name), getattr(reference, name)
        assert (got is None) == (want is None), name
        if got is not None:
            assert np.array_equal(got, want) and got.tobytes() == want.tobytes(), name


class TestBornMemo:
    """The memoized eigenstates and product bras, and the tables built once per process, change no bit of the
    tables."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(
            st.just(NoAttack()),
            st.builds(InterceptResend, phi=_SIGNED_PHIS, fraction=_FRACTIONS, symmetrize=st.booleans()),
            st.builds(AncillaNoMemory, alpha=_ALPHAS, phi=_SIGNED_PHIS, symmetrize=st.booleans()),
            st.builds(AncillaWithMemory, alpha=_ALPHAS),
        )
    )
    def test_tables_equal_unmemoized_build(self, attack):
        assert_tables_equal_unmemoized(attack)

    @pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0)])
    def test_negative_zero_key_changes_no_bit(self, first, second):
        # -0.0 == 0.0 with one hash, so a build at one phi reads the memo
        # entries the other made; the fresh states are equal to the bit
        for outcome in Outcome:
            zero, negative_zero = (fresh_eigenstate(EquatorBasis(phi), outcome) for phi in (0.0, -0.0))
            assert zero.amplitudes.tobytes() == negative_zero.amplitudes.tobytes()
        for memo in _MEMOS:
            memo.cache_clear()
        for phi in (first, second):
            for symmetrize in (True, False):
                assert_tables_equal_unmemoized(InterceptResend(phi, 0.5, symmetrize))
                assert_tables_equal_unmemoized(AncillaNoMemory(1.0, phi, symmetrize))

    def test_process_tables_are_built_once_and_read_only(self):
        states, p_plus = protocol_sim._protocol_states(), protocol_sim._untouched_p_plus()
        assert protocol_sim._protocol_states() is states and protocol_sim._untouched_p_plus() is p_plus
        assert isinstance(states, tuple) and all(isinstance(row, tuple) for row in states)
        assert not any(s.amplitudes.flags.writeable for row in states for s in row)
        assert not p_plus.flags.writeable
        with pytest.raises(ValueError):
            p_plus[0, 0, 0] = 0.5

    def test_memos_stay_bounded(self):
        state = apply_eve_unitary(make_bb84_state(X_BASIS, Outcome.PLUS), 1.0)
        for phi in np.linspace(0.0, math.pi / 4, 1000):
            joint_outcome_probabilities(state, Y_BASIS, EquatorBasis(float(phi)))
        for memo in _MEMOS:
            info = memo.cache_info()
            assert info.maxsize is not None and info.currsize <= info.maxsize < 1000


class TestBornWork:
    """An ancilla build entangles each of Alice's four states once, and every build makes each of its four
    bases once."""

    @pytest.mark.parametrize("attack, probes", [
        (InterceptResend(math.pi / 8, 0.5), 0),
        (AncillaNoMemory(1.0, math.pi / 8), 4),
        (AncillaWithMemory(1.0), 4),
    ])
    def test_one_probe_per_state_and_one_basis_per_angle(self, attack, probes):
        protocol_sim._protocol_states(), protocol_sim._untouched_p_plus()  # built once per process
        with mock.patch.object(protocol_sim, "apply_eve_unitary", wraps=apply_eve_unitary) as entangle, \
                mock.patch.object(protocol_sim, "EquatorBasis", wraps=EquatorBasis) as make_basis:
            protocol_sim._born_tables(attack)
        assert (entangle.call_count, make_basis.call_count) == (probes, 4)


# count tables of 1-8 strata, with many zero cells and so some empty strata
count_strata = st.integers(1, 8).flatmap(
    lambda n: st.lists(st.one_of(st.just(0), st.integers(1, 5), st.integers(0, 2**40)),
                       min_size=4 * n, max_size=4 * n)
).map(lambda cells: np.array(cells, dtype=np.int64).reshape(-1, 2, 2))


class TestStratifiedMi:
    @given(count_strata)
    @example(np.zeros((3, 2, 2), dtype=np.int64))
    @example(np.array([[[0, 0], [0, 0]], [[7, 0], [0, 0]], [[0, 0], [0, 0]], [[3, 1], [0, 9]]]))
    @example(np.array([[[1, 2], [5, 10]], [[3, 1], [0, 9]]]))  # independent: the sum is -2.9e-16
    def test_point_is_the_weighted_oracle_mi(self, strata):
        point, se = protocol_sim._stratified_mi(strata)
        totals = strata.sum(axis=(1, 2))
        n = int(totals.sum())
        if n == 0:
            assert (point, se) == (None, None)
            return
        assert point == sum((n_s / n) * mutual_information(t) for t, n_s in zip(strata, totals) if n_s)


# count tables whose counts run past 2**53, where a count becomes a double only approximately
wide_strata = st.integers(1, 8).flatmap(
    lambda n: st.lists(st.one_of(st.just(0), st.integers(1, 5), st.integers(2**50, 2**57)),
                       min_size=4 * n, max_size=4 * n)
).map(lambda cells: np.array(cells, dtype=np.int64).reshape(-1, 2, 2))
# count tables small enough to expand into one score per round
small_strata = st.integers(1, 8).flatmap(
    lambda n: st.lists(st.integers(0, 30), min_size=4 * n, max_size=4 * n)
).map(lambda cells: np.array(cells, dtype=np.int64).reshape(-1, 2, 2))


class TestStratifiedMiOracles:
    """_stratified_mi's loop over floats against its loop over numpy arrays, and its SE against the scores."""

    @settings(max_examples=300)
    @given(st.one_of(count_strata, wide_strata))
    @example(np.array([[[2**53 + 1, 3], [5, 2**55 + 3]], [[0, 0], [0, 0]], [[2**54 + 1, 1], [1, 2**53 + 3]]]))
    def test_bit_identical_to_the_numpy_loop(self, strata):
        got, want = protocol_sim._stratified_mi(strata), reference_stratified_mi(strata)
        assert [None if v is None else float(v).hex() for v in got] == [
            None if v is None else float(v).hex() for v in want]

    @settings(max_examples=300)
    @given(small_strata)
    @example(np.array([[[7, 0], [0, 7]], [[30, 0], [0, 29]]]))  # every score near 1: the variance cancels most
    def test_se_is_the_deviation_of_the_per_round_scores(self, strata):
        # each round's score log2(p(a,g) / (p(a) p(g))) in its stratum, with exact ratios; the SE is
        # the scores' standard deviation (over n, as the delta method takes it) over sqrt(n)
        scores = []
        for table in strata.tolist():
            rows, cols = [sum(row) for row in table], [sum(col) for col in zip(*table)]
            for a, g in itertools.product((0, 1), repeat=2):
                if table[a][g]:
                    ratio = Fraction(table[a][g] * sum(rows), rows[a] * cols[g])
                    scores += [math.log2(ratio)] * table[a][g]
        point, se = protocol_sim._stratified_mi(strata)
        if not scores:
            assert (point, se) == (None, None)
            return
        assert math.isclose(se, statistics.pstdev(scores) / math.sqrt(len(scores)), rel_tol=1e-12, abs_tol=1e-15)


class TestEstimateOracle:
    """estimate_counts against a loop over codes, on any histogram, not only those a run can produce."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_estimate_counts_is_the_code_loop(self, data):
        high = data.draw(st.sampled_from([1, 2, 1000, 2**50]), label="high")
        # mostly one background count, 0 to 2, with the drawn cells set apart
        hist = data.draw(hnp.arrays(np.int64, N_CODES, elements=st.integers(0, high), fill=st.integers(0, 2)),
                         label="hist")
        try:
            want = reference_estimate(hist)
        except InsufficientSampleError as refused:
            with pytest.raises(InsufficientSampleError) as raised:
                estimate_counts(hist)
            assert str(raised.value) == str(refused)
            return
        assert estimate_counts(hist) == want


class TestEstimates:
    def test_sifting_rate_is_about_half(self):
        est, _ = run_protocol(200_000, NoAttack(), seed=17)
        rate = est.n_sifted / est.n_rounds
        sigma = math.sqrt(0.25 / est.n_rounds)
        assert abs(rate - 0.5) < 5.0 * sigma

    def test_no_attack_channel_is_error_free(self):
        for seed in (0, 1, 12345):
            est, _ = run_protocol(50_000, NoAttack(), seed=seed)
            assert est.qber == 0.0
            assert est.eve_mutual_info is None
            assert est.eve_fidelity_x is None
            assert est.n_intercepted == 0

    def test_insufficient_sample_raises(self):
        with pytest.raises(InsufficientSampleError):
            run_protocol(50, NoAttack(), seed=0)

    def test_intercept_full_statistics(self):
        attack = InterceptResend(phi=math.pi / 4)
        est, _ = run_protocol(400_000, attack, seed=21)
        report = intercept_resend(math.pi / 4)
        assert est.n_intercepted == est.n_sifted
        # 4-SE gates; their per-row false-alarm rates: TestFourSeFalseAlarms
        assert abs(est.qber - 0.25) < 4.0 * est.qber_se
        assert abs(est.eve_mutual_info - report.eve_avg_info) < max(
            4.0 * est.eve_mutual_info_se, 0.003
        )
        assert abs(est.eve_fidelity_x - oracles.FID_INTERMEDIATE) < max(
            4.0 * est.eve_fidelity_x_se, 0.003
        )
        assert abs(est.eve_fidelity_y - oracles.FID_INTERMEDIATE) < max(
            4.0 * est.eve_fidelity_y_se, 0.003
        )

    def test_intercept_without_symmetrization_has_per_basis_structure(self):
        attack = InterceptResend(phi=0.0, symmetrize=False)
        est, _ = run_protocol(400_000, attack, seed=23)
        # an x-basis interception reads x perfectly and wrecks y completely
        assert abs(est.eve_fidelity_x - 1.0) < 0.003
        assert abs(est.eve_fidelity_y - 0.5) < 0.003
        assert abs(est.qber_x - 0.0) < 0.003
        assert abs(est.qber_y - 0.5) < 0.003

    def test_fractional_interception_scales_key_rate(self):
        fraction = 0.3
        attack = InterceptResend(phi=0.0, fraction=fraction)
        est, _ = run_protocol(600_000, attack, seed=29)
        # 4-SE gates; their per-row false-alarm rates: TestFourSeFalseAlarms
        assert abs(est.qber - fraction / 4.0) < 4.0 * est.qber_se
        assert abs(est.eve_mutual_info - fraction * 0.5) < max(
            4.0 * est.eve_mutual_info_se, 0.003
        )
        assert abs(est.eve_mutual_info_intercepted - 0.5) < max(
            4.0 * est.eve_mutual_info_intercepted_se, 0.003
        )
        expected_intercepted = fraction * est.n_sifted
        sigma = math.sqrt(est.n_sifted * fraction * (1.0 - fraction))
        assert abs(est.n_intercepted - expected_intercepted) < 5.0 * sigma

    def test_stored_probe_statistics(self):
        alpha = math.pi / 3
        est, _ = run_protocol(400_000, AncillaWithMemory(alpha=alpha), seed=31)
        report = ancilla_with_memory(alpha)
        # 4-SE gates; their per-row false-alarm rates: TestFourSeFalseAlarms
        assert abs(est.qber - report.bob_overall.disturbance) < 4.0 * est.qber_se
        assert abs(est.eve_mutual_info - report.eve_avg_info) < max(
            4.0 * est.eve_mutual_info_se, 0.003
        )
        assert abs(est.eve_fidelity_x - oracles.FID_MEMORY_PI3) < max(
            4.0 * est.eve_fidelity_x_se, 0.003
        )

    def test_immediate_probe_statistics(self):
        alpha, phi = 1.0, math.pi / 8
        est, _ = run_protocol(400_000, AncillaNoMemory(alpha=alpha, phi=phi), seed=37)
        report = ancilla_no_memory(alpha, phi)
        # 4-SE gates; their per-row false-alarm rates: TestFourSeFalseAlarms
        assert abs(est.qber - report.bob_overall.disturbance) < 4.0 * est.qber_se
        assert abs(est.eve_mutual_info - report.eve_avg_info) < max(
            4.0 * est.eve_mutual_info_se, 0.003
        )


class TestCountCodes:
    """count_codes is the engine's product: the run's estimate and trace both derive from its histogram."""

    @pytest.mark.parametrize("workers", [1, 2, 8])
    @pytest.mark.parametrize("rounds", [1, 37, 65536])
    def test_histogram_is_the_traces_and_gives_the_runs_estimate(self, monkeypatch, workers, rounds):
        monkeypatch.setattr(protocol_sim, "_usable_cpus", lambda: 8)  # an untraced run at workers=8 runs 8 threads
        monkeypatch.setattr(protocol_sim, "_THREAD_ROUNDS", rounds)  # a thread per `rounds` rounds
        monkeypatch.setattr(protocol_sim, "_BLOCK", rounds)
        attack, blocks = InterceptResend(phi=0.3, fraction=0.5), []
        hist = count_codes(401, attack, 4, workers=workers)
        traced = count_codes(401, attack, 4, on_trace=blocks.append, workers=workers)
        trace = Trace(np.concatenate([block.codes for block in blocks]), blocks[0].eve_labels)
        assert hist.dtype == np.int64 and hist.shape == (N_CODES,)
        assert np.array_equal(hist, traced)
        assert np.array_equal(hist, np.bincount(trace.codes, minlength=N_CODES))
        assert estimate_counts(hist) == run_protocol(401, attack, 4, workers=workers)[0] == estimate(trace)

        # too few sifted rounds: the histogram comes back, no round is handed out, and the estimate refuses
        blocks = []
        small = count_codes(150, NoAttack(), 1, on_trace=blocks.append, workers=workers)
        assert blocks == [] and small.sum() == 150
        with pytest.raises(InsufficientSampleError):
            estimate_counts(small)

    @pytest.mark.parametrize("cells", [300, 385, 400])
    def test_estimate_refuses_a_histogram_of_another_length(self, cells):
        # a stray cell past the last code would count into n_rounds, and a short histogram lacks codes
        hist = np.resize(count_codes(20_000, InterceptResend(phi=0.3, fraction=0.5), 3), cells)
        with pytest.raises(ValueError, match=f"has {N_CODES} cells, got {cells}"):
            estimate_counts(hist)

    @pytest.mark.parametrize("case", ["float", "one_negative_cell", "all_negative"])
    def test_estimate_refuses_a_histogram_that_is_not_counts(self, case):
        # a float histogram would give a float n_sifted, a negative cell would cut
        # n_rounds, and negative cells would read as too few sifted rounds
        hist = count_codes(20_000, InterceptResend(phi=0.0, fraction=0.5), 3)
        if case == "float":
            hist = hist * 1.5
        elif case == "one_negative_cell":
            hist[hist.argmax()] = -5
        else:
            hist = np.full(N_CODES, -1)
        with pytest.raises(ValueError, match="counts must be nonnegative integers, got "):
            estimate_counts(hist)


class TestTraceEstimation:
    def test_trace_estimate_matches_counts_at_full_interception(self):
        attack = InterceptResend(phi=0.3)
        est, trace = run_protocol(30_000, attack, seed=41, keep_trace=True)
        assert estimate(trace) == est

    def test_trace_estimate_pools_coincident_probe_angles(self):
        # at phi = pi/4 the companion angle equals phi, so both slots carry
        # the same label; the codes still keep the two symmetrization strata
        # apart, as the run does, and the estimates agree exactly
        attack = InterceptResend(phi=math.pi / 4)
        est, trace = run_protocol(30_000, attack, seed=41, keep_trace=True)
        assert trace.eve_labels[0] == trace.eve_labels[1]
        assert estimate(trace) == est

    def test_trace_estimate_matches_counts_for_ancilla(self):
        attack = AncillaNoMemory(alpha=0.9, phi=0.1)
        est, trace = run_protocol(30_000, attack, seed=43, keep_trace=True)
        assert estimate(trace) == est

    def test_fractional_trace_estimate_agrees_statistically(self):
        # the codes of untouched rounds carry their guess coin, so the
        # full-key MI from the trace is the run's own, bit for bit
        attack = InterceptResend(phi=0.0, fraction=0.5)
        est, trace = run_protocol(60_000, attack, seed=47, keep_trace=True)
        assert 0 < est.n_intercepted < est.n_sifted
        assert estimate(trace) == est

    def test_trace_records_round_indices_in_order(self, monkeypatch):
        # round i is codes[i], whatever the block size
        _, whole = run_protocol(1_000, NoAttack(), seed=2, keep_trace=True)
        assert len(whole) == 1_000
        for block in (1, 37, 64):
            monkeypatch.setattr(protocol_sim, "_BLOCK", block)
            _, blocked = run_protocol(1_000, NoAttack(), seed=2, keep_trace=True)
            assert np.array_equal(whole.codes, blocked.codes)

    @pytest.mark.parametrize("block", [1, 37, 65536])
    def test_streamed_blocks_are_the_trace_in_round_order(self, monkeypatch, block):
        attack = InterceptResend(phi=0.3, fraction=0.5)
        blocks = []
        with monkeypatch.context() as patch:
            patch.setattr(protocol_sim, "_BLOCK", block)
            est, trace = run_protocol(3_001, attack, seed=4, keep_trace=True, on_trace=blocks.append)
        assert np.array_equal(np.concatenate([block.codes for block in blocks]), trace.codes)
        assert {block.eve_labels for block in blocks} == {trace.eve_labels}
        assert est == estimate(trace) == run_protocol(3_001, attack, seed=4)[0]

    def test_stream_starts_once_the_sample_suffices(self, monkeypatch):
        # a run that ends with too few sifted rounds hands out none of its
        # rounds; one that passes hands them out from the round that makes
        # MIN_SIFTED sifted rounds
        monkeypatch.setattr(protocol_sim, "_BLOCK", 1)
        blocks = []
        with pytest.raises(InsufficientSampleError):
            run_protocol(150, NoAttack(), seed=1, on_trace=blocks.append)
        assert blocks == []
        run_protocol(1_000, NoAttack(), seed=1, on_trace=blocks.append)
        fields = unpack(blocks[0].codes)
        assert np.count_nonzero(fields["alice_basis"] == fields["bob_basis"]) == protocol_sim.MIN_SIFTED
        assert [len(block) for block in blocks[1:]] == [1] * (1_000 - len(blocks[0]))

    @pytest.mark.parametrize(
        "attack", [NoAttack(), InterceptResend(phi=0.0, fraction=0.5), AncillaWithMemory(alpha=math.pi / 3)],
        ids=lambda attack: type(attack).__name__,
    )
    def test_trace_blocks_are_engine_blocks(self, monkeypatch, attack):
        # the trace writer formats each call's rounds at once, which stays
        # bounded because every call is one engine block, except that the
        # first also holds the rounds kept back until MIN_SIFTED sifted ones
        block, n = 64, 5000
        monkeypatch.setattr(protocol_sim, "_BLOCK", block)
        blocks = []
        count_codes(n, attack, 3, on_trace=blocks.append)
        sizes = [len(b) for b in blocks]
        assert sum(sizes) == n and len(sizes) > 1  # far more than MIN_SIFTED sifted rounds
        assert all(size == block for size in sizes[1:-1]) and sizes[-1] <= block
        assert sizes[0] % block == 0
        held = blocks[0].codes[: (sizes[0] - 1) // block * block]  # the rounds before its last block
        fields = unpack(held)
        assert np.count_nonzero(fields["alice_basis"] == fields["bob_basis"]) < protocol_sim.MIN_SIFTED

    @pytest.mark.parametrize("workers", [1, 2])
    def test_memory_does_not_grow_with_blocks(self, monkeypatch, workers):
        # one histogram or one array per block kept until the end would
        # hold several MB here
        monkeypatch.setattr(protocol_sim, "_THREAD_ROUNDS", 1)
        monkeypatch.setattr(protocol_sim, "_BLOCK", 1)
        attack = InterceptResend(phi=0.3, fraction=0.5)
        run_protocol(400, attack, seed=1, workers=workers)  # warm-up
        tracemalloc.start()
        try:
            run_protocol(2_000, attack, seed=1, workers=workers)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("workers", [1, 2])
    def test_working_set_per_thread_is_bounded(self, monkeypatch, workers):
        # 2.5 MiB is below the 4 MiB of 65536 rounds' words, so only a kernel
        # that works in blocks passes; every block allocates its raw words and
        # numpy temporaries afresh, on whichever thread runs it, in view
        monkeypatch.setattr(protocol_sim, "_usable_cpus", lambda: 2)
        attack, peaks = InterceptResend(phi=0.3, fraction=0.5), []
        run_protocol(1_000, attack, 1)  # warm-up: what a first run allocates once

        def measure():
            tracemalloc.start()
            try:
                run_protocol(8 * 65536, attack, 1, workers=workers)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()

        thread = threading.Thread(target=measure)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive() and peaks[0] < workers * 2.5 * 2**20

    def test_no_trace_by_default(self):
        _, trace = run_protocol(1_000, NoAttack(), seed=2)
        assert trace is None


class TestWorkerCap:
    @pytest.mark.parametrize(
        "workers,n_rounds,cpus,threads",
        [(10**6, 40 * 128, 2, 2), (10**6, 3 * 128, 8, 3), (10**6, 3 * 128 + 1, 8, 4), (4, 40 * 128, 8, 4)],
    )
    def test_threads_capped_by_rounds_and_cpus(self, monkeypatch, workers, n_rounds, cpus, threads):
        monkeypatch.setattr(protocol_sim, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(protocol_sim, "_THREAD_ROUNDS", 128)
        monkeypatch.setattr(protocol_sim, "_BLOCK", 64)
        # each share's first block waits until all `threads` shares run, so
        # no thread exits (and frees its ident for reuse) before the others start;
        # a run on fewer threads breaks the barrier
        barrier, run_block, seen = threading.Barrier(threads, timeout=10), protocol_sim._run_block, set()

        def block(tables, stream, n):
            if threading.get_ident() not in seen:
                barrier.wait()
            seen.add(threading.get_ident())
            return run_block(tables, stream, n)

        monkeypatch.setattr(protocol_sim, "_run_block", block)
        est, _ = run_protocol(n_rounds, NoAttack(), seed=1, workers=workers)
        assert len(seen) == threads and threading.get_ident() in seen
        monkeypatch.undo()
        assert est == run_protocol(n_rounds, NoAttack(), seed=1)[0]

    @pytest.mark.parametrize(
        "n_rounds,workers,traced,threads",
        [
            (1_500_000, 1, False, 1),  # bulk at --jobs 1
            (1_500_000, 2, False, 2),  # bulk at --jobs 2
            (10_000, 2, False, 1),  # a sweep row
            (50_000, 2, True, 1),  # a traced run
            (65_536, 2, False, 1),  # one thread per 65536 rounds begun
            (65_537, 2, False, 2),
        ],
    )
    def test_workloads_keep_their_thread_counts(self, monkeypatch, n_rounds, workers, traced, threads):
        monkeypatch.setattr(protocol_sim, "_usable_cpus", lambda: 2)
        stream, starts = protocol_sim._stream, []

        def counted(seed, start):
            starts.append(start)
            return stream(seed, start)

        monkeypatch.setattr(protocol_sim, "_stream", counted)
        # every share opens one stream; the kernel itself is not needed to see that
        monkeypatch.setattr(protocol_sim, "_run_block", lambda tables, stream, n: np.zeros(n, dtype=np.int64))
        on_trace = (lambda trace: None) if traced else None
        assert count_codes(n_rounds, NoAttack(), 1, on_trace=on_trace, workers=workers).sum() == n_rounds
        assert len(starts) == threads

    @pytest.mark.parametrize("workers", [1, 3, 8])
    def test_each_thread_runs_one_contiguous_share(self, monkeypatch, workers):
        monkeypatch.setattr(protocol_sim, "_usable_cpus", lambda: 8)
        monkeypatch.setattr(protocol_sim, "_THREAD_ROUNDS", 16)
        monkeypatch.setattr(protocol_sim, "_BLOCK", 7)
        n_rounds, threads = 1_001, workers  # 1001 rounds allow 63 threads of 16 rounds
        stream, run_block, starts, shares = protocol_sim._stream, protocol_sim._run_block, [], {}
        barrier, waited = threading.Barrier(threads, timeout=10), threading.local()

        def counted(seed, start):
            starts.append(start)
            shares[threading.get_ident()] = share = [start, 0, stream(seed, start)]
            return share[2]

        def block(tables, bit_gen, n):
            if not getattr(waited, "done", False):  # no thread exits, freeing its ident, before all run
                barrier.wait()
                waited.done = True
            share = shares[threading.get_ident()]
            assert bit_gen is share[2]  # the thread's one stream
            share[1] += n
            return run_block(tables, bit_gen, n)

        monkeypatch.setattr(protocol_sim, "_stream", counted)
        monkeypatch.setattr(protocol_sim, "_run_block", block)
        attack = InterceptResend(phi=0.3, fraction=0.5)
        hist = count_codes(n_rounds, attack, 4, workers=workers)
        bounds = [n_rounds * i // threads for i in range(threads + 1)]
        assert sorted(starts) == bounds[:-1]
        rounds = [share[1] for share in shares.values()]
        assert len(rounds) == threads and sum(rounds) == n_rounds and max(rounds) - min(rounds) <= 1
        assert sorted(share[:2] for share in shares.values()) == [[a, b - a] for a, b in itertools.pairwise(bounds)]
        monkeypatch.undo()
        assert np.array_equal(hist, count_codes(n_rounds, attack, 4))

    def test_unknown_cpu_count_runs_inline(self, monkeypatch):
        # a platform with no affinity mask and no CPU count
        monkeypatch.delattr(protocol_sim.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(protocol_sim.os, "cpu_count", lambda: None)
        monkeypatch.setattr(protocol_sim, "_THREAD_ROUNDS", 64)
        monkeypatch.setattr(protocol_sim, "_BLOCK", 64)
        run_block, seen = protocol_sim._run_block, set()

        def block(tables, stream, n):
            seen.add(threading.get_ident())
            return run_block(tables, stream, n)

        monkeypatch.setattr(protocol_sim, "_run_block", block)
        run_protocol(640, NoAttack(), seed=1, workers=4)
        assert seen == {threading.get_ident()}

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
    def test_a_process_pinned_to_one_cpu_runs_one_share_thread(self):
        # os.cpu_count() ignores the mask, so it would start a second share on the one CPU
        probe = (
            "import os, threading\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from bb84eve import protocol_sim\n"
            "from bb84eve.attacks import NoAttack\n"
            "run_block, seen = protocol_sim._run_block, set()\n"
            "def block(*args):\n"
            "    seen.add(threading.get_ident())\n"
            "    return run_block(*args)\n"
            "protocol_sim._run_block = block\n"
            "hist = protocol_sim.count_codes(200_000, NoAttack(), 1, workers=2)\n"
            "print(len(seen), hist.tolist())\n"
        )
        paths = [str(Path(bb84eve.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60)
        assert result.returncode == 0, result.stderr
        threads, hist = result.stdout.split(" ", 1)
        assert threads == "1"
        assert ast.literal_eval(hist) == count_codes(200_000, NoAttack(), 1, workers=2).tolist()

    def test_more_threads_than_cores_under_fast_switching(self, monkeypatch):
        # every share writes its own histogram; a lost or misplaced count
        # changes the estimate, and a misordered block the trace
        monkeypatch.setattr(protocol_sim, "_usable_cpus", lambda: 8)
        attack = InterceptResend(phi=0.3, fraction=0.5)
        base, base_trace = run_protocol(3_001, attack, seed=4, keep_trace=True)
        monkeypatch.setattr(protocol_sim, "_THREAD_ROUNDS", 37)
        monkeypatch.setattr(protocol_sim, "_BLOCK", 37)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                est, trace = run_protocol(3_001, attack, seed=4, keep_trace=True, workers=8)
                assert est == base
                assert np.array_equal(trace.codes, base_trace.codes)
                # an untraced run is the one that runs on 8 threads
                assert run_protocol(3_001, attack, seed=4, workers=8)[0] == base
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("traced", ["on_trace", "keep_trace"])
    def test_traced_run_stays_on_the_calling_thread(self, monkeypatch, traced):
        monkeypatch.setattr(protocol_sim, "_usable_cpus", lambda: 8)
        monkeypatch.setattr(protocol_sim, "_THREAD_ROUNDS", 64)  # untraced, these 640 rounds would run 4 threads
        monkeypatch.setattr(protocol_sim, "_BLOCK", 64)
        run_block, seen = protocol_sim._run_block, []

        def block(tables, stream, n):
            seen.append(threading.get_ident())
            return run_block(tables, stream, n)

        monkeypatch.setattr(protocol_sim, "_run_block", block)
        trace_args = {"on_trace": lambda trace: None} if traced == "on_trace" else {"keep_trace": True}
        run_protocol(640, NoAttack(), seed=1, workers=4, **trace_args)
        assert seen == [threading.get_ident()] * 10


class TestHelperFailure:
    def test_helper_error_reaches_the_caller_and_stops_every_share(self, monkeypatch):
        monkeypatch.setattr(protocol_sim, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(protocol_sim, "_THREAD_ROUNDS", 1)
        monkeypatch.setattr(protocol_sim, "_BLOCK", 1)
        main_thread, run_block, raised_on, caller_ran = threading.get_ident(), protocol_sim._run_block, [], []

        def block(tables, stream, n):
            if threading.get_ident() != main_thread:  # the helper's first block
                raised_on.append(threading.get_ident())
                raise ValueError("the helper's block failed")
            keys = run_block(tables, stream, n)
            caller_ran.append(n)
            time.sleep(0.001)
            return keys

        monkeypatch.setattr(protocol_sim, "_run_block", block)
        before = set(threading.enumerate())
        with pytest.raises(ValueError, match="the helper's block failed"):
            run_protocol(2000, NoAttack(), seed=1, workers=2)
        assert raised_on and raised_on[0] != main_thread
        assert len(caller_ran) < 100  # of the caller's 1000 blocks
        assert set(threading.enumerate()) <= before  # the helper was joined


    def test_trace_consumer_error_reaches_the_caller_and_stops_the_run(self, monkeypatch):
        monkeypatch.setattr(protocol_sim, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(protocol_sim, "_BLOCK", 1000)
        stream, run_block = protocol_sim._stream, protocol_sim._run_block
        starts, sizes, blocks, error = [], [], [], RuntimeError("consumer failed")

        def counted(seed, start):
            starts.append(start)
            return stream(seed, start)

        def block(tables, bit_gen, n):
            sizes.append(n)
            return run_block(tables, bit_gen, n)

        def on_trace(block):
            blocks.append(len(block))
            if len(blocks) == 2:
                raise error

        monkeypatch.setattr(protocol_sim, "_stream", counted)
        monkeypatch.setattr(protocol_sim, "_run_block", block)
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError) as raised:  # the first block alone holds MIN_SIFTED sifted rounds
            run_protocol(10_000, NoAttack(), seed=1, on_trace=on_trace, workers=2)
        assert raised.value is error
        assert starts == [0] and sizes == [1000, 1000] and blocks == [1000, 1000]
        assert set(threading.enumerate()) <= before


class TestInterrupt:
    def test_ctrl_c_stops_the_workers_at_their_next_block(self, monkeypatch):
        monkeypatch.setattr(protocol_sim, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(protocol_sim, "_THREAD_ROUNDS", 1)
        monkeypatch.setattr(protocol_sim, "_BLOCK", 1)
        main_thread, run_block, ran = threading.get_ident(), protocol_sim._run_block, []

        def block(tables, stream, n):
            keys = run_block(tables, stream, n)
            ran.append(threading.get_ident())
            if threading.get_ident() == main_thread and ran.count(main_thread) == 1:  # the caller's first block is done
                signal.pthread_kill(main_thread, signal.SIGINT)
            time.sleep(0.001)
            return keys

        monkeypatch.setattr(protocol_sim, "_run_block", block)
        handler = signal.signal(signal.SIGINT, signal.default_int_handler)
        try:
            with pytest.raises(KeyboardInterrupt):
                run_protocol(2000, NoAttack(), seed=1, workers=2)
        finally:
            signal.signal(signal.SIGINT, handler)
        assert 1 <= len(ran) < 100


class TestRouteSeparation:
    @pytest.mark.parametrize("module", ["protocol_sim", "quantum_core"])
    def test_engine_never_imports_closed_forms_or_cli(self, module):
        source = Path(bb84eve.__file__).with_name(f"{module}.py").read_text()
        imported = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
                imported.update(alias.name for alias in node.names)
        names = {part for name in imported for part in name.split(".")}
        assert not names & {"analytic_strategies", "report_cli"}

    def test_attack_model_imports_only_the_standard_library(self):
        tree = ast.parse(Path(bb84eve.__file__).with_name("attacks.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert node.level == 0, "attacks imports a package module"
                assert node.module.split(".")[0] in sys.stdlib_module_names, node.module
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    assert alias.name.split(".")[0] in sys.stdlib_module_names, alias.name

    def test_configs_load_without_numpy(self):
        probe = (
            "import sys\n"
            "from bb84eve import InterceptResend\n"
            "print(sorted(m for m in ('numpy', 'bb84eve.protocol_sim') if m in sys.modules))\n"
        )
        paths = [str(Path(bb84eve.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
        assert result.stdout == "[]\n", result.stderr
