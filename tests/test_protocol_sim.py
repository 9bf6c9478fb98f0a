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
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bb84eve
import oracles
from reference import (
    X_BASIS,
    Y_BASIS,
    code_probabilities,
    fresh_eigenstate,
    interpret_outcome,
    mutual_information,
    unmemoized_tables,
)
from bb84eve import protocol_sim, quantum_core
from bb84eve.analytic_strategies import ancilla_no_memory, ancilla_with_memory, closed_form, intercept_resend
from bb84eve.attacks import AncillaNoMemory, AncillaWithMemory, InterceptResend, NoAttack
from bb84eve.infotheory import binary_entropy
from bb84eve.protocol_sim import (
    BASIS_ANGLES,
    BASIS_LABELS,
    N_CODES,
    NO_GUESS,
    REVEALED_BASIS_MARKER,
    ROUND_FIELDS,
    UNIFORMS_PER_ROUND,
    InsufficientSampleError,
    _pack,
    estimate,
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
    """The engine's uniform stream from round start on, regenerated without chunking."""
    bit_gen = np.random.Philox(key=seed)
    bit_gen.advance(start * protocol_sim._BLOCKS_PER_ROUND)
    return np.random.Generator(bit_gen).random((n_rounds, UNIFORMS_PER_ROUND))


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
    state = make_bb84_state(alice_basis, Outcome.from_bit(abit))

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
            eve_outcome = Outcome.from_bit(int(u[5] >= p_eve))
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
        eve_outcome = Outcome.from_bit(cell & 1)
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
        eve_bit=eve_outcome.bit,
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

    def test_workers_and_chunking_do_not_change_results(self):
        attack = AncillaNoMemory(alpha=1.0, phi=0.3)
        base, _ = run_protocol(100_001, attack, seed=9)
        for workers, chunk in ((1, 1 << 12), (3, 4096), (4, 977)):
            other, _ = run_protocol(
                100_001, attack, seed=9, workers=workers, chunk_rounds=chunk
            )
            assert other == base

    def test_trace_is_deterministic_too(self):
        attack = AncillaWithMemory(alpha=0.8)
        _, trace_a = run_protocol(500, attack, seed=3, keep_trace=True)
        _, trace_b = run_protocol(500, attack, seed=3, keep_trace=True, chunk_rounds=64)
        assert np.array_equal(trace_a.codes, trace_b.codes)
        assert trace_a.eve_labels == trace_b.eve_labels

    def test_rejects_bad_seed_and_rounds(self):
        with pytest.raises(ValueError):
            run_protocol(0, NoAttack(), seed=1)
        with pytest.raises(ValueError):
            run_protocol(100, NoAttack(), seed=-1)
        with pytest.raises(ValueError):
            run_protocol(100, NoAttack(), seed=1 << 64)
        with pytest.raises(ValueError):
            run_protocol(100, NoAttack(), seed=1, chunk_rounds=0)
        with pytest.raises(ValueError, match="workers"):
            run_protocol(1000, NoAttack(), seed=1, workers=0)

    @pytest.mark.parametrize("n_rounds", [2**63, 10**30])
    def test_rejects_rounds_beyond_int64_key_counts(self, n_rounds):
        with pytest.raises(ValueError, match="n_rounds"):
            run_protocol(n_rounds, NoAttack(), seed=1)


class TestScalarReplay:
    N_ROUNDS = 256
    SEED = 2024
    # about one round in fifty intercepted: at SPARSE_CHUNK rounds per chunk
    # the run mixes chunks with and without an intercepted round
    SPARSE = InterceptResend(phi=0.3, fraction=0.02)
    SPARSE_CHUNK = 16
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

    def test_sparse_run_mixes_chunks_with_and_without_interception(self):
        acted = raw_uniforms(self.SEED, self.N_ROUNDS)[:, 3] < self.SPARSE.fraction
        chunks = {
            bool(acted[s : s + self.SPARSE_CHUNK].any())
            for s in range(0, self.N_ROUNDS, self.SPARSE_CHUNK)
        }
        assert chunks == {False, True}

    @pytest.mark.parametrize("attack", CONFIGS, ids=lambda a: type(a).__name__)
    def test_trace_matches_scalar_rederivation(self, attack):
        n = self.N_ROUNDS
        seed = self.SEED
        chunk = self.SPARSE_CHUNK if attack == self.SPARSE else 91
        est, trace = run_protocol(n, attack, seed=seed, keep_trace=True, chunk_rounds=chunk)
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
    """The engine reads the raw Philox words, which stand for numpy's uniforms."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1)),
        start=st.sampled_from([0, 1, 65536, 2**40]),
        size=st.integers(1, 64),
    )
    @example(seed=0, start=0, size=1)
    @example(seed=2**64 - 1, start=2**40, size=64)
    def test_words_are_the_generators_uniforms(self, seed, start, size):
        # the kernel draws a chunk's words block by block from one stream
        stream = protocol_sim._stream(seed, start)
        head = size // 2
        words = np.concatenate([stream.random_raw(head * UNIFORMS_PER_ROUND),
                                stream.random_raw((size - head) * UNIFORMS_PER_ROUND)])
        bit_gen = np.random.Philox(key=seed)
        bit_gen.advance(start * protocol_sim._BLOCKS_PER_ROUND)
        assert np.array_equal(words, bit_gen.random_raw(size * UNIFORMS_PER_ROUND))
        u = np.random.Generator(protocol_sim._stream(seed, start)).random(size * UNIFORMS_PER_ROUND)
        assert u.tobytes() == ((words >> np.uint64(11)) * 2.0**-53).tobytes()
        assert np.array_equal(words.view(np.int64) < 0, u >= 0.5)


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
        chunk=st.integers(1, 48),
    )
    @example(attack=InterceptResend(phi=0.2, fraction=0.0), seed=2**64 - 1, start=3, size=40, chunk=7)
    @example(attack=InterceptResend(phi=0.2, fraction=5e-324), seed=0, start=1, size=40, chunk=48)
    def test_chunks_at_any_start_match_scalar_replay(self, attack, seed, start, size, chunk):
        tables = protocol_sim._build_tables(attack)
        stop = start + size
        codes = np.concatenate(
            [protocol_sim._run_chunk(tables, seed, s, min(chunk, stop - s))[1] for s in range(start, stop, chunk)]
        )
        uniforms = raw_uniforms(seed, stop)[start:]
        assert_codes_replay(attack, codes, tables.eve_labels, uniforms)

    @settings(max_examples=30)
    @given(_JOINT_ATTACKS)
    def test_joint_cdf_rows_are_nondecreasing(self, attack):
        # the premise of counting the joint cell with three compares; adjacent
        # rows are compared, since np.diff of unsigned thresholds would wrap
        for cdf in (protocol_sim._born_tables(attack).joint_cdf, protocol_sim._build_tables(attack).joint_cdf):
            assert cdf.shape == (4, protocol_sim.N_KEYS)
            assert np.all(cdf[1:] >= cdf[:-1])


class TestKernelBlocks:
    """Blocks inside a chunk change no round: at 5 rounds a block, every edge is crossed."""

    @settings(max_examples=60, deadline=None)
    @given(
        attack=_ATTACKS,
        seed=st.one_of(st.integers(2**64 - 8, 2**64 - 1), st.integers(0, 2**64 - 1)),
        start=st.one_of(st.integers(0, 30), st.sampled_from([2**40 - 7, 2**40]), st.integers(0, 2**40)),
        size=st.integers(1, 40),
        chunk=st.integers(1, 17),
    )
    @example(attack=AncillaWithMemory(alpha=0.8), seed=2**64 - 1, start=2**40, size=40, chunk=17)
    @example(attack=InterceptResend(phi=0.2, fraction=0.5), seed=0, start=4, size=11, chunk=6)
    def test_blocks_across_chunk_edges_match_scalar_replay(self, attack, seed, start, size, chunk):
        tables = protocol_sim._build_tables(attack)
        counted = tables._replace(codes=None)
        codes = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(protocol_sim, "_BLOCK", 5)
            for s in range(start, start + size, chunk):
                n = min(chunk, start + size - s)
                counts, chunk_codes = protocol_sim._run_chunk(tables, seed, s, n)
                assert np.array_equal(protocol_sim._run_chunk(counted, seed, s, n)[0], counts)
                hist = np.zeros(N_CODES, dtype=np.int64)
                np.add.at(hist, tables.codes, counts)  # each key's count lands on its code
                assert np.array_equal(hist, np.bincount(chunk_codes, minlength=N_CODES))
                codes.append(chunk_codes)
        assert_codes_replay(attack, np.concatenate(codes), tables.eve_labels, raw_uniforms(seed, size, start))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("chunk", [37, 65536])
    def test_block_size_changes_no_estimate_or_code(self, monkeypatch, workers, chunk):
        monkeypatch.setattr(protocol_sim.os, "cpu_count", lambda: 2)
        n_rounds = chunk + 1000  # two or more chunks, so an untraced run at workers=2 runs a helper
        for attack in (InterceptResend(phi=0.3, fraction=0.5), AncillaNoMemory(alpha=1.0, phi=0.3)):
            est, trace = run_protocol(n_rounds, attack, seed=8, keep_trace=True, workers=workers, chunk_rounds=chunk)
            with monkeypatch.context() as patch:
                patch.setattr(protocol_sim, "_BLOCK", 5)
                small, small_trace = run_protocol(n_rounds, attack, seed=8, keep_trace=True, workers=workers,
                                                  chunk_rounds=chunk)
                untraced, _ = run_protocol(n_rounds, attack, seed=8, workers=workers, chunk_rounds=chunk)
            assert small == untraced == est
            assert np.array_equal(small_trace.codes, trace.codes)


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
    return protocol_sim._estimate_from_counts(np.rint(2**62 * code_probabilities(attack)).astype(np.int64))


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
        estimates = [protocol_sim._estimate_from_counts(counts) for counts in draws]
        # a draw with no error has a zero-width Wald interval, which misses the closed form
        qber_covered = np.mean([abs(e.qber - want.d_bob) <= 2 * e.qber_se for e in estimates])
        z = np.array([(e.eve_mutual_info - want.i_eve) / e.eve_mutual_info_se for e in estimates])
        binomial_se = math.sqrt(self.NOMINAL * (1 - self.NOMINAL) / self.N_DRAWS)
        assert qber_covered < self.NOMINAL - 3 * binomial_se
        assert z.mean() > 3 * z.std(ddof=1) / math.sqrt(self.N_DRAWS)


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
        _, trace = run_protocol(self.N_ROUNDS, attack, seed=11, keep_trace=True)
        observed = np.bincount(trace.codes, minlength=N_CODES)
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
_SIGNED_PHIS = st.one_of(st.sampled_from([0.0, -0.0, math.pi / 4]), st.floats(0.0, math.pi / 4))


def assert_tables_equal_unmemoized(attack):
    """The engine's Born tables for attack equal, bit for bit, those built with no memo."""
    tables = protocol_sim._born_tables(attack)
    used = [memo.cache_info() for memo in _MEMOS]
    reference = unmemoized_tables(attack)
    assert [memo.cache_info() for memo in _MEMOS] == used, "the reference read a memo"
    for name in ("codes", "p_eve", "p_bob", "joint_cdf"):
        got, want = getattr(tables, name), getattr(reference, name)
        assert (got is None) == (want is None), name
        if got is not None:
            assert np.array_equal(got, want) and got.tobytes() == want.tobytes(), name


class TestBornMemo:
    """The memoized eigenstates and product bras change no bit of the tables."""

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

    def test_memos_stay_bounded(self):
        state = apply_eve_unitary(make_bb84_state(X_BASIS, Outcome.PLUS), 1.0)
        for phi in np.linspace(0.0, math.pi / 4, 1000):
            joint_outcome_probabilities(state, Y_BASIS, EquatorBasis(float(phi)))
        for memo in _MEMOS:
            info = memo.cache_info()
            assert info.maxsize is not None and info.currsize <= info.maxsize < 1000


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
        assert abs(est.qber - report.bob_overall.disturbance) < 4.0 * est.qber_se
        assert abs(est.eve_mutual_info - report.eve_avg_info) < max(
            4.0 * est.eve_mutual_info_se, 0.003
        )


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

    def test_trace_records_round_indices_in_order(self):
        # round i is codes[i], whatever the chunking
        _, whole = run_protocol(1_000, NoAttack(), seed=2, keep_trace=True)
        assert len(whole) == 1_000
        for chunk_rounds in (1, 37, 64):
            _, chunked = run_protocol(1_000, NoAttack(), seed=2, keep_trace=True, chunk_rounds=chunk_rounds)
            assert np.array_equal(whole.codes, chunked.codes)

    @pytest.mark.parametrize("chunk_rounds", [1, 37, 65536])
    def test_streamed_blocks_are_the_trace_in_round_order(self, chunk_rounds):
        attack = InterceptResend(phi=0.3, fraction=0.5)
        blocks = []
        est, trace = run_protocol(3_001, attack, seed=4, keep_trace=True, on_trace=blocks.append,
                                  chunk_rounds=chunk_rounds)
        assert np.array_equal(np.concatenate([block.codes for block in blocks]), trace.codes)
        assert {block.eve_labels for block in blocks} == {trace.eve_labels}
        assert est == estimate(trace) == run_protocol(3_001, attack, seed=4)[0]

    def test_stream_starts_once_the_sample_suffices(self):
        # a run that ends with too few sifted rounds hands out none of its
        # rounds; one that passes hands them out from the round that makes
        # MIN_SIFTED sifted rounds
        blocks = []
        with pytest.raises(InsufficientSampleError):
            run_protocol(150, NoAttack(), seed=1, on_trace=blocks.append, chunk_rounds=1)
        assert blocks == []
        run_protocol(1_000, NoAttack(), seed=1, on_trace=blocks.append, chunk_rounds=1)
        fields = unpack(blocks[0].codes)
        assert np.count_nonzero(fields["alice_basis"] == fields["bob_basis"]) == protocol_sim.MIN_SIFTED
        assert [len(block) for block in blocks[1:]] == [1] * (1_000 - len(blocks[0]))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_memory_does_not_grow_with_chunks(self, workers):
        # one histogram or one future per chunk kept until the end would
        # hold several MB here
        attack = InterceptResend(phi=0.3, fraction=0.5)
        run_protocol(400, attack, seed=1, chunk_rounds=1, workers=workers)  # warm-up
        tracemalloc.start()
        try:
            run_protocol(2_000, attack, seed=1, chunk_rounds=1, workers=workers)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("workers", [1, 2])
    def test_working_set_per_thread_is_bounded(self, monkeypatch, workers):
        # 2.5 MiB is below the 4 MiB of one chunk's words, so only a kernel
        # that works in blocks passes; every block allocates its raw words and
        # numpy temporaries afresh, on whichever thread runs it, in view
        monkeypatch.setattr(protocol_sim.os, "cpu_count", lambda: 2)
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
        "workers,n_chunks,cpus,threads", [(10**6, 40, 2, 2), (10**6, 3, 8, 3), (4, 40, 8, 4)]
    )
    def test_threads_capped_by_chunks_and_cpus(self, monkeypatch, workers, n_chunks, cpus, threads):
        monkeypatch.setattr(protocol_sim.os, "cpu_count", lambda: cpus)
        # each share's first chunk waits until all `threads` shares run, so
        # no thread exits (and frees its ident for reuse) before the others start;
        # a run on fewer threads breaks the barrier
        barrier, run_chunk, seen = threading.Barrier(threads, timeout=10), protocol_sim._run_chunk, set()

        def chunk(tables, seed, start, size):
            if start < 128 * threads:
                barrier.wait()
            seen.add(threading.get_ident())
            return run_chunk(tables, seed, start, size)

        monkeypatch.setattr(protocol_sim, "_run_chunk", chunk)
        est, _ = run_protocol(128 * n_chunks, NoAttack(), seed=1, workers=workers, chunk_rounds=128)
        assert len(seen) == threads and threading.get_ident() in seen
        monkeypatch.undo()
        assert est == run_protocol(128 * n_chunks, NoAttack(), seed=1)[0]

    def test_unknown_cpu_count_runs_inline(self, monkeypatch):
        monkeypatch.setattr(protocol_sim.os, "cpu_count", lambda: None)
        run_chunk, seen = protocol_sim._run_chunk, set()

        def chunk(tables, seed, start, size):
            seen.add(threading.get_ident())
            return run_chunk(tables, seed, start, size)

        monkeypatch.setattr(protocol_sim, "_run_chunk", chunk)
        run_protocol(640, NoAttack(), seed=1, workers=4, chunk_rounds=64)
        assert seen == {threading.get_ident()}

    def test_more_threads_than_cores_under_fast_switching(self, monkeypatch):
        # every share writes its own histogram; a lost or misplaced count
        # changes the estimate, and a misordered chunk the trace
        monkeypatch.setattr(protocol_sim.os, "cpu_count", lambda: 8)
        attack = InterceptResend(phi=0.3, fraction=0.5)
        base, base_trace = run_protocol(3_001, attack, seed=4, keep_trace=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                est, trace = run_protocol(3_001, attack, seed=4, keep_trace=True, workers=8, chunk_rounds=37)
                assert est == base
                assert np.array_equal(trace.codes, base_trace.codes)
                # an untraced run is the one that runs on 8 threads
                assert run_protocol(3_001, attack, seed=4, workers=8, chunk_rounds=37)[0] == base
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("traced", ["on_trace", "keep_trace"])
    def test_traced_run_stays_on_the_calling_thread(self, monkeypatch, traced):
        monkeypatch.setattr(protocol_sim.os, "cpu_count", lambda: 8)
        run_chunk, seen = protocol_sim._run_chunk, []

        def chunk(tables, seed, start, size):
            seen.append(threading.get_ident())
            return run_chunk(tables, seed, start, size)

        monkeypatch.setattr(protocol_sim, "_run_chunk", chunk)
        trace_args = {"on_trace": lambda trace: None} if traced == "on_trace" else {"keep_trace": True}
        run_protocol(640, NoAttack(), seed=1, workers=4, chunk_rounds=64, **trace_args)
        assert seen == [threading.get_ident()] * 10


class TestHelperFailure:
    def test_helper_error_reaches_the_caller_and_stops_every_share(self, monkeypatch):
        monkeypatch.setattr(protocol_sim.os, "cpu_count", lambda: 2)
        main_thread, run_chunk, raised_on, caller_ran = threading.get_ident(), protocol_sim._run_chunk, [], []

        def chunk(tables, seed, start, size):
            if start == 1:  # the helper's first chunk
                raised_on.append(threading.get_ident())
                raise ValueError("chunk 1 failed")
            keys = run_chunk(tables, seed, start, size)
            if threading.get_ident() == main_thread:
                caller_ran.append(start)
            time.sleep(0.001)
            return keys

        monkeypatch.setattr(protocol_sim, "_run_chunk", chunk)
        before = set(threading.enumerate())
        with pytest.raises(ValueError, match="chunk 1 failed"):
            run_protocol(2000, NoAttack(), seed=1, workers=2, chunk_rounds=1)
        assert raised_on and raised_on[0] != main_thread
        assert len(caller_ran) < 100  # of the caller's 1000 chunks
        assert set(threading.enumerate()) <= before  # the helper was joined


    def test_trace_consumer_error_reaches_the_caller_and_stops_the_run(self, monkeypatch):
        monkeypatch.setattr(protocol_sim.os, "cpu_count", lambda: 2)
        run_chunk, starts, blocks, error = protocol_sim._run_chunk, [], [], RuntimeError("consumer failed")

        def chunk(tables, seed, start, size):
            starts.append(start)
            return run_chunk(tables, seed, start, size)

        def on_trace(block):
            blocks.append(len(block))
            if len(blocks) == 2:
                raise error

        monkeypatch.setattr(protocol_sim, "_run_chunk", chunk)
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError) as raised:  # the first chunk alone holds MIN_SIFTED sifted rounds
            run_protocol(10_000, NoAttack(), seed=1, on_trace=on_trace, workers=2, chunk_rounds=1000)
        assert raised.value is error
        assert starts == [0, 1000] and blocks == [1000, 1000]
        assert set(threading.enumerate()) <= before


class TestInterrupt:
    def test_ctrl_c_stops_the_workers_at_their_next_chunk(self, monkeypatch):
        monkeypatch.setattr(protocol_sim.os, "cpu_count", lambda: 2)
        main_thread, run_chunk, ran = threading.get_ident(), protocol_sim._run_chunk, []

        def chunk(tables, seed, start, size):
            keys = run_chunk(tables, seed, start, size)
            ran.append(start)
            if start == 0:  # Ctrl-C once the first chunk is done
                signal.pthread_kill(main_thread, signal.SIGINT)
            time.sleep(0.001)
            return keys

        monkeypatch.setattr(protocol_sim, "_run_chunk", chunk)
        handler = signal.signal(signal.SIGINT, signal.default_int_handler)
        try:
            with pytest.raises(KeyboardInterrupt):
                run_protocol(2000, NoAttack(), seed=1, workers=2, chunk_rounds=1)
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
