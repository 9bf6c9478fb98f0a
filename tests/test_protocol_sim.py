"""Tests for the Monte Carlo protocol engine.

The heart of this file is a scalar replay check: every traced round is
recomputed from the same uniform stream with single-shot state-vector calls,
so the vectorized kernel has to agree with the slow reference path round by
round, not just in aggregate.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import bb84eve
import oracles
from bb84eve.analytic_strategies import ancilla_no_memory, ancilla_with_memory, intercept_resend
from bb84eve.infotheory import info_from_fidelity
from bb84eve.protocol_sim import (
    BASIS_ANGLES,
    BASIS_LABELS,
    REVEALED_BASIS_MARKER,
    UNIFORMS_PER_ROUND,
    AncillaNoMemory,
    AncillaWithMemory,
    InsufficientSampleError,
    InterceptResend,
    NoAttack,
    TrialRecord,
    estimate,
    interpret_outcome,
    run_protocol,
)
from bb84eve.quantum_core import (
    EquatorBasis,
    Outcome,
    apply_eve_unitary,
    joint_outcome_probabilities,
    make_bb84_state,
    outcome_probabilities,
)


def raw_uniforms(seed: int, n_rounds: int) -> np.ndarray:
    """The engine's uniform stream, regenerated without chunking."""
    gen = np.random.Generator(np.random.Philox(key=seed))
    return gen.random((n_rounds, UNIFORMS_PER_ROUND))


def replay_round(attack, u: np.ndarray) -> TrialRecord:
    """Scalar re-derivation of one round from its 8 uniforms."""
    ab = int(u[0] >= 0.5)
    abit = int(u[1] >= 0.5)
    bb = int(u[2] >= 0.5)
    alice_basis = EquatorBasis(BASIS_ANGLES[ab])
    bob_basis = EquatorBasis(BASIS_ANGLES[bb])
    state = make_bb84_state(alice_basis, Outcome.from_bit(abit))

    eve_basis = None
    eve_outcome = None
    eve_guess = None

    if isinstance(attack, NoAttack):
        acted = False
        p_bob = outcome_probabilities(state, bob_basis)[0]
        bob_bit = int(u[6] >= p_bob)
    elif isinstance(attack, InterceptResend):
        acted = u[3] < attack.fraction
        t = int(u[4] >= 0.5) if attack.symmetrize else 0
        angle = attack.phi if t == 0 else math.pi / 2 - attack.phi
        if acted:
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
            probe = alice_basis
            eve_basis = REVEALED_BASIS_MARKER
            alpha = attack.alpha
        entangled = apply_eve_unitary(state, alpha)
        table = joint_outcome_probabilities(entangled, bob_basis, probe)
        cdf = np.cumsum(table.reshape(4))
        cell = min(int((u[5] >= cdf).sum()), 3)
        bob_bit = cell >> 1
        eve_outcome = Outcome.from_bit(cell & 1)
        source = REVEALED_BASIS_MARKER if eve_basis == REVEALED_BASIS_MARKER else angle
        eve_guess = interpret_outcome(
            source,
            eve_outcome,
            BASIS_LABELS[ab],
            correlation_scale=math.sin(alpha),
            tie_coin=u[7],
        )

    return TrialRecord(
        round_index=-1,
        alice_basis=BASIS_LABELS[ab],
        alice_bit=abit,
        eve_acted=acted,
        eve_basis=eve_basis,
        eve_outcome=eve_outcome,
        eve_guess=eve_guess,
        bob_basis=BASIS_LABELS[bb],
        bob_bit=bob_bit,
        sifted=ab == bb,
    )


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


class TestTrialRecord:
    def test_rejects_sift_flag_mismatch(self):
        with pytest.raises(ValueError):
            TrialRecord(
                round_index=0,
                alice_basis="x",
                alice_bit=0,
                eve_acted=False,
                eve_basis=None,
                eve_outcome=None,
                eve_guess=None,
                bob_basis="x",
                bob_bit=0,
                sifted=False,
            )

    def test_rejects_eve_fields_without_action(self):
        with pytest.raises(ValueError):
            TrialRecord(
                round_index=0,
                alice_basis="x",
                alice_bit=0,
                eve_acted=False,
                eve_basis=0.0,
                eve_outcome=Outcome.PLUS,
                eve_guess=0,
                bob_basis="y",
                bob_bit=0,
                sifted=False,
            )


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
        assert interpret_outcome(basis, Outcome.PLUS, EquatorBasis.x()) == 0


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
        assert trace_a == trace_b

    def test_rejects_bad_seed_and_rounds(self):
        with pytest.raises(ValueError):
            run_protocol(0, NoAttack(), seed=1)
        with pytest.raises(ValueError):
            run_protocol(100, NoAttack(), seed=-1)
        with pytest.raises(ValueError):
            run_protocol(100, NoAttack(), seed=1 << 64)


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
        _, trace = run_protocol(n, attack, seed=seed, keep_trace=True, chunk_rounds=chunk)
        uniforms = raw_uniforms(seed, n)
        assert trace is not None and len(trace) == n
        for index, record in enumerate(trace):
            expected = replay_round(attack, uniforms[index])
            assert record.round_index == index
            assert record.alice_basis == expected.alice_basis
            assert record.alice_bit == expected.alice_bit
            assert record.eve_acted == expected.eve_acted
            assert record.bob_basis == expected.bob_basis
            assert record.bob_bit == expected.bob_bit
            assert record.sifted == expected.sifted
            if expected.eve_basis is None:
                assert record.eve_basis is None
            elif isinstance(expected.eve_basis, str):
                assert record.eve_basis == expected.eve_basis
            else:
                assert record.eve_basis == pytest.approx(expected.eve_basis)
            assert record.eve_outcome == expected.eve_outcome
            assert record.eve_guess == expected.eve_guess


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


def assert_estimates_equal(left, right):
    """Field-wise equality, allowing float rounding from summation order."""
    for field in left.__dataclass_fields__:
        a = getattr(left, field)
        b = getattr(right, field)
        if a is None or isinstance(a, (int, np.integer)):
            assert a == b, field
        else:
            assert b == pytest.approx(a, rel=1e-12, abs=1e-15), field


class TestTraceEstimation:
    def test_trace_estimate_matches_counts_at_full_interception(self):
        attack = InterceptResend(phi=0.3)
        est, trace = run_protocol(30_000, attack, seed=41, keep_trace=True)
        from_trace = estimate(trace)
        assert_estimates_equal(est, from_trace)

    def test_trace_estimate_pools_coincident_probe_angles(self):
        # at phi = pi/4 the companion angle equals phi, so the trace path
        # merges the two symmetrization strata the engine keeps separate;
        # the plug-in estimates then differ by O(1/n) but stay consistent
        attack = InterceptResend(phi=math.pi / 4)
        est, trace = run_protocol(30_000, attack, seed=41, keep_trace=True)
        from_trace = estimate(trace)
        assert from_trace.qber == est.qber
        assert from_trace.eve_fidelity_x == est.eve_fidelity_x
        assert from_trace.eve_mutual_info == pytest.approx(
            est.eve_mutual_info, abs=1e-4
        )

    def test_trace_estimate_matches_counts_for_ancilla(self):
        attack = AncillaNoMemory(alpha=0.9, phi=0.1)
        est, trace = run_protocol(30_000, attack, seed=43, keep_trace=True)
        assert_estimates_equal(est, estimate(trace))

    def test_fractional_trace_estimate_agrees_statistically(self):
        # untouched rounds need fresh guess coins, so the trace path redraws
        # them; the two estimates agree within Monte Carlo error, not exactly
        attack = InterceptResend(phi=0.0, fraction=0.5)
        est, trace = run_protocol(60_000, attack, seed=47, keep_trace=True)
        from_trace = estimate(trace, coin_seed=99)
        assert from_trace.qber == est.qber
        assert from_trace.n_intercepted == est.n_intercepted
        combined = math.hypot(est.eve_mutual_info_se, from_trace.eve_mutual_info_se)
        assert abs(from_trace.eve_mutual_info - est.eve_mutual_info) < 5.0 * combined

    def test_trace_records_round_indices_in_order(self):
        _, trace = run_protocol(1_000, NoAttack(), seed=2, keep_trace=True)
        assert [r.round_index for r in trace] == list(range(1_000))

    def test_no_trace_by_default(self):
        _, trace = run_protocol(1_000, NoAttack(), seed=2)
        assert trace is None


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
