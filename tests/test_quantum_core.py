"""Tests for state construction, Born-rule probabilities, and sampling."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bb84eve.quantum_core import (
    EquatorBasis,
    Outcome,
    PureState,
    apply_eve_unitary,
    joint_outcome_probabilities,
    make_bb84_state,
    outcome_probabilities,
)
from reference import conjugate_basis, intermediate_basis, project, sample_joint_outcome, sample_outcome

PHI_GRID = np.linspace(0.0, math.pi / 4, 50)

angles = st.floats(min_value=0.0, max_value=math.pi / 4, allow_nan=False)
alphas = st.floats(min_value=0.0, max_value=math.pi / 2, allow_nan=False)


class TestOutcome:
    def test_bit_values(self):
        assert Outcome.PLUS.bit == 0
        assert Outcome.MINUS.bit == 1

    def test_sign_values(self):
        assert Outcome.PLUS.sign == 1.0
        assert Outcome.MINUS.sign == -1.0

    def test_from_bit_round_trip(self):
        for out in (Outcome.PLUS, Outcome.MINUS):
            assert Outcome.from_bit(out.bit) is out

    def test_from_bit_rejects_other_values(self):
        with pytest.raises(ValueError):
            Outcome.from_bit(2)


class TestPureState:
    def test_accepts_unit_qubit(self):
        state = PureState(np.array([1.0, 0.0]))
        assert state.amplitudes.shape == (2,)

    def test_accepts_unit_two_qubit(self):
        state = PureState(np.array([0.5, 0.5, 0.5, 0.5]))
        assert state.amplitudes.shape == (4,)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            PureState(np.array([1.0, 1.0]))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            PureState(np.array([1.0, 0.0, 0.0]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            PureState(np.array([np.nan, 0.0]))

    def test_amplitudes_are_read_only(self):
        state = PureState(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0

    def test_does_not_freeze_caller_array(self):
        raw = np.array([1.0, 0.0])
        PureState(raw)
        raw[0] = 5.0  # must not raise

    def test_overlap_probability_clamped(self):
        state = PureState(np.array([1.0, 0.0]))
        p = state.overlap_probability(state)
        assert 0.0 <= p <= 1.0
        assert p == pytest.approx(1.0, abs=1e-15)


class TestEquatorBasis:
    def test_eigenstate_amplitudes(self):
        basis = EquatorBasis(math.pi / 4)
        plus = basis.eigenstate(Outcome.PLUS).amplitudes
        root_half = 1.0 / math.sqrt(2.0)
        assert plus[0] == pytest.approx(root_half, abs=1e-15)
        assert plus[1] == pytest.approx(
            root_half * complex(math.cos(math.pi / 4), math.sin(math.pi / 4)),
            abs=1e-15,
        )

    def test_y_basis_has_imaginary_component(self):
        plus = EquatorBasis.y().eigenstate(Outcome.PLUS).amplitudes
        assert plus[1] == pytest.approx(1j / math.sqrt(2.0), abs=1e-15)

    @given(angles)
    def test_eigenstates_orthonormal(self, phi):
        basis = EquatorBasis(phi)
        plus = basis.eigenstate(Outcome.PLUS)
        minus = basis.eigenstate(Outcome.MINUS)
        assert plus.overlap_probability(plus) == pytest.approx(1.0, abs=1e-12)
        assert plus.overlap_probability(minus) == pytest.approx(0.0, abs=1e-12)

    def test_conjugate_basis_reflects_angle(self):
        assert conjugate_basis(EquatorBasis(0.0)).phi == pytest.approx(math.pi / 2)
        phi = math.pi / 8
        assert conjugate_basis(EquatorBasis(phi)).phi == pytest.approx(
            math.pi / 2 - phi
        )

    def test_intermediate_factory(self):
        assert intermediate_basis().phi == pytest.approx(math.pi / 4)

    def test_rejects_nan_angle(self):
        with pytest.raises(ValueError):
            EquatorBasis(float("nan"))


class TestMakeBB84State:
    def test_accepts_x_and_y(self):
        for basis in (EquatorBasis.x(), EquatorBasis.y()):
            for outcome in (Outcome.PLUS, Outcome.MINUS):
                state = make_bb84_state(basis, outcome)
                eigen = basis.eigenstate(outcome)
                assert state.overlap_probability(eigen) == pytest.approx(
                    1.0, abs=1e-12
                )

    def test_rejects_intermediate_basis(self):
        with pytest.raises(ValueError):
            make_bb84_state(intermediate_basis(), Outcome.PLUS)


class TestOutcomeProbabilities:
    def test_eigenstate_is_certain(self):
        basis = EquatorBasis.x()
        state = basis.eigenstate(Outcome.PLUS)
        p_plus, p_minus = outcome_probabilities(state, basis)
        assert p_plus == pytest.approx(1.0, abs=1e-12)
        assert p_minus == pytest.approx(0.0, abs=1e-12)

    def test_x_state_in_rotated_basis(self):
        # |+x> measured at angle phi succeeds with probability (1+cos phi)/2
        state = EquatorBasis.x().eigenstate(Outcome.PLUS)
        for phi in PHI_GRID:
            p_plus, _ = outcome_probabilities(state, EquatorBasis(phi))
            assert p_plus == pytest.approx((1.0 + math.cos(phi)) / 2.0, abs=1e-12)

    def test_y_state_in_rotated_basis(self):
        state = EquatorBasis.y().eigenstate(Outcome.PLUS)
        for phi in PHI_GRID:
            p_plus, _ = outcome_probabilities(state, EquatorBasis(phi))
            assert p_plus == pytest.approx((1.0 + math.sin(phi)) / 2.0, abs=1e-12)

    @given(angles, angles)
    def test_probabilities_sum_to_one(self, phi_state, phi_basis):
        state = EquatorBasis(phi_state).eigenstate(Outcome.MINUS)
        p_plus, p_minus = outcome_probabilities(state, EquatorBasis(phi_basis))
        assert p_plus + p_minus == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= p_plus <= 1.0

    def test_mirror_symmetry_of_companion_angle(self):
        # swapping x for y and phi for pi/2 - phi leaves the overlap unchanged
        x_state = EquatorBasis.x().eigenstate(Outcome.PLUS)
        y_state = EquatorBasis.y().eigenstate(Outcome.PLUS)
        for phi in PHI_GRID:
            p_x, _ = outcome_probabilities(x_state, EquatorBasis(phi))
            p_y, _ = outcome_probabilities(
                y_state, conjugate_basis(EquatorBasis(phi))
            )
            assert p_x == pytest.approx(p_y, abs=1e-12)


class TestProject:
    def test_projection_returns_basis_eigenstate(self):
        state = EquatorBasis.x().eigenstate(Outcome.PLUS)
        basis = EquatorBasis(math.pi / 8)
        collapsed = project(state, basis, Outcome.MINUS)
        eigen = basis.eigenstate(Outcome.MINUS)
        assert collapsed.overlap_probability(eigen) == pytest.approx(1.0, abs=1e-12)

    def test_projection_onto_orthogonal_outcome_raises(self):
        basis = EquatorBasis.x()
        state = basis.eigenstate(Outcome.PLUS)
        with pytest.raises(ValueError):
            project(state, basis, Outcome.MINUS)


class TestApplyEveUnitary:
    def test_zero_maps_to_zero_zero(self):
        state = PureState(np.array([1.0, 0.0]))
        joint = apply_eve_unitary(state, math.pi / 3).amplitudes
        assert joint == pytest.approx(np.array([1.0, 0.0, 0.0, 0.0]), abs=1e-15)

    def test_one_splits_between_signal_and_probe(self):
        state = PureState(np.array([0.0, 1.0]))
        alpha = math.pi / 3
        joint = apply_eve_unitary(state, alpha).amplitudes
        expected = np.array([0.0, math.sin(alpha), math.cos(alpha), 0.0])
        assert joint == pytest.approx(expected, abs=1e-15)

    def test_alpha_zero_is_identity_with_idle_probe(self):
        state = EquatorBasis.y().eigenstate(Outcome.MINUS)
        joint = apply_eve_unitary(state, 0.0).amplitudes
        expected = np.kron(state.amplitudes, np.array([1.0, 0.0]))
        assert joint == pytest.approx(expected, abs=1e-15)

    @given(alphas, angles, st.sampled_from([Outcome.PLUS, Outcome.MINUS]))
    def test_preserves_norm(self, alpha, phi, outcome):
        state = EquatorBasis(phi).eigenstate(outcome)
        joint = apply_eve_unitary(state, alpha)
        assert np.linalg.norm(joint.amplitudes) == pytest.approx(1.0, abs=1e-12)


class TestJointOutcomeProbabilities:
    def test_full_swap_moves_signal_into_probe(self):
        # alpha = pi/2 leaves |0> with Bob and |+x> with Eve, so Eve's
        # x-basis outcome is certain while Bob's is a fair coin
        state = EquatorBasis.x().eigenstate(Outcome.PLUS)
        joint = apply_eve_unitary(state, math.pi / 2)
        table = joint_outcome_probabilities(joint, EquatorBasis.x(), EquatorBasis.x())
        assert table == pytest.approx(np.array([[0.5, 0.0], [0.5, 0.0]]), abs=1e-12)

    def test_full_swap_with_conjugate_probe_basis_is_uniform(self):
        # after the swap a y-basis readout of the |+x> probe is a fair coin
        # independent of Bob's, so all four cells carry weight 1/4
        state = EquatorBasis.x().eigenstate(Outcome.PLUS)
        joint = apply_eve_unitary(state, math.pi / 2)
        table = joint_outcome_probabilities(joint, EquatorBasis.x(), EquatorBasis.y())
        assert table == pytest.approx(np.full((2, 2), 0.25), abs=1e-12)

    def test_table_is_normalized(self):
        state = EquatorBasis.y().eigenstate(Outcome.PLUS)
        for alpha in np.linspace(0.0, math.pi / 2, 7):
            joint = apply_eve_unitary(state, alpha)
            table = joint_outcome_probabilities(
                joint, EquatorBasis.y(), EquatorBasis(math.pi / 8)
            )
            assert table.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(table >= 0.0)

    def test_bob_marginal_tracks_probe_strength(self):
        # the signal-side success probability is (1+cos alpha)/2 regardless
        # of which preparation basis was used
        for alpha in np.linspace(0.0, math.pi / 2, 9):
            for basis in (EquatorBasis.x(), EquatorBasis.y()):
                state = basis.eigenstate(Outcome.PLUS)
                joint = apply_eve_unitary(state, alpha)
                table = joint_outcome_probabilities(
                    joint, basis, intermediate_basis()
                )
                bob_fid = table[0].sum()
                assert bob_fid == pytest.approx(
                    (1.0 + math.cos(alpha)) / 2.0, abs=1e-12
                )

    def test_eve_marginal_for_x_preparation(self):
        # the probe-side success probability against |+x> at probe basis phi
        # is (1 + cos phi sin alpha)/2
        state = EquatorBasis.x().eigenstate(Outcome.PLUS)
        for alpha in np.linspace(0.0, math.pi / 2, 9):
            joint = apply_eve_unitary(state, alpha)
            for phi in np.linspace(0.0, math.pi / 4, 9):
                table = joint_outcome_probabilities(
                    joint, EquatorBasis.x(), EquatorBasis(phi)
                )
                eve_fid = table[:, 0].sum()
                expected = (1.0 + math.cos(phi) * math.sin(alpha)) / 2.0
                assert eve_fid == pytest.approx(expected, abs=1e-12)

    def test_requires_two_qubit_state(self):
        state = EquatorBasis.x().eigenstate(Outcome.PLUS)
        with pytest.raises(ValueError):
            joint_outcome_probabilities(state, EquatorBasis.x(), EquatorBasis.x())


class TestSampling:
    def test_certain_outcome(self):
        rng = np.random.default_rng(0)
        assert sample_outcome((1.0, 0.0), rng) is Outcome.PLUS
        assert sample_outcome((0.0, 1.0), rng) is Outcome.MINUS

    def test_golden_sequence(self):
        # frozen from the first run with seed 42 and p_plus = 0.3
        rng = np.random.default_rng(42)
        drawn = [sample_outcome((0.3, 0.7), rng).bit for _ in range(24)]
        assert drawn == [
            1, 1, 1, 1, 0, 1, 1, 1, 0, 1, 1, 1,
            1, 1, 1, 0, 1, 0, 1, 1, 1, 1, 1, 1,
        ]

    def test_sample_matches_probability(self):
        rng = np.random.default_rng(7)
        n = 200_000
        hits = sum(
            sample_outcome((0.25, 0.75), rng) is Outcome.PLUS for _ in range(n)
        )
        rate = hits / n
        sigma = math.sqrt(0.25 * 0.75 / n)
        assert abs(rate - 0.25) < 5.0 * sigma

    def test_joint_certain_cell(self):
        rng = np.random.default_rng(3)
        table = np.zeros((2, 2))
        table[1, 0] = 1.0
        bob, eve = sample_joint_outcome(table, rng)
        assert bob is Outcome.MINUS
        assert eve is Outcome.PLUS

    def test_joint_frequencies(self):
        rng = np.random.default_rng(11)
        table = np.array([[0.4, 0.1], [0.2, 0.3]])
        counts = np.zeros((2, 2))
        n = 100_000
        for _ in range(n):
            bob, eve = sample_joint_outcome(table, rng)
            counts[bob.bit, eve.bit] += 1
        assert counts / n == pytest.approx(table, abs=0.01)

    def test_rejects_bad_distribution(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_outcome((0.9, 0.9), rng)
