"""Tests for the closed forms' entropy and fidelity-to-information, and the plug-in mutual information oracle."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from reference import JointCounts, mutual_information
from bb84eve.analytic_strategies import binary_entropy, info_from_fidelity

probabilities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestFrozenOracleValues:
    def test_frozen_constants_match_high_precision_recompute(self):
        for name, value in oracles.recompute().items():
            assert getattr(oracles, name) == value, name


class TestBinaryEntropy:
    def test_half_is_one_bit(self):
        assert binary_entropy(0.5) == 1.0

    def test_endpoints_are_zero(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_intermediate_fidelity_value(self):
        assert binary_entropy(oracles.FID_INTERMEDIATE) == pytest.approx(
            oracles.ENTROPY_INTERMEDIATE, abs=1e-15
        )

    def test_rejects_out_of_range(self):
        for bad in (-0.1, 1.1, math.nan):
            with pytest.raises(ValueError):
                binary_entropy(bad)

    @given(probabilities)
    def test_symmetric_about_half(self, p):
        assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), abs=1e-12)

    @given(probabilities)
    def test_bounded_by_one_bit(self, p):
        assert 0.0 <= binary_entropy(p) <= 1.0

    def test_concave_on_grid(self):
        grid = np.linspace(0.0, 1.0, 51)
        values = [binary_entropy(p) for p in grid]
        for i in range(1, len(grid) - 1):
            midpoint = (values[i - 1] + values[i + 1]) / 2.0
            assert values[i] >= midpoint - 1e-12


class TestInfoFromFidelity:
    def test_perfect_fidelity_is_one_bit(self):
        assert info_from_fidelity(1.0) == 1.0
        assert info_from_fidelity(0.0) == 1.0

    def test_coin_flip_fidelity_is_zero_bits(self):
        assert info_from_fidelity(0.5) == 0.0

    def test_intermediate_fidelity_value(self):
        assert info_from_fidelity(oracles.FID_INTERMEDIATE) == pytest.approx(
            oracles.INFO_INTERMEDIATE, abs=1e-15
        )

    @given(probabilities)
    def test_complement_symmetry(self, fidelity):
        assert info_from_fidelity(fidelity) == pytest.approx(
            info_from_fidelity(1.0 - fidelity), abs=1e-12
        )

    @given(probabilities)
    def test_bounded(self, fidelity):
        assert 0.0 <= info_from_fidelity(fidelity) <= 1.0

    def test_monotone_above_half(self):
        grid = np.linspace(0.5, 1.0, 64)
        values = [info_from_fidelity(f) for f in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestJointCounts:
    def test_total(self):
        counts = JointCounts(np.array([[3, 1], [2, 4]]))
        assert counts.total == 10

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            JointCounts(np.array([[1, -1], [0, 0]]))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            JointCounts(np.array([1, 2, 3, 4]))


class TestMutualInformation:
    def test_perfectly_correlated_is_one_bit(self):
        assert mutual_information(np.array([[50, 0], [0, 50]])) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_independent_is_zero_bits(self):
        assert mutual_information(np.array([[25, 25], [25, 25]])) == 0.0

    def test_anticorrelated_is_one_bit(self):
        assert mutual_information(np.array([[0, 70], [70, 0]])) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_symmetric_channel_table(self):
        # table with exact proportions for fidelity 0.853553 out of 2e6
        table = np.array([[853553, 146447], [146447, 853553]])
        assert mutual_information(table) == pytest.approx(
            oracles.INFO_TABLE_853553, abs=1e-12
        )

    def test_exact_proportions_match_analytic_info(self):
        # when counts are exact expected proportions of a symmetric channel
        # the plug-in estimate reproduces info_from_fidelity
        n = 2_000_000
        for fidelity in (0.6, 0.75, 0.853553, 0.9, 1.0):
            agree = round(n * fidelity / 2)
            disagree = n // 2 - agree
            table = np.array([[agree, disagree], [disagree, agree]])
            assert mutual_information(table) == pytest.approx(
                info_from_fidelity(fidelity), abs=1e-12
            )

    def test_single_count_is_zero(self):
        table = np.array([[1, 0], [0, 0]])
        assert mutual_information(table) == 0.0

    def test_rejects_empty_table(self):
        with pytest.raises(ValueError):
            mutual_information(np.zeros((2, 2), dtype=np.int64))

    def test_accepts_joint_counts_wrapper(self):
        table = np.array([[10, 2], [3, 9]])
        assert mutual_information(JointCounts(table)) == mutual_information(table)

    @given(
        st.lists(st.integers(min_value=0, max_value=10_000), min_size=4, max_size=4)
    )
    def test_bounded_for_any_table(self, flat):
        table = np.array(flat).reshape(2, 2)
        if table.sum() == 0:
            return
        value = mutual_information(table)
        assert 0.0 <= value <= 1.0

    @given(
        st.lists(st.integers(min_value=0, max_value=10_000), min_size=4, max_size=4)
    )
    def test_invariant_under_transpose(self, flat):
        table = np.array(flat).reshape(2, 2)
        if table.sum() == 0:
            return
        assert mutual_information(table) == pytest.approx(
            mutual_information(table.T), abs=1e-12
        )
