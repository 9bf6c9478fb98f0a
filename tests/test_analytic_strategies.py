"""Tests for the closed-form eavesdropping curves.

Every fidelity formula is also checked against measurement probabilities
computed by the state-vector layer, so the two routes to each number stay
independent.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from reference import project
from bb84eve.analytic_strategies import (
    BasisStats,
    CurvePoint,
    StrategyReport,
    ancilla_no_memory,
    ancilla_with_memory,
    closed_form,
    curve_sweep,
    intercept_resend,
)
from bb84eve.attacks import (
    ALPHA_MAX,
    ANCILLA_NO_MEMORY,
    ANCILLA_WITH_MEMORY,
    FAMILIES,
    INTERCEPT_RESEND,
    PHI_MAX,
    AncillaNoMemory,
    AncillaWithMemory,
    InterceptResend,
    NoAttack,
    parameters,
    sweep_grid,
)
from bb84eve.infotheory import info_from_fidelity
from bb84eve.quantum_core import (
    EquatorBasis,
    Outcome,
    apply_eve_unitary,
    joint_outcome_probabilities,
    outcome_probabilities,
)

PHI_GRID = np.linspace(0.0, PHI_MAX, 50)
ALPHA_GRID = np.linspace(0.0, ALPHA_MAX, 50)

angles = st.floats(min_value=0.0, max_value=PHI_MAX, allow_nan=False)
alphas = st.floats(min_value=0.0, max_value=ALPHA_MAX, allow_nan=False)


def intercept_bob_fidelity(phi: float, alice_basis: EquatorBasis) -> float:
    """Bob fidelity after a phi-basis interception, from state vectors only."""
    eve_basis = EquatorBasis(phi)
    state = alice_basis.eigenstate(Outcome.PLUS)
    total = 0.0
    for eve_outcome in (Outcome.PLUS, Outcome.MINUS):
        p_eve = outcome_probabilities(state, eve_basis)[eve_outcome.bit]
        if p_eve <= 1e-15:
            continue
        forwarded = project(state, eve_basis, eve_outcome)
        p_bob = outcome_probabilities(forwarded, alice_basis)[0]
        total += p_eve * p_bob
    return total


class TestBasisStats:
    def test_disturbance_complements_fidelity(self):
        stats = BasisStats(0.8)
        assert stats.disturbance == pytest.approx(0.2, abs=1e-15)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            BasisStats(1.2)


class TestInterceptResend:
    def test_aligned_basis_reads_x_perfectly(self):
        report = intercept_resend(0.0)
        assert report.eve_x.fidelity == 1.0
        assert report.eve_y.fidelity == 0.5
        assert report.eve_avg_info == 0.5

    def test_intermediate_basis_balances_both(self):
        report = intercept_resend(PHI_MAX)
        assert report.eve_x.fidelity == pytest.approx(
            oracles.FID_INTERMEDIATE, abs=1e-15
        )
        assert report.eve_y.fidelity == pytest.approx(
            oracles.FID_INTERMEDIATE, abs=1e-15
        )
        assert report.eve_avg_info == pytest.approx(
            oracles.INFO_INTERMEDIATE, abs=1e-15
        )

    def test_bob_overall_fidelity_is_invariant(self):
        for phi in PHI_GRID:
            report = intercept_resend(phi)
            assert report.bob_overall.fidelity == pytest.approx(0.75, abs=1e-12)

    def test_bob_info_at_three_quarters(self):
        report = intercept_resend(0.1)
        assert report.bob_info == pytest.approx(oracles.INFO_BOB_3_4, abs=1e-12)

    def test_eve_fidelity_formulas(self):
        for phi in PHI_GRID:
            report = intercept_resend(phi)
            assert report.eve_x.fidelity == pytest.approx(
                (1.0 + math.cos(phi)) / 2.0, abs=1e-15
            )
            assert report.eve_y.fidelity == pytest.approx(
                (1.0 + math.sin(phi)) / 2.0, abs=1e-15
            )

    def test_bob_compounding_matches_state_vectors(self):
        for phi in PHI_GRID:
            report = intercept_resend(phi)
            assert report.bob_x.fidelity == pytest.approx(
                intercept_bob_fidelity(phi, EquatorBasis.x()), abs=1e-12
            )
            assert report.bob_y.fidelity == pytest.approx(
                intercept_bob_fidelity(phi, EquatorBasis.y()), abs=1e-12
            )

    def test_eve_info_matches_symmetrized_average(self):
        # the four preparation cases collapse to two because the companion
        # angle swaps the roles of x and y
        for phi in PHI_GRID:
            report = intercept_resend(phi)
            companion = math.pi / 2 - phi
            four_way = (
                info_from_fidelity((1.0 + math.cos(phi)) / 2.0)
                + info_from_fidelity((1.0 + math.sin(phi)) / 2.0)
                + info_from_fidelity((1.0 + math.cos(companion)) / 2.0)
                + info_from_fidelity((1.0 + math.sin(companion)) / 2.0)
            ) / 4.0
            assert report.eve_avg_info == pytest.approx(four_way, abs=1e-12)

    def test_rejects_angle_outside_octant(self):
        for bad in (-0.01, PHI_MAX + 0.01):
            with pytest.raises(ValueError):
                intercept_resend(bad)


class TestInterceptResendCurve:
    def test_full_interception_aligned(self):
        point = closed_form(InterceptResend(0.0, 1.0))
        assert point.d_bob == 0.25
        assert point.i_eve == 0.5
        assert point.strategy == INTERCEPT_RESEND

    def test_no_interception_is_free(self):
        point = closed_form(InterceptResend(0.3, 0.0))
        assert point.d_bob == 0.0
        assert point.i_eve == 0.0

    def test_half_interception_intermediate(self):
        point = closed_form(InterceptResend(PHI_MAX, 0.5))
        assert point.d_bob == pytest.approx(0.125, abs=1e-15)
        assert point.i_eve == pytest.approx(
            oracles.INFO_INTERMEDIATE_HALF, abs=1e-15
        )

    def test_disturbance_scales_linearly(self):
        fractions = np.linspace(0.0, 1.0, 11)
        points = [closed_form(InterceptResend(0.2, f)) for f in fractions]
        for point, fraction in zip(points, fractions):
            assert point.d_bob == pytest.approx(fraction / 4.0, abs=1e-15)
            assert point.fraction == fraction

    def test_bob_info_reflects_fractional_disturbance(self):
        point = closed_form(InterceptResend(0.0, 0.5))
        assert point.i_bob == pytest.approx(
            info_from_fidelity(1.0 - 0.125), abs=1e-12
        )

    def test_rejects_fraction_outside_unit_interval(self):
        with pytest.raises(ValueError):
            closed_form(InterceptResend(0.0, 1.5))


class TestAncillaWithMemory:
    def test_idle_probe_learns_nothing(self):
        report = ancilla_with_memory(0.0)
        assert report.bob_overall.fidelity == 1.0
        assert report.eve_avg_info == 0.0

    def test_full_swap_learns_everything(self):
        report = ancilla_with_memory(ALPHA_MAX)
        assert report.bob_overall.fidelity == 0.5
        assert report.eve_avg_info == 1.0

    def test_pi_third_point(self):
        report = ancilla_with_memory(math.pi / 3)
        assert report.bob_overall.disturbance == pytest.approx(0.25, abs=1e-15)
        assert report.eve_x.fidelity == pytest.approx(
            oracles.FID_MEMORY_PI3, abs=1e-15
        )
        assert report.eve_avg_info == pytest.approx(
            oracles.INFO_MEMORY_PI3, abs=1e-14
        )

    def test_fidelities_match_state_vectors(self):
        # Bob's fidelity is the signal marginal of the post-probe state and
        # Eve's is the probe marginal measured in the preparation basis
        for alpha in ALPHA_GRID:
            report = ancilla_with_memory(alpha)
            basis = EquatorBasis.y()
            joint = apply_eve_unitary(basis.eigenstate(Outcome.PLUS), alpha)
            table = joint_outcome_probabilities(joint, basis, basis)
            assert report.bob_overall.fidelity == pytest.approx(
                table[0].sum(), abs=1e-12
            )
            assert report.eve_y.fidelity == pytest.approx(
                table[:, 0].sum(), abs=1e-12
            )
            assert report.eve_avg_info == pytest.approx(
                info_from_fidelity((1.0 + math.sin(alpha)) / 2.0), abs=1e-12
            )

    @given(alphas)
    def test_info_grows_with_disturbance(self, alpha):
        low = ancilla_with_memory(alpha * 0.5)
        high = ancilla_with_memory(alpha)
        assert high.eve_avg_info >= low.eve_avg_info - 1e-12

    def test_rejects_angle_outside_quadrant(self):
        with pytest.raises(ValueError):
            ancilla_with_memory(-0.1)


class TestAncillaNoMemory:
    def test_idle_probe_learns_nothing(self):
        report = ancilla_no_memory(0.0, 0.3)
        assert report.eve_avg_info == 0.0
        assert report.bob_overall.fidelity == 1.0

    def test_full_swap_equals_interception(self):
        # at alpha = pi/2 the probe holds the signal state exactly, so the
        # readout statistics coincide with a direct interception at phi
        for phi in PHI_GRID:
            swap = ancilla_no_memory(ALPHA_MAX, phi)
            direct = intercept_resend(phi)
            assert swap.eve_x.fidelity == pytest.approx(
                direct.eve_x.fidelity, abs=1e-12
            )
            assert swap.eve_y.fidelity == pytest.approx(
                direct.eve_y.fidelity, abs=1e-12
            )
            assert swap.eve_avg_info == pytest.approx(
                direct.eve_avg_info, abs=1e-12
            )

    def test_eve_fidelities_match_state_vectors(self):
        for alpha in np.linspace(0.0, ALPHA_MAX, 10):
            for phi in np.linspace(0.0, PHI_MAX, 10):
                report = ancilla_no_memory(alpha, phi)
                probe_basis = EquatorBasis(phi)
                x_joint = apply_eve_unitary(
                    EquatorBasis.x().eigenstate(Outcome.PLUS), alpha
                )
                x_table = joint_outcome_probabilities(
                    x_joint, EquatorBasis.x(), probe_basis
                )
                assert report.eve_x.fidelity == pytest.approx(
                    x_table[:, 0].sum(), abs=1e-12
                )
                y_joint = apply_eve_unitary(
                    EquatorBasis.y().eigenstate(Outcome.PLUS), alpha
                )
                y_table = joint_outcome_probabilities(
                    y_joint, EquatorBasis.y(), probe_basis
                )
                assert report.eve_y.fidelity == pytest.approx(
                    y_table[:, 0].sum(), abs=1e-12
                )

    def test_bob_stats_do_not_depend_on_probe_basis(self):
        for alpha in np.linspace(0.0, ALPHA_MAX, 10):
            reports = [ancilla_no_memory(alpha, phi) for phi in (0.0, 0.2, PHI_MAX)]
            expected = (1.0 + math.cos(alpha)) / 2.0
            for report in reports:
                assert report.bob_overall.fidelity == pytest.approx(
                    expected, abs=1e-15
                )

    def test_memory_dominates_on_grid(self):
        # reading the probe immediately can never beat storing it
        for alpha in ALPHA_GRID:
            stored = ancilla_with_memory(alpha).eve_avg_info
            for phi in np.linspace(0.0, PHI_MAX, 10):
                assert ancilla_no_memory(alpha, phi).eve_avg_info <= stored + 1e-12

    def test_rejects_bad_angles(self):
        with pytest.raises(ValueError):
            ancilla_no_memory(ALPHA_MAX + 0.1, 0.0)
        with pytest.raises(ValueError):
            ancilla_no_memory(0.5, PHI_MAX + 0.1)


class TestStrategyReportInvariants:
    @given(angles)
    def test_intercept_fidelity_disturbance_split(self, phi):
        report = intercept_resend(phi)
        for stats in (report.eve_x, report.eve_y, report.bob_x, report.bob_y):
            assert stats.fidelity + stats.disturbance == pytest.approx(
                1.0, abs=1e-12
            )

    @given(angles)
    def test_bob_overall_is_basis_average(self, phi):
        report = intercept_resend(phi)
        average = (report.bob_x.fidelity + report.bob_y.fidelity) / 2.0
        assert report.bob_overall.fidelity == pytest.approx(average, abs=1e-12)

    @given(alphas, angles)
    def test_no_memory_info_is_basis_average(self, alpha, phi):
        report = ancilla_no_memory(alpha, phi)
        average = (
            info_from_fidelity(report.eve_x.fidelity)
            + info_from_fidelity(report.eve_y.fidelity)
        ) / 2.0
        assert report.eve_avg_info == pytest.approx(average, abs=1e-12)


class TestOptimalAngle:
    """phi = 0 maximises Eve's information for both phi families.

    Per basis she holds 1 - h((1 + x)/2) = sum_k x^(2k) / (2k(2k-1) ln 2)
    at x = s cos(phi) and x = s sin(phi); the k = 1 terms add up to a value
    free of phi and every higher term carries cos^(2k) + sin^(2k) <= 1.
    """

    @given(alphas, angles)
    def test_no_memory_info_peaks_at_phi_zero(self, alpha, phi):
        peak = ancilla_no_memory(alpha, 0.0).eve_avg_info
        assert peak >= ancilla_no_memory(alpha, phi).eve_avg_info - 1e-15

    @given(angles)
    def test_interception_info_peaks_at_phi_zero(self, phi):
        peak = intercept_resend(0.0).eve_avg_info
        assert peak >= intercept_resend(phi).eve_avg_info - 1e-15


def fggnp_bound(d_bob: float) -> float:
    """Most information an individual attack on BB84 gives Eve at d_bob.

    Fuchs, Gisin, Griffiths, Niu & Peres, PRA 56, 1163 (1997):
    I_eve <= 1 - h(1/2 + sqrt(D (1 - D))), written out here so that it
    shares no code with the package.
    """
    p = min(0.5 + math.sqrt(d_bob * (1.0 - d_bob)), 1.0)
    return 1.0 if p == 1.0 else 1.0 + p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p)


class TestFuchsGisinBound:
    """The stored probe is the optimal individual attack; the others stay below it."""

    @given(alphas)
    def test_stored_probe_meets_the_bound(self, alpha):
        report = ancilla_with_memory(alpha)
        assert report.eve_avg_info == pytest.approx(
            fggnp_bound(report.bob_overall.disturbance), abs=1e-12
        )

    @given(alphas, angles)
    def test_memoryless_probe_stays_below(self, alpha, phi):
        report = ancilla_no_memory(alpha, phi)
        assert report.eve_avg_info <= fggnp_bound(report.bob_overall.disturbance) + 1e-12

    @given(angles, st.floats(min_value=0.0, max_value=1.0))
    def test_interception_stays_below(self, phi, fraction):
        point = closed_form(InterceptResend(phi, fraction))
        assert point.i_eve <= fggnp_bound(point.d_bob) + 1e-12


class TestClosedForm:
    @given(alphas, angles, st.floats(min_value=0.0, max_value=1.0))
    def test_agrees_with_each_family_function(self, alpha, phi, fraction):
        # intercepting a fraction f scales the full interception's values by f
        cases = [
            (INTERCEPT_RESEND, InterceptResend(phi, fraction), intercept_resend(phi), fraction),
            (ANCILLA_NO_MEMORY, AncillaNoMemory(alpha, phi), ancilla_no_memory(alpha, phi), 1.0),
            (ANCILLA_WITH_MEMORY, AncillaWithMemory(alpha), ancilla_with_memory(alpha), 1.0),
        ]
        for name, attack, report, scale in cases:
            point = closed_form(attack)
            assert (point.strategy, point.phi, point.alpha, point.fraction) == (name, *parameters(attack))
            assert point.d_bob == pytest.approx(scale * report.bob_overall.disturbance, abs=1e-12)
            assert point.i_eve == scale * report.eve_avg_info
            assert point.i_bob == pytest.approx(info_from_fidelity(1.0 - point.d_bob), abs=1e-12)

    def test_clean_channel_has_no_curve(self):
        with pytest.raises(ValueError):
            closed_form(NoAttack())


class TestCurveSweep:
    def test_strategy_labels(self):
        assert tuple(FAMILIES) == (
            INTERCEPT_RESEND,
            ANCILLA_NO_MEMORY,
            ANCILLA_WITH_MEMORY,
        )

    def test_intercept_sweep_spans_fractions(self):
        points = curve_sweep(INTERCEPT_RESEND, 0.0, grid=11)
        assert len(points) == 11
        assert points[0].d_bob == 0.0
        assert points[-1].d_bob == 0.25
        assert all(p.phi == 0.0 for p in points)

    def test_no_memory_sweep_spans_alpha(self):
        points = curve_sweep(ANCILLA_NO_MEMORY, PHI_MAX, grid=11)
        assert len(points) == 11
        assert points[0].d_bob == 0.0
        assert points[-1].d_bob == 0.5
        assert points[-1].i_eve == pytest.approx(
            oracles.INFO_INTERMEDIATE, abs=1e-12
        )

    def test_with_memory_sweep_needs_no_phi(self):
        points = curve_sweep(ANCILLA_WITH_MEMORY, grid=5)
        assert points[0].i_eve == 0.0
        assert points[-1].i_eve == 1.0
        assert all(p.phi is None for p in points)

    def test_points_sorted_by_disturbance(self):
        points = curve_sweep(ANCILLA_WITH_MEMORY, grid=33)
        d_values = [p.d_bob for p in points]
        assert d_values == sorted(d_values)

    def test_explicit_values_override_grid(self):
        points = curve_sweep(INTERCEPT_RESEND, 0.1, values=[0.5])
        assert len(points) == 1
        assert points[0].fraction == 0.5

    @pytest.mark.parametrize("strategy", [INTERCEPT_RESEND, ANCILLA_WITH_MEMORY])
    def test_grid_equals_linspace_bit_for_bit(self, strategy):
        stop = 1.0 if strategy == INTERCEPT_RESEND else ALPHA_MAX
        for grid in range(2001):
            assert sweep_grid(strategy, grid) == np.linspace(0.0, stop, grid).tolist()

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError):
            curve_sweep("teleport", 0.0)

    def test_rejects_missing_phi(self):
        with pytest.raises(ValueError):
            curve_sweep(ANCILLA_NO_MEMORY)

    def test_rejects_phi_for_memory_strategy(self):
        with pytest.raises(ValueError):
            curve_sweep(ANCILLA_WITH_MEMORY, 0.1)

    def test_curve_point_fields(self):
        point = CurvePoint(
            strategy=INTERCEPT_RESEND,
            phi=0.0,
            alpha=None,
            fraction=1.0,
            d_bob=0.25,
            i_eve=0.5,
            i_bob=oracles.INFO_BOB_3_4,
        )
        assert point.i_bob == pytest.approx(oracles.INFO_BOB_3_4, abs=1e-15)
