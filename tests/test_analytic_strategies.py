"""Tests for the closed-form eavesdropping curves.

Every fidelity formula is also checked against measurement probabilities
computed by the state-vector layer, so the two routes to each number stay
independent.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from reference import PREPARED, X_BASIS, Y_BASIS, instrument_point, project, weak_x_instrument
from bb84eve.analytic_strategies import (
    BasisStats,
    CurvePoint,
    ancilla_no_memory,
    ancilla_with_memory,
    closed_form,
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
    check_range,
    from_fields,
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
                intercept_bob_fidelity(phi, X_BASIS), abs=1e-12
            )
            assert report.bob_y.fidelity == pytest.approx(
                intercept_bob_fidelity(phi, Y_BASIS), abs=1e-12
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
            basis = Y_BASIS
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
                    X_BASIS.eigenstate(Outcome.PLUS), alpha
                )
                x_table = joint_outcome_probabilities(
                    x_joint, X_BASIS, probe_basis
                )
                assert report.eve_x.fidelity == pytest.approx(
                    x_table[:, 0].sum(), abs=1e-12
                )
                y_joint = apply_eve_unitary(
                    Y_BASIS.eigenstate(Outcome.PLUS), alpha
                )
                y_table = joint_outcome_probabilities(
                    y_joint, Y_BASIS, probe_basis
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


def sweep(strategy: str, phi=None, grid: int = 101) -> list[CurvePoint]:
    """A family's curve the way the CLI builds it: closed_form of each config of the grid."""
    family = FAMILIES[strategy]
    return [closed_form(from_fields(family, {"phi": phi, family.swept: v, "symmetrize": True}))
            for v in sweep_grid(strategy, grid)]


class TestCurveSweep:
    def test_strategy_labels(self):
        assert tuple(FAMILIES) == (
            INTERCEPT_RESEND,
            ANCILLA_NO_MEMORY,
            ANCILLA_WITH_MEMORY,
        )

    def test_intercept_sweep_spans_fractions(self):
        points = sweep(INTERCEPT_RESEND, 0.0, grid=11)
        assert len(points) == 11
        assert points[0].d_bob == 0.0
        assert points[-1].d_bob == 0.25
        assert all(p.phi == 0.0 for p in points)

    def test_no_memory_sweep_spans_alpha(self):
        points = sweep(ANCILLA_NO_MEMORY, PHI_MAX, grid=11)
        assert len(points) == 11
        assert points[0].d_bob == 0.0
        assert points[-1].d_bob == 0.5
        assert points[-1].i_eve == pytest.approx(
            oracles.INFO_INTERMEDIATE, abs=1e-12
        )

    def test_with_memory_sweep_needs_no_phi(self):
        points = sweep(ANCILLA_WITH_MEMORY, grid=5)
        assert points[0].i_eve == 0.0
        assert points[-1].i_eve == 1.0
        assert all(p.phi is None for p in points)

    def test_points_sorted_by_disturbance(self):
        # d_bob rises with the swept value, so the grid's order is the curve's
        for strategy, phi in [(INTERCEPT_RESEND, 0.1), (ANCILLA_NO_MEMORY, 0.1), (ANCILLA_WITH_MEMORY, None)]:
            d_values = [p.d_bob for p in sweep(strategy, phi, grid=33)]
            assert d_values == sorted(d_values), strategy

    def test_explicit_values_override_grid(self):
        point = closed_form(from_fields(InterceptResend, {"phi": 0.1, "fraction": 0.5, "symmetrize": True}))
        assert (point.phi, point.fraction) == (0.1, 0.5)

    @pytest.mark.parametrize("strategy", [INTERCEPT_RESEND, ANCILLA_WITH_MEMORY])
    def test_grid_equals_linspace_bit_for_bit(self, strategy):
        stop = 1.0 if strategy == INTERCEPT_RESEND else ALPHA_MAX
        for grid in range(2001):
            assert sweep_grid(strategy, grid) == np.linspace(0.0, stop, grid).tolist()

    def test_rejects_unknown_strategy(self):
        with pytest.raises(KeyError):
            sweep_grid("teleport", 3)

    def test_rejects_missing_phi(self):
        fields = {"phi": None, "alpha": 0.5, "fraction": None, "symmetrize": True}
        for family in (InterceptResend, AncillaNoMemory):
            with pytest.raises(ValueError, match=r"^phi must lie in \[0, pi/4\], got None$"):
                from_fields(family, fields)
        assert from_fields(AncillaWithMemory, fields) == AncillaWithMemory(0.5)

    @pytest.mark.parametrize("value", [None, "0.5", [0.5], complex(0.5)])
    def test_range_check_rejects_a_non_number(self, value):
        with pytest.raises(ValueError, match=rf"^alpha must lie in \[0, pi/2\], got {re.escape(repr(value))}$"):
            check_range("alpha", value)
        with pytest.raises(ValueError, match="^phi must lie"):
            AncillaNoMemory(0.5, value)

    @pytest.mark.parametrize("name, cls", FAMILIES.items())
    def test_each_family_is_its_config_class(self, name, cls):
        assert cls in (InterceptResend, AncillaNoMemory, AncillaWithMemory)
        assert cls.name == name
        assert cls.swept in cls.__slots__
        if cls.default is not None:
            check_range(cls.swept, cls.default)

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


def _kraus_eigenstates(angle: float) -> list[np.ndarray]:
    """|+angle> and |-angle> in raw amplitudes."""
    return [np.array([1, sign * np.exp(1j * angle)]) / math.sqrt(2) for sign in (1, -1)]


def i_weak(d: float) -> float:
    """Eve's information from the weak X measurement at Bob's error rate d."""
    return info_from_fidelity((1 + math.sqrt(8 * d * (1 - 2 * d))) / 2) / 2


def _isometry(m: np.ndarray) -> np.ndarray:
    """The n Kraus operators, kraus[r] = rows 2r and 2r + 1, of the isometry C^2 -> C^2n
    whose two columns Gram-Schmidt makes of m's, for m of shape (2n, 2)."""
    a, b = m.T
    a = a / np.linalg.norm(a)
    b = b - np.vdot(a, b) * a
    return np.stack([a, b / np.linalg.norm(b)], axis=-1).reshape(-1, 2, 2)


def _ascend(m: np.ndarray, lam: float) -> np.ndarray:
    """m after 40 steps of gradient ascent of i_eve - lam * d_bob over its real and imaginary parts.

    The gradient comes from central differences, all scored in one call;
    the step doubles after a gain and halves until it finds one.
    """
    h = 1e-6
    moves = np.concatenate([np.eye(m.size), 1j * np.eye(m.size)]).reshape(-1, *m.shape) * h

    def gain(ms):
        d_bob, i_eve = instrument_point([_isometry(x) for x in ms])
        return i_eve - lam * d_bob

    best, step = gain([m])[0], 0.05
    for _ in range(40):
        ends = gain([*(m + moves), *(m - moves)])
        grad = np.tensordot((ends[: len(moves)] - ends[len(moves) :]) / (2 * h), moves / h, axes=1)
        grad /= max(1.0, np.linalg.norm(grad))
        while step > 1e-12:
            value = gain([m + step * grad])[0]
            if value > best:
                m, best, step = m + step * grad, value, 2 * step
                break
            step /= 2
    return m


class TestMemorylessFrontier:
    """An instrument oracle, in raw numpy, scores any attack Eve reads before the reveal.

    It reproduces the closed forms of the two memoryless families, then shows
    that compare's best_memoryless ranks the listed families only: the weak
    measurement of X beats fractional interception everywhere inside (0, 1/4).
    """

    GRID = np.linspace(0.01, 0.24, 249)

    @given(angles, st.floats(min_value=0.0, max_value=1.0), st.booleans())
    def test_interception_instrument_matches_closed_form(self, phi, fraction, symmetrize):
        slots = (phi, math.pi / 2 - phi) if symmetrize else (phi,)
        kraus = [math.sqrt(fraction / len(slots)) * np.outer(e, e.conj())
                 for t in slots for e in _kraus_eigenstates(t)]
        kraus.append(math.sqrt(1 - fraction) * np.eye(2))
        point = closed_form(InterceptResend(phi, fraction, symmetrize))
        assert instrument_point(kraus) == pytest.approx((point.d_bob, point.i_eve), abs=1e-12)

    @given(alphas, angles, st.booleans())
    def test_probe_instrument_matches_closed_form(self, alpha, phi, symmetrize):
        # K_e = (I (x) <e|) U_alpha |0>, one outcome per slot and ancilla reading
        slots = (phi, math.pi / 2 - phi) if symmetrize else (phi,)
        kraus = [np.array([[bra[0], math.sin(alpha) * bra[1]], [0, math.cos(alpha) * bra[0]]])
                 / math.sqrt(len(slots)) for t in slots for bra in map(np.conj, _kraus_eigenstates(t))]
        point = closed_form(AncillaNoMemory(alpha, phi, symmetrize))
        assert instrument_point(kraus) == pytest.approx((point.d_bob, point.i_eve), abs=1e-12)

    def test_weak_measurement_is_the_probe_at_twice_the_disturbance(self):
        for d in [0.0, *self.GRID, 0.25]:
            assert instrument_point(weak_x_instrument(d)) == pytest.approx((d, i_weak(d)), abs=1e-12)
            assert ancilla_no_memory(math.acos(1 - 4 * d), 0.0).eve_avg_info == pytest.approx(
                i_weak(d), abs=1e-12)

    def test_weak_measurement_passes_x_states_untouched(self):
        for d in (0.05, 0.2):
            for state in PREPARED[0]:
                images = weak_x_instrument(d) @ state  # images[r] = K_r |state>
                kept = np.abs(images @ state.conj()) ** 2
                assert kept == pytest.approx(np.sum(np.abs(images) ** 2, axis=1), abs=1e-15)

    def test_weak_measurement_beats_fractional_interception_inside_its_domain(self):
        assert min(i_weak(d) - 2 * d for d in self.GRID) > 1e-4
        for end in (0.0, 0.25):
            assert i_weak(end) == pytest.approx(2 * end, abs=1e-12)
            assert closed_form(InterceptResend(0.0, 4 * end)).i_eve == pytest.approx(2 * end, abs=1e-12)

    def test_weak_measurement_stays_under_the_fggnp_bound(self):
        # Fuchs, Gisin, Griffiths, Niu and Peres, PRA 56, 1163 (1997)
        for d in [0.0, *self.GRID, 0.25]:
            assert i_weak(d) <= info_from_fidelity(0.5 + math.sqrt(d * (1 - d))) + 1e-12

    @pytest.mark.parametrize("lam", [2.0, 2.885, 4.0])
    def test_searched_instruments_stay_under_the_weak_measurement(self, lam):
        # seeded Haar-random instruments with 2-4 outcomes (the QR of a
        # complex Gaussian matrix), each climbed on i_eve - lam * d_bob; 2.885
        # is near i_weak's slope 2/ln 2 at 0, where the climb ends near d = 0
        rng = np.random.default_rng(1997)
        found = []
        for outcomes in (2, 3, 4):
            for _ in range(2):
                gaussian = rng.normal(size=(2, 2 * outcomes, 2))
                start = np.linalg.qr(gaussian[0] + 1j * gaussian[1])[0]
                found += [start, _ascend(start, lam)]
        points = [instrument_point(_isometry(m)) for m in found]
        # beyond d = 1/4 the frontier stays at i_weak(1/4) = 1/2: I(A;R) over
        # two conjugate bases sums to at most 1 bit (Hall, PRL 74, 3307 (1995))
        assert max(i_eve - i_weak(min(d_bob, 0.25)) for d_bob, i_eve in points) <= 1e-9
        # and the climb reaches the frontier, so the search is not vacuous
        frontier = max(i_weak(d) - lam * d for d in np.linspace(0.0, 0.25, 20_001))
        assert max(i_eve - lam * d_bob for d_bob, i_eve in points) > frontier - 1e-4

    def test_compare_row_at_an_eighth(self):
        assert i_weak(0.125) == pytest.approx(0.3227, abs=5e-5)
        assert closed_form(InterceptResend(0.0, 0.5)).i_eve == pytest.approx(0.25, abs=1e-15)
