"""Acceptance gate: the nine headline claims, one printed line per criterion.

Each criterion prints a pass/fail line; a terminal-summary hook in conftest
repeats the lines after the run so they stay visible under output capture.
Analytic statements are held to 1e-12 (or the stated digit tolerance), Monte
Carlo statements to four standard errors with an absolute floor of 0.003, at
one million rounds per run.
"""

import functools
import math

import numpy as np

import conftest
import oracles
from reference import X_BASIS, Y_BASIS, project
from bb84eve.analytic_strategies import (
    ancilla_no_memory,
    ancilla_with_memory,
    closed_form,
    intercept_resend,
)
from bb84eve.attacks import AncillaNoMemory, AncillaWithMemory, InterceptResend
from bb84eve.protocol_sim import run_protocol
from bb84eve.quantum_core import (
    EquatorBasis,
    Outcome,
    apply_eve_unitary,
    joint_outcome_probabilities,
    make_bb84_state,
    outcome_probabilities,
)
from bb84eve.report_cli import main as cli_main

N_ROUNDS = 1_000_000
ANALYTIC_TOL = 1e-12
MC_FLOOR = 0.003
PHI_GRID_50 = np.linspace(0.0, math.pi / 4, 50)


def criterion(number: int, title: str):
    """Print one pass/fail line per criterion and record it for the summary."""

    def record(status: str) -> None:
        conftest.ACCEPTANCE_RESULTS.append((number, status, title))
        print(f"[criterion {number}] {status}  {title}")

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                record("FAIL")
                raise
            record("PASS")

        return wrapper

    return decorate


def within_mc(value: float, target: float, se: float) -> bool:
    """Whether value lies within 4 SE of target, or within MC_FLOOR.

    On a rate, the 4-SE window alarms more often than a normal's 6.3e-5 per
    row: up to 1.24e-3 at p = 0.00616, n = 5000, with the Wald SE at the
    estimate (test_protocol_sim.py::TestFourSeFalseAlarms).
    """
    return abs(value - target) <= max(4.0 * se, MC_FLOOR)


@criterion(1, "full interception pins Bob's overall fidelity at 3/4")
def test_criterion_1_bob_fidelity_invariant():
    for phi in PHI_GRID_50:
        report = intercept_resend(phi)
        assert abs(report.bob_overall.fidelity - 0.75) < ANALYTIC_TOL
    for phi, seed in ((0.0, 101), (math.pi / 4, 102)):
        est, _ = run_protocol(N_ROUNDS, InterceptResend(phi=phi), seed=seed)
        assert abs(est.qber - 0.25) <= 4.0 * est.qber_se, (phi, est.qber)


@criterion(2, "aligned-basis interception earns exactly half a bit")
def test_criterion_2_aligned_basis_half_bit():
    report = intercept_resend(0.0)
    assert abs(report.eve_avg_info - 0.5) < ANALYTIC_TOL
    est, _ = run_protocol(N_ROUNDS, InterceptResend(phi=0.0), seed=201)
    assert within_mc(est.eve_mutual_info, 0.5, est.eve_mutual_info_se)


@criterion(3, "intermediate-basis interception earns 0.399124 bits")
def test_criterion_3_intermediate_basis_value():
    report = intercept_resend(math.pi / 4)
    assert abs(report.eve_avg_info - oracles.INFO_INTERMEDIATE) < 5e-6
    assert 0.39 <= report.eve_avg_info < 0.40
    est, _ = run_protocol(N_ROUNDS, InterceptResend(phi=math.pi / 4), seed=301)
    assert within_mc(
        est.eve_mutual_info, oracles.INFO_INTERMEDIATE, est.eve_mutual_info_se
    )


@criterion(4, "partial interception scales information linearly in the fraction")
def test_criterion_4_fractional_linearity():
    for phi_index, phi in enumerate((0.0, math.pi / 4)):
        report = intercept_resend(phi)
        per_round, disturbance = report.eve_avg_info, report.bob_overall.disturbance
        for step in range(1, 11):
            fraction = step / 10.0
            seed = 400 + 20 * phi_index + step
            attack = InterceptResend(phi=phi, fraction=fraction)
            est, _ = run_protocol(N_ROUNDS, attack, seed=seed)
            assert abs(est.qber - fraction * disturbance) <= 4.0 * est.qber_se, (phi, fraction, est.qber)
            target = fraction * per_round
            assert within_mc(est.eve_mutual_info, target, est.eve_mutual_info_se), (
                phi,
                fraction,
                est.eve_mutual_info,
                target,
            )


@criterion(5, "stored probe spans (0,0) to (1/2,1) and hits the pi/3 waypoint")
def test_criterion_5_stored_probe_curve():
    idle = ancilla_with_memory(0.0)
    assert idle.bob_overall.disturbance == 0.0
    assert idle.eve_avg_info == 0.0
    swap = ancilla_with_memory(math.pi / 2)
    assert swap.bob_overall.disturbance == 0.5
    assert swap.eve_avg_info == 1.0
    est, _ = run_protocol(N_ROUNDS, AncillaWithMemory(alpha=math.pi / 3), seed=501)
    assert within_mc(est.eve_fidelity_x, oracles.FID_MEMORY_PI3, est.eve_fidelity_x_se)
    assert within_mc(est.eve_fidelity_y, oracles.FID_MEMORY_PI3, est.eve_fidelity_y_se)
    assert within_mc(est.eve_mutual_info, oracles.INFO_MEMORY_PI3, est.eve_mutual_info_se)
    # the full swap hands Eve every bit: her guesses never miss
    est, _ = run_protocol(N_ROUNDS, AncillaWithMemory(alpha=math.pi / 2), seed=502)
    assert abs(est.qber - 0.5) <= 4.0 * est.qber_se
    assert est.eve_fidelity_x == est.eve_fidelity_y == 1.0
    assert abs(est.eve_mutual_info - 1.0) <= 4.0 * est.eve_mutual_info_se


@criterion(6, "an immediately read full-swap probe is a direct interception")
def test_criterion_6_swap_equals_interception():
    for phi in PHI_GRID_50:
        probe = ancilla_no_memory(math.pi / 2, phi)
        direct = intercept_resend(phi)
        assert abs(probe.eve_x.fidelity - direct.eve_x.fidelity) < ANALYTIC_TOL
        assert abs(probe.eve_y.fidelity - direct.eve_y.fidelity) < ANALYTIC_TOL
        assert abs(probe.eve_avg_info - direct.eve_avg_info) < ANALYTIC_TOL
    for phi_index, phi in enumerate((0.0, math.pi / 8, math.pi / 4)):
        probe_est, _ = run_protocol(
            N_ROUNDS,
            AncillaNoMemory(alpha=math.pi / 2, phi=phi),
            seed=601 + phi_index,
        )
        direct_est, _ = run_protocol(
            N_ROUNDS, InterceptResend(phi=phi), seed=611 + phi_index
        )
        for est, report in ((probe_est, ancilla_no_memory(math.pi / 2, phi)), (direct_est, intercept_resend(phi))):
            assert abs(est.qber - report.bob_overall.disturbance) <= 4.0 * est.qber_se, (phi, est.qber)
            assert within_mc(est.eve_mutual_info, report.eve_avg_info, est.eve_mutual_info_se), phi
        pairs = [
            (
                probe_est.eve_mutual_info,
                probe_est.eve_mutual_info_se,
                direct_est.eve_mutual_info,
                direct_est.eve_mutual_info_se,
            ),
            (
                probe_est.eve_fidelity_x,
                probe_est.eve_fidelity_x_se,
                direct_est.eve_fidelity_x,
                direct_est.eve_fidelity_x_se,
            ),
            (
                probe_est.eve_fidelity_y,
                probe_est.eve_fidelity_y_se,
                direct_est.eve_fidelity_y,
                direct_est.eve_fidelity_y_se,
            ),
        ]
        for a, a_se, b, b_se in pairs:
            combined = math.hypot(a_se, b_se)
            assert abs(a - b) <= max(4.0 * combined, MC_FLOOR), (phi, a, b)


@criterion(7, "without memory, fractional interception beats the ancilla probe")
def test_criterion_7_memoryless_hierarchy():
    phi_grid = np.arange(0.0, math.pi / 4 + 1e-12, math.pi / 64)
    d_grid = [round(0.01 * k, 2) for k in range(1, 26)]
    for d_bob in d_grid:
        fraction = 4.0 * d_bob
        best_intercept = max(
            closed_form(InterceptResend(phi, fraction)).i_eve for phi in phi_grid
        )
        alpha = math.acos(1.0 - 2.0 * d_bob)
        best_probe = max(
            ancilla_no_memory(alpha, phi).eve_avg_info for phi in phi_grid
        )
        assert best_intercept >= best_probe - 1e-15, d_bob
        if d_bob < 0.25:
            assert best_intercept - best_probe > 1e-4, d_bob


@criterion(8, "every analytic fidelity equals an independent Born-rule probability")
def test_criterion_8_born_rule_equivalence():
    x_basis, y_basis = X_BASIS, Y_BASIS

    def intercept_bob(phi, prep_basis):
        probe = EquatorBasis(phi)
        state = make_bb84_state(prep_basis, Outcome.PLUS)
        total = 0.0
        for outcome in (Outcome.PLUS, Outcome.MINUS):
            p_eve = outcome_probabilities(state, probe)[outcome.value]
            if p_eve <= 1e-15:
                continue
            forwarded = project(state, probe, outcome)
            total += p_eve * outcome_probabilities(forwarded, prep_basis)[0]
        return total

    for phi in PHI_GRID_50:
        report = intercept_resend(phi)
        probe = EquatorBasis(phi)
        x_state = make_bb84_state(x_basis, Outcome.PLUS)
        y_state = make_bb84_state(y_basis, Outcome.PLUS)
        assert abs(
            report.eve_x.fidelity - outcome_probabilities(x_state, probe)[0]
        ) < ANALYTIC_TOL
        assert abs(
            report.eve_y.fidelity - outcome_probabilities(y_state, probe)[0]
        ) < ANALYTIC_TOL
        assert abs(report.bob_x.fidelity - intercept_bob(phi, x_basis)) < ANALYTIC_TOL
        assert abs(report.bob_y.fidelity - intercept_bob(phi, y_basis)) < ANALYTIC_TOL

    for alpha in np.linspace(0.0, math.pi / 2, 50):
        report = ancilla_with_memory(alpha)
        for basis, stats in ((x_basis, report.eve_x), (y_basis, report.eve_y)):
            joint = apply_eve_unitary(make_bb84_state(basis, Outcome.PLUS), alpha)
            table = joint_outcome_probabilities(joint, basis, basis)
            assert abs(report.bob_overall.fidelity - table[0].sum()) < ANALYTIC_TOL
            assert abs(stats.fidelity - table[:, 0].sum()) < ANALYTIC_TOL

        for phi in np.linspace(0.0, math.pi / 4, 10):
            probe_report = ancilla_no_memory(alpha, phi)
            probe_basis = EquatorBasis(phi)
            for basis, stats, bob_stats in (
                (x_basis, probe_report.eve_x, probe_report.bob_x),
                (y_basis, probe_report.eve_y, probe_report.bob_y),
            ):
                joint = apply_eve_unitary(make_bb84_state(basis, Outcome.PLUS), alpha)
                table = joint_outcome_probabilities(joint, basis, probe_basis)
                assert abs(stats.fidelity - table[:, 0].sum()) < ANALYTIC_TOL
                assert abs(bob_stats.fidelity - table[0].sum()) < ANALYTIC_TOL


@criterion(9, "the command line is byte-deterministic, including under threads")
def test_criterion_9_cli_determinism(tmp_path):
    args = [
        "simulate",
        "--strategy",
        "intercept_resend",
        "--phi",
        "pi/4",
        "--rounds",
        str(N_ROUNDS),
        "--seed",
        "901",
    ]
    outputs = []
    for name, extra in (
        ("first.csv", ["--jobs", "1"]),
        ("second.csv", ["--jobs", "1"]),
        ("threaded.csv", ["--jobs", "4"]),
    ):
        out = tmp_path / name
        assert cli_main(args + ["--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0] == outputs[2]

    analytic = ["analytic", "--strategy", "all"]
    a1, a2 = tmp_path / "a1.csv", tmp_path / "a2.csv"
    assert cli_main(analytic + ["--out", str(a1)]) == 0
    assert cli_main(analytic + ["--out", str(a2)]) == 0
    assert a1.read_bytes() == a2.read_bytes()

    compare = ["compare", "--d-bob", "0.2"]
    c1, c2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
    assert cli_main(compare + ["--out", str(c1)]) == 0
    assert cli_main(compare + ["--out", str(c2)]) == 0
    assert c1.read_bytes() == c2.read_bytes()
