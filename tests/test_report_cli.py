"""Tests for the command-line interface and its CSV contracts."""

import argparse
import ast
import contextlib
import csv
import errno
import gc
import io
import math
import os
import stat
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import manifest
import oracles
from conftest import package_env
from reference import reference_trace_text
from bb84eve import protocol_sim
from bb84eve.attacks import FAMILIES, AncillaWithMemory, InterceptResend, NoAttack
from bb84eve.protocol_sim import run_protocol
from bb84eve.report_cli import (
    ANALYTIC_HEADER,
    COMPARE_HEADER,
    EXIT_BROKEN_PIPE,
    EXIT_INSUFFICIENT_SAMPLE,
    EXIT_INTERRUPTED,
    EXIT_OK,
    EXIT_USAGE,
    MAX_GRID,
    SIMULATE_HEADER,
    TRACE_HEADER,
    UsageError,
    _attacks,
    _build_parser,
    _TraceWriter,
    _write_all,
    cmd_analytic_curves,
    cmd_compare,
    cmd_simulate,
    cli,
    main,
    parse_angle,
)

GOLDEN = Path(__file__).parent / "golden"


def parse(*argv: str):
    """The parsed arguments of one command line."""
    return _build_parser().parse_args(argv)


def rows_of(csv_text: str) -> list[list[str]]:
    lines = csv_text.splitlines()
    return [line.split(",") for line in lines[1:]]


def subcommands() -> dict[str, argparse.ArgumentParser]:
    """The parser of each subcommand, by name."""
    (action,) = (a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return dict(action.choices)


def strategy_choices(command: str) -> tuple:
    (action,) = (a for a in subcommands()[command]._actions if a.dest == "strategy")
    return tuple(action.choices)


class TestParseAngle:
    def test_plain_number(self):
        assert parse_angle("0.25") == 0.25

    def test_pi(self):
        assert parse_angle("pi") == pytest.approx(math.pi)

    def test_pi_fraction(self):
        assert parse_angle("pi/4") == pytest.approx(math.pi / 4)

    def test_scaled_pi(self):
        assert parse_angle("3pi/8") == pytest.approx(3 * math.pi / 8)
        assert parse_angle("0.5*pi") == pytest.approx(math.pi / 2)

    def test_zero(self):
        assert parse_angle("0") == 0.0

    def test_plain_fraction_without_pi(self):
        assert parse_angle("1/2") == 0.5

    def test_rejects_garbage(self):
        for bad in ("", "pie", "pi/", "--1", "1/pi", "nan", "inf", "-inf", "1e", "e3", "1e999", "1e400/2", "1/1e400"):
            with pytest.raises(ValueError):
                parse_angle(bad)

    @pytest.mark.parametrize("flag", ["--phi", "--alpha"])
    @pytest.mark.parametrize("text, reason", [
        ("pi/0", "zero divisor in angle 'pi/0'"),
        ("1e309", "angle '1e309' is not finite"),
        ("pie", "cannot parse angle 'pie'"),
    ])
    def test_flag_error_names_its_reason(self, capsys, flag, text, reason):
        assert main(["analytic", "--strategy", "ancilla_no_memory", flag, text]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"bb84eve analytic: error: argument {flag}: {reason}\n")

    def test_exponent_literals(self):
        assert parse_angle("1e-3") == 1e-3
        assert parse_angle("2.5E-07pi/4e0") == 2.5e-07 * math.pi / 4.0
        assert parse_angle("-.5e+1") == -5.0

    @given(st.floats(0.0, math.pi / 2))
    @example(5e-324)
    @example(2.49999979163e-07)
    @example(math.pi / 2)
    def test_csv_values_round_trip(self, x):
        # the CSV prints values with .12g; both it and repr read back exactly
        for s in (format(x, ".12g"), repr(x)):
            assert parse_angle(s) == float(s)


class TestAnalyticCommand:
    def test_golden_all_strategies(self):
        args = parse("analytic", "--strategy", "all")
        produced = cmd_analytic_curves(args)
        assert produced == (GOLDEN / "analytic_curves_101.csv").read_text()

    def test_header_and_shape(self):
        args = parse("analytic", "--strategy", "all")
        lines = cmd_analytic_curves(args).splitlines()
        assert lines[0] == ANALYTIC_HEADER
        assert len(lines) == 1 + 5 * 101

    def test_intercept_grid_collapses_to_given_fraction(self):
        args = parse("analytic", "--strategy", "intercept_resend", "--phi", "0", "--fraction", "1")
        lines = cmd_analytic_curves(args).splitlines()
        assert len(lines) == 2
        assert lines[1] == "intercept_resend,0,,1,0.25,0.5,0.188721875541"

    def test_with_memory_needs_no_angles(self):
        # the sweep is uniform in alpha, so grid=3 lands on 0, pi/4, pi/2
        args = parse("analytic", "--strategy", "ancilla_with_memory", "--grid", "3")
        rows = rows_of(cmd_analytic_curves(args))
        assert [r[4] for r in rows] == ["0", "0.146446609407", "0.5"]
        assert [r[5] for r in rows] == ["0", "0.399123963307", "1"]
        assert all(r[1] == "" and r[3] == "" for r in rows)

    def test_with_memory_single_point_at_pi_third(self):
        args = parse("analytic", "--strategy", "ancilla_with_memory", "--alpha", "pi/3")
        rows = rows_of(cmd_analytic_curves(args))
        assert len(rows) == 1
        assert float(rows[0][4]) == pytest.approx(0.25, abs=1e-12)
        assert float(rows[0][5]) == pytest.approx(oracles.INFO_MEMORY_PI3, abs=1e-12)

    def test_no_memory_single_point(self):
        args = parse("analytic", "--strategy", "ancilla_no_memory", "--phi", "pi/4", "--alpha", "pi/2")
        rows = rows_of(cmd_analytic_curves(args))
        assert len(rows) == 1
        assert float(rows[0][5]) == pytest.approx(
            oracles.INFO_INTERMEDIATE, abs=1e-12
        )

    def test_rows_sorted_by_disturbance_within_strategy(self):
        args = parse("analytic", "--strategy", "intercept_resend", "--phi", "0.1", "--grid", "17")
        rows = rows_of(cmd_analytic_curves(args))
        d_values = [float(r[4]) for r in rows]
        assert d_values == sorted(d_values)

    def test_document_round_trips_byte_identically(self):
        args = parse("analytic", "--strategy", "all")
        first = cmd_analytic_curves(args)
        second = cmd_analytic_curves(args)
        assert first == second
        assert first.endswith("\n")
        assert "\r" not in first


class TestSimulateCommand:
    def test_golden_intercept_run(self):
        args = parse("simulate", "--strategy", "intercept_resend", "--phi", "pi/4", "--rounds", "20000", "--seed", "7")
        produced = cmd_simulate(args)
        assert produced == (GOLDEN / "simulate_intercept_20k.csv").read_text()

    def test_header(self):
        args = parse("simulate", "--strategy", "none", "--rounds", "5000", "--seed", "0")
        lines = cmd_simulate(args).splitlines()
        assert lines[0] == SIMULATE_HEADER

    def test_clean_channel_row(self):
        args = parse("simulate", "--strategy", "none", "--rounds", "5000", "--seed", "0")
        row = rows_of(cmd_simulate(args))[0]
        assert row[0] == "none"
        assert row[6] == "0"  # qber
        assert row[8] == ""  # no eavesdropper, no mutual information
        assert row[10] == "" and row[11] == ""

    def test_fraction_sweep_uses_per_row_seeds(self):
        args = parse(
            "simulate", "--strategy", "intercept_resend", "--phi", "0", "--grid", "3",
            "--rounds", "5000", "--seed", "100",
        )
        rows = rows_of(cmd_simulate(args))
        assert [r[3] for r in rows] == ["0", "0.5", "1"]
        assert [r[5] for r in rows] == ["100", "101", "102"]

    def test_trace_output_shape(self):
        args = parse("simulate", "--strategy", "ancilla_with_memory", "--alpha", "1", "--rounds", "400", "--seed", "3")
        stream = io.StringIO()
        csv_text = cmd_simulate(args, on_trace=_TraceWriter(stream))
        assert csv_text.splitlines()[0] == SIMULATE_HEADER
        trace_lines = stream.getvalue().splitlines()
        assert trace_lines[0] == TRACE_HEADER
        assert len(trace_lines) == 401
        first = trace_lines[1].split(",")
        assert first[0] == "0"
        assert first[4] == "revealed"

    def test_rejects_strategy_angle_mismatch(self):
        from bb84eve.report_cli import UsageError

        with pytest.raises(UsageError):
            cmd_simulate(
                parse("simulate", "--strategy", "none", "--phi", "0.1", "--rounds", "1000")
            )
        with pytest.raises(UsageError):
            cmd_simulate(
                parse(
                    "simulate", "--strategy", "intercept_resend", "--phi", "0", "--alpha", "0.5",
                    "--rounds", "1000",
                )
            )


class TestFamilyFlags:
    """The refusal of each flag a family does not take, or needs and lacks."""

    REFUSALS = [
        pytest.param("intercept_resend", [], "intercept_resend requires --phi", id="intercept-phi"),
        pytest.param("intercept_resend", ["--phi", "0", "--alpha", "0.5"],
                     "intercept_resend takes no --alpha", id="intercept-alpha"),
        pytest.param("intercept_resend", ["--fraction", "0.5"], "intercept_resend requires --phi",
                     id="intercept-fraction"),
        pytest.param("ancilla_no_memory", ["--alpha", "0.5"], "ancilla_no_memory requires --phi",
                     id="no_memory-alpha"),
        pytest.param("ancilla_no_memory", ["--fraction", "0.5"], "ancilla_no_memory requires --phi",
                     id="no_memory-fraction-without-phi"),
        pytest.param("ancilla_no_memory", ["--phi", "0", "--alpha", "0.5", "--fraction", "0.5"],
                     "ancilla_no_memory takes no --fraction", id="no_memory-fraction"),
        pytest.param("ancilla_with_memory", ["--phi", "0"], "ancilla_with_memory takes no --phi",
                     id="with_memory-phi"),
        pytest.param("ancilla_with_memory", ["--phi", "0", "--alpha", "0.5", "--fraction", "0.5"],
                     "ancilla_with_memory takes no --phi", id="with_memory-phi-first"),
        pytest.param("ancilla_with_memory", ["--alpha", "0.5", "--fraction", "0.5"],
                     "ancilla_with_memory takes no --fraction", id="with_memory-fraction"),
    ]
    # analytic has no --no-symmetrize; simulate refuses it where Eve has no phi to alternate
    SIMULATE_REFUSALS = [
        pytest.param("none", ["--no-symmetrize"], "none takes no --no-symmetrize", id="none-no_symmetrize"),
        pytest.param("ancilla_with_memory", ["--alpha", "pi/3", "--no-symmetrize"],
                     "ancilla_with_memory takes no --no-symmetrize", id="with_memory-no_symmetrize"),
    ]

    @pytest.mark.parametrize("command", ["analytic", "simulate"])
    @pytest.mark.parametrize("strategy, flags, message", REFUSALS)
    def test_refusal_is_one_error_line(self, capsys, command, strategy, flags, message):
        rounds = ["--rounds", "1000"] if command == "simulate" else []
        assert main([command, "--strategy", strategy, *flags, *rounds]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    @pytest.mark.parametrize("strategy, flags, message", SIMULATE_REFUSALS)
    def test_simulate_refusal_is_one_error_line(self, capsys, strategy, flags, message):
        self.test_refusal_is_one_error_line(capsys, "simulate", strategy, flags, message)

    @pytest.mark.parametrize("strategy, flags", [
        ("intercept_resend", ["--phi", "pi/8"]),
        ("ancilla_no_memory", ["--phi", "pi/8", "--alpha", "0.5"]),
    ])
    def test_no_symmetrize_reaches_the_families_with_phi(self, strategy, flags):
        args = parse("simulate", "--strategy", strategy, *flags, "--rounds", "1000", "--no-symmetrize")
        (attack,) = _attacks(args, default_grid=None)
        assert attack.symmetrize is False

    def test_strategy_choices_are_the_families(self):
        assert strategy_choices("analytic") == (*FAMILIES, "all")
        assert strategy_choices("simulate") == ("none", *FAMILIES)


class TestCompareCommand:
    def test_header_and_row_count(self):
        args = parse("compare", "--d-bob", "0.25")
        lines = cmd_compare(args).splitlines()
        assert lines[0] == COMPARE_HEADER
        assert len(lines) == 8

    def test_quarter_disturbance_values(self):
        args = parse("compare", "--d-bob", "0.25")
        by_key = {
            (r[0], r[1]): r for r in rows_of(cmd_compare(args))
        }
        stored = by_key[("ancilla_with_memory", "")]
        assert float(stored[5]) == pytest.approx(oracles.INFO_MEMORY_PI3, abs=1e-12)
        aligned = by_key[("intercept_resend", "0")]
        assert float(aligned[5]) == pytest.approx(0.5, abs=1e-12)
        assert aligned[6] == "true"
        assert aligned[7] == "true"
        assert stored[7] == ""

    def test_memoryless_flag_goes_to_single_best_row(self):
        args = parse("compare", "--d-bob", "0.18")
        rows = rows_of(cmd_compare(args))
        flagged = [r for r in rows if r[7] == "true"]
        assert len(flagged) == 1
        assert flagged[0][0] in ("intercept_resend", "ancilla_no_memory")
        best = max(
            float(r[5])
            for r in rows
            if r[0] != "ancilla_with_memory" and r[5] != ""
        )
        assert float(flagged[0][5]) == best

    def test_interception_out_of_domain_above_quarter(self):
        args = parse("compare", "--d-bob", "0.4")
        rows = rows_of(cmd_compare(args))
        intercept_rows = [r for r in rows if r[0] == "intercept_resend"]
        assert intercept_rows, "interception rows must still be listed"
        for row in intercept_rows:
            assert row[6] == "false"
            assert row[5] == ""

    def test_stored_probe_dominates_in_domain_rows(self):
        for d_bob in (0.05, 0.125, 0.25):
            rows = rows_of(cmd_compare(parse("compare", "--d-bob", repr(d_bob))))
            stored = next(float(r[5]) for r in rows if r[0] == "ancilla_with_memory")
            for row in rows:
                if row[0] != "ancilla_with_memory" and row[5] != "":
                    assert float(row[5]) <= stored + 1e-12

    def test_tiny_disturbance_opt_row_sits_at_phi_zero(self):
        # a phi grid search lands on rounding noise here; the optimum is phi = 0
        by_key = {(r[0], r[1]): r for r in rows_of(cmd_compare(parse("compare", "--d-bob", "1e-9")))}
        opt = by_key[("ancilla_no_memory_opt", "0")]
        assert opt[5] == by_key[("ancilla_no_memory", "0")][5]

    def test_opt_rows_repeat_the_phi_zero_rows(self):
        for d_bob in (1e-6, 0.05, 0.25, 0.4):
            rows = rows_of(cmd_compare(parse("compare", "--d-bob", repr(d_bob))))
            by_name = {}
            for r in rows:
                if r[1] in ("0", ""):
                    by_name.setdefault(r[0], r)
            for family in ("intercept_resend", "ancilla_no_memory"):
                opt, aligned = by_name[family + "_opt"], by_name[family]
                assert opt[2:7] == aligned[2:7]

    def test_rejects_out_of_range_disturbance(self):
        from bb84eve.report_cli import UsageError

        with pytest.raises(UsageError):
            cmd_compare(parse("compare", "--d-bob", "0.75"))


class TestMainEntryPoint:
    def test_analytic_to_file(self, tmp_path):
        out = tmp_path / "curves.csv"
        code = main(
            ["analytic", "--strategy", "intercept_resend", "--phi", "0", "--out", str(out)]
        )
        assert code == EXIT_OK
        assert out.read_text().splitlines()[0] == ANALYTIC_HEADER

    def test_analytic_to_stdout(self, capsys):
        assert main(["analytic", "--strategy", "ancilla_with_memory", "--grid", "2"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0] == ANALYTIC_HEADER

    def test_simulate_writes_trace_file(self, tmp_path):
        out = tmp_path / "run.csv"
        trace = tmp_path / "trace.csv"
        code = main(
            [
                "simulate",
                "--strategy",
                "intercept_resend",
                "--phi",
                "pi/4",
                "--rounds",
                "2000",
                "--seed",
                "11",
                "--out",
                str(out),
                "--trace",
                str(trace),
            ]
        )
        assert code == EXIT_OK
        assert trace.read_text().splitlines()[0] == TRACE_HEADER
        assert len(trace.read_text().splitlines()) == 2001

    def test_usage_errors_exit_two(self, capsys):
        cases = [
            ["simulate", "--strategy", "intercept_resend", "--rounds", "1000"],
            ["simulate", "--strategy", "bogus", "--rounds", "1000"],
            ["analytic", "--strategy", "intercept_resend", "--phi", "pi"],
            ["compare", "--d-bob", "0.9"],
            ["analytic", "--strategy", "ancilla_no_memory"],
            ["simulate", "--strategy", "none", "--phi", "0", "--rounds", "1000"],
            ["simulate", "--strategy", "none", "--alpha", "0.5", "--rounds", "1000"],
            ["simulate", "--strategy", "none", "--fraction", "0.5", "--rounds", "1000"],
            ["simulate", "--strategy", "none", "--grid", "3", "--rounds", "1000"],
            ["simulate", "--strategy", "intercept_resend", "--phi", "0", "--alpha", "0.5",
             "--rounds", "1000"],
            ["analytic", "--strategy", "intercept_resend", "--phi", "0", "--alpha", "0.5"],
            ["simulate", "--strategy", "ancilla_no_memory", "--phi", "0", "--alpha", "0.5",
             "--fraction", "0.5", "--rounds", "1000"],
            ["analytic", "--strategy", "ancilla_no_memory", "--phi", "0", "--fraction", "0.5"],
            ["simulate", "--strategy", "ancilla_with_memory", "--alpha", "0.5",
             "--fraction", "0.5", "--rounds", "1000"],
            ["analytic", "--strategy", "ancilla_with_memory", "--fraction", "0.5"],
            ["simulate", "--strategy", "ancilla_with_memory", "--phi", "0", "--alpha", "0.5",
             "--rounds", "1000"],
            ["analytic", "--strategy", "ancilla_with_memory", "--phi", "0"],
            ["simulate", "--strategy", "intercept_resend", "--phi", "0", "--fraction", "0.5",
             "--grid", "3", "--rounds", "1000"],
            ["simulate", "--strategy", "ancilla_no_memory", "--phi", "0", "--alpha", "0.5",
             "--grid", "3", "--rounds", "1000"],
            ["simulate", "--strategy", "ancilla_with_memory", "--alpha", "0.5", "--grid", "3",
             "--rounds", "1000"],
            ["simulate", "--strategy", "ancilla_no_memory", "--phi", "0", "--rounds", "1000"],
            ["simulate", "--strategy", "ancilla_with_memory", "--rounds", "1000"],
            ["analytic", "--strategy", "all", "--phi", "0"],
            ["analytic", "--strategy", "all", "--alpha", "0.5"],
            ["analytic", "--strategy", "all", "--fraction", "0.5"],
            ["analytic", "--strategy", "intercept_resend", "--phi", "0", "--fraction", "0.5",
             "--grid", "3"],
            ["analytic", "--strategy", "ancilla_with_memory", "--alpha", "0.5", "--grid", "7"],
        ]
        for argv in cases:
            assert main(argv) == EXIT_USAGE, argv
            capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["analytic", "--strategy", "intercept_resend", "--phi", "0"],
            ["simulate", "--strategy", "ancilla_with_memory", "--rounds", "1000"],
        ],
    )
    def test_grid_is_capped_before_any_row(self, monkeypatch, capsys, argv):
        import bb84eve.report_cli as report_cli

        assert len(_attacks(parse(*argv, "--grid", str(MAX_GRID)), default_grid=None)) == MAX_GRID
        with pytest.raises(UsageError, match="--grid"):
            _attacks(parse(*argv, "--grid", str(MAX_GRID + 1)), default_grid=None)

        def no_row(*args, **kwargs):
            raise AssertionError("a row was built")

        monkeypatch.setattr(report_cli, "sweep_grid", no_row)
        assert main([*argv, "--grid", str(MAX_GRID + 1)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --grid must lie in [1, {MAX_GRID}], got {MAX_GRID + 1}\n"

    @pytest.mark.parametrize(
        "command, argv",
        [
            ("cmd_analytic_curves", ["analytic", "--strategy", "all"]),
            ("cmd_simulate", ["simulate", "--strategy", "none", "--rounds", "1000"]),
            ("cmd_compare", ["compare", "--d-bob", "0.1"]),
        ],
    )
    def test_interrupt_exits_130_with_one_line(self, tmp_path, monkeypatch, capsys, command, argv):
        import bb84eve.report_cli as report_cli

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(report_cli, command, interrupted)
        out = tmp_path / "out.csv"
        out.write_text("kept\n")
        assert main([*argv, "--out", str(out)]) == EXIT_INTERRUPTED
        assert main(argv) == EXIT_INTERRUPTED
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: interrupted\n" * 2
        assert out.read_text() == "kept\n" and os.listdir(tmp_path) == ["out.csv"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["analytic", "--strategy", "ancilla_with_memory", "--grid", "3"],
            ["simulate", "--strategy", "none", "--rounds", "1000", "--trace", "/dev/stdout"],
            ["--help"],
            ["simulate", "--help"],
        ],
    )
    def test_closed_pipe_exits_141_quietly(self, argv):
        # stdout is buffered, as by default, so --help meets the closed pipe at its flush
        env = package_env()
        env.pop("PYTHONUNBUFFERED", None)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run([sys.executable, "-m", "bb84eve", *argv], stdout=write_end,
                                    stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (EXIT_BROKEN_PIPE, b"")

    def run_help(self, stdout, unbuffered: bool) -> subprocess.CompletedProcess:
        """bb84eve --help with the given stdout, its stream buffered or not."""
        env = package_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        return subprocess.run([sys.executable, "-m", "bb84eve", "--help"], stdout=stdout,
                              stderr=subprocess.PIPE, env=env, timeout=60)

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
    def test_help_into_a_full_device_exits_2_with_one_line(self, unbuffered):
        with open("/dev/full", "wb") as full:
            result = self.run_help(full, unbuffered)
        assert result.returncode == EXIT_USAGE
        assert result.stderr.decode() == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_help_into_a_closed_pipe_exits_141_quietly(self, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = self.run_help(write_end, unbuffered)
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (EXIT_BROKEN_PIPE, b"")

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "argv, status",
        [
            (["analytic", "--strategy", "all", "--grid", "0"], EXIT_USAGE),
            (["simulate", "--strategy", "none", "--rounds", "50"], EXIT_INSUFFICIENT_SAMPLE),
        ],
    )
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
    def test_error_into_a_full_stderr_keeps_the_exit_status(self, argv, status, unbuffered):
        # the error line is dropped, as argparse drops its usage line, and the status
        # stays: a buffered stderr keeps no bytes for the flush at exit to fail on
        env = package_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "wb") as full:
            result = subprocess.run([sys.executable, "-m", "bb84eve", *argv], stdout=subprocess.PIPE,
                                    stderr=full, env=env, timeout=60)
        assert (result.returncode, result.stdout) == (status, b"")

    def test_interrupt_into_a_failing_stderr_exits_130(self, monkeypatch):
        import bb84eve.report_cli as report_cli

        class Failing(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(report_cli, "cmd_compare", interrupted)
        monkeypatch.setattr(sys, "stderr", Failing())
        assert main(["compare", "--d-bob", "0.1"]) == EXIT_INTERRUPTED

    def test_reader_leaving_mid_csv_exits_141_quietly(self):
        # the CSV, about 4 MB, is one write that the pipe takes only in part
        argv = ["analytic", "--strategy", "all", "--grid", str(MAX_GRID)]
        proc = subprocess.Popen([sys.executable, "-m", "bb84eve", *argv], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=package_env())
        try:
            proc.stdout.readline()
            proc.stdout.close()  # as `| head -1` does, long before the CSV ends
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()
        assert (code, err) == (EXIT_BROKEN_PIPE, b"")

    def test_reader_leaving_mid_trace_exits_141_quietly(self):
        argv = ["simulate", "--strategy", "none", "--rounds", "200000", "--trace", "/dev/stdout"]
        proc = subprocess.Popen([sys.executable, "-m", "bb84eve", *argv], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=package_env())
        try:
            header = proc.stdout.readline()
            proc.stdout.close()  # as `| head -1` does, long before the trace ends
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()
        assert header.decode() == TRACE_HEADER + "\n"
        assert (code, err) == (EXIT_BROKEN_PIPE, b"")

    def test_compare_takes_no_grid(self, capsys):
        assert main(["compare", "--d-bob", "0.1", "--grid", "5"]) == EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize("flag", ["--out", "--trace"])
    def test_unwritable_output_exits_two(self, tmp_path, capsys, flag):
        argv = ["simulate", "--strategy", "none", "--rounds", "1000"]
        assert main(argv + [flag, str(tmp_path / "missing" / "run.csv")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert err.rstrip().endswith("run.csv'") and ".tmp" not in err

    @pytest.mark.parametrize("flag", ["--out", "--trace"])
    def test_output_path_checked_before_any_row(self, tmp_path, monkeypatch, capsys, flag):
        import bb84eve.report_cli as report_cli

        calls = []
        monkeypatch.setattr(report_cli, "run_protocol", lambda *a, **k: calls.append(a))
        argv = ["simulate", "--strategy", "none", "--rounds", "1000", flag, str(tmp_path)]
        assert main(argv) == EXIT_USAGE
        assert calls == []
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert os.listdir(tmp_path) == []

    def test_seed_range_checked_before_any_row(self, monkeypatch, capsys):
        import bb84eve.report_cli as report_cli

        calls = []
        monkeypatch.setattr(report_cli, "run_protocol", lambda *a, **k: calls.append(a))
        argv = ["simulate", "--strategy", "intercept_resend", "--phi", "0", "--grid", "3",
                "--rounds", "1000", "--seed", str(2**64 - 2)]
        assert main(argv) == EXIT_USAGE
        assert calls == []
        capsys.readouterr()

    @pytest.mark.parametrize("rounds, jobs", [(2**63, "1"), (10**30, "2")])
    def test_rounds_beyond_int64_key_counts_exit_two(self, tmp_path, monkeypatch, capsys, rounds, jobs):
        import bb84eve.report_cli as report_cli

        calls = []
        monkeypatch.setattr(report_cli, "run_protocol", lambda *a, **k: calls.append(a))
        argv = ["simulate", "--strategy", "none", "--rounds", str(rounds), "--jobs", jobs,
                "--out", str(tmp_path / "run.csv")]
        assert main(argv) == EXIT_USAGE
        assert calls == [] and os.listdir(tmp_path) == []
        assert capsys.readouterr() == ("", f"error: --rounds must be below 2**63, got {rounds}\n")

    def test_small_sample_exits_three(self, tmp_path, capsys):
        out, trace = tmp_path / "run.csv", tmp_path / "trace.csv"
        out.write_text("previous\n")
        argv = ["simulate", "--strategy", "none", "--rounds", "60", "--seed", "0",
                "--out", str(out), "--trace", str(trace)]
        assert main(argv) == EXIT_INSUFFICIENT_SAMPLE
        assert capsys.readouterr().out == ""
        # both outputs were open during the run; neither is left changed
        assert out.read_text() == "previous\n"
        assert os.listdir(tmp_path) == ["run.csv"]

    def test_failed_out_write_keeps_existing_output(self, tmp_path, monkeypatch, capsys):
        import bb84eve.report_cli as report_cli

        out = tmp_path / "run.csv"
        out.write_text("previous\n")
        # a lone surrogate cannot be encoded, so the write fails after the
        # output file was opened; a truncating open would leave it empty
        monkeypatch.setattr(report_cli, "cmd_analytic_curves", lambda args: "partial\n\ud800")
        assert main(["analytic", "--strategy", "all", "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
        assert out.read_text() == "previous\n"
        assert os.listdir(tmp_path) == ["run.csv"]

    def test_failed_trace_write_keeps_existing_trace(self, tmp_path, monkeypatch, capsys):
        import bb84eve.report_cli as report_cli

        trace = tmp_path / "trace.csv"
        trace.write_text("previous\n")

        def fail(code, eve_labels):
            raise OSError("disk full")

        monkeypatch.setattr(report_cli, "_trace_cells", fail)
        argv = ["simulate", "--strategy", "none", "--rounds", "1000", "--trace", str(trace)]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == "error: disk full\n"
        assert trace.read_text() == "previous\n"
        assert os.listdir(tmp_path) == ["trace.csv"]

    def test_write_failure_mid_stream_keeps_existing_trace(self, tmp_path, monkeypatch, capsys):
        import bb84eve.report_cli as report_cli

        trace = tmp_path / "trace.csv"
        trace.write_bytes(b"previous\n")
        blocks, write = [], report_cli._TraceWriter.__call__

        def fail_on_second_block(self, block):
            blocks.append(len(block))
            if len(blocks) == 2:
                raise OSError("disk full")
            write(self, block)

        monkeypatch.setattr(report_cli._TraceWriter, "__call__", fail_on_second_block)
        # 100000 rounds are 13 blocks, so the first block is written before the second fails
        argv = ["simulate", "--strategy", "none", "--rounds", "100000", "--trace", str(trace)]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr() == ("", "error: disk full\n")
        assert blocks == [8192, 8192]
        assert trace.read_bytes() == b"previous\n"
        assert os.listdir(tmp_path) == ["trace.csv"]

    @pytest.mark.parametrize("stdout, status", [("closed pipe", EXIT_BROKEN_PIPE), ("full device", EXIT_USAGE)])
    def test_failed_csv_write_keeps_existing_trace(self, tmp_path, stdout, status):
        # the CSV to stdout is the run's last write, so the trace replaces nothing until it is taken
        if stdout == "full device" and not os.path.exists("/dev/full"):
            pytest.skip("needs a device that is always full")
        trace = tmp_path / "trace.csv"
        trace.write_bytes(b"old\n")
        argv = ["simulate", "--strategy", "none", "--rounds", "1000", "--trace", str(trace)]
        with contextlib.ExitStack() as stack:
            if stdout == "closed pipe":
                read_end, target = os.pipe()
                os.close(read_end)
                stack.callback(os.close, target)
            else:
                target = stack.enter_context(open("/dev/full", "wb"))
            result = subprocess.run([sys.executable, "-m", "bb84eve", *argv], stdout=target,
                                    stderr=subprocess.PIPE, env=package_env(), timeout=60)
        assert result.returncode == status
        assert b"Traceback" not in result.stderr
        assert trace.read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["trace.csv"]

    def test_reader_leaving_the_trace_with_stdout_closed_exits_141(self, tmp_path, monkeypatch):
        import bb84eve.report_cli as report_cli

        def reader_left(self, block):
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

        monkeypatch.setattr(report_cli._TraceWriter, "__call__", reader_left)
        monkeypatch.setattr(sys, "stdout", None)  # as Python leaves it when descriptor 1 is closed at start-up
        monkeypatch.setattr(sys, "stderr", io.StringIO())
        out = tmp_path / "run.csv"
        out.write_bytes(b"old\n")
        argv = ["simulate", "--strategy", "none", "--rounds", "1000", "--trace", os.devnull, "--out", str(out)]
        assert main(argv) == EXIT_BROKEN_PIPE
        assert sys.stderr.getvalue() == ""
        assert out.read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["run.csv"]

    @pytest.mark.parametrize("out, trace", [("same.csv", "same.csv"), ("s2.csv", "./s2.csv"),
                                            ("new.csv", "../dir/new.csv")])
    def test_out_and_trace_on_one_file_are_refused(self, tmp_path, monkeypatch, capsys, out, trace):
        import bb84eve.report_cli as report_cli

        (tmp_path / "dir").mkdir()
        monkeypatch.chdir(tmp_path / "dir")
        old = {name: f"old {name}\n" for name in ("same.csv", "s2.csv")}
        for name, text in old.items():
            Path(name).write_text(text)
        calls = []
        monkeypatch.setattr(report_cli, "run_protocol", lambda *a, **k: calls.append(a))
        argv = ["simulate", "--strategy", "none", "--rounds", "1000", "--out", out, "--trace", trace]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and calls == []
        assert captured.err == f"error: --out and --trace name the same file: {out}\n"
        assert sorted(os.listdir()) == sorted(old)
        assert all(Path(name).read_text() == text for name, text in old.items())

    def test_out_and_trace_may_share_a_device(self, capsys):
        argv = ["simulate", "--strategy", "none", "--rounds", "1000", "--out", os.devnull, "--trace", os.devnull]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr() == ("", "")

    def test_small_sample_streams_no_trace_row(self):
        # a pipe is written through, not replaced, so nothing may reach it before the run is known to pass
        argv = ["simulate", "--strategy", "none", "--rounds", "150", "--trace", "/dev/stdout"]
        result = subprocess.run([sys.executable, "-m", "bb84eve", *argv], capture_output=True,
                                env=package_env(), timeout=60)
        assert result.returncode == EXIT_INSUFFICIENT_SAMPLE
        assert result.stdout == b"" and result.stderr.startswith(b"error: need at least 100 sifted")

    def test_written_files_leave_no_temporary_behind(self, tmp_path, capsys):
        out, trace = tmp_path / "run.csv", tmp_path / "trace.csv"
        out.write_text("previous\n")
        argv = ["simulate", "--strategy", "none", "--rounds", "1000",
                "--out", str(out), "--trace", str(trace)]
        assert main(argv) == EXIT_OK
        assert out.read_text().splitlines()[0] == SIMULATE_HEADER
        assert trace.read_text().splitlines()[0] == TRACE_HEADER
        assert sorted(os.listdir(tmp_path)) == ["run.csv", "trace.csv"]

    def test_fifo_output_is_written_through(self, tmp_path, capsys):
        argv = ["analytic", "--strategy", "intercept_resend", "--phi", "0", "--grid", "5"]
        assert main(argv) == EXIT_OK
        expected = capsys.readouterr().out
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        # a non-blocking reader lets the writer open at once; the output fits
        # in the pipe buffer, so no thread is needed to drain it
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert main(argv + ["--out", str(fifo)]) == EXIT_OK
            received = os.read(reader, 1 << 16).decode()
        finally:
            os.close(reader)
        assert received == expected
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert os.listdir(tmp_path) == ["pipe"]

    def test_symlinked_output_updates_its_target(self, tmp_path, capsys):
        real_dir, link_dir = tmp_path / "real", tmp_path / "links"
        real_dir.mkdir()
        link_dir.mkdir()
        target, link = real_dir / "run.csv", link_dir / "run.csv"
        target.write_text("previous\n")
        link.symlink_to(target)
        argv = ["simulate", "--strategy", "none", "--rounds", "1000"]
        assert main(argv + ["--out", str(link), "--trace", str(link_dir / "new.csv")]) == EXIT_OK
        assert link.is_symlink() and link.resolve() == target
        assert target.read_text().splitlines()[0] == SIMULATE_HEADER
        assert os.listdir(real_dir) == ["run.csv"]
        assert sorted(os.listdir(link_dir)) == ["new.csv", "run.csv"]

    def test_replaced_output_keeps_its_mode(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        out.write_text("previous\n")
        out.chmod(0o640)
        assert main(["compare", "--d-bob", "0.1", "--out", str(out)]) == EXIT_OK
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
        assert out.read_text().splitlines()[0] == COMPARE_HEADER

    @pytest.mark.skipif(os.geteuid() == 0, reason="root may write to any file")
    def test_read_only_output_is_refused(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        out.write_text("previous\n")
        out.chmod(0o444)
        assert main(["compare", "--d-bob", "0.1", "--out", str(out)]) == EXIT_USAGE
        assert "run.csv" in capsys.readouterr().err
        assert out.read_text() == "previous\n"
        assert os.listdir(tmp_path) == ["run.csv"]

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["analytic", "--strategy", "ancilla_with_memory"], "--alpha"),
            (["analytic", "--strategy", "intercept_resend", "--phi", "0"], "--fraction"),
            (["simulate", "--strategy", "intercept_resend", "--fraction", "0.5", "--rounds", "1000"],
             "--phi"),
        ],
    )
    def test_negative_zero_reads_as_zero(self, capsys, argv, flag):
        printed = []
        for zero in ("-0.0", "0"):
            assert main(argv + [flag, zero]) == EXIT_OK
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]

    def test_compare_to_stdout(self, capsys):
        assert main(["compare", "--d-bob", "0.25"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0] == COMPARE_HEADER

    def test_module_execution_smoke(self):
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "bb84eve",
                "analytic",
                "--strategy",
                "ancilla_with_memory",
                "--grid",
                "3",
            ],
            capture_output=True,
            text=True,
            env=package_env(),
        )
        assert result.returncode == EXIT_OK
        assert result.stdout.splitlines()[0] == ANALYTIC_HEADER


class TestProcessEntryPoint:
    """cli, which every way of starting the program runs: gc.disable, main, gc.freeze, then the exit.

    The in-process calls of cli patch gc.disable and gc.freeze, so the test
    process keeps its collector.
    """

    @pytest.fixture(autouse=True)
    def blas_variable(self, monkeypatch):
        # cli sets OPENBLAS_NUM_THREADS; monkeypatch restores the test process's value afterwards
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)

    @pytest.mark.parametrize(
        "status", [EXIT_OK, EXIT_USAGE, EXIT_INSUFFICIENT_SAMPLE, EXIT_INTERRUPTED, EXIT_BROKEN_PIPE])
    def test_exits_with_the_status_of_main(self, monkeypatch, status):
        import bb84eve.report_cli as report_cli

        monkeypatch.setattr(report_cli, "main", lambda: status)
        monkeypatch.setattr(gc, "disable", lambda: None)
        monkeypatch.setattr(gc, "freeze", lambda: None)
        with pytest.raises(SystemExit) as exit_:
            cli()
        assert exit_.value.code == status

    def test_exit_codes_are_the_documented_literals(self):
        # the README and the shell read these numbers, so they are pinned as literals, not as the constants
        assert (EXIT_OK, EXIT_USAGE, EXIT_INSUFFICIENT_SAMPLE, EXIT_INTERRUPTED, EXIT_BROKEN_PIPE) == (0, 2, 3, 130, 141)

    def test_too_few_sifted_rounds_exit_3(self):
        argv = ["simulate", "--strategy", "none", "--rounds", "50"]
        result = subprocess.run([sys.executable, "-m", "bb84eve", *argv], capture_output=True,
                                env=package_env(), timeout=60)
        assert result.returncode == 3

    def test_a_closed_output_pipe_exits_141(self):
        argv = ["analytic", "--strategy", "ancilla_with_memory", "--grid", "3"]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run([sys.executable, "-m", "bb84eve", *argv], stdout=write_end,
                                    stderr=subprocess.PIPE, env=package_env(), timeout=60)
        finally:
            os.close(write_end)
        assert result.returncode == 141

    def test_freezes_once_after_main_returns(self, monkeypatch):
        import bb84eve.report_cli as report_cli

        calls = []
        monkeypatch.setattr(report_cli, "main", lambda: calls.append("main") or EXIT_OK)
        monkeypatch.setattr(gc, "disable", lambda: calls.append("disable"))
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        with pytest.raises(SystemExit):
            cli()
        assert calls == ["disable", "main", "freeze"]

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("argv", [
        ["simulate", "--strategy", "intercept_resend", "--phi", "0", "--rounds", "2000"],
        ["analytic", "--strategy", "all", "--grid", "3"],
        ["compare", "--d-bob", "0.1"],
    ])
    def test_main_leaves_the_collector_alone(self, capsys, argv, enabled):
        frozen, was_enabled = gc.get_freeze_count(), gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert main(argv) == EXIT_OK
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert gc.get_freeze_count() == frozen

    def test_console_script_runs_cli(self):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
        project = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())["project"]
        assert project["scripts"] == {"bb84eve": "bb84eve.report_cli:cli"}

    def test_module_run_exits_two_with_one_error_line(self):
        argv = ["simulate", "--strategy", "none", "--rounds", "0"]
        result = subprocess.run([sys.executable, "-m", "bb84eve", *argv], capture_output=True,
                                text=True, env=package_env(), timeout=60)
        assert (result.returncode, result.stdout) == (EXIT_USAGE, "")
        assert result.stderr == "error: --rounds must be a positive integer\n"


class TestClosedDescriptors:
    """A standard descriptor that is closed when the process starts, as `>&-` leaves it.

    Python then sets the matching sys stream to None, and a file the process
    opens takes the lowest free number, so only a fresh process shows the
    state: each case runs in a child that closes the descriptor before exec.
    """

    @staticmethod
    def run(fd: int, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-m", "bb84eve", *argv], capture_output=True,
                              env=package_env(), timeout=60, preexec_fn=lambda: os.close(fd))

    @pytest.mark.parametrize("fd, argv, status, err", [
        (0, ["--help"], EXIT_OK, b""),
        # with stdout closed, a command that would write there refuses before any work
        (1, ["analytic", "--strategy", "all"], EXIT_USAGE, b"error: stdout is closed; give --out\n"),
        (1, ["simulate", "--strategy", "none", "--rounds", "400"], EXIT_USAGE,
         b"error: stdout is closed; give --out\n"),
        (1, ["--help"], EXIT_USAGE, b"error: stdout is closed\n"),
        # with stderr closed, an error's line is dropped and its status kept
        (2, ["analytic", "--strategy", "all", "--grid", "0"], EXIT_USAGE, b""),
    ], ids=["stdin-help", "stdout-analytic", "stdout-simulate", "stdout-help", "stderr-usage-error"])
    def test_exit_status(self, fd, argv, status, err):
        result = self.run(fd, argv)
        assert (result.returncode, result.stderr) == (status, err)
        assert result.stdout.startswith(b"usage: bb84eve") if status == EXIT_OK else result.stdout == b""

    def test_trace_to_stdout_leaves_the_csv_in_out(self, tmp_path):
        # descriptor 1 reads as /dev/null, so --out's temporary cannot take it for /dev/stdout to name
        out = tmp_path / "run.csv"
        out.write_bytes(b"old\n")
        argv = ["simulate", "--strategy", "none", "--rounds", "400", "--trace", "/dev/stdout", "--out", str(out)]
        result = self.run(1, argv)
        assert (result.returncode, result.stdout, result.stderr) == (EXIT_OK, b"", b"")
        assert out.read_text() == cmd_simulate(parse(*argv[:5]))
        assert os.listdir(tmp_path) == ["run.csv"]


class TestBlasWorkers:
    """cli keeps numpy's OpenBLAS from starting worker threads beside the --jobs share threads."""

    BLAS = "OPENBLAS_NUM_THREADS"
    # python -m bb84eve with main wrapped: it records the variable as main starts and,
    # from each _run_block call, the thread running it and the threads the process holds
    PROBE = (
        "import os, runpy, sys, threading\n"
        "import bb84eve.report_cli as report_cli\n"
        "real_main, seen, tasks, shares = report_cli.main, [], set(), set()\n"
        "def main():\n"
        "    seen.extend([os.environ.get({blas!r}), 'numpy' in sys.modules])\n"
        "    from bb84eve import protocol_sim\n"
        "    run_block = protocol_sim._run_block\n"
        "    def probe(*args):\n"
        "        shares.add(threading.get_native_id())\n"
        "        if os.path.isdir('/proc/self/task'):\n"
        "            tasks.update(map(int, os.listdir('/proc/self/task')))\n"
        "        return run_block(*args)\n"
        "    protocol_sim._run_block = probe\n"
        "    return real_main()\n"
        "report_cli.main = main\n"
        "try:\n"
        "    runpy.run_module('bb84eve', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    print(repr((exc.code, *seen, sorted(tasks), sorted(shares))))\n"
    )
    # 200000 rounds are above 65536, so each CPU up to two runs a share
    JOBS2 = ["simulate", "--strategy", "none", "--rounds", "200000", "--jobs", "2"]

    @pytest.fixture(scope="class")
    def unset_run(self):
        return self.run(self.JOBS2, None)

    def run(self, argv, blas) -> tuple:
        """(status, the variable main saw, whether numpy was loaded then, task ids, share thread ids)."""
        env = package_env()
        env.pop(self.BLAS, None)
        if blas is not None:
            env[self.BLAS] = blas
        result = subprocess.run([sys.executable, "-c", self.PROBE.format(blas=self.BLAS), *argv],
                                capture_output=True, text=True, env=env, timeout=60)
        assert result.returncode == 0, result.stderr
        return ast.literal_eval(result.stdout.splitlines()[-1])

    def test_cli_sets_one_thread_before_numpy_loads(self, unset_run):
        assert unset_run[:3] == (EXIT_OK, "1", False)

    def test_a_value_the_caller_set_is_kept(self):
        argv = ["simulate", "--strategy", "none", "--rounds", "1000"]
        assert self.run(argv, "2")[:3] == (EXIT_OK, "2", False)

    def test_main_leaves_the_environment_alone(self, monkeypatch, capsys):
        monkeypatch.delenv(self.BLAS, raising=False)
        environ = dict(os.environ)
        assert main(self.JOBS2) == EXIT_OK
        assert dict(os.environ) == environ

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
    def test_only_the_share_threads_run(self, unset_run):
        *_, tasks, shares = unset_run
        assert len(shares) == min(2, protocol_sim._usable_cpus())
        assert tasks == shares


class TestCollectorOff:
    """cli runs main with the cyclic garbage collector off, which is safe because a run's cyclic
    garbage does not grow with its work."""

    SIM = ["simulate", "--strategy", "intercept_resend", "--phi", "0"]
    # python -m bb84eve with main wrapped: it records whether the collector is on as main
    # starts, and a gc.callbacks hook the generation of each collection from then on
    PROBE = (
        "import gc, runpy\n"
        "import bb84eve.report_cli as report_cli\n"
        "real_main, enabled, passes = report_cli.main, [], []\n"
        "def hook(phase, info):\n"
        "    if enabled and phase == 'start':\n"
        "        passes.append(info['generation'])\n"
        "gc.callbacks.append(hook)\n"
        "def main():\n"
        "    enabled.append(gc.isenabled())\n"
        "    return real_main()\n"
        "report_cli.main = main\n"
        "try:\n"
        "    runpy.run_module('bb84eve', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    print(repr((exc.code, enabled, passes)))\n"
    )

    @pytest.mark.parametrize("argv", [
        # numpy's import alone ran 30-odd collections with the collector on
        [*SIM, "--grid", "11", "--rounds", "10000"],
        [*SIM, "--rounds", "200000", "--jobs", "2"],
        ["analytic", "--strategy", "all", "--grid", "101"],
    ])
    def test_main_runs_with_the_collector_off_and_no_collection_before_the_exit(self, argv):
        result = subprocess.run([sys.executable, "-c", self.PROBE, *argv], capture_output=True, text=True,
                                env=package_env(), timeout=60)
        assert result.returncode == 0, result.stderr
        assert ast.literal_eval(result.stdout.splitlines()[-1]) == (EXIT_OK, [False], [])

    @pytest.mark.parametrize("small, large, status", [
        ([*SIM, "--rounds", "1000"], [*SIM, "--rounds", "1000000"], EXIT_OK),
        ([*SIM, "--grid", "2", "--rounds", "1000"], [*SIM, "--grid", "40", "--rounds", "1000"], EXIT_OK),
        ([*SIM, "--rounds", "100000"], [*SIM, "--rounds", "300000", "--jobs", "2"], EXIT_OK),
        ([*SIM, "--fraction", "0.5", "--rounds", "1000", "--trace", "{tmp}/small.csv"],
         [*SIM, "--fraction", "0.5", "--rounds", "100000", "--trace", "{tmp}/large.csv"], EXIT_OK),
        (["analytic", "--strategy", "all", "--grid", "3"], ["analytic", "--strategy", "all", "--grid", "1001"],
         EXIT_OK),
        (["simulate", "--strategy", "none", "--rounds", "0"], [*SIM, "--grid", "20000", "--rounds", "1000"],
         EXIT_USAGE),
        (["simulate", "--strategy", "none", "--rounds", "50"], [*SIM, "--grid", "5", "--rounds", "150"],
         EXIT_INSUFFICIENT_SAMPLE),
    ])
    def test_cyclic_garbage_does_not_grow_with_the_run(self, capsys, tmp_path, small, large, status):
        def garbage(argv) -> int:
            """The objects a collection finds unreachable after main(argv) ran with the collector off."""
            gc.collect()
            gc.disable()
            try:
                assert main([arg.format(tmp=tmp_path) for arg in argv]) == status
                return gc.collect()
            finally:
                gc.enable()

        garbage(small)  # warm-up: what a first run imports and caches once
        assert garbage(small) == garbage(large)


class TestLazyEngine:
    """Only simulate imports numpy and the engine."""

    HEAVY = ("numpy", "bb84eve.protocol_sim", "bb84eve.quantum_core")
    # np.unique imports numpy.ma on its first call; numpy 1.x imports it with numpy itself
    LAZY_MA = ("numpy.ma",) if np.lib.NumpyVersion(np.__version__) >= "2.0.0" else ()
    PROBE = (
        "import contextlib, io, sys\n"
        "from bb84eve.report_cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "print(code, *sorted(m for m in {heavy!r} if m in sys.modules))\n"
    )
    # the trace writer imports the engine names it needs where it uses them
    TRACED = ["simulate", "--strategy", "intercept_resend", "--phi", "0", "--fraction", "0.5", "--rounds", "2000",
              "--trace", "{tmp}/trace.csv"]

    @pytest.mark.parametrize(
        "argv, loads_engine",
        [
            (["analytic", "--strategy", "all", "--grid", "3"], False),
            (["compare", "--d-bob", "0.1"], False),
            (["--help"], False),
            (["simulate", "--strategy", "none", "--rounds", "1000"], True),
        ],
    )
    def test_engine_modules_load_only_for_simulate(self, argv, loads_engine):
        assert self.loaded(argv, self.HEAVY) == (sorted(self.HEAVY) if loads_engine else [])

    @pytest.mark.parametrize(
        "argv, unused",
        [
            (["--help"], ("bb84eve.analytic_strategies",)),
            # 1000 rounds are below 65536, so --jobs 2 starts no second thread
            (["simulate", "--strategy", "none", "--rounds", "1000", "--jobs", "2"],
             ("bb84eve.analytic_strategies", "concurrent.futures")),
            # 200000 rounds are above 65536: a helper thread runs, and still no pool
            (["simulate", "--strategy", "none", "--rounds", "200000", "--jobs", "2"],
             ("bb84eve.analytic_strategies", "concurrent.futures")),
            # the value types need neither dataclasses nor the inspect it loads,
            # and the CSV formatter needs no numbers
            (["--help"], ("dataclasses", "inspect", "numbers")),
            (["analytic", "--strategy", "all", "--grid", "3"], ("dataclasses", "inspect", "numbers")),
            (["compare", "--d-bob", "0.1"], ("dataclasses", "inspect", "numbers")),
            # numpy imports inspect itself
            (["simulate", "--strategy", "none", "--rounds", "1000"], ("dataclasses", *LAZY_MA)),
            (TRACED, ("bb84eve.analytic_strategies", "dataclasses", *LAZY_MA)),
        ],
    )
    def test_commands_skip_modules_they_never_run(self, tmp_path, argv, unused):
        assert self.loaded([token.format(tmp=tmp_path) for token in argv], unused) == []

    def test_traced_simulate_loads_the_engine(self, tmp_path):
        argv = [token.format(tmp=tmp_path) for token in self.TRACED]
        assert self.loaded(argv, ("numpy", "bb84eve.protocol_sim")) == ["bb84eve.protocol_sim", "numpy"]
        assert (tmp_path / "trace.csv").read_text().startswith(TRACE_HEADER + "\n")

    def loaded(self, argv, modules) -> list[str]:
        """Which of modules a fresh process running main(argv) has imported."""
        result = subprocess.run(
            [sys.executable, "-c", self.PROBE.format(heavy=modules), *argv],
            capture_output=True, text=True, env=package_env(),
        )
        assert result.returncode == 0, result.stderr
        code, *names = result.stdout.split()
        assert code == "0"
        return names

    @pytest.mark.parametrize(
        "command, argv",
        [
            ("cmd_analytic_curves", ["analytic", "--strategy", "all"]),
            ("cmd_compare", ["compare", "--d-bob", "0.1"]),
        ],
    )
    def test_unexpected_error_propagates_as_itself(self, monkeypatch, command, argv):
        import bb84eve.report_cli as report_cli

        def fail(args):
            raise RuntimeError("unexpected")

        monkeypatch.setattr(report_cli, command, fail)
        with pytest.raises(RuntimeError, match="unexpected"):
            main(argv)

    def test_every_simulate_row_calls_the_patched_run_protocol(self, monkeypatch, capsys):
        import bb84eve.report_cli as report_cli

        calls = []

        def wrapped(*args, **kwargs):
            calls.append(args)
            return run_protocol(*args, **kwargs)

        monkeypatch.setattr(report_cli, "run_protocol", wrapped)
        argv = ["simulate", "--strategy", "intercept_resend", "--phi", "0", "--grid", "3", "--rounds", "1000"]
        assert main(argv) == EXIT_OK
        assert [args[2] for args in calls] == [0, 1, 2]  # one call per row, each with its row seed
        assert len(rows_of(capsys.readouterr().out)) == 3

    def test_run_protocol_forwards_to_the_engine(self):
        import bb84eve.report_cli as report_cli

        attack = InterceptResend(phi=0.0, fraction=0.5)
        assert report_cli.run_protocol(2000, attack, 5, workers=2) == run_protocol(2000, attack, 5, workers=2)

    def test_engine_names_are_not_module_attributes(self):
        import bb84eve.report_cli as report_cli

        names = ("Outcome", "unpack", "N_CODES", "BASIS_LABELS", "InsufficientSampleError")
        assert [name for name in names if hasattr(report_cli, name)] == []


class TestTraceCsv:
    GOLDENS = {
        "trace_intercept_f05_1k.csv": [
            "--strategy", "intercept_resend", "--phi", "pi/8", "--fraction", "0.5",
        ],
        "trace_with_memory_1k.csv": ["--strategy", "ancilla_with_memory", "--alpha", "pi/3"],
    }

    @pytest.mark.parametrize("name", sorted(GOLDENS))
    def test_golden_trace(self, tmp_path, capsys, name):
        trace = tmp_path / name
        argv = ["simulate", *self.GOLDENS[name], "--rounds", "1000", "--seed", "7", "--trace", str(trace)]
        assert main(argv) == EXIT_OK
        assert trace.read_bytes() == (GOLDEN / name).read_bytes()
        for index, row in enumerate(rows_of(trace.read_text())):
            assert row[0] == str(index)
            # Eve's cells are filled exactly on the rounds she acted on
            assert all(row[4:7]) == (row[3] == "true") == any(row[4:7])
            assert row[9] == ("true" if row[1] == row[7] else "false")

    @pytest.mark.parametrize("name", sorted(GOLDENS))
    def test_blocked_write_matches_golden(self, monkeypatch, name):
        # 7-round engine blocks split the 1000 rounds unevenly and meet new
        # codes in later blocks; the bytes must still be the golden's
        monkeypatch.setattr(protocol_sim, "_BLOCK", 7)
        args = _build_parser().parse_args(["simulate", *self.GOLDENS[name], "--rounds", "1000", "--seed", "7"])
        stream = io.StringIO(newline="")
        cmd_simulate(args, on_trace=_TraceWriter(stream))
        assert stream.getvalue().encode() == (GOLDEN / name).read_bytes()

    def test_no_attack_trace_leaves_eve_cells_empty(self, tmp_path, capsys):
        trace = tmp_path / "none.csv"
        argv = ["simulate", "--strategy", "none", "--rounds", "2000", "--seed", "5", "--trace", str(trace)]
        assert main(argv) == EXIT_OK
        rows = rows_of(trace.read_text())
        assert len(rows) == 2000
        assert all(row[3] == "false" and row[4:7] == ["", "", ""] for row in rows)


class TestStreamedTrace:
    """The writer against the per-row oracle, and the trace streamed as the run goes."""

    ATTACKS = (
        InterceptResend(phi=0.0, fraction=0.5),
        InterceptResend(phi=math.pi / 8, fraction=0.5),
        InterceptResend(phi=math.pi / 4),
        InterceptResend(phi=math.pi / 8, symmetrize=False),
        AncillaWithMemory(alpha=math.pi / 3),
        NoAttack(),
    )
    # a run takes fewer than 2**63 rounds, so the last edge's trace ends at index 2**63 - 2
    EDGES = (*(10**k for k in range(1, 10)), 2**32, 10**18, 2**63 - 1)

    @given(st.data())
    def test_rows_equal_the_per_row_oracle(self, data):
        # the run's own labels and the codes its tables can write; blocks
        # straddle a power of ten, so the index width grows inside a block or
        # between two, with or without new codes, and the header leads only a
        # trace whose first block starts at round 0
        tables = protocol_sim._build_tables(data.draw(st.sampled_from(self.ATTACKS)))
        possible = sorted(set(tables.codes.tolist()))
        sizes = data.draw(st.lists(st.integers(1, 100), min_size=1, max_size=3))
        codes = np.array(data.draw(st.lists(st.sampled_from(possible), min_size=sum(sizes), max_size=sum(sizes))),
                         dtype=np.uint16)
        start = max(0, data.draw(st.sampled_from(self.EDGES)) - data.draw(st.integers(0, sum(sizes))))
        start = min(start, 2**63 - 1 - sum(sizes))
        stream = io.StringIO(newline="")
        writer = _TraceWriter(stream)
        writer.start = first = start
        for size in sizes:
            writer(protocol_sim.Trace(codes[first - start : first - start + size], tables.eve_labels))
            first += size
        text = stream.getvalue()
        header = TRACE_HEADER + "\n"
        assert text.count(header) == (start == 0)
        assert text == header * (start == 0) + reference_trace_text(codes, tables.eve_labels, start)
        assert writer.start == first

    @pytest.mark.parametrize("name", sorted(TestTraceCsv.GOLDENS))
    def test_streamed_goldens(self, monkeypatch, name):
        monkeypatch.setattr(protocol_sim, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(protocol_sim, "_BLOCK", 7)
        args = parse("simulate", *TestTraceCsv.GOLDENS[name], "--rounds", "1000", "--seed", "7")
        (attack,) = _attacks(args, default_grid=None)
        stream = io.StringIO(newline="")
        run_protocol(1000, attack, 7, workers=2, on_trace=_TraceWriter(stream))
        assert stream.getvalue().encode() == (GOLDEN / name).read_bytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_memory_does_not_grow_with_rounds(self, monkeypatch, workers):
        monkeypatch.setattr(protocol_sim, "_usable_cpus", lambda: 2)
        attack, block = InterceptResend(phi=0.3, fraction=0.5), 4096
        monkeypatch.setattr(protocol_sim, "_BLOCK", block)
        peaks = []
        with open(os.devnull, "w") as sink:
            run_protocol(4 * block, attack, 1, workers=workers, on_trace=_TraceWriter(sink))
            for n_blocks in (4, 64):
                tracemalloc.start()
                try:
                    run_protocol(n_blocks * block, attack, 1, workers=workers, on_trace=_TraceWriter(sink))
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        # one block's worth: the Philox words of its rounds
        assert abs(peaks[1] - peaks[0]) < block * protocol_sim.UNIFORMS_PER_ROUND * 8


class TestWriteAll:
    """_write_all hands a stream all of its str or ASCII bytes, or raises BrokenPipeError."""

    PAYLOAD = b"".join(b"%d,z,1\n" % i for i in range(500))

    @pytest.mark.parametrize("payload", [PAYLOAD, PAYLOAD.decode()], ids=["bytes", "str"])
    def test_a_pipe_taking_a_few_bytes_a_write_gets_them_all(self, monkeypatch, payload):
        write = os.write
        monkeypatch.setattr(os, "write", lambda fd, data: write(fd, data[:3]))
        read_end, write_end = os.pipe()
        with open(read_end, "rb") as reader:
            with open(write_end, "w") as stream:
                _write_all(stream, payload)
            assert reader.read() == self.PAYLOAD

    def test_a_stream_without_a_descriptor_gets_bytes_decoded(self):
        stream = io.StringIO(newline="")
        _write_all(stream, self.PAYLOAD)
        assert stream.getvalue() == self.PAYLOAD.decode()

    @pytest.mark.parametrize("payload", [PAYLOAD, PAYLOAD.decode()], ids=["bytes", "str"])
    def test_a_reader_that_left_raises_broken_pipe(self, payload):
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w") as stream, pytest.raises(BrokenPipeError):
            _write_all(stream, payload)


class TestCliDeterminism:
    ARGS = [
        "simulate",
        "--strategy",
        "ancilla_no_memory",
        "--alpha",
        "pi/3",
        "--phi",
        "pi/8",
        "--rounds",
        "50000",
        "--seed",
        "123",
    ]

    def run_to_bytes(self, tmp_path, extra, name):
        out = tmp_path / name
        assert main(self.ARGS + ["--out", str(out)] + extra) == EXIT_OK
        return out.read_bytes()

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        first = self.run_to_bytes(tmp_path, [], "a.csv")
        second = self.run_to_bytes(tmp_path, [], "b.csv")
        assert first == second

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        serial = self.run_to_bytes(tmp_path, ["--jobs", "1"], "serial.csv")
        parallel = self.run_to_bytes(tmp_path, ["--jobs", "4"], "parallel.csv")
        assert serial == parallel

    def test_manifest_invocations_parse(self):
        # the byte-identity manifest's command lines stay valid as the CLI changes
        parser = _build_parser()
        assert len(manifest.INVOCATIONS) >= 52
        for argv in manifest.INVOCATIONS:
            parser.parse_args(manifest.with_trace(argv, "trace.csv"))


# Flag values for the fuzzed command lines, as (in range, hostile): one value
# in four is drawn from both, the rest from the first. Hostile values are range
# ends, signed zero, non-finite and huge values, and malformed pi and exponent
# forms; --rounds and --grid stay small enough to run, or are refused before any row.
NUMBERS = (("0.25", "0.5", "0", "-0.0", "pi/4"),
           ("1", "pi/2", "3pi/8", "0.7853981633974483", "-1e-9", "nan", "inf", "-inf", "1e308",
            "1e-400", "-1", "2", "pi/", "2pi/0", "1e", "e5", "pipi", "1e+", ""))
INTEGERS = {
    "rounds": (("2000", "200"), ("0", "1", "7", "-1", str(-2**70), str(2**63), str(10**30), "1.5", "1e3", "x", "")),
    "grid": (("1", "3"), ("0", "50", "-1", str(MAX_GRID + 1), str(2**70), "1.5", "x")),
    "seed": (("0", "7"), (str(2**64 - 2), str(2**64), str(2**70), "-1", "x")),
    "jobs": (("1", "2"), ("0", "-3", str(2**70), "x")),
}
HEADERS = {"analytic": ANALYTIC_HEADER, "simulate": SIMULATE_HEADER, "compare": COMPARE_HEADER}


def coins(draw, n: int) -> bool:
    """True with odds 1 in 2**n."""
    return all(draw(st.booleans()) for _ in range(n))


@st.composite
def command_lines(draw) -> list[str]:
    """An argv from the parser's own grammar, {tmp} standing for a scratch directory."""
    command = draw(st.sampled_from(sorted(subcommands())))
    flags = []
    for action in subcommands()[command]._actions:
        if not action.option_strings or isinstance(action, argparse._HelpAction):
            continue
        # hypothesis favours the ends of an integer range, so odds come from coin flips
        if coins(draw, 3) if action.required else not coins(draw, 2):
            continue
        if action.nargs == 0:
            flags.append([action.option_strings[-1]])
            continue
        if action.choices:
            in_range, hostile = tuple(action.choices), ("teleport", "")
        elif action.type is Path:
            in_range, hostile = ("{tmp}/%s.csv" % action.dest,), ("{tmp}/missing/%s.csv" % action.dest,)
        else:
            in_range, hostile = INTEGERS[action.dest] if action.type is int else NUMBERS
        pool = in_range + hostile if coins(draw, 2) else in_range
        flags.append([action.option_strings[-1], draw(st.sampled_from(pool))])
    return [command, *(token for flag in draw(st.permutations(flags)) for token in flag)]


class TestFuzzedCommandLines:
    @settings(max_examples=150, deadline=None)
    @given(command_lines())
    def test_every_command_line_keeps_the_exit_contract(self, template):
        with tempfile.TemporaryDirectory() as tmp:
            argv = [token.format(tmp=tmp) for token in template]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                status = main(argv)
            out, err = stdout.getvalue(), stderr.getvalue()
            event(f"{argv[0]} exits {status}")
            assert status in (EXIT_OK, EXIT_USAGE, EXIT_INSUFFICIENT_SAMPLE), (argv, err)
            if status != EXIT_OK:
                assert out == "" and os.listdir(tmp) == [], argv
                assert sum("error:" in line for line in err.splitlines()) == 1, (argv, err)
                return
            assert err == ""
            documents = {HEADERS[argv[0]]: Path(tmp, "out.csv").read_text() if "--out" in argv else out}
            if "--trace" in argv:
                documents[TRACE_HEADER] = Path(tmp, "trace.csv").read_text()
            for header, text in documents.items():
                rows = list(csv.reader(io.StringIO(text)))
                assert rows[0] == header.split(",") and len(rows) > 1, argv
                assert all(len(row) == len(rows[0]) for row in rows), argv
