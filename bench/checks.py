"""Output checks for the benchmark, and a self-test proving they can fail.

Every check returns a list of problems; an empty list means the output
passed. The closed forms come from ``bb84eve.analytic_strategies``; the
engine never reads them, so agreement is an independent check of the
Monte Carlo route.
"""

from __future__ import annotations

import csv
import io
import math

from bb84eve import analytic_strategies as closed

# Same gate as the acceptance tests: four standard errors, absolute floor.
SE_GATE = 4.0
SE_FLOOR = 0.003
# Relative tolerance for re-deriving compare rows from the closed forms.
COMPARE_RTOL = 1e-9
TRACE_HEADER = (
    "round,alice_basis,alice_bit,eve_acted,eve_basis,eve_outcome,eve_guess,"
    "bob_basis,bob_bit,sifted"
)


def parse_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _num(field: str) -> float | None:
    return None if field == "" else float(field)


def _angle(text: str) -> float:
    """Angles as the workloads write them: a float literal or ``pi/N``."""
    return math.pi / float(text[3:]) if text.startswith("pi/") else float(text)


def identical(expected: bytes, actual: bytes, what: str) -> list[str]:
    if expected == actual:
        return []
    return [f"{what}: output ({len(actual)} bytes) differs from the reference ({len(expected)} bytes)"]


# --- simulate ----------------------------------------------------------------


def closed_form(row: dict[str, str]) -> tuple[float, float | None]:
    """(qber, i_eve) the closed forms predict for one simulate row.

    i_eve is None for the clean channel, where no guess is ever recorded.
    """
    strategy = row["strategy"]
    phi, alpha, fraction = _num(row["phi"]), _num(row["alpha"]), _num(row["fraction"])
    if strategy == "none":
        return 0.0, None
    if strategy == closed.INTERCEPT_RESEND:
        report = closed.intercept_resend(phi)
        return fraction * report.bob_overall.disturbance, fraction * report.eve_avg_info
    if strategy == closed.ANCILLA_NO_MEMORY:
        report = closed.ancilla_no_memory(alpha, phi)
    elif strategy == closed.ANCILLA_WITH_MEMORY:
        report = closed.ancilla_with_memory(alpha)
    else:
        raise ValueError(f"no closed form for strategy {strategy!r}")
    return report.bob_overall.disturbance, report.eve_avg_info


def _gate(name: str, value: str, se: str, target: float) -> list[str]:
    if value == "" or se == "":
        return [f"{name} missing, closed form {target:.6g}"]
    x, s = float(value), float(se)
    if abs(x - target) <= max(SE_GATE * s, SE_FLOOR):
        return []
    return [f"{name}={x:.6g} is {abs(x - target):.3g} from closed form {target:.6g} (se {s:.3g})"]


def row_misses(row: dict[str, str]) -> list[str]:
    """Closed-form disagreements of one simulate row beyond 4 SE (floor 0.003)."""
    qber, i_eve = closed_form(row)
    problems = _gate("qber", row["qber"], row["qber_se"], qber)
    if i_eve is None:
        if row["i_eve_emp"] != "":
            problems.append(f"i_eve_emp={row['i_eve_emp']} reported for a clean channel")
    else:
        problems += _gate("i_eve_emp", row["i_eve_emp"], row["i_eve_se"], i_eve)
    return problems


def confirm_argv(row: dict[str, str], seed_offset: int) -> list[str]:
    """A single-row rerun of a simulate row on a seed no workload uses."""
    argv = ["simulate", "--strategy", row["strategy"]]
    for name in ("phi", "alpha", "fraction"):
        if row[name]:
            argv += [f"--{name}", row[name]]
    return argv + ["--rounds", row["n_rounds"], "--seed", str(int(row["seed"]) + seed_offset)]


def trace_recount(trace_text: str, row: dict[str, str]) -> list[str]:
    """Recount sifted rounds and errors in a trace against its CSV row, exactly."""
    lines = trace_text.split("\n")
    if lines[0] != TRACE_HEADER:
        return ["trace header differs"]
    if lines[-1] != "":
        return ["trace does not end with a newline"]
    body = lines[1:-1]
    n_rounds = int(row["n_rounds"])
    if len(body) != n_rounds:
        return [f"trace has {len(body)} rounds, row says {n_rounds}"]
    sifted = errors = 0
    for index, line in enumerate(body):
        cells = line.split(",")
        if len(cells) != 10 or cells[0] != str(index):
            return [f"trace line {index + 1} is malformed: {line[:60]!r}"]
        if cells[9] == "true":
            sifted += 1
            errors += cells[2] != cells[8]
    problems = []
    if str(sifted) != row["n_sifted"]:
        problems.append(f"trace recount n_sifted={sifted}, row says {row['n_sifted']}")
    qber = format(errors / sifted, ".12g") if sifted else ""
    if qber != row["qber"]:
        problems.append(f"trace recount qber={qber}, row says {row['qber']}")
    return problems


# --- analytic and compare ----------------------------------------------------


def golden_rows(golden_text: str, strategy: str, phi: str | None) -> str:
    """The golden document, or only its rows of one family, as CLI text."""
    if strategy == "all":
        return golden_text
    lines = golden_text.split("\n")
    keep = [lines[0]]
    for line, row in zip(lines[1:], parse_csv(golden_text)):
        if row["strategy"] != strategy:
            continue
        if phi is not None and abs(float(row["phi"]) - _angle(phi)) > 1e-9:
            continue
        keep.append(line)
    return "\n".join(keep) + "\n"


def compare_rows(text: str) -> list[str]:
    """Re-derive every compare row from the closed forms and check the flag."""
    rows = parse_csv(text)
    if not rows:
        return ["compare printed no rows"]
    problems = []
    flagged = 0
    for row in rows:
        strategy = row["strategy"].removesuffix("_opt")
        phi, alpha, fraction = _num(row["phi"]), _num(row["alpha"]), _num(row["fraction"])
        i_eve = _num(row["i_eve"])
        if row["best_memoryless"] == "true":
            flagged += 1
        if i_eve is None:
            if row["in_domain"] != "false":
                problems.append(f"{row['strategy']}: in-domain row without i_eve")
            continue
        if strategy == closed.INTERCEPT_RESEND:
            expected = fraction * closed.intercept_resend(phi).eve_avg_info
        elif strategy == closed.ANCILLA_NO_MEMORY:
            expected = closed.ancilla_no_memory(alpha, phi).eve_avg_info
        else:
            expected = closed.ancilla_with_memory(alpha).eve_avg_info
        if not math.isclose(i_eve, expected, rel_tol=COMPARE_RTOL, abs_tol=1e-12):
            problems.append(f"{row['strategy']} phi={row['phi']}: i_eve {i_eve} != {expected}")
    if flagged != 1:
        problems.append(f"{flagged} rows flagged best_memoryless, expected 1")
    return problems


# --- self-test ----------------------------------------------------------------


def alter_digit(text: str) -> str:
    """Change the last digit of the first data row, the smallest corruption."""
    start = text.index("\n") + 1
    end = text.index("\n", start)
    for i in range(end - 1, start - 1, -1):
        if text[i].isdigit():
            return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]
    raise ValueError("no digit in the first data row")


def self_test(golden_text: str, simulate_csv: str, trace_text: str) -> list[str]:
    """Feed the checks corrupted copies of real outputs; each must be flagged.

    simulate_csv and trace_text are a single-row ``simulate --trace`` run that
    passes every check unaltered. Returns the checks that failed to flag.
    """
    missed = []
    row = parse_csv(simulate_csv)[0]
    if trace_recount(trace_text, row) or row_misses(row):
        missed.append("the unaltered self-test run does not pass its own checks")
    if not identical(simulate_csv.encode(), alter_digit(simulate_csv).encode(), "csv"):
        missed.append("a CSV with one altered digit passed the --jobs identity check")
    if not identical(golden_text.encode(), alter_digit(golden_text).encode(), "golden"):
        missed.append("an analytic CSV with one altered digit passed the golden check")
    cut = trace_text[: len(trace_text) // 2]
    if not trace_recount(cut[: cut.rindex("\n") + 1], row):
        missed.append("a trace truncated at a line end passed the recount")
    if not trace_recount(trace_text[:-7], row):
        missed.append("a trace truncated inside a line passed the recount")
    return missed
