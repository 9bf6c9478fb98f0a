"""The benchmark's workloads: lists of ``bb84eve`` invocations made from a seed.

Each workload is a fixed mix of invocations; the seed only picks the
``--seed`` values handed to the CLI (and, for ``sweep``, the ``compare``
budgets inside fixed ranges), so every seed does the same amount of work
and the same seed always gives the same argument lists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Single-row engine runs: long enough that the Philox stream, the per-round
# kernel and the bincount accumulation dominate start-up and table builds,
# short enough (under a second) that a run holds several samples of each.
BULK_ROUNDS = 1_500_000
BULK_CONFIGS = (
    ("none",),
    ("intercept_resend", "--phi", "pi/4"),
    ("intercept_resend", "--phi", "0", "--fraction", "0.5"),
    ("ancilla_no_memory", "--phi", "pi/8", "--alpha", "pi/3"),
    ("ancilla_with_memory", "--alpha", "pi/3"),
)

# Curve commands from the README: many short invocations, so interpreter
# start-up, table builds, estimators, closed forms and CSV formatting
# dominate and the kernel does little.
SWEEP_ROWS = 11
SWEEP_ROUNDS = 10_000
SWEEP_FAMILY_GRID = 101
SWEEP_FAMILIES = (
    ("intercept_resend", "--phi", "0"),
    ("intercept_resend", "--phi", "pi/4"),
    ("ancilla_no_memory", "--phi", "pi/4"),
    ("ancilla_with_memory",),
)
# Single-family analytic curves; each is checked against the rows of the
# same family in the committed golden file, so the grid must match it.
ANALYTIC_FAMILIES = (
    ("intercept_resend", "pi/4"),
    ("ancilla_no_memory", "0"),
    ("ancilla_with_memory", None),
)
# Three budgets inside the intercept/resend domain (d_bob <= 1/4) and one
# beyond it, so the grid search runs the same number of times for any seed.
COMPARE_RANGES = ((0.02, 0.08), (0.08, 0.16), (0.16, 0.25), (0.3, 0.5))

# One CSV row per round: the per-round trace document dominates already at
# this size, and a call stays near a second.
TRACE_ROUNDS = 50_000
TRACE_CONFIGS = (
    ("intercept_resend", "--phi", "0", "--fraction", "0.5"),
    ("ancilla_with_memory", "--alpha", "pi/3"),
)

WORKLOADS = ("bulk", "sweep", "trace")


@dataclass(frozen=True)
class Invocation:
    """One ``bb84eve`` call and what its output is checked against.

    argv excludes the program name and, for traced runs, the ``--trace``
    path, which the runner adds. rounds is the total simulated rounds over
    all rows (0 for non-simulate calls) and rows the CSV rows expected.
    twin is the index of the ``--jobs 1`` invocation whose output bytes
    this one must reproduce.
    golden is ``(strategy, phi)`` for an analytic call compared with the
    golden file: phi None selects every row of the strategy, and a strategy
    of ``"all"`` compares the whole file.
    """

    argv: tuple[str, ...]
    rounds: int = 0
    rows: int = 1
    jobs: int = 1
    trace: bool = False
    twin: int | None = None
    golden: tuple[str, str | None] | None = None

    @property
    def command(self) -> str:
        return self.argv[0]


def _simulate_pair(out: list[Invocation], config: tuple[str, ...], rounds: int, rows: int,
                   seed: int, *, grid: bool = False, trace: bool = False) -> None:
    """Append the same simulate call at --jobs 1 and at --jobs 2."""
    argv = ("simulate", "--strategy", *config)
    if grid:
        argv += ("--grid", str(rows))
    argv += ("--rounds", str(rounds), "--seed", str(seed))
    first = len(out)
    for jobs in (1, 2):
        out.append(Invocation(argv + ("--jobs", str(jobs)), rounds * rows, rows, jobs, trace,
                              twin=None if jobs == 1 else first))


def build(workload: str, seed: int) -> list[Invocation]:
    """The invocation list of one pass over ``workload`` for this seed."""
    rng = random.Random(f"{workload}:{seed}")

    def cli_seed() -> int:
        return rng.randrange(2**32)

    out: list[Invocation] = []
    if workload == "bulk":
        for config in BULK_CONFIGS:
            _simulate_pair(out, config, BULK_ROUNDS, 1, cli_seed())
    elif workload == "sweep":
        out.append(Invocation(("analytic", "--strategy", "all"), golden=("all", None)))
        for strategy, phi in ANALYTIC_FAMILIES:
            argv = ("analytic", "--strategy", strategy)
            if phi is not None:
                argv += ("--phi", phi)
            argv += ("--grid", str(SWEEP_FAMILY_GRID))
            out.append(Invocation(argv, golden=(strategy, phi)))
        for lo, hi in COMPARE_RANGES:
            d_bob = round(rng.uniform(lo, hi), 4)
            out.append(Invocation(("compare", "--d-bob", repr(d_bob))))
        for config in SWEEP_FAMILIES:
            _simulate_pair(out, config, SWEEP_ROUNDS, SWEEP_ROWS, cli_seed(), grid=True)
    elif workload == "trace":
        for config in TRACE_CONFIGS:
            _simulate_pair(out, config, TRACE_ROUNDS, 1, cli_seed(), trace=True)
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return out
