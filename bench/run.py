#!/usr/bin/env python3
"""Benchmark of the ``bb84eve`` command line, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload bulk --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 1

``--trace 0`` is the timed run: a closed loop that runs the workload's CLI
invocations one after another as child processes (each with at most
``--jobs 2``) and reports the end-to-end metrics, its times corrected for
the host's speed by a reference child run before every call. ``--trace 1``
is the traced run: the same invocations in-process, with each module's
public functions wrapped from here, reporting the per-layer metrics. Both
runs check every output. See bench/README.md for the metrics and how to
read them.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it are a readable table and a
provenance record.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
WORK_ROOT = ROOT / ".bench_work"
GOLDEN_PATH = ROOT / "tests" / "golden" / "analytic_curves_101.csv"

sys.path.insert(0, str(SRC))
import workloads  # noqa: E402

try:  # both import bb84eve from SRC
    import checks  # noqa: E402
    import layers  # noqa: E402
except ModuleNotFoundError as exc:
    if exc.name != "bb84eve":
        raise
    checks = layers = None

CHILD_TIMEOUT_S = 120
# The host-speed reference: a fixed child of the same kinds of work as the
# CLI (interpreter start, numpy import, a Philox draw, a bincount, rows of
# Python tuples) that never imports bb84eve, so no change to the package can
# move it. The timed run runs it before every call and divides its times by
# how much slower than REFERENCE_NOMINAL_S the reference ran (see README,
# "Noise and bounds").
REFERENCE = """
import numpy as np
u = np.random.Generator(np.random.Philox(key=3)).random((1 << 17, 8))
counts = np.bincount((u[:, 0] * 4).astype(np.int64), minlength=4)
rows = [(i, i & 1, i * 0.5) for i in range(60000)]
total = sum(a + b for a, b, _ in rows)
"""
# About the reference's median on the quiet 2-vCPU Xeon VM the bounds were set on.
REFERENCE_NOMINAL_S = 0.2
STARTUP_REPEATS = 7
# Rows outside the closed-form gate are rerun once on a seed this far away;
# only a row that misses twice is a failure (see README, "Output checks").
CONFIRM_SEED_OFFSET = 2**40
SELF_TEST_ARGV = ("simulate", "--strategy", "intercept_resend", "--phi", "0",
                  "--fraction", "0.5", "--rounds", "4000", "--seed")
# Counts that must repeat exactly from one traced pass to the next.
COUNT_METRICS = (
    "protocol_sim.rounds", "protocol_sim.calls", "protocol_sim.trace_records",
    "protocol_sim.bytes_computed", "quantum_core.calls", "infotheory.calls",
    "analytic_strategies.calls", "report_cli.calls", "report_cli.bytes_out",
)
# Printed in the table but left out of the JSON metrics: it is exactly zero
# on every run of the workloads that evaluate no closed form.
EXTRA_LAYER_UNITS = {"analytic_strategies.busy_s": "s"}


@dataclass
class Result:
    """One CLI invocation: wall seconds, exit status and its output bytes."""

    seconds: float
    returncode: int
    stdout: bytes
    trace: bytes | None
    stderr: str
    maxrss_mb: float = 0.0


class Subprocesses:
    """Runs Python children one at a time and reaps each with wait4."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        path = [str(SRC), os.environ.get("PYTHONPATH", "")]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))

    def _spawn(self, args, stdout, stderr) -> tuple[float, int, float]:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=stdout, stderr=stderr,
                                env=self.env, cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return seconds, proc.returncode, usage.ru_maxrss / 1024

    def python(self, *args: str) -> float:
        """Wall seconds of ``python3 args``; raises if it fails."""
        seconds, code, _ = self._spawn(args, subprocess.DEVNULL, subprocess.DEVNULL)
        if code != 0:
            raise RuntimeError(f"python3 {' '.join(args)} exited {code}")
        return seconds

    def cli(self, argv, trace: bool) -> Result:
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        trace_path = self.workdir / "trace.csv"
        trace_path.unlink(missing_ok=True)
        argv = [*argv, "--trace", str(trace_path)] if trace else list(argv)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            seconds, code, rss = self._spawn(["-m", "bb84eve", *argv], out, err)
        return Result(seconds, code, out_path.read_bytes(),
                      trace_path.read_bytes() if trace and trace_path.exists() else None,
                      err_path.read_text(errors="replace")[-400:], rss)


class InProcess:
    """Runs the CLI's ``main`` in this process, capturing stdout and stderr."""

    def __init__(self, workdir: Path, main) -> None:
        self.workdir = workdir
        self.main = main

    def cli(self, argv, trace: bool) -> Result:
        trace_path = self.workdir / "trace.csv"
        trace_path.unlink(missing_ok=True)
        argv = [*argv, "--trace", str(trace_path)] if trace else list(argv)
        out, err = io.StringIO(), io.StringIO()
        gc.collect()  # start every call from the same heap state
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.main(argv)
            except Exception:  # a child process would die with status 1; so does this call
                traceback.print_exc()
                code = 1
        seconds = time.perf_counter() - start
        return Result(seconds, code, out.getvalue().encode(),
                      trace_path.read_bytes() if trace and trace_path.exists() else None,
                      err.getvalue()[-400:])


class Verifier:
    """Checks every invocation's output; later passes must repeat the first."""

    def __init__(self, golden: str, confirm) -> None:
        self.golden = golden
        self.confirm = confirm
        self.first: dict[int, tuple[str, list[str]]] = {}
        self.rerun_misses: list[str] = []

    def check_pass(self, invocations, results: list[Result]) -> list[list[str]]:
        return [self._check(i, inv, res, results) for i, (inv, res) in enumerate(zip(invocations, results))]

    def _check(self, index, inv, result: Result, results) -> list[str]:
        if result.returncode != 0:
            return [f"{' '.join(inv.argv)}: exit status {result.returncode}: {result.stderr.strip()}"]
        digest = hashlib.sha256(result.stdout + b"\0" + (result.trace or b"")).hexdigest()
        if index in self.first:
            first_digest, verdict = self.first[index]
            return verdict if digest == first_digest else [f"{' '.join(inv.argv)}: output differs from the first pass"]
        verdict = [f"{' '.join(inv.argv)}: {p}" for p in self._verify(inv, result, results)]
        self.first[index] = (digest, verdict)
        return verdict

    def _verify(self, inv, result: Result, results) -> list[str]:
        if inv.twin is not None:
            twin = results[inv.twin]
            problems = (checks.identical(twin.stdout, result.stdout, "CSV vs --jobs 1")
                        + checks.identical(twin.trace or b"", result.trace or b"", "trace vs --jobs 1"))
            if problems:
                return problems
            # identical bytes fail whatever check the --jobs 1 output failed
            twin_verdict = self.first[inv.twin][1] if inv.twin in self.first else ["--jobs 1 run failed"]
            return ["same output as the failing --jobs 1 run"] if twin_verdict else []
        text = result.stdout.decode()
        if inv.golden is not None:
            expected = checks.golden_rows(self.golden, *inv.golden)
            return checks.identical(expected.encode(), result.stdout, "analytic CSV vs golden")
        if inv.command == "compare":
            return checks.compare_rows(text)
        rows = checks.parse_csv(text)
        problems = []
        if len(rows) != inv.rows:
            problems.append(f"{len(rows)} rows, expected {inv.rows}")
        for row in rows:
            misses = [f"seed {row['seed']}: {m}" for m in checks.row_misses(row)]
            if misses:
                self.rerun_misses += misses
                rerun = self.confirm(checks.confirm_argv(row, CONFIRM_SEED_OFFSET), False)
                rerun_rows = checks.parse_csv(rerun.stdout.decode()) if rerun.returncode == 0 else []
                if not rerun_rows or checks.row_misses(rerun_rows[0]):
                    problems += misses
        if inv.trace:
            if result.trace is None:
                problems.append("no trace written")
            elif rows:
                problems += checks.trace_recount(result.trace.decode(), rows[0])
        return problems


# --- statistics and output ----------------------------------------------------


def high_percentile(values: list[float]) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it, else the max."""
    n = len(values)
    for q in (99.9, 99, 90, 50):
        if n * (1 - q / 100) >= 10:
            cuts = statistics.quantiles(values, n=1000, method="inclusive")
            return f"p{q:g}", cuts[round(q * 10) - 1]
    return "max", max(values)


def print_table(title: str, rows: list[tuple[str, float, list[float], str]]) -> None:
    """Per metric: the reported value, the samples' median and high percentile, n."""
    print(f"# {title}")
    print(f"#   {'metric':34} {'value':>12} {'median':>12} {'high':>16} {'n':>4}  unit")
    for name, value, samples, unit in rows:
        label, high = high_percentile(samples)
        print(f"#   {name:34} {value:12.6g} {statistics.median(samples):12.6g} {label:>5} "
              f"{high:<10.6g} {len(samples):4d}  {unit}")


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def provenance(workload: str, seed: int, spec: dict) -> dict:
    cpu_model = None
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size")
    source = hashlib.sha256()
    for path in sorted((SRC / "bb84eve").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "cache": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "source_sha256": source.hexdigest(),
        "workload": workload,
        "seed": seed,
        "why": {w["name"]: w["why"] for w in spec["workloads"]},
    }


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, or None outside one."""
    head = _read(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(ROOT / ".git" / ref)
    if loose:
        return loose
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


# --- the two runs ---------------------------------------------------------------


@dataclass
class Outcome:
    """One workload's run: samples of each metric, and a tally of invocations."""

    samples: dict[str, list[float]] = field(default_factory=dict)
    values: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def tally(self, verdicts: list[list[str]]) -> None:
        self.attempted += len(verdicts)
        self.failed += sum(1 for v in verdicts if v)
        self.problems += [p for v in verdicts for p in v]

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def value(self, name: str) -> float:
        """The reported value: the one set in ``values``, else the median of
        the samples; counts stay integers."""
        if name in self.values:
            return self.values[name]
        samples = self.samples[name]
        median = statistics.median(samples)
        if all(isinstance(v, int) for v in samples) and median == int(median):
            median = int(median)
        return median


def run_passes(invocations, cli, verifier: Verifier, outcome: Outcome, seconds: float, on_pass) -> int:
    """Closed loop: whole passes back to back while the next one, as long as
    the last, would end within ``seconds``."""
    passes, last = 0, 0.0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start + last <= seconds:
        begun = time.perf_counter()
        results = [cli(inv.argv, inv.trace) for inv in invocations]
        outcome.tally(verifier.check_pass(invocations, results))
        on_pass(results)
        passes += 1
        last = time.perf_counter() - begun
    return passes


def timed_run(invocations, seconds: float, procs: Subprocesses, verifier: Verifier) -> Outcome:
    outcome = Outcome()
    procs.python("-m", "bb84eve", "--help")  # warm-ups: fill the bytecode and file caches
    procs.python("-c", REFERENCE)
    slots: list[tuple[float, float | None, float]] = []  # (reference, cold start, call), in run order

    def cli(argv, trace: bool) -> Result:
        """One call after a reference child; the first of a pass also after a cold start."""
        reference = procs.python("-c", REFERENCE)
        first = len(slots) % len(invocations) == 0
        cold = procs.python("-m", "bb84eve", "--help") if first else None
        result = procs.cli(argv, trace)
        slots.append((reference, cold, result.seconds))
        return result

    def on_pass(results: list[Result]) -> None:
        outcome.add("wall_s", sum(r.seconds for r in results))
        outcome.add("peak_rss_mb", max(r.maxrss_mb for r in results))
        for jobs, name in ((1, "mrounds_per_s"), (2, "mrounds_per_s_jobs2")):
            picked = [(inv.rounds, r.seconds) for inv, r in zip(invocations, results)
                      if inv.rounds and inv.jobs == jobs]
            if picked:
                outcome.add(name, sum(n for n, _ in picked) / sum(s for _, s in picked) / 1e6)

    outcome.notes["passes"] = run_passes(invocations, cli, verifier, outcome, seconds, on_pass)
    outcome.notes["wall_s_per_pass"] = outcome.samples["wall_s"]
    # Every time at the reference's nominal host speed: a call is divided by
    # the mean of the references just before and just after it, a cold start
    # by the reference just before it.
    after = [reference for reference, _, _ in slots[1:]] + [procs.python("-c", REFERENCE)]
    calls: list[list[float]] = [[] for _ in invocations]
    cold_starts = []
    for k, ((reference, cold, seconds), next_reference) in enumerate(zip(slots, after)):
        calls[k % len(invocations)].append(seconds * 2 * REFERENCE_NOMINAL_S / (reference + next_reference))
        outcome.add("host.reference_s", reference)
        if cold is not None:
            cold_starts.append(cold * REFERENCE_NOMINAL_S / reference)
            outcome.add("setup_s", cold)
    outcome.notes["calls_s"] = [[round(t, 4) for t in samples] for samples in calls]
    outcome.notes["host_slowdown"] = statistics.median(outcome.samples["host.reference_s"]) / REFERENCE_NOMINAL_S
    outcome.values["setup_s"] = statistics.median(cold_starts)
    typical = [statistics.median(samples) for samples in calls]
    outcome.values["wall_s"] = sum(typical)
    for jobs, name in ((1, "mrounds_per_s"), (2, "mrounds_per_s_jobs2")):
        picked = [(inv.rounds, t) for inv, t in zip(invocations, typical) if inv.rounds and inv.jobs == jobs]
        if picked:
            outcome.values[name] = sum(n for n, _ in picked) / sum(t for _, t in picked) / 1e6
    return outcome


def traced_run(invocations, seconds: float, seed: int, procs: Subprocesses,
               verifier: Verifier) -> Outcome:
    report_cli = layers.report_cli
    outcome = Outcome()
    interp = statistics.median(procs.python("-c", "pass") for _ in range(STARTUP_REPEATS))
    imported = statistics.median(procs.python("-c", "import bb84eve.report_cli")
                                 for _ in range(STARTUP_REPEATS))
    floor_ns = layers.rng_floor_ns_per_round(seed)

    plain = InProcess(procs.workdir, report_cli.main)
    warm = [plain.cli(inv.argv, inv.trace) for inv in invocations]
    outcome.tally(verifier.check_pass(invocations, warm))

    def traced_pass(untraced: list[Result]) -> None:
        tracer = layers.Tracer()
        traced_cli = InProcess(procs.workdir, tracer.wrap("report_cli", report_cli.main))
        with tracer.patched():
            traced = [traced_cli.cli(inv.argv, inv.trace) for inv in invocations]
        outcome.tally(verifier.check_pass(invocations, traced))
        wall = sum(r.seconds for r in traced)
        for name, value in tracer.summary(wall).items():
            outcome.add(name, value)
        outcome.add("report_cli.bytes_out", sum(len(r.stdout) + len(r.trace or b"") for r in traced))
        outcome.add("tracing.overhead_s", wall - sum(r.seconds for r in untraced))
        outcome.notes["unwrapped"] = tracer.missing

    outcome.notes["passes"] = run_passes(invocations, plain.cli, verifier, outcome, seconds, traced_pass)
    outcome.add("protocol_sim.rng_floor_ns_per_round", floor_ns)
    outcome.add("protocol_sim.floor_ratio",
                statistics.median(outcome.samples["protocol_sim.ns_per_round"]) / floor_ns)
    outcome.add("startup.interp_s", interp)
    outcome.add("startup.import_s", imported - interp)
    repeats = {n: len(set(outcome.samples[n])) == 1 for n in COUNT_METRICS if n in outcome.samples}
    outcome.notes["counts_repeat"] = all(repeats.values())
    outcome.problems += [f"count {n} differs between traced passes" for n, ok in repeats.items() if not ok]
    return outcome


# --- entry point ------------------------------------------------------------------


def run_workload(name: str, args, spec: dict, procs: Subprocesses, golden: str) -> tuple[Outcome, dict]:
    """Run one workload; print its table and provenance; return its JSON metrics."""
    invocations = workloads.build(name, args.seed)
    verifier = Verifier(golden, procs.cli)
    if args.trace:
        outcome = traced_run(invocations, args.seconds, args.seed, procs, verifier)
        listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
        shown = {**listed, **EXTRA_LAYER_UNITS}
    else:
        outcome = timed_run(invocations, args.seconds, procs, verifier)
        listed = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        shown = {**listed, "host.reference_s": "s"}
    table = [(n, outcome.value(n), outcome.samples[n], unit)
             for n, unit in shown.items() if n in outcome.samples]
    failed_frac = outcome.failed / outcome.attempted
    table.append(("failed_frac", failed_frac, [failed_frac], "ratio"))
    mode = "traced" if args.trace else "timed"
    print_table(f"workload={name} seed={args.seed} {mode} passes={outcome.notes['passes']} "
                f"invocations/pass={len(invocations)} closed-form reruns={len(verifier.rerun_misses)}",
                table)
    outcome.notes.update(attempted=outcome.attempted, failed=outcome.failed,
                         rerun_misses=verifier.rerun_misses, problems=outcome.problems[:20])
    print(json.dumps({"provenance": provenance(name, args.seed, spec), "run": outcome.notes}))
    return outcome, {n: {"value": outcome.value(n), "unit": unit} for n, unit in listed.items()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [str(p) for p in (SRC / "bb84eve" / "__init__.py", GOLDEN_PATH, SPEC_PATH)
               if not p.is_file()]
    if missing or checks is None:
        print(f"error: not a bb84eve checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    golden = GOLDEN_PATH.read_text()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        procs = Subprocesses(workdir)
        probe = procs.cli((*SELF_TEST_ARGV, str(args.seed)), True)
        if probe.returncode != 0 or probe.trace is None:
            self_test_missed = [f"self-test run failed: {probe.stderr.strip()}"]
        else:
            self_test_missed = checks.self_test(golden, probe.stdout.decode(), probe.trace.decode())
        print(json.dumps({"self_test_missed": self_test_missed}))
        runs = {name: run_workload(name, args, spec, procs, golden) for name in names}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    outcomes = [outcome for outcome, _ in runs.values()]
    if len(runs) == 1:
        metrics = runs[names[0]][1]
    else:
        metrics = {f"{w}.{n}": m for w, (_, ms) in runs.items() for n, m in ms.items()}
    print(json.dumps({
        "correct": not self_test_missed and not any(o.problems for o in outcomes),
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
