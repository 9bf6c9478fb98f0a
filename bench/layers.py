"""Per-layer tracing of in-process ``bb84eve`` runs, plus the floor probes.

The layers are the package's modules. Spans are recorded from the
benchmark's side only: each public function is swapped, for the duration of
a traced pass, for a wrapper that times it, in the namespace the caller
looks it up in. Nothing inside the package changes.
"""

from __future__ import annotations

import contextlib
import functools
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from bb84eve import analytic_strategies, protocol_sim, report_cli

QUANTUM_CORE_FUNCTIONS = (
    "make_bb84_state", "outcome_probabilities", "joint_outcome_probabilities", "apply_eve_unitary",
)
ANALYTIC_FUNCTIONS = ("curve_sweep", "intercept_resend", "ancilla_no_memory", "ancilla_with_memory")
CLI_COMMANDS = ("cmd_analytic_curves", "cmd_simulate", "cmd_compare")
LAYERS = ("protocol_sim", "quantum_core", "infotheory", "analytic_strategies", "report_cli")
BYTES_PER_ROUND = protocol_sim.UNIFORMS_PER_ROUND * 8


def targets() -> list[tuple[str, object, str]]:
    """(layer, namespace, name) of every function a traced pass wraps.

    A function is wrapped where its caller looks it up, so the quantum_core
    functions are wrapped in protocol_sim and the closed forms both in the
    CLI and inside analytic_strategies (curve_sweep calls them there).
    """
    return [
        ("protocol_sim", report_cli, "run_protocol"),
        *[("quantum_core", protocol_sim, n) for n in QUANTUM_CORE_FUNCTIONS],
        ("infotheory", protocol_sim, "mutual_information"),
        ("infotheory", analytic_strategies, "info_from_fidelity"),
        *[("analytic_strategies", report_cli, n) for n in ANALYTIC_FUNCTIONS],
        *[("analytic_strategies", analytic_strategies, n)
          for n in ("intercept_resend_curve", *ANALYTIC_FUNCTIONS[1:])],
        *[("report_cli", report_cli, n) for n in CLI_COMMANDS],
    ]


@dataclass
class Span:
    layer: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    rounds: int = 0
    workers: int = 1
    minflt: int = 0
    sifted: int = 0
    trace_records: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Spans of one traced pass, kept in memory until the pass is summarised."""

    spans: list[Span] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)
    _local: threading.local = field(default_factory=threading.local)

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, layer: str, fn):
        is_engine = layer == "protocol_sim"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(layer, stack[-1] if stack else None)
            stack.append(len(self.spans))
            self.spans.append(span)
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt if is_engine else 0
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if is_engine:
                span.minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
                span.rounds = args[0]
                span.workers = kwargs.get("workers", 1)
                estimate, trace = result
                span.sifted = estimate.n_sifted
                span.trace_records = 0 if trace is None else len(trace)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Swap every target for its traced wrapper; restore them on exit."""
        saved = []
        try:
            for layer, namespace, name in targets():
                original = getattr(namespace, name, None)
                if original is None:
                    self.missing.append(f"{namespace.__name__}.{name}")
                    continue
                saved.append((namespace, name, original))
                setattr(namespace, name, self.wrap(layer, original))
            yield
        finally:
            for namespace, name, original in reversed(saved):
                setattr(namespace, name, original)

    def summary(self, pass_seconds: float) -> dict[str, float]:
        """Layer metrics of the spans recorded so far."""
        child_seconds = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_seconds[span.parent] += span.seconds
        out: dict[str, float] = {
            f"{layer}.{kind}": 0 for layer in LAYERS for kind in ("calls", "self_s", "busy_s")
        }

        def add(name: str, value: float) -> None:
            out[name] += value

        covered = 0.0
        for index, span in enumerate(self.spans):
            add(f"{span.layer}.calls", 1)
            add(f"{span.layer}.self_s", span.seconds - child_seconds[index])
            if not self._has_ancestor(span, span.layer):
                add(f"{span.layer}.busy_s", span.seconds)
            if span.parent is None:
                covered += span.seconds
        engine = [(s, child_seconds[i]) for i, s in enumerate(self.spans) if s.layer == "protocol_sim"]
        rounds = sum(s.rounds for s, _ in engine)
        single = [(s, c) for s, c in engine if s.workers == 1]
        out.update({
            "protocol_sim.rounds": rounds,
            "protocol_sim.minflt": sum(s.minflt for s, _ in engine),
            "protocol_sim.bytes_computed": rounds * BYTES_PER_ROUND,
            "protocol_sim.sifted_ratio": sum(s.sifted for s, _ in engine) / rounds if rounds else 0.0,
            "protocol_sim.trace_records": sum(s.trace_records for s, _ in engine),
            "tracing.uncovered_share": (pass_seconds - covered) / pass_seconds,
        })
        single_rounds = sum(s.rounds for s, _ in single)
        if single_rounds:
            single_self = sum(s.seconds - c for s, c in single)
            out["protocol_sim.ns_per_round"] = single_self / single_rounds * 1e9
        return out

    def _has_ancestor(self, span: Span, layer: str) -> bool:
        while span.parent is not None:
            span = self.spans[span.parent]
            if span.layer == layer:
                return True
        return False


def rng_floor_ns_per_round(seed: int, rounds: int = 1 << 21, repeats: int = 5) -> float:
    """Median cost of the engine's random stream alone, in ns per round.

    Draws 8 uniforms per round from Philox, one generator per chunk of the
    engine's default size, advanced to the chunk start as the engine does.
    """
    chunk = getattr(protocol_sim, "_DEFAULT_CHUNK", 1 << 18)
    width = protocol_sim.UNIFORMS_PER_ROUND
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for first in range(0, rounds, chunk):
            bits = np.random.Philox(key=seed)
            bits.advance(first * width // 4)
            np.random.Generator(bits).random((min(chunk, rounds - first), width))
        times.append(time.perf_counter() - start)
    return statistics.median(times) / rounds * 1e9
