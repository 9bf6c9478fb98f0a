"""Command-line driver emitting deterministic CSV curve and simulation data.

Three subcommands: ``analytic`` evaluates closed-form information-vs-
disturbance curves, ``simulate`` runs the Monte Carlo engine, and ``compare``
ranks the strategies at one target disturbance. All output is CSV with a
header row, UNIX newlines, and 12-significant-digit numbers, so identical
invocations are byte-identical and suitable for golden-file testing.

Exit status: 0 on success, 2 on usage or configuration errors, 3 when a
simulation produced too few sifted rounds for standard errors, 130 on
Ctrl-C, and 141, silently, when the reader of an output pipe closed it.
Every --out and --trace path is opened before any work, on exit 2 or 3
stdout holds no CSV, and on any nonzero exit an existing output file is
left as it was.

Each command imports what it runs where it runs it: only simulate loads
numpy and the engine, and only analytic and compare the closed forms.
The process entry point, cli, sets OPENBLAS_NUM_THREADS to 1 unless the
caller set it and turns the cyclic garbage collector off before main, and
freezes the collector's objects after main. main, which tests and the
benchmark call in process, leaves both alone.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import math
import os
import re
import stat
import sys
from pathlib import Path
from typing import TextIO

from .attacks import FAMILIES, PARAMETERS, AttackConfig, NoAttack, from_fields, parameters, sweep_grid

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INSUFFICIENT_SAMPLE = 3
EXIT_INTERRUPTED = 130  # the shell's codes for a process killed by SIGINT
EXIT_BROKEN_PIPE = 141  # and by SIGPIPE
MAX_GRID = 10_000  # points per swept family; analytic holds every row in memory

ANALYTIC_HEADER = "strategy,phi,alpha,fraction,d_bob,i_eve,i_bob"
SIMULATE_HEADER = (
    "strategy,phi,alpha,fraction,n_rounds,seed,qber,qber_se,"
    "i_eve_emp,i_eve_se,f_eve_x,f_eve_y,n_sifted"
)
COMPARE_HEADER = "strategy,phi,alpha,fraction,d_bob,i_eve,in_domain,best_memoryless"
TRACE_HEADER = (
    "round,alice_basis,alice_bit,eve_acted,eve_basis,eve_outcome,eve_guess,"
    "bob_basis,bob_bit,sifted"
)

NO_ATTACK = "none"
ALL_STRATEGIES = "all"
# Eve's measurement angles shown for each phi-parameterized family
STANDARD_PHIS = (0.0, math.pi / 4)


class UsageError(Exception):
    """Invalid flag combination or out-of-range configuration."""


def _attacks(args: argparse.Namespace, default_grid: int | None) -> list[AttackConfig]:
    """The attack of each CSV row, after the flag checks analytic and simulate share.

    Without a swept value or --grid, analytic sweeps default_grid points and
    simulate runs the family's default value, or asks for one.
    """
    grid = args.grid
    if grid is not None and not 1 <= grid <= MAX_GRID:
        raise UsageError(f"--grid must lie in [1, {MAX_GRID}], got {grid}")
    # adding 0.0 reads -0.0 as 0.0, which the CSV then prints as 0
    given = {p: None if getattr(args, p) is None else getattr(args, p) + 0.0 for p in PARAMETERS}
    name = args.strategy
    if name in (NO_ATTACK, ALL_STRATEGIES):
        if any(value is not None for value in given.values()):
            raise UsageError("--strategy none takes no attack parameters" if name == NO_ATTACK
                             else "--strategy all takes no phi/alpha/fraction overrides")
        if name == NO_ATTACK:
            if grid is not None:
                raise UsageError("--strategy none has nothing to sweep")
            return [NoAttack()]
        curves = [(family, phi) for family in FAMILIES.values()
                  for phi in (STANDARD_PHIS if "phi" in family.__slots__ else (None,))]
    else:
        family = FAMILIES[name]
        if "phi" in family.__slots__ and given["phi"] is None:
            raise UsageError(f"{name} requires --phi")
        for p in PARAMETERS:
            if given[p] is not None and p not in family.__slots__:
                raise UsageError(f"{name} takes no --{p}")
        curves = [(family, given["phi"])]

    symmetrize = not getattr(args, "no_symmetrize", False)
    attacks = []
    for family, phi in curves:
        value = given[family.swept]
        if value is not None and grid is not None:
            raise UsageError(f"give either --{family.swept} or --grid, not both")
        if value is not None:
            values = [value]
        elif grid or default_grid:
            values = sweep_grid(family.name, grid or default_grid)
        elif family.default is not None:
            values = [family.default]
        else:
            raise UsageError(f"{family.name} requires --{family.swept} (or --grid to sweep it)")
        attacks += [from_fields(family, {"phi": phi, family.swept: value, "symmetrize": symmetrize})
                    for value in values]
    return attacks


class _AngleError(ValueError, argparse.ArgumentTypeError):
    """An angle that does not parse; argparse prints its reason after the flag's name."""


def parse_angle(text: str) -> float:
    """Angle in radians from a float literal or a pi expression like 3pi/8."""
    s = text.strip().lower().replace(" ", "")
    number = r"((?:\d+(?:\.\d*)?|\.\d+)(?:e[-+]?\d+)?)"
    m = re.fullmatch(rf"(-?)(?:{number}\*?)?(pi)?(?:/{number})?", s)
    if not m or (m.group(2) is None and m.group(3) is None):
        raise _AngleError(f"cannot parse angle {text!r}")
    sign, coeff, pi_token, divisor = m.groups()
    value = float(coeff) if coeff is not None else 1.0
    div = float(divisor) if divisor is not None else 1.0
    if div == 0.0:
        raise _AngleError(f"zero divisor in angle {text!r}")
    if pi_token:
        value *= math.pi
    value /= div
    if not (math.isfinite(value) and math.isfinite(div)):
        raise _AngleError(f"angle {text!r} is not finite")
    return -value if sign else value


def _fmt(value) -> str:
    if type(value) is float:  # most cells, so tested first
        return format(value, ".12g")
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)  # str and int cells


def _document(header: str, rows: list[list]) -> str:
    lines = [header]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def _write_all(stream: TextIO, text: str | bytearray) -> None:
    """Write text, or ASCII bytes, to stream in full, or raise BrokenPipeError if its reader left.

    A text stream drops what a pipe did not take without an error, so text
    goes to the descriptor by os.write until every byte is taken; a stream
    with no descriptor (in memory) takes it in one write.
    """
    stream.flush()
    try:
        fd = stream.fileno()
    except io.UnsupportedOperation:
        stream.write(text if isinstance(text, str) else text.decode("ascii"))
        return
    data = memoryview(text.encode(stream.encoding, stream.errors) if isinstance(text, str) else text)
    while data:
        data = data[os.write(fd, data):]


def _sort_key(point):
    return (
        point.strategy,
        point.d_bob,
        -1.0 if point.phi is None else point.phi,
        -1.0 if point.alpha is None else point.alpha,
        -1.0 if point.fraction is None else point.fraction,
    )


# --- analytic ----------------------------------------------------------------


def cmd_analytic_curves(args: argparse.Namespace) -> str:
    """CSV of curve points for one strategy family or the five standard ones."""
    from .analytic_strategies import closed_form
    points = sorted(map(closed_form, _attacks(args, default_grid=101)), key=_sort_key)
    rows = [[p.strategy, p.phi, p.alpha, p.fraction, p.d_bob, p.i_eve, p.i_bob] for p in points]
    return _document(ANALYTIC_HEADER, rows)


# --- simulate ----------------------------------------------------------------


def run_protocol(*args, **kwargs):
    """protocol_sim.run_protocol; tests and the benchmark swap this name for a fake or a wrapper."""
    from .protocol_sim import run_protocol
    return run_protocol(*args, **kwargs)


def _trace_cells(codes, eve_labels: tuple) -> list[str]:
    """The TRACE_HEADER cells after the round index, for each of an array of round codes."""
    from .protocol_sim import BASIS_LABELS, Outcome, unpack
    rows = []
    for acted, slot, eve_bit, guess, ab, abit, bb, bbit in zip(*(v.tolist() for v in unpack(codes).values())):
        eve = [eve_labels[slot], Outcome(eve_bit).name.lower(), guess] if acted else [None] * 3
        cells = [BASIS_LABELS[ab], abit, bool(acted), *eve, BASIS_LABELS[bb], bbit, ab == bb]
        rows.append(",".join(_fmt(cell) for cell in cells))
    return rows


class _TraceWriter:
    """Writes the trace document of one run to out, a Trace block per call.

    Blocks come in round order, and the first call writes the header. A row
    is its round index's digits and its code's tail, the bytes ",<cells>\n".
    A table holds the tail of each code met so far (at most N_CODES),
    NUL-padded, and is rebuilt only when a new code appears. Each call
    formats its block, one engine block of rounds, in one go: the index
    digits fill the rows' leading columns, one take of the table the rest,
    and every NUL is deleted, which leaves the text since no cell contains one.
    """

    def __init__(self, out: TextIO):
        import numpy as np

        self.out, self.start = out, 0
        self.tails = {}  # code -> tail
        # digits[i]: the 4 ASCII digits of i, zero-padded
        self.digits = (np.arange(10_000)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8)

    def __call__(self, block) -> None:
        if not self.start:
            _write_all(self.out, TRACE_HEADER + "\n")
        _write_all(self.out, self.rows(block.codes, block.eve_labels, self.start))
        self.start += len(block)

    def rows(self, codes, eve_labels: tuple, start: int) -> bytearray:
        """The trace rows of codes, numbered from start."""
        import numpy as np

        n = len(codes)
        width = len(str(start + n - 1))  # digits of the largest index
        new = [code for code in np.flatnonzero(np.bincount(codes)).tolist() if code not in self.tails]
        if new:
            self.tails.update(zip(new, (f",{cells}\n".encode() for cells in _trace_cells(new, eve_labels))))
            tails = [self.tails.get(code, b"") for code in range(max(self.tails) + 1)]
            self.table = np.array(tails).view(np.uint8).reshape(len(tails), -1)  # each tail NUL-padded
        text = bytearray(n * (width + self.table.shape[1]))
        rows = np.frombuffer(text, dtype=np.uint8).reshape(n, -1)
        rows[:, width:] = self.table.take(codes, axis=0)
        index = np.arange(start, start + n, dtype=np.int64)
        for right in range(width, 0, -4):  # four digits at a time, from the right
            index, group = np.divmod(index, 10_000)
            left = max(right - 4, 0)
            rows[:, left:right] = self.digits.take(group, axis=0)[:, 4 - (right - left) :]
        for k in range(1, width):  # k places from the right, a zero leads in every index below 10**k
            rows[: max(0, min(n, 10**k - start)), width - 1 - k] = 0
        return text.translate(None, b"\0")


def cmd_simulate(args: argparse.Namespace, *, on_trace=None) -> str:
    """Run the engine for each grid point; returns the CSV.

    Each row uses seed + row_index so sweeps stay reproducible row by row.
    on_trace goes to run_protocol. Tracing is limited to single-row runs
    because a trace belongs to exactly one (attack, seed) pair.
    """
    if args.rounds < 1:
        raise UsageError("--rounds must be a positive integer")
    if args.rounds >= 2**63:
        raise UsageError(f"--rounds must be below 2**63, got {args.rounds}")
    if args.seed < 0:
        raise UsageError("--seed must be non-negative")
    if args.jobs < 1:
        raise UsageError("--jobs must be at least 1")
    attacks = _attacks(args, default_grid=None)
    if on_trace is not None and len(attacks) != 1:
        raise UsageError("--trace requires a single-point run, not a sweep")
    if args.seed + len(attacks) - 1 >= 2**64:
        raise UsageError(f"--seed must leave {len(attacks)} row seeds below 2**64, got {args.seed}")

    rows = []
    for index, attack in enumerate(attacks):
        row_seed = args.seed + index
        est, _ = run_protocol(args.rounds, attack, row_seed, on_trace=on_trace, workers=args.jobs)
        rows.append(
            [
                args.strategy, *parameters(attack), args.rounds, row_seed,
                est.qber, est.qber_se, est.eve_mutual_info, est.eve_mutual_info_se,
                est.eve_fidelity_x, est.eve_fidelity_y, est.n_sifted,
            ]
        )
    return _document(SIMULATE_HEADER, rows)


# --- compare -----------------------------------------------------------------


def cmd_compare(args: argparse.Namespace) -> str:
    """Rank the strategies at one target disturbance.

    Emits intercept/resend rows at phi 0 and pi/4 (via fractional
    interception, defined only up to d_bob = 1/4), the same two rows for the
    no-memory ancilla at the alpha matching the disturbance, and the
    with-memory ancilla. Each phi family also gets an _opt row at its
    optimal angle, which is phi = 0 (proof in the README). The best
    memoryless row is flagged; out-of-domain intercept/resend rows carry no
    information value. The flag ranks the listed families only: at d_bob =
    0.125 a weak X measurement gives Eve 0.3227 bits, intercept/resend 0.25.
    """
    from .analytic_strategies import at_disturbance, closed_form
    d = args.d_bob
    if not (0.0 < d <= 0.5):
        raise UsageError("--d-bob must lie in (0, 0.5]")

    rows = []
    for name, family in FAMILIES.items():
        value = at_disturbance(name, d)
        in_domain, memoryless = value is not None, "phi" in family.__slots__
        if memoryless:
            angles = [(name, phi) for phi in STANDARD_PHIS]
            angles.append((name + "_opt", 0.0 if in_domain else None))
        else:
            angles = [(name, None)]
        for label, phi in angles:
            cells = [phi, None, None, None]
            if in_domain:
                point = closed_form(from_fields(family, {"phi": phi, family.swept: value, "symmetrize": True}))
                cells = [point.phi, point.alpha, point.fraction, point.i_eve]
            # COMPARE_HEADER cells; the last says "memoryless" until it becomes the flag
            rows.append([label, *cells[:3], d, cells[3], in_domain, memoryless])

    rows.sort(key=lambda r: (r[0], -1.0 if r[1] is None else r[1]))
    # max keeps the first of equal values, so ties go to the first row in sort order
    best = max((r for r in rows if r[7] and r[5] is not None), key=lambda r: r[5], default=None)
    for row in rows:
        row[7] = row is best if row[7] else None
    return _document(COMPARE_HEADER, rows)


# --- argument parsing ---------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose help reaches stdout in full or raises.

    argparse's own printing drops an OSError, so --help into a full disk or
    a closed pipe would exit as if it had written. Usage goes only to
    stderr, on a usage error, which exits 2 whether or not it was written.
    """

    def print_help(self, file=None) -> None:
        _write_all(file or sys.stdout, self.format_help())


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bb84eve",
        description="Information-vs-disturbance curves for eavesdropping on BB84.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, strategies, *, grid_help: str) -> None:
        p.add_argument("--strategy", required=True, choices=strategies)
        p.add_argument("--phi", type=parse_angle, default=None,
                       help="measurement angle in radians (accepts pi expressions like pi/4)")
        p.add_argument("--alpha", type=parse_angle, default=None,
                       help="interaction strength in radians")
        p.add_argument("--fraction", type=float, default=None,
                       help="intercepted fraction for intercept_resend")
        p.add_argument("--grid", type=int, default=None, help=grid_help)
        p.add_argument("--out", type=Path, default=None, help="write CSV here instead of stdout")

    p_analytic = sub.add_parser("analytic", help="closed-form curve points as CSV")
    common(p_analytic, (*FAMILIES, ALL_STRATEGIES),
           grid_help=f"points per curve family, at most {MAX_GRID} (default 101)")

    p_sim = sub.add_parser("simulate", help="Monte Carlo protocol runs as CSV")
    common(p_sim, (NO_ATTACK, *FAMILIES),
           grid_help=f"sweep the natural parameter over this many points, at most {MAX_GRID}")
    p_sim.add_argument("--rounds", type=int, required=True, help="protocol rounds per row")
    p_sim.add_argument("--seed", type=int, default=0, help="base seed; row i uses seed + i")
    p_sim.add_argument("--jobs", type=int, default=1,
                       help="worker threads, at most one per 65536 rounds and per CPU; a --trace run "
                            "uses one (output is identical for any value)")
    p_sim.add_argument("--no-symmetrize", action="store_true",
                       help="always measure at phi instead of coin-flipping with its companion")
    p_sim.add_argument("--trace", type=Path, default=None,
                       help="also dump one CSV row per protocol round (single-point runs only)")

    p_cmp = sub.add_parser("compare", help="rank strategies at one disturbance")
    p_cmp.add_argument("--d-bob", dest="d_bob", type=float, required=True,
                       help="target disturbance in (0, 0.5]")
    p_cmp.add_argument("--out", type=Path, default=None)
    return parser


@contextlib.contextmanager
def _replacing(path: Path):
    """A text stream to path that replaces a new or regular file atomically.

    It writes a temporary file beside the file path resolves to, renamed over
    it with the old mode or removed on failure; a device or FIFO is written directly.
    """
    old = os.stat(path) if os.path.exists(path) else None
    if old is not None and not stat.S_ISREG(old.st_mode):
        with open(path, "w") as stream:
            yield stream
        return
    if old is not None:
        open(path, "a").close()  # a file that cannot be written stays as it is
    target = Path(os.path.realpath(path))
    temp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        stream = open(temp, "x")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with stream:
            if old is not None:
                os.chmod(temp, stat.S_IMODE(old.st_mode))
            yield stream
        os.replace(temp, target)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def _error(message) -> None:
    """Write "error: <message>" to stderr, or drop it, as argparse drops its own lines, if stderr fails.

    The line goes to the descriptor, so a failed write leaves no bytes in the
    stream's buffer for the flush at exit to fail on again.
    """
    try:
        _write_all(sys.stderr, f"error: {message}\n")
    except OSError:
        pass


def main(argv=None) -> int:
    parser = _build_parser()
    too_few_sifted = ()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            # argparse exits on its own for bad flags or --help; fold that into
            # the return-code contract so callers never see the exception
            return int(exc.code or 0)
        if args.command == "simulate":
            from .protocol_sim import InsufficientSampleError as too_few_sifted
        paths = (args.out, getattr(args, "trace", None))
        if (None not in paths and os.path.realpath(paths[0]) == os.path.realpath(paths[1])
                and (os.path.isfile(args.out) or not os.path.exists(args.out))):
            # each would replace the file with its own temporary; a device takes both streams
            raise UsageError(f"--out and --trace name the same file: {args.out}")
        with contextlib.ExitStack() as outputs:
            # every output opens before any work, so an unwritable path fails
            # first; an error below removes the temporaries and keeps old files
            out, trace_out = (None if path is None else outputs.enter_context(_replacing(path))
                              for path in paths)
            if args.command == "analytic":
                text = cmd_analytic_curves(args)
            elif args.command == "simulate":
                # the trace streams into its output as the run goes
                text = cmd_simulate(args, on_trace=None if trace_out is None else _TraceWriter(trace_out))
            else:
                text = cmd_compare(args)
            if out is not None:
                _write_all(out, text)
        if out is None:
            _write_all(sys.stdout, text)
    except KeyboardInterrupt:
        _error("interrupted")
        return EXIT_INTERRUPTED
    except BrokenPipeError:
        # the reader left; as the Python docs advise, the flush at exit goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except too_few_sifted as exc:
        _error(exc)
        return EXIT_INSUFFICIENT_SAMPLE
    except (UsageError, ValueError, OSError) as exc:
        # range checks in the attack model raise ValueError for out-of-domain
        # parameters, which is a usage problem here, and so is an --out or
        # --trace path that cannot be written
        _error(exc)
        return EXIT_USAGE
    return EXIT_OK


def cli() -> None:
    """The process entry point: set OPENBLAS_NUM_THREADS, turn the collector off, run main, exit with its status.

    Before main, OPENBLAS_NUM_THREADS becomes 1 unless the caller set it,
    so numpy's OpenBLAS, which reads it when numpy loads, starts no worker
    threads, and gc.disable() turns off the collector, whose passes during
    numpy's import cost a few milliseconds on every call. A run makes no
    cyclic garbage that grows with its work: its only cycles are argparse's
    parser, a fixed couple of hundred objects that the exit frees with the
    process. Before the exit, gc.freeze() moves every live object, most of
    them made by numpy's import, to the collector's permanent generation, so
    the full collection of interpreter finalization, which runs even with
    the collector off, skips them. main touches neither the environment nor
    gc, since tests and benchmarks call it in process.
    """
    # OpenBLAS starts a worker per further CPU, which spins before it sleeps
    # and so takes a CPU from a --jobs share thread; the program's only linear
    # algebra is on 2- and 4-element state vectors, which a pool cannot speed up
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    gc.disable()
    status = main()
    gc.freeze()
    sys.exit(status)
