"""Byte-identity manifest: one SHA-256 per command-line invocation, plus a total.

Runs each invocation in INVOCATIONS as ``python -m bb84eve`` in a fresh
process, one at a time, and hashes what the caller can see of it: the exit
code, stdout, stderr and, for a traced run, the --trace file, or the fact
that none was written. Two checkouts that print the same lines behave the
same on every invocation, so a refactor is checked against its parent with
one diff:

    python tests/manifest.py > after.txt
    python tests/manifest.py /path/to/parent/src > before.txt
    diff before.txt after.txt

The optional argument is the source directory whose package runs; it
defaults to the ``src`` beside this file's directory. Only the standard
library is used, and pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TRACE = "{trace}"  # stands for a fresh file path in a traced invocation's argv

_ANALYTIC = [
    ("analytic", "--strategy", "all"),
    ("analytic", "--strategy", "intercept_resend", "--phi", "pi/4", "--grid", "101"),
    ("analytic", "--strategy", "ancilla_no_memory", "--phi", "0", "--grid", "101"),
    ("analytic", "--strategy", "ancilla_with_memory", "--grid", "101"),
]
_COMPARE = [("compare", "--d-bob", d) for d in ("0.05", "0.125", "0.2", "0.4")]
# single rows: no attack, every kind of interception draw, both ancilla families
_ROWS = [
    ("none",),
    *(("intercept_resend", "--phi", "0", "--fraction", f) for f in ("0", "1e-9", "1e-5", "0.02", "0.5", "1")),
    ("intercept_resend", "--phi", "pi/8", "--fraction", "0.5", "--no-symmetrize"),
    ("ancilla_no_memory", "--phi", "pi/8", "--alpha", "pi/3"),
    ("ancilla_with_memory", "--alpha", "pi/3"),
]
_GRIDS = [
    ("intercept_resend", "--phi", "0"),
    ("intercept_resend", "--phi", "pi/4"),
    ("ancilla_no_memory", "--phi", "pi/4"),
    ("ancilla_with_memory",),
]
# too few sifted rounds: exit 3, with no CSV and no trace file
_SHORT = [
    ("simulate", "--strategy", "none", "--rounds", "150", "--seed", "1"),
    ("simulate", "--strategy", "intercept_resend", "--phi", "0", "--rounds", "150", "--seed", "1",
     "--trace", TRACE),
]
_TRACED = [
    ("intercept_resend", "--phi", "pi/8", "--fraction", "0.5"),
    ("intercept_resend", "--phi", "0", "--fraction", "0"),
    ("intercept_resend", "--phi", "0", "--fraction", "1e-6"),
    ("intercept_resend", "--phi", "pi/4", "--no-symmetrize"),
    ("ancilla_no_memory", "--phi", "pi/8", "--alpha", "1"),
    ("ancilla_with_memory", "--alpha", "pi/3"),
    ("none",),
]

INVOCATIONS = [
    *_ANALYTIC,
    *_COMPARE,
    *(("simulate", "--strategy", *row, "--rounds", "200000", "--seed", "7", "--jobs", jobs)
      for row in _ROWS for jobs in ("1", "2")),
    *(("simulate", "--strategy", *row, "--grid", "11", "--rounds", "10000", "--seed", "11", "--jobs", jobs)
      for row in _GRIDS for jobs in ("1", "2")),
    *_SHORT,
    *(("simulate", "--strategy", *row, "--rounds", "20000", "--seed", "5", "--trace", path)
      for row in _TRACED for path in (TRACE, "/dev/stdout")),
]


def with_trace(argv, path: str) -> list[str]:
    """argv with TRACE replaced by path."""
    return [path if arg == TRACE else arg for arg in argv]


def digest(argv, src: Path) -> str:
    """The SHA-256 of one invocation's exit code, stdout, stderr and trace file."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp, "trace.csv")
        done = subprocess.run([sys.executable, "-m", "bb84eve", *with_trace(argv, str(trace))],
                              capture_output=True, env=env, cwd=tmp, check=False)
        parts = [str(done.returncode).encode(), done.stdout, done.stderr]
        if TRACE in argv:
            parts.append(trace.read_bytes() if trace.exists() else b"no trace file")
    h = hashlib.sha256()
    for part in parts:  # each part after its length, so no two outputs frame alike
        h.update(b"%d:" % len(part) + part)
    return h.hexdigest()


def main(args: list[str]) -> None:
    src = Path(args[0]) if args else Path(__file__).resolve().parent.parent / "src"
    total = hashlib.sha256()
    for argv in INVOCATIONS:
        line = f"{digest(argv, src.resolve())}  {' '.join(argv)}"
        total.update(line.encode() + b"\n")
        print(line, flush=True)
    print(f"{total.hexdigest()}  total of {len(INVOCATIONS)}")


if __name__ == "__main__":
    main(sys.argv[1:])
