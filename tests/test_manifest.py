"""The byte manifest in process: every invocation of ``manifest.py`` hashes to its golden line.

``golden/manifest.txt`` is what ``python tests/manifest.py`` printed. Here each
invocation runs through ``report_cli.main(argv)`` instead of a fresh process,
with descriptor 1 a pipe, as it is for the manifest's child, so a run whose
``--trace`` is /dev/stdout writes its trace and its CSV to one stream in
order. Stderr is captured, and the parts are framed by ``manifest.frame``.
"""

import contextlib
import io
import os
import threading
from pathlib import Path

import pytest

import manifest
from bb84eve.report_cli import main

LINES = (Path(__file__).parent / "golden" / "manifest.txt").read_text().splitlines()


def run(argv) -> tuple[int, bytes, bytes]:
    """main(argv)'s exit code and the bytes it wrote to stdout and stderr."""
    read, write = os.pipe()
    chunks = []
    reader = threading.Thread(target=lambda: chunks.extend(iter(lambda: os.read(read, 1 << 16), b"")))
    reader.start()
    saved = os.dup(1)
    try:
        os.dup2(write, 1)
        os.close(write)
        err = io.StringIO()
        with open(1, "w", closefd=False) as out, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.dup2(saved, 1)  # closes the pipe's last write end, so the reader sees its end
        os.close(saved)
        reader.join()
        os.close(read)
    return code, b"".join(chunks), err.getvalue().encode()


def test_golden_lists_every_invocation_and_its_total():
    assert [text.split("  ", 1)[1] for text in LINES[:-1]] == [" ".join(argv) for argv in manifest.INVOCATIONS]
    assert LINES[-1] == manifest.total_line(LINES[:-1])


@pytest.mark.parametrize("argv, golden", zip(manifest.INVOCATIONS, LINES),
                         ids=[f"line{i}" for i in range(1, len(manifest.INVOCATIONS) + 1)])
def test_invocation_hashes_to_its_golden_line(tmp_path, argv, golden):
    trace = tmp_path / "trace.csv"
    code, out, err = run(manifest.with_trace(argv, str(trace)))
    assert manifest.line(argv, manifest.frame(argv, code, out, err, trace)) == golden
