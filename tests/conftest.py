"""Shared pytest wiring: a visible per-criterion summary for the acceptance gate,
hypothesis's patch writer loaded before any test can fail, and the environment
a test's child process imports the package under test from.

When hypothesis finds a failing example by generation, its pytest plugin
imports hypothesis.extra._patching, and that import of libcst warns that
mypy_extensions.TypedDict is deprecated. Under the suite's
error::DeprecationWarning filter the warning would end the session with an
INTERNALERROR, so no later test would run. The module is imported here,
with only that warning ignored; the filters stay as they are. Without
libcst the plugin skips the patch, and so does this import.
"""

import contextlib
import importlib
import os
import warnings
from pathlib import Path

with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated", DeprecationWarning)
    importlib.import_module("hypothesis.extra._patching")


def package_env() -> dict:
    """The environment with the imported bb84eve first on PYTHONPATH."""
    import bb84eve

    paths = [str(Path(bb84eve.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


ACCEPTANCE_RESULTS: list[tuple[int, str, str]] = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("acceptance criteria", sep="-")
    for number, status, title in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"criterion {number}: {status}  {title}")
