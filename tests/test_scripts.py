"""Smoke tests for the helper scripts, which use the engine's public API."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_crosscheck_passes_at_small_budget(capsys):
    crosscheck = load_script("crosscheck_simulation")
    assert crosscheck.main(["--rounds", "20000"]) == 0
    assert "worst |z|" in capsys.readouterr().out
