"""Tests for the package namespace, whose public names load on first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bb84eve


@pytest.mark.parametrize("name", bb84eve.__all__)
def test_public_name_resolves(name):
    module = importlib.import_module(f"bb84eve.{bb84eve._MODULE_OF[name]}")
    assert getattr(bb84eve, name) is getattr(module, name)
    namespace = {}
    exec(f"from bb84eve import {name}", namespace)
    assert namespace[name] is getattr(module, name)


def test_fresh_import_lists_names_without_loading_them():
    probe = (
        "import sys, bb84eve\n"
        "print(set(bb84eve.__all__) <= set(dir(bb84eve)), 'numpy' in sys.modules)\n"
    )
    paths = [str(Path(bb84eve.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert result.stdout.split() == ["True", "False"], result.stderr


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        bb84eve.no_such_name
