"""Tests for the package namespace, whose public names load on first use, the README, and
the imports of every source file."""

import argparse
import ast
import importlib
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import bb84eve
from conftest import package_env
from bb84eve.report_cli import _build_parser

ROOT = Path(__file__).parents[1]
README = ROOT / "README.md"

# the package surface: the attack configs, the closed forms and the engine
SURFACE = {
    "NoAttack", "InterceptResend", "AncillaNoMemory", "AncillaWithMemory", "AttackConfig",
    "intercept_resend", "ancilla_no_memory", "ancilla_with_memory", "closed_form",
    "StrategyReport", "CurvePoint",
    "run_protocol", "estimate", "Trace", "SimEstimate", "InsufficientSampleError",
}
# names the package once exported that stay public in their modules only
MODULE_ONLY = {
    "BasisStats": "analytic_strategies",
    "binary_entropy": "analytic_strategies",
    "info_from_fidelity": "analytic_strategies",
    **{name: "quantum_core" for name in (
        "EquatorBasis", "Outcome", "PureState", "apply_eve_unitary",
        "joint_outcome_probabilities", "make_bb84_state", "outcome_probabilities")},
}


@pytest.mark.parametrize("name", [*bb84eve.__all__, *MODULE_ONLY])
def test_public_name_resolves(name):
    if name in MODULE_ONLY:
        assert hasattr(importlib.import_module(f"bb84eve.{MODULE_ONLY[name]}"), name)
        assert name not in bb84eve.__all__
        with pytest.raises(AttributeError):
            getattr(bb84eve, name)
        return
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
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=package_env())
    assert result.stdout.split() == ["True", "False"], result.stderr


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        bb84eve.no_such_name


def test_hypothesis_patch_writer_loads_before_any_test():
    # conftest imports it, so a failure hypothesis generates cannot end the session
    pytest.importorskip("libcst")
    assert "hypothesis.extra._patching" in sys.modules


class TestReadme:
    def blocks(self, language: str) -> list[str]:
        return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(), re.M | re.S)

    def test_surface_is_documented(self):
        assert set(bb84eve.__all__) == SURFACE
        text = README.read_text()
        assert [name for name in sorted(SURFACE) if not re.search(rf"\b{name}\b", text)] == []

    def test_python_blocks_run(self):
        blocks = self.blocks("python")
        assert len(blocks) == 2
        for block in blocks:
            exec(compile(block, str(README), "exec"), {})

    def test_thread_share_is_the_engines(self):
        # the --jobs help states the share size as a literal, since reading the
        # engine's constant would load numpy for every command
        from bb84eve.protocol_sim import _THREAD_ROUNDS

        (commands,) = (a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        (jobs,) = (a for a in commands.choices["simulate"]._actions if a.dest == "jobs")
        readme = " ".join(README.read_text().split())
        assert re.findall(r"one per (\d+) rounds", jobs.help) == [str(_THREAD_ROUNDS)]
        assert re.findall(r"one thread per (\d+) rounds", readme) == [str(_THREAD_ROUNDS)]

    def test_engine_sizes_are_the_constants(self):
        from bb84eve.protocol_sim import _BLOCK, MIN_SIFTED, UNIFORMS_PER_ROUND
        from bb84eve.report_cli import MAX_GRID

        readme = " ".join(README.read_text().split())
        facts = {
            r"blocks of (\d+) rounds": [_BLOCK],
            r"Philox words \((\d+) KiB\)": [_BLOCK * UNIFORMS_PER_ROUND * 8 // 1024],
            r"exceeds (\d+) KiB": [_BLOCK * 8 // 1024],
            r"smaller than (\d+) rounds": [MIN_SIFTED],
            r"(\d+) sifted rounds": [MIN_SIFTED, MIN_SIFTED],
            r"1 to (\d+) points": [MAX_GRID],
        }
        assert {pattern: [int(n) for n in re.findall(pattern, readme)] for pattern in facts} == facts

    def test_command_lines_parse(self):
        lines = [line for block in self.blocks("sh") for line in block.replace("\\\n", " ").splitlines()]
        commands = [shlex.split(line, comments=True) for line in lines if line.startswith("bb84eve ")]
        assert len(commands) > 15
        for argv in commands:
            assert isinstance(_build_parser().parse_args(argv[1:]), argparse.Namespace)


def unused_imports(path: Path) -> list[str]:
    """The names path imports and never reads, as "file:line: name".

    A name listed in the file's __all__, or one the package exports lazily
    from this module, counts as read.
    """
    tree = ast.parse(path.read_text(), str(path))
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name.split(".")[0], a.lineno) for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    if path.parent.name == "bb84eve":
        used.update(name for name, module in bb84eve._MODULE_OF.items() if module == path.stem)
    return [f"{path.relative_to(ROOT)}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_every_import_is_used():
    sources = sorted([*(ROOT / "src" / "bb84eve").glob("*.py"), *(ROOT / "tests").glob("*.py")])
    assert len(sources) > 15
    assert [line for path in sources for line in unused_imports(path)] == []


# calls that set process-wide state: the collector's, or an exit that skips
# the flush of stdout and atexit
PROCESS_WIDE = {"gc.freeze", "gc.disable", "gc.set_threshold", "os._exit"}


def process_wide_uses(path: Path) -> list[tuple[str, str, str]]:
    """The PROCESS_WIDE names path reads or imports, as (file, enclosing function or class, name)."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name)
                continue
            names = []
            if isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name):
                names = [f"{child.value.id}.{child.attr}"]
            elif isinstance(child, ast.ImportFrom):
                names = [f"{child.module}.{alias.name}" for alias in child.names]
            found.extend((path.name, scope, name) for name in names if name in PROCESS_WIDE)
            visit(child, scope)

    visit(ast.parse(path.read_text(), str(path)), "<module>")
    return found


def test_process_wide_state_stays_out_of_library_code(tmp_path):
    sources = sorted((ROOT / "src" / "bb84eve").glob("*.py"))
    uses = [use for path in sources for use in process_wide_uses(path)]
    # only the process entry point touches the collector: off before main, frozen after it returns
    assert uses == [("report_cli.py", "cli", "gc.disable"), ("report_cli.py", "cli", "gc.freeze")]
    probe = tmp_path / "probe.py"
    probe.write_text("import gc\nfrom os import _exit\ndef run():\n    gc.disable()\n")
    assert process_wide_uses(probe) == [
        ("probe.py", "<module>", "os._exit"), ("probe.py", "run", "gc.disable")]


def test_sources_parse_as_the_oldest_supported_python():
    # the suite runs on one interpreter, so syntax newer than requires-python would pass it unseen
    (minor,) = re.findall(r'^requires-python = ">=3\.(\d+)"$', (ROOT / "pyproject.toml").read_text(), re.M)
    oldest = (3, int(minor))
    sources = sorted([*(ROOT / "src" / "bb84eve").glob("*.py"), *(ROOT / "tests").glob("*.py")])
    assert len(sources) > 15
    for path in sources:
        ast.parse(path.read_text(), str(path), feature_version=oldest)
    # the check sees syntax that came later: except* is Python 3.11's
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
