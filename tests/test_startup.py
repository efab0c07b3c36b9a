"""Start-up budget: no command but ``simulate`` loads SciPy at all, and
``simulate`` loads only ``scipy.special``, not ``scipy.stats``; and every
module of the package but the listed library-only ones is one the CLI
imports.

Each command runs in a fresh interpreter, because an import made by any
earlier test in this process would hide a regression.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "tadfusion"
PROPOSAL = "P01 0 10.0 20.0 5:0.9 14.0 24.0 3:0.8\n"
SUBMISSION = """{"version": "0.1", "challenge": "action_detection", "results": {"P01": [
  {"verb": 3, "noun": 5, "action": "3,5", "segment": [1.0, 2.0], "score": 0.5}]}}"""
GROUND_TRUTH = '{"annotations": {"P01": [{"verb": 3, "noun": 5, "segment": [1.0, 2.0]}]}}'

PROBE = """
import sys
from tadfusion.cli import main
code = main(sys.argv[2:])
print(code, sys.argv[1] in sys.modules)
"""


def loaded_after(tmp_path, module, *argv):
    """Run ``tadfusion argv`` in a fresh interpreter; (exit code, module loaded)."""
    files = {"p.txt": PROPOSAL, "s.json": SUBMISSION, "g.json": GROUND_TRUTH,
             "sim.cfg": "sim_segments = 20\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    result = subprocess.run(
        [sys.executable, "-c", PROBE, module, *argv, "--output", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, check=True,
    )
    code, loaded = result.stdout.split()
    return int(code), loaded == "True"


@pytest.mark.parametrize("argv", [
    ["windows", "--total-features", "100"],
    ["fuse", "--proposals", "{tmp}/p.txt"],
    ["pipeline", "--proposals", "{tmp}/p.txt"],
    ["nms", "--input", "{tmp}/s.json"],
    ["eval", "--submission", "{tmp}/s.json", "--ground-truth", "{tmp}/g.json"],
], ids=lambda argv: argv[0])
def test_command_does_not_load_scipy(tmp_path, argv):
    assert loaded_after(tmp_path, "scipy", *argv) == (0, False)


def test_simulate_does_not_load_scipy_stats(tmp_path):
    argv = ["simulate", "--config", "{tmp}/sim.cfg"]
    assert loaded_after(tmp_path, "scipy.stats", *argv) == (0, False)


def relative_imports(module):
    """Package modules that ``module`` imports relatively, at any depth of its body."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module)
            else:  # from . import name: a submodule, or a name of __init__
                found.update(alias.name for alias in node.names
                             if (PACKAGE / f"{alias.name}.py").exists())
    return found


# library-only modules that no command reaches and that are to be deleted,
# each with its tests, in a change of its own; the list must only shrink
UNREACHED_PENDING_DELETION = {"decode"}


def test_every_module_is_reached_from_the_cli():
    # static, because importing tadfusion.cli runs the package __init__,
    # which loads every module whether the CLI uses it or not
    reached, frontier = set(), ["cli"]
    while frontier:
        module = frontier.pop()
        if module not in reached:
            reached.add(module)
            frontier.extend(relative_imports(module))
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__", "__main__"}
    assert sorted(modules - reached) == sorted(UNREACHED_PENDING_DELETION)
