"""Start-up budget: no command but ``simulate`` loads SciPy, ``numpy.ma``
or ``numpy.random`` at all, and ``simulate`` loads only
``scipy.special``, not ``scipy.stats``; every module of the package is
one the CLI imports; every public name is used by the package or the
acceptance suite; ground truth reaches the score without objects;
fusion has one boundary combiner; detections are one table, not split by
video; rows are ordered by one helper; and a flag's key and type, like
each error type, are defined once.

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


# every command but simulate, which loads SciPy, and SciPy loads numpy.ma
COMMANDS = pytest.mark.parametrize("argv", [
    ["windows", "--total-features", "100"],
    ["fuse", "--proposals", "{tmp}/p.txt"],
    ["pipeline", "--proposals", "{tmp}/p.txt"],
    ["nms", "--input", "{tmp}/s.json"],
    ["eval", "--submission", "{tmp}/s.json", "--ground-truth", "{tmp}/g.json"],
], ids=lambda argv: argv[0])


@COMMANDS
def test_command_does_not_load_scipy(tmp_path, argv):
    assert loaded_after(tmp_path, "scipy", *argv) == (0, False)


@COMMANDS
def test_command_does_not_load_numpy_ma(tmp_path, argv):
    # np.unique, for one, imports numpy.ma on first use
    assert loaded_after(tmp_path, "numpy.ma", *argv) == (0, False)


@COMMANDS
def test_command_does_not_load_numpy_random(tmp_path, argv):
    # simulation imports numpy.random inside generate_scenario only
    assert loaded_after(tmp_path, "numpy.random", *argv) == (0, False)


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


def test_every_module_is_reached_from_the_cli():
    # static: it follows every relative import of cli.py, also those inside
    # function bodies, which a run of one command may never execute
    reached, frontier = set(), ["cli"]
    while frontier:
        module = frontier.pop()
        if module not in reached:
            reached.add(module)
            frontier.extend(relative_imports(module))
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__", "__main__"}
    assert sorted(modules - reached) == []


def public_definitions(tree):
    """(name, node) of the public functions, classes and assigned names at top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [target.id for target in targets if isinstance(target, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names if not name.startswith("_"))


def referenced(nodes):
    """Every name that ``nodes`` mention: as a name, an attribute or an import."""
    found = set()
    for node in (sub for top in nodes for sub in ast.walk(top)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def test_every_public_name_is_used_by_the_package_or_the_acceptance_suite():
    # __init__ is left out: a re-export there is not a use
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in PACKAGE.glob("*.py") if path.stem != "__init__"}
    uses = {module: referenced([tree]) for module, tree in trees.items()}
    uses[None] = referenced([ast.parse((SRC.parent / "tests" / "test_acceptance.py")
                                       .read_text(encoding="utf-8"))])
    orphans = []
    for module, tree in sorted(trees.items()):
        elsewhere = set().union(*(names for m, names in uses.items() if m != module))
        for name, definition in public_definitions(tree):
            own = referenced([node for node in tree.body if node is not definition])
            if name not in elsewhere | own:
                orphans.append(f"{module}.{name}")
    assert orphans == []


def test_ground_truth_reaches_the_score_as_record_arrays():
    # proposals are columns and detections and ground truth record arrays
    # throughout the package: no module defines or takes an object form of
    # any of them, nor stacks proposals into dense score matrices
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for name in ("GroundTruthInstance", "ActionDetection", "ProposalRecord",
                     "stack_records"):
            assert name not in text, (path.name, name)


def defined_names():
    """Every name the package defines, at any depth: functions, classes and
    assigned names."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found.update(target.id for target in targets if isinstance(target, ast.Name))
    return found


def test_fusion_has_one_boundary_combiner():
    # fusion.fuse is the one linear combination of the two stream boundaries
    assert sorted(defined_names() & {"fuse_boundaries", "hard_mean_fusion", "_weighted"}) == []


def test_detections_are_one_table_from_fusion_to_file():
    # a video is a column of one table: no per-video suppression wrapper,
    # no re-stacking of per-video arrays for eval, no dtypes that add the
    # video code back
    assert sorted(defined_names() & {"eval_columns", "suppress_submission", "EVAL_DETECTION",
                                     "EVAL_GROUND_TRUTH"}) == []


def test_command_io_runs_and_the_video_map_have_one_home():
    # cli.main loads the configuration and writes the output, suppression.runs
    # finds runs of equal keys, and io._video_table reads a JSON video map
    assert sorted(defined_names() & {"_runs", "_heads", "_reject_repeated_keys",
                                     "_load_config", "_emit"}) == []


def test_rows_are_ordered_by_one_helper():
    # suppression.lex_order is the one exact ordering: no slow stable sort
    # or lexsort outside it
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for node in ast.parse("\n".join(lines)).body:
            if isinstance(node, ast.FunctionDef) and node.name == "lex_order":
                lines[node.lineno - 1:node.end_lineno] = []
        found += [(path.name, text) for line in lines
                  for text in ("np.lexsort(", 'kind="stable"', "kind='stable'") if text in line]
    assert found == []


def test_flags_and_errors_have_one_definition_each():
    # a flag's dest is the configuration key it sets, so config._FIELD_TYPES
    # is the one table of key types; errors.py keeps the four types that a
    # caller tells apart, and the others are ParseError or InvalidConfig
    assert sorted(defined_names() & {"_FLAG_KEYS", "SchemaMismatch", "VocabularyMismatch",
                                     "UnknownKey", "ActionIdOutOfRange",
                                     "InvalidOverlap"}) == []


def test_ground_truth_carries_the_one_action_key():
    # every table holds VocabSpec.action_id in its action column, so eval
    # reads each task's class as a column and recomputes no action key; the
    # readers and the simulator take GROUND_TRUTH from suppression
    assert sorted(defined_names() & {"_task_classes"}) == []
    assert "evaluation" not in relative_imports("io")
    assert "evaluation" not in relative_imports("simulation")
