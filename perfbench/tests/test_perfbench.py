"""Tests of the benchmark itself: seeded inputs, the output gate, the
tail percentile and repeatable per-layer counts.

Run from the root of the checkout:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import ast
import json
import random
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

CLI = run.load_cli()
WORKLOADS = sorted(gen.MAKERS)


def _inputs(work: gen.Workload, workdir: Path):
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    args = [a for a in work.argv if not a.startswith(str(workdir))]
    return files, args


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_input_bytes(workload, tmp_path):
    a = gen.make(workload, 7, tmp_path / "a")
    b = gen.make(workload, 7, tmp_path / "b")
    c = gen.make(workload, 8, tmp_path / "c")
    assert _inputs(a, tmp_path / "a") == _inputs(b, tmp_path / "b")
    assert _inputs(a, tmp_path / "a") != _inputs(c, tmp_path / "c")


def test_generator_does_not_import_the_program():
    tree = ast.parse((BENCH / "gen.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not any(name and name.startswith("tadfusion") for name in imported)


class _CorruptingCli:
    """Runs the real CLI, then changes the last digit of its output."""

    def main(self, argv):
        code = CLI.main(argv)
        path = Path(argv[argv.index("--output") + 1])
        text = path.read_text(encoding="utf-8")
        last = max(m.start() for m in re.finditer(r"\d", text))
        path.write_text(text[:last] + str((int(text[last]) + 1) % 10) + text[last + 1:],
                        encoding="utf-8")
        return code


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_trips_the_digest_gate(workload, tmp_path):
    work = gen.make(workload, 3, tmp_path)
    loop = run.Loop(CLI, work, expected=None)
    loop.op()
    assert loop.failed == 0 and not loop.problems

    corrupted = run.Loop(_CorruptingCli(), work, expected=loop.expected)
    corrupted.op()
    assert corrupted.failed == 1
    assert "digest" in corrupted.problems[0]


def test_malformed_output_on_an_unpinned_seed_is_reported(tmp_path):
    class GarbageCli:
        def main(self, argv):
            Path(argv[argv.index("--output") + 1]).write_text("{not json", encoding="utf-8")
            return 0

    loop = run.Loop(GarbageCli(), gen.make("pipeline_dense", 3, tmp_path), expected=None)
    loop.op()
    assert loop.problems[0].startswith("invalid output")


def test_pinned_digest_mismatch_counts_as_failed(tmp_path):
    work = gen.make("simulate", 3, tmp_path)
    loop = run.Loop(CLI, work, expected="0" * 64)
    loop.op()
    assert loop.failed == 1 and loop.attempted == 1


def test_pinned_digests_cover_every_workload():
    table = json.loads(run.DIGESTS.read_text(encoding="utf-8"))
    assert set(table) == set(WORKLOADS)
    assert all(len(seeds) >= 2 for seeds in table.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_program_reproduces_the_pinned_digest(workload, tmp_path):
    loop = run.Loop(CLI, gen.make(workload, 0, tmp_path), run.pinned_digest(workload, 0))
    loop.op()
    assert loop.failed == 0 and not loop.problems


@pytest.mark.parametrize("n", [11, 12, 37, 200])
def test_tail_percentile_has_ten_samples_beyond(n):
    samples = [0.001 * i for i in range(n)]
    random.Random(n).shuffle(samples)
    value, percentile, count = run.tail(samples)
    assert count == n
    assert sum(s > value for s in samples) == run.TAIL_BEYOND == 10
    assert percentile == pytest.approx(100.0 * (n - 11) / (n - 1))


def _traced_metrics(work: gen.Workload) -> dict:
    tracer = tracing.Tracer()
    loop = run.Loop(CLI, work, expected=None)
    loop.op(tracer.run)
    assert loop.failed == 0 and not loop.problems
    return tracer.op_metrics(tracer.ops[0])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_two_traced_runs_give_identical_counts(workload, tmp_path):
    work = gen.make(workload, 2, tmp_path)
    first, second = _traced_metrics(work), _traced_metrics(work)
    counts = {k for k, unit in tracing.PER_LAYER_METRICS.items() if unit in ("count", "bytes")}
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    named = {"pipeline_dense": ["fusion.calls", "composition.candidates_out",
                                "suppression.in", "suppression.out"],
             "nms_crowded": ["suppression.in", "suppression.out"],
             "eval_multi_video": ["evaluation.dets", "evaluation.gts"],
             "simulate": ["simulation.segments"]}[workload]
    assert all(first[k] > 0 for k in named)
    assert first["timeline.dropped"] == second["timeline.dropped"]


def test_tracer_restores_entry_points(tmp_path):
    import tadfusion.pipeline

    original = tadfusion.pipeline.compose_actions
    _traced_metrics(gen.make("pipeline_dense", 2, tmp_path))
    assert tadfusion.pipeline.compose_actions is original


def test_missing_entry_point_is_reported_unmeasured(monkeypatch):
    import tadfusion.pipeline

    monkeypatch.delattr(tadfusion.pipeline, "compose_actions")
    tracer = tracing.Tracer()
    tracer.run(lambda: None)
    assert "composition" in tracer.unmeasured
    assert "decode" in tracer.unmeasured
    assert tracer.unmeasured_reason("composition.self_s") is not None
    assert tracer.unmeasured_reason("fusion.calls") is None


def test_largest_class_pool_is_the_largest_soft_nms_input(tmp_path):
    work = gen.make("nms_crowded", 2, tmp_path)
    metrics = _traced_metrics(work)
    assert metrics["suppression.max_class_pool"] == gen.CROWDED_CLUSTERS * gen.CROWDED_PER_CLUSTER


def test_missing_class_pool_entry_is_reported_unmeasured(monkeypatch):
    import tadfusion.suppression

    monkeypatch.delattr(tadfusion.suppression, "soft_nms")
    tracer = tracing.Tracer()
    tracer.run(lambda: None)
    assert tracer.unmeasured_reason("suppression.max_class_pool") is not None
    assert tracer.unmeasured_reason("suppression.in") is None


def test_setup_launches_are_spread_over_the_run():
    class SleepyLoop:
        ops = 0

        def op(self):
            self.ops += 1
            time.sleep(0.005)
            return 0.005, 0.005

    loop = SleepyLoop()
    at = []
    samples, setups = run.run_untraced(loop, 0.2, lambda: at.append(loop.ops) or (1.0, [0.1]), 4)
    assert len(setups) == 4
    assert at[0] == run.WARMUP_OPS
    assert at == sorted(at) and at[-1] > len(samples) // 2


def test_simulate_setup_launch_runs_simulate(tmp_path):
    work = gen.make("simulate", 4, tmp_path)
    assert work.setup_argv[0] == "simulate"
    raw, refs = run.setup_launcher(work)()
    assert raw > 0.0 and len(refs) == run.SETUP_REF_LAUNCHES
    assert run.setup_time([(raw, refs)])[1] > 0.0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simulate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
