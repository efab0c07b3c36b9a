"""Closed-loop benchmark of the tadfusion command-line interface.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload pipeline_dense --seed 1 --seconds 15 --trace 0

One client in one process calls ``tadfusion.cli.main(argv)`` with the
next operation only after the previous one returns. Inputs come from
``perfbench/gen.py`` and the seed, and are written before timing
starts. Every operation's output is checked against the digest pinned
for the workload and seed in ``perfbench/digests.json``; unpinned seeds
are checked for validity and for identical output on every operation.

``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced operations and reports the
per-layer metrics of ``perfbench/tracing.py``, plus the tracing overhead;
the spans of the last traced run of a workload go to
``.perfbench/trace-<workload>.npz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"

sys.path.insert(0, str(HERE))
import gen  # noqa: E402
import tracing  # noqa: E402

# Every timing is calibrated: scaled by CALIBRATION_REF_S over the mean
# time of a fixed pure-Python kernel run just before and just after it.
# Other tenants of the machine slow this process by up to 2x for seconds
# at a time; the kernel slows with it, so calibrated times stay steady.
# They are in reference seconds: seconds on a machine that runs the
# kernel in CALIBRATION_REF_S.
CALIBRATION_REF_S = 0.005
_rng = random.Random(0)
_CALIBRATION_DRAWS = [(_rng.random(), _rng.random()) for _ in range(4000)]


class _Interval:
    __slots__ = ("start", "end", "label", "score")

    def __init__(self, start, end, label, score):
        self.start, self.end, self.label, self.score = start, end, label, score


SETUP_ARGV = ["windows", "--total-features", "4608"]
SETUP_LAUNCHES = 7
# Start-up is mostly file access, unmarshalling and loading extension
# modules, which the kernel above tracks poorly. Set-up is calibrated
# instead by reference launches, two after each set-up launch: a fresh
# interpreter that imports NumPy and a few standard modules and nothing
# of the program. setup_s is the median set-up launch scaled by
# SETUP_REF_S over the median reference launch: seconds on a machine
# where the reference launch takes SETUP_REF_S.
SETUP_REF_ARGV = ["-c", "import argparse, dataclasses, json, numpy"]
SETUP_REF_LAUNCHES = 2
SETUP_REF_S = 0.125
WARMUP_OPS = 1
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile
MIN_OPS = TAIL_BEYOND + 1

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s_p50": "s",
    "wall_s_tail": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}

_METRIC_LINE = re.compile(r"^([\w.]+) = (\S+)$")


def load_cli():
    """Import ``tadfusion.cli`` from this checkout's ``src``, or exit 1."""
    if not (SRC / "tadfusion" / "cli.py").is_file():
        raise SystemExit(f"error: no tadfusion source under {SRC}")
    sys.path.insert(0, str(SRC))
    import tadfusion.cli

    if Path(tadfusion.cli.__file__).resolve().parents[1] != SRC:
        raise SystemExit(f"error: imported tadfusion from {tadfusion.cli.__file__}, not {SRC}")
    return tadfusion.cli


def calibration() -> float:
    """Wall time of a fixed kernel shaped like the program's work: build
    4000 small objects, sort them on a tuple key, group them by label and
    sum the overlaps of neighbours within each group. The collector is off
    so that the heap the program left behind does not enter the time."""
    gc.disable()
    try:
        start = time.perf_counter()
        items = [_Interval(a * 600.0, a * 600.0 + b * 5.0 + 0.1, i % 211, b)
                 for i, (a, b) in enumerate(_CALIBRATION_DRAWS)]
        items.sort(key=lambda x: (-x.score, x.start, x.label))
        groups: dict[int, list] = {}
        for x in items:
            groups.setdefault(x.label, []).append(x)
        total = 0.0
        for group in groups.values():
            for x, y in zip(group, group[1:]):
                overlap = min(x.end, y.end) - max(x.start, y.start)
                if overlap > 0.0:
                    total += overlap / (max(x.end, y.end) - min(x.start, y.start))
        return time.perf_counter() - start
    finally:
        gc.enable()


def calibrated(measure):
    """Run ``measure()``, which returns (raw seconds, result), between two
    calibration kernels; return (raw seconds, calibrated seconds, result)."""
    before = calibration()
    raw, result = measure()
    scale = 2.0 * CALIBRATION_REF_S / (before + calibration())
    return raw, raw * scale, result


def setup_launcher(work: gen.Workload):
    """A function that launches a fresh interpreter running the workload's
    set-up command (``SETUP_ARGV`` unless the workload names its own),
    then the reference launches, and returns the wall time of the first
    and the list of reference wall times."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    command = ["-m", "tadfusion", *(work.setup_argv or SETUP_ARGV)]

    # No timeout: with one, the wait polls the child with sleeps of up
    # to 50 ms, and the measured times fall on that 50 ms grid.
    def launch(args):
        start = time.perf_counter()
        subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                       stdout=subprocess.DEVNULL, check=True)
        return time.perf_counter() - start

    def measure():
        raw = launch(command)
        return raw, [launch(SETUP_REF_ARGV) for _ in range(SETUP_REF_LAUNCHES)]

    return measure


def setup_time(setups) -> tuple[float, float]:
    """Raw and calibrated ``setup_s`` of the (wall, reference walls) of
    each set-up launch."""
    raw = statistics.median(wall for wall, _ in setups)
    ref = statistics.median(t for _, refs in setups for t in refs)
    return raw, raw * SETUP_REF_S / ref


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Value, percentile and sample count of the highest percentile that
    has at least ``TAIL_BEYOND`` samples beyond it (the 11th largest)."""
    ordered = sorted(samples)
    n = len(ordered)
    k = max(0, n - 1 - TAIL_BEYOND)
    return ordered[k], 100.0 * k / (n - 1) if n > 1 else 0.0, n


# -- output gate ----------------------------------------------------------


def digest_bytes(workload: str, data: bytes) -> str:
    """sha256 of what the gate compares: the ``key = value`` metric lines
    for ``eval_multi_video``, the whole output otherwise."""
    if workload == "eval_multi_video":
        lines = [ln for ln in data.decode("utf-8").splitlines() if _METRIC_LINE.match(ln)]
        data = ("\n".join(lines) + "\n").encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def pinned_digest(workload: str, seed: int) -> str | None:
    table = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}
    return table.get(workload, {}).get(str(seed))


def _key_values(text: str) -> dict[str, str]:
    return dict(m.groups() for m in map(_METRIC_LINE.match, text.splitlines()) if m)


def validate(work: gen.Workload, data: bytes) -> list[str]:
    """Problems with one output that hold for any seed; empty when valid."""
    text = data.decode("utf-8")
    if work.name in ("pipeline_dense", "nms_crowded"):
        doc = json.loads(text)
        problems = [f"missing {k!r}" for k in ("version", "challenge", "results") if k not in doc]
        if problems:
            return problems
        if not any(doc["results"].values()):
            problems.append("no detections")
        for video, dets in doc["results"].items():
            scores = [d["score"] for d in dets]
            if scores != sorted(scores, reverse=True):
                problems.append(f"{video}: not sorted by score")
            for d in dets:
                start, end = d["segment"]
                if not (start < end and 0.0 <= d["score"] <= 1.0
                        and d["action"] == f"{d['verb']},{d['noun']}"):
                    problems.append(f"{video}: invalid detection {d}")
                    break
        return problems
    values = _key_values(text)
    if work.name == "eval_multi_video":
        expected = {f"{task}_map_{t}" for task in ("verb", "noun", "action")
                    for t in ("0.1", "0.2", "0.3", "0.4", "0.5", "avg")}
        problems = [f"missing {k}" for k in sorted(expected - set(values))]
        problems += [f"{k} = {v} outside [0, 1]" for k, v in values.items()
                     if not 0.0 <= float(v) <= 1.0]
        return problems
    problems = []
    if values.get("num_segments") != str(gen.SIM_SEGMENTS):
        problems.append(f"num_segments = {values.get('num_segments')}")
    if values.get("seed") != str(work.properties["sim_seed"]):
        problems.append(f"seed = {values.get('seed')}")
    for key in ("mean_abs_err_dwf", "mean_abs_err_mean", "error_gap"):
        if not math.isfinite(float(values.get(key, "nan"))):
            problems.append(f"{key} = {values.get(key)}")
    return problems


# -- the closed loop ------------------------------------------------------


class Loop:
    """Runs operations one after another and checks each output."""

    def __init__(self, cli, work: gen.Workload, expected: str | None):
        self.cli = cli
        self.work = work
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, call=None) -> tuple[float, float]:
        """One operation; returns its raw and calibrated wall time.
        ``call(main, argv)`` may run it instead of a plain call, and returns
        (exit code, wall)."""
        self.work.output.unlink(missing_ok=True)
        gc.collect()
        self.attempted += 1
        raw, wall, code = calibrated(lambda: self._call(call))
        ok = code == 0 and self.work.output.is_file()
        if ok:
            digest = digest_bytes(self.work.name, self.work.output.read_bytes())
            if self.expected is None:
                self.expected = digest
                try:
                    self.problems += validate(self.work, self.work.output.read_bytes())
                except (AttributeError, KeyError, TypeError, ValueError) as exc:
                    self.problems.append(f"invalid output: {type(exc).__name__}: {exc}")
            ok = digest == self.expected
            if not ok:
                self.problems.append(f"operation {self.attempted}: digest {digest[:16]} "
                                     f"!= {self.expected[:16]}")
        else:
            self.problems.append(f"operation {self.attempted}: exit code {code}")
        self.failed += not ok
        return raw, wall

    def _call(self, call):
        start = time.perf_counter()
        try:
            if call is None:
                code = self.cli.main(self.work.argv)
                return time.perf_counter() - start, code
            code, wall = call(self.cli.main, self.work.argv)
            return wall, code
        except SystemExit as exc:  # argparse rejects an argument
            return time.perf_counter() - start, exc.code


def run_untraced(loop: Loop, seconds: float, launch, launches: int = SETUP_LAUNCHES):
    """(raw, calibrated) wall time of each timed operation, and of each
    set-up launch. ``seconds`` counts time in operations only; the
    launches are spread evenly over it, so a burst of load from other
    processes reaches few of them."""
    for _ in range(WARMUP_OPS):
        loop.op()
    samples, setups = [], []
    elapsed = 0.0
    while len(samples) < MIN_OPS or elapsed < seconds:
        if len(setups) < launches and len(setups) * seconds <= elapsed * launches:
            setups.append(launch())
        start = time.perf_counter()
        samples.append(loop.op())
        elapsed += time.perf_counter() - start
    while len(setups) < launches:
        setups.append(launch())
    return samples, setups


def run_traced(loop: Loop, seconds: float, tracer: tracing.Tracer):
    """Alternate untraced and traced operations; return the calibrated
    walls of each, and the calibration scale of each traced operation."""
    for _ in range(WARMUP_OPS):
        loop.op()
    plain, traced, scales = [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < 3 or time.perf_counter() < deadline:
        plain.append(loop.op()[1])
        raw, wall = loop.op(tracer.run)
        traced.append(wall)
        scales.append(wall / raw)
    return plain, traced, scales


def action_map_avg(cli, work: gen.Workload, workdir: Path) -> float | None:
    """Action mAP of the pipeline's submission against the generator's
    ground truth, averaged over tIoU 0.1-0.5 (outside any timed region)."""
    if work.name != "pipeline_dense" or not work.output.is_file():
        return None
    metrics = workdir / "quality.txt"
    code = cli.main(["eval", "--submission", str(work.output),
                     "--ground-truth", str(work.ground_truth), "--output", str(metrics)])
    if code != 0:
        return None
    return float(_key_values(metrics.read_text(encoding="utf-8"))["action_map_avg"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.MAKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One CPU for this process and the interpreters it launches, so each
    # timing and the calibration kernels beside it run on the same CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    cli = load_cli()
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        work = gen.make(args.workload, args.seed, workdir)
        expected = pinned_digest(args.workload, args.seed)
        loop = Loop(cli, work, expected)
        print(f"workload = {work.name}  seed = {args.seed}  trace = {args.trace}")
        for key, value in work.properties.items():
            print(f"input.{key} = {value}")

        if args.trace:
            tracer = tracing.Tracer()
            plain, traced, scales = run_traced(loop, args.seconds, tracer)
            per_op = [tracer.op_metrics(op, scale) for op, scale in zip(tracer.ops, scales)]
            metrics = {}
            for name in tracing.PER_LAYER_METRICS:
                reason = tracer.unmeasured_reason(name)
                if reason is not None:  # left out: a 0 would read as a gain
                    print(f"unmeasured metric: {name}: {reason}")
                    continue
                if name == "trace.overhead_ratio":
                    metrics[name] = statistics.median(traced) / statistics.median(plain)
                    continue
                values = [m[name] for m in per_op]
                if isinstance(values[0], int):  # a count: the same on every operation
                    if len(set(values)) > 1:
                        loop.problems.append(f"{name} differs between traced operations: "
                                             f"{sorted(set(values))}")
                    metrics[name] = values[0]
                else:
                    metrics[name] = statistics.median(values)
            OUT.mkdir(exist_ok=True)
            trace_file = OUT / f"trace-{work.name}.npz"
            tracer.write(trace_file)
            print(f"trace.operations = {len(traced)} traced, {len(plain)} untraced")
            print(f"trace.file = {trace_file.relative_to(ROOT)}")
            units = tracing.PER_LAYER_METRICS
            for layer, reason in sorted(tracer.unmeasured.items()):
                print(f"unmeasured: {layer}: {reason}")
        else:
            ops, setups = run_untraced(loop, args.seconds, setup_launcher(work))
            raw, samples = zip(*ops)
            setup_raw, setup_s = setup_time(setups)
            tail_s, tail_pct, n = tail(samples)
            metrics = {
                "setup_s": setup_s,
                "wall_s_p50": statistics.median(samples),
                "wall_s_tail": tail_s,
                "items_per_s": work.items * n / sum(samples),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END_UNITS
            print(f"uncalibrated: setup_s = {setup_raw:.6g} s, wall_s_p50 = "
                  f"{statistics.median(raw):.6g} s, wall_s_tail = {tail(raw)[0]:.6g} s")
            setup_command = " ".join(work.setup_argv or SETUP_ARGV).replace(f"{ROOT}{os.sep}", "")
            print(f"setup_s.command = python -m tadfusion {setup_command}"
                  f" (median of {len(setups)} fresh interpreters)")
            print(f"wall_s_tail.percentile = p{tail_pct:.1f} of {n} samples")
            print(f"items_per_s.unit_of_work = {work.item_unit}")
            print(f"failed_ratio = {loop.failed / loop.attempted:.6g} ratio "
                  f"({loop.failed} of {loop.attempted} operations)")
            quality = action_map_avg(cli, work, workdir)
            if quality is not None:
                print(f"action_map_avg = {quality:.4f} (against the generator's ground truth)")

        if expected is None:
            print(f"digest = {loop.expected} (seed not pinned: checked validity "
                  f"and identical output across operations)")
        else:
            print(f"digest = {expected} (pinned)")
        for problem in loop.problems:
            print(f"problem: {problem}")
        for name, value in metrics.items():
            print(f"{name} = {value:.6g} {units[name]}")
        result = {
            "correct": not loop.problems and loop.failed == 0,
            "attempted": loop.attempted,
            "failed": loop.failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
        }
        print(json.dumps(result))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
