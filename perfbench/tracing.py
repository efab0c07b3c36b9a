"""Per-layer tracing of one CLI operation, from outside the program.

A layer is a ``tadfusion`` module. The tracer wraps, for the length of
one operation, every public function that ``tadfusion.cli`` and
``tadfusion.pipeline`` call in another module, in the namespace of the
caller, plus the public methods of ``PipelineConfig``, and counts the
inputs of the per-class ``soft_nms`` calls without a span. Entry points are
found by inspecting those namespaces, so a refactor that renames or
moves functions inside a module keeps the per-module metric names.

Each wrapped call records a span: name (the metric key), start, end and
parent span, with one trace id per operation. A call made while a span
of the same layer is open records nothing, so a span covers one entry
into its layer. Self time is a span's duration minus the durations of
its child spans. Spans stay in memory until ``write`` is called.
"""

from __future__ import annotations

import ast
import functools
import importlib
import inspect
import time
from collections import Counter
from pathlib import Path

import numpy as np

# Layers named by the per-layer metrics, in report order.
LAYERS = ("cli", "config", "io", "composition", "fusion", "timeline", "pipeline",
          "suppression", "evaluation", "simulation")

# Modules no benchmark workload reaches through the CLI.
UNREACHED = {
    "decode": "not reachable from any CLI command",
    "reliability": "reachable only through simulate --dual-stream, which no workload runs",
}

# Functions defined in a consuming module that are the entry into another
# layer: the pipeline's per-candidate fusion helper.
ENTRY_OVERRIDES = {"fuse_candidate_boundary": "fusion"}

PER_LAYER_METRICS = {
    "cli.self_s": "s",
    "config.calls": "count",
    "config.self_s": "s",
    "io.parse_s": "s",
    "io.parse_items": "count",
    "io.build_s": "s",
    "io.write_s": "s",
    "io.bytes_out": "bytes",
    "composition.calls": "count",
    "composition.candidates_out": "count",
    "composition.self_s": "s",
    "fusion.calls": "count",
    "fusion.self_s": "s",
    "timeline.calls": "count",
    "timeline.dropped": "count",
    "timeline.self_s": "s",
    "pipeline.self_s": "s",
    "suppression.calls": "count",
    "suppression.in": "count",
    "suppression.out": "count",
    "suppression.keep_ratio": "ratio",
    "suppression.max_class_pool": "count",
    "suppression.self_s": "s",
    "evaluation.verb_s": "s",
    "evaluation.noun_s": "s",
    "evaluation.action_s": "s",
    "evaluation.dets": "count",
    "evaluation.gts": "count",
    "simulation.generate_s": "s",
    "simulation.compare_s": "s",
    "simulation.segments": "count",
    "trace.overhead_ratio": "ratio",
}

# Metrics read from the spans: metric -> (span key, "self" or "calls").
_SPAN_METRICS = {
    "cli.self_s": ("cli", "self"),
    "config.calls": ("config", "calls"),
    "config.self_s": ("config", "self"),
    "io.parse_s": ("io.parse", "self"),
    "io.build_s": ("io.build", "self"),
    "io.write_s": ("io.write", "self"),
    "composition.calls": ("composition", "calls"),
    "composition.self_s": ("composition", "self"),
    "fusion.calls": ("fusion", "calls"),
    "fusion.self_s": ("fusion", "self"),
    "timeline.calls": ("timeline", "calls"),
    "timeline.self_s": ("timeline", "self"),
    "pipeline.self_s": ("pipeline", "self"),
    "suppression.calls": ("suppression", "calls"),
    "suppression.self_s": ("suppression", "self"),
    "evaluation.verb_s": ("evaluation.verb", "self"),
    "evaluation.noun_s": ("evaluation.noun", "self"),
    "evaluation.action_s": ("evaluation.action", "self"),
    "simulation.generate_s": ("simulation.generate", "self"),
    "simulation.compare_s": ("simulation.compare", "self"),
}

# Counts the wrappers record beside the spans.
COUNT_METRICS = ("io.parse_items", "io.bytes_out", "composition.candidates_out",
                 "suppression.in", "suppression.out",
                 "suppression.max_class_pool", "evaluation.dets", "evaluation.gts",
                 "simulation.segments")

# Metrics computed from other metrics, which are unmeasured with them.
_DERIVED = {"suppression.keep_ratio": ("suppression.in", "suppression.out")}

# The per-class Soft-NMS call inside ``suppress_video``: its largest
# input is ``suppression.max_class_pool``.
CLASS_POOL_ENTRY = ("tadfusion.suppression", "soft_nms")


def _io_role(name: str) -> str:
    if name.startswith(("read_", "parse_")):
        return "parse"
    if name.startswith(("write_", "serialize_")):
        return "write"
    return "build"


def _span_key(layer: str, name: str):
    """Metric key of a span: the layer, split by role where metrics ask."""
    if layer == "io":
        return f"io.{_io_role(name)}"
    if layer == "simulation":
        return "simulation.generate" if "generate" in name else "simulation.compare"
    if layer == "evaluation":
        def task_key(args, kwargs):
            for arg in (*args, *kwargs.values()):
                if hasattr(arg, "task"):
                    return f"evaluation.{arg.task}"
            return "evaluation"
        return task_key
    return layer


def _items(obj) -> int:
    results = getattr(obj, "results", None)
    if isinstance(results, dict):
        return sum(len(v) for v in results.values())
    return len(obj)


def _lazy_imports(module) -> list[tuple[str, str]]:
    """(provider module, name) of the relative imports inside function bodies."""
    tree = ast.parse(inspect.getsource(module))
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                found |= {(f"tadfusion.{node.module}", alias.name) for alias in node.names}
    return sorted(found)


class Tracer:
    """Installs span-recording wrappers around one operation at a time."""

    def __init__(self):
        self.ops: list[dict] = []  # per operation: span arrays and counts
        self.key_names: list[str] = []
        self.unmeasured: dict[str, str] = dict(UNREACHED)
        self._patches: list[tuple[object, str, object]] = []
        self._attached: set[str] = set()

    # -- wrappers -----------------------------------------------------------

    def _open(self, key, layer):
        idx = len(self._starts)
        self._parents.append(self._stack[-1])
        self._keys.append(key)
        self._ends.append(0.0)
        self._stack.append(idx)
        self._layers.append(layer)
        self._starts.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self._ends[idx] = time.perf_counter()
        self._stack.pop()
        self._layers.pop()

    def _wrap(self, fn, layer):
        tracer = self
        name = fn.__name__
        key = _span_key(layer, name)
        after = self._after_hook(layer, key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._layers[-1] == layer:
                return fn(*args, **kwargs)
            idx = tracer._open(key(args, kwargs) if callable(key) else key, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(idx)
                tracer._counts[f"{layer}.raised.{type(exc).__name__}"] += 1
                raise
            tracer._close(idx)
            if after is not None:
                try:
                    after(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError) as exc:
                    for metric in COUNT_METRICS:
                        if metric.startswith(f"{layer}."):
                            tracer.unmeasured[metric] = f"{type(exc).__name__}: {exc}"
            return result

        return wrapper

    def _after_hook(self, layer, key):
        """Count recorder for one entry point, or None. Deferred counts are
        (metric, compute, combine) and are computed after the operation."""
        # installed afresh for each operation, so these are that operation's
        counts, deferred = self._counts, self._deferred

        if key == "io.parse":
            return lambda a, k, r: counts.update({"io.parse_items": _items(r)})
        if key == "io.write":
            def write_hook(a, k, r):
                if a and isinstance(a[0], (str, Path)):
                    path = Path(a[0])
                    deferred.append(("io.bytes_out", lambda: path.stat().st_size, int.__add__))
            return write_hook
        if layer == "composition":
            return lambda a, k, r: counts.update({"composition.candidates_out": len(r)})
        if layer == "suppression":
            return lambda a, k, r: counts.update({"suppression.in": len(a[0]),
                                                  "suppression.out": len(r)})
        if layer == "evaluation":
            def eval_hook(a, k, r):
                counts["evaluation.dets"] = len(a[0])
                counts["evaluation.gts"] = len(a[1])
            return eval_hook
        if key == "simulation.generate":
            return lambda a, k, r: counts.update({"simulation.segments": len(r.ground_truth)})
        return None

    # -- installation -------------------------------------------------------

    def _patch(self, owner, name, layer):
        original = getattr(owner, name)
        self._patches.append((owner, name, original))
        setattr(owner, name, self._wrap(original, layer))
        self._attached.add(layer)

    def _patch_class_pool(self):
        """Record the largest input of the per-class Soft-NMS call. No
        span: it runs inside the suppression layer's own span."""
        provider, name = CLASS_POOL_ENTRY
        owner = importlib.import_module(provider)
        original = getattr(owner, name, None)
        if not inspect.isfunction(original):
            self.unmeasured["suppression.max_class_pool"] = f"no function {provider}.{name}"
            return
        counts = self._counts

        @functools.wraps(original)
        def wrapper(dets, *args, **kwargs):
            counts["suppression.max_class_pool"] = max(
                counts["suppression.max_class_pool"], len(dets))
            counts["suppression.class_pools"] += 1
            return original(dets, *args, **kwargs)

        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    def install(self):
        """Wrap the entry points; ``remove`` restores the originals."""
        self._attached = {"cli"}
        cli = importlib.import_module("tadfusion.cli")
        pipeline = importlib.import_module("tadfusion.pipeline")
        config = importlib.import_module("tadfusion.config")
        for namespace in (cli, pipeline):
            for name, obj in list(vars(namespace).items()):
                if not inspect.isfunction(obj) or name.startswith("_"):
                    continue
                module = obj.__module__
                if name in ENTRY_OVERRIDES:
                    self._patch(namespace, name, ENTRY_OVERRIDES[name])
                elif module.startswith("tadfusion.") and module != namespace.__name__:
                    self._patch(namespace, name, module.rsplit(".", 1)[1])
        for provider, name in _lazy_imports(cli):
            owner = importlib.import_module(provider)
            if inspect.isfunction(getattr(owner, name, None)):
                self._patch(owner, name, provider.rsplit(".", 1)[1])
        for name, obj in list(vars(config.PipelineConfig).items()):
            if inspect.isfunction(obj) and not name.startswith("_"):
                self._patch(config.PipelineConfig, name, "config")
        self._patch_class_pool()
        for layer in LAYERS:
            if layer not in self._attached:
                self.unmeasured[layer] = ("no public entry point into this module "
                                          "from tadfusion.cli or tadfusion.pipeline")

    def remove(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- operations ---------------------------------------------------------

    def run(self, fn, *args):
        """Run ``fn(*args)`` as one traced operation under a root ``cli`` span.

        Returns the result and the wall time of the root span.
        """
        self._starts, self._ends, self._parents, self._keys = [], [], [], []
        self._stack, self._layers = [-1], [None]
        self._counts: Counter = Counter()
        self._deferred: list = []
        self.install()
        try:
            idx = self._open("cli", "cli")
            try:
                result = fn(*args)
            finally:
                self._close(idx)
        finally:
            self.remove()
        for metric, compute, combine in self._deferred:
            try:
                self._counts[metric] = combine(self._counts[metric], compute())
            except (AttributeError, IndexError, KeyError, OSError, TypeError) as exc:
                self.unmeasured[metric] = f"count failed: {type(exc).__name__}: {exc}"
        if self._counts["suppression.in"] and not self._counts["suppression.class_pools"]:
            self.unmeasured["suppression.max_class_pool"] = (
                f"{'.'.join(CLASS_POOL_ENTRY)} was not called by the suppression layer")
        self._finish()
        wall = self._ends[0] - self._starts[0]
        return result, wall

    def _finish(self):
        index = {k: i for i, k in enumerate(self.key_names)}
        for k in self._keys:
            if k not in index:
                index[k] = len(self.key_names)
                self.key_names.append(k)
        self.ops.append({
            "key": np.array([index[k] for k in self._keys], dtype=np.int32),
            "parent": np.array(self._parents, dtype=np.int64),
            "start": np.array(self._starts),
            "end": np.array(self._ends),
            "counts": dict(self._counts),
        })

    # -- results ------------------------------------------------------------

    def unmeasured_reason(self, metric: str) -> str | None:
        """Why ``metric`` was not measured, or None if it was."""
        for name in (metric, *_DERIVED.get(metric, ())):
            for key in (name, name.split(".")[0]):
                if key in self.unmeasured:
                    return self.unmeasured[key]
        return None

    def op_metrics(self, op: dict, scale: float = 1.0) -> dict[str, float]:
        """Per-layer metrics of one traced operation (no overhead ratio);
        times are multiplied by ``scale``."""
        dur = op["end"] - op["start"]
        own = dur.copy()
        child = op["parent"] >= 0
        np.subtract.at(own, op["parent"][child], dur[child])
        n = len(self.key_names)
        self_s = np.bincount(op["key"], weights=own, minlength=n)
        calls = np.bincount(op["key"], minlength=n)
        by_key = {k: (self_s[i], calls[i]) for i, k in enumerate(self.key_names)}
        metrics = {}
        for metric, (key, field) in _SPAN_METRICS.items():
            s, c = by_key.get(key, (0.0, 0))
            metrics[metric] = float(s) * scale if field == "self" else int(c)
        counts = op["counts"]
        for metric in COUNT_METRICS:
            metrics[metric] = int(counts.get(metric, 0))
        metrics["timeline.dropped"] = int(counts.get("timeline.raised.DegenerateInterval", 0))
        n_in = metrics["suppression.in"]
        metrics["suppression.keep_ratio"] = metrics["suppression.out"] / n_in if n_in else 0.0
        return metrics

    def write(self, path: Path):
        """Write every recorded span to a compressed ``.npz`` file: one row
        per span with its trace (operation) id, key index into ``key_names``,
        parent row within the same trace (-1 for the root), start and end."""
        ops = self.ops
        trace = np.concatenate([np.full(len(o["key"]), i, dtype=np.int32)
                                for i, o in enumerate(ops)])
        np.savez_compressed(
            path,
            trace=trace,
            key=np.concatenate([o["key"] for o in ops]),
            parent=np.concatenate([o["parent"] for o in ops]),
            start=np.concatenate([o["start"] for o in ops]),
            end=np.concatenate([o["end"] for o in ops]),
            key_names=np.array(self.key_names),
        )
