"""Seeded input generator for the benchmark workloads.

Uses only NumPy and the standard library, never ``tadfusion``: the
inputs a seed produces must not change when the program changes. The
file formats are written here by hand, following the formats the
program documents (proposal lines, submission JSON, ground-truth JSON,
``key = value`` config).

Each ``make_<workload>`` writes its inputs under ``workdir`` and returns
a ``Workload``: the CLI argument list of one operation, the output file
it writes, the unit of work counted by ``items_per_s`` and the input
properties printed with the results.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

NOUNS = 300
VERBS = 97

# Default feature grid of the program: 8 frames per feature step, a
# 4-frame offset, 30 fps, 4608-feature windows advancing by 2304.
STRIDE_FRAMES = 8
OFFSET_FRAMES = 4
FPS = 30.0
WINDOW = 4608
WINDOW_STEP = 2304

# Sizes. Each operation takes 0.1 to 0.6 s on the seed code, so one run
# collects tens of samples for the tail percentile.
DENSE_VIDEOS = 2
DENSE_WINDOWS = 3
DENSE_RECORDS_PER_VIDEO = 52  # 5200 composed candidates, over the 5000 pre-NMS cap
DENSE_SCORES_PER_STREAM = 12  # >= 10 nonzero, so top-10 x top-10 all compose
# Classes are drawn from a small head of each vocabulary, so ground-truth
# instances share classes and distractor scores compete with true ones.
DENSE_NOUN_CLASSES = 40
DENSE_VERB_CLASSES = 20

CROWDED_VIDEOS = 1
CROWDED_CLASSES = 4
CROWDED_CLUSTERS = 10
CROWDED_PER_CLUSTER = 30  # 300 detections per class pool, 1200 in all

EVAL_VIDEOS = 50
EVAL_GT_PER_VIDEO = 8
EVAL_DETS_PER_GT = 6
EVAL_FALSE_PER_VIDEO = 32  # 80 scored detections per video, 4000 in all

SIM_SEGMENTS = 5000
SIM_SETUP_SEGMENTS = 100  # the set-up launch of simulate: start-up, little work

VIDEO_SECONDS = 600.0


@dataclass
class Workload:
    """One operation's inputs: CLI arguments, output path, unit of work.

    ``setup_argv`` is the command a fresh interpreter runs to measure
    ``setup_s``; None means the shared cheap command of ``run.py``.
    """

    name: str
    argv: list[str]
    output: Path
    items: int
    item_unit: str
    properties: dict = field(default_factory=dict)
    ground_truth: Path | None = None
    setup_argv: list[str] | None = None


def _rng(name: str, seed: int) -> np.random.Generator:
    # one independent stream per (workload, seed)
    tag = sum(ord(c) * 31**i for i, c in enumerate(name)) % (2**32)
    return np.random.default_rng([seed, tag])


def _fmt4(x: float) -> str:
    return f"{x:.4f}"


def _sparse(rng: np.random.Generator, classes: int, true_index: int, true_score: float) -> str:
    # distractors may outscore the true class, so composition ranks matter
    others = rng.choice(np.delete(np.arange(classes), true_index), DENSE_SCORES_PER_STREAM - 1,
                        replace=False)
    scores = {int(true_index): true_score}
    for i, s in zip(others, rng.uniform(0.01, 0.5, size=others.size)):
        scores[int(i)] = float(s)
    return ",".join(f"{i}:{scores[i]!r}" for i in sorted(scores))


def _feature_to_seconds(u: float) -> float:
    return (u * STRIDE_FRAMES + OFFSET_FRAMES) / FPS


def _submission_text(results: dict[str, list[tuple]]) -> str:
    """Submission JSON; entries are (verb, noun, start, end, score)."""
    lines = ["{", '  "version": "0.1",', '  "challenge": "action_detection",', '  "results": {']
    videos = sorted(results)
    for vi, video in enumerate(videos):
        entries = [
            f'      {{"verb": {v}, "noun": {n}, "action": "{v},{n}", '
            f'"segment": [{_fmt4(s)}, {_fmt4(e)}], "score": {_fmt4(p)}}}'
            for v, n, s, e, p in results[video]
        ]
        suffix = "," if vi < len(videos) - 1 else ""
        lines.append(f'    "{video}": [')
        lines.append(",\n".join(entries))
        lines.append(f"    ]{suffix}")
    lines += ["  }", "}"]
    return "\n".join(lines) + "\n"


def _ground_truth_text(annotations: dict[str, list[tuple]]) -> str:
    """Ground-truth JSON; entries are (verb, noun, start, end)."""
    payload = {
        "annotations": {
            video: [{"verb": v, "noun": n, "segment": [s, e]} for v, n, s, e in annotations[video]]
            for video in sorted(annotations)
        }
    }
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def make_pipeline_dense(seed: int, workdir: Path) -> Workload:
    """Proposal file: a few videos, records over 50%-overlapping windows.

    Every ground-truth instance yields two records, in the same or in an
    overlapping window, so suppression sees near-duplicates.
    """
    rng = _rng("pipeline_dense", seed)
    total = WINDOW + WINDOW_STEP * (DENSE_WINDOWS - 1)
    lines = ["# video_id window_start ns ne noun_scores vs ve verb_scores"]
    annotations: dict[str, list[tuple]] = {}
    for v in range(DENSE_VIDEOS):
        video = f"dense{v:02d}"
        annotations[video] = []
        for _ in range(DENSE_RECORDS_PER_VIDEO // 2):
            length = rng.uniform(20.0, 150.0)
            g_start = rng.uniform(0.0, total - length)
            g_end = g_start + length
            noun = int(rng.integers(DENSE_NOUN_CLASSES // 2))
            verb = int(rng.integers(DENSE_VERB_CLASSES // 2))
            annotations[video].append((verb, noun, round(_feature_to_seconds(g_start), 4),
                                       round(_feature_to_seconds(g_end), 4)))
            windows = [w * WINDOW_STEP for w in range(DENSE_WINDOWS)
                       if w * WINDOW_STEP <= g_start and g_end <= w * WINDOW_STEP + WINDOW]
            for ws in rng.choice(windows, 2):
                # boundary noise shrinks as the stream's confidence grows
                c_noun, c_verb = (float(c) for c in rng.uniform(0.25, 0.9, 2))
                sd = 0.15 * length * (1.0 - np.array([c_noun, c_noun, c_verb, c_verb]))
                truth = np.array([g_start, g_end, g_start, g_end]) - ws
                ns, ne, vs, ve = truth + rng.normal(0.0, sd)
                ne, ve = max(ne, ns + 1.0), max(ve, vs + 1.0)
                noun_scores = _sparse(rng, DENSE_NOUN_CLASSES, noun, c_noun)
                verb_scores = _sparse(rng, DENSE_VERB_CLASSES, verb, c_verb)
                lines.append(" ".join([
                    video, str(int(ws)), repr(float(ns)), repr(float(ne)), noun_scores,
                    repr(float(vs)), repr(float(ve)), verb_scores,
                ]))
    proposals = workdir / "proposals.txt"
    proposals.write_text("\n".join(lines) + "\n", encoding="utf-8")
    gt = workdir / "ground_truth.json"
    gt.write_text(_ground_truth_text(annotations), encoding="utf-8")
    output = workdir / "submission.json"
    records = DENSE_VIDEOS * DENSE_RECORDS_PER_VIDEO
    return Workload(
        name="pipeline_dense",
        argv=["pipeline", "--proposals", str(proposals), "--output", str(output)],
        output=output,
        items=records,
        item_unit="records",
        properties={
            "records": records,
            "videos": DENSE_VIDEOS,
            "windows_per_video": DENSE_WINDOWS,
            "candidates_per_video": DENSE_RECORDS_PER_VIDEO * 100,
            "ground_truth": records // 2,
        },
        ground_truth=gt,
    )


def make_nms_crowded(seed: int, workdir: Path) -> Workload:
    """Submission JSON with few, crowded action classes per video.

    Each class pool holds clusters of heavily overlapping detections
    spread over the video, so Soft-NMS keeps many detections and scans a
    large pool for each.
    """
    rng = _rng("nms_crowded", seed)
    results: dict[str, list[tuple]] = {}
    for v in range(CROWDED_VIDEOS):
        video = f"crowd{v:02d}"
        flat = rng.choice(NOUNS * VERBS, CROWDED_CLASSES, replace=False)
        entries = []
        for action in flat:
            verb, noun = int(action // NOUNS), int(action % NOUNS)
            # evenly spaced clusters never overlap, so the work per pool
            # varies little from seed to seed
            centers = (np.arange(CROWDED_CLUSTERS) + 0.5) * (VIDEO_SECONDS / CROWDED_CLUSTERS)
            for c in centers:
                mids = c + rng.normal(0.0, 0.6, CROWDED_PER_CLUSTER)
                halves = rng.uniform(1.0, 4.0, CROWDED_PER_CLUSTER)
                scores = rng.uniform(0.05, 1.0, CROWDED_PER_CLUSTER)
                for m, h, p in zip(mids, halves, scores):
                    entries.append((verb, noun, m - h, m + h, p))
        entries.sort(key=lambda e: (-round(e[4], 4), round(e[2], 4), e[0], e[1]))
        results[video] = entries
    submission = workdir / "crowded.json"
    submission.write_text(_submission_text(results), encoding="utf-8")
    output = workdir / "suppressed.json"
    pool = CROWDED_CLUSTERS * CROWDED_PER_CLUSTER
    detections = CROWDED_VIDEOS * CROWDED_CLASSES * pool
    return Workload(
        name="nms_crowded",
        argv=["nms", "--input", str(submission), "--output", str(output)],
        output=output,
        items=detections,
        item_unit="input detections",
        properties={
            "detections": detections,
            "videos": CROWDED_VIDEOS,
            "classes_per_video": CROWDED_CLASSES,
            "largest_class_pool": pool,
        },
    )


def make_eval_multi_video(seed: int, workdir: Path) -> Workload:
    """Submission and ground truth over many videos and the full vocabulary.

    Detections are noisy copies of ground-truth instances, each factor
    right with probability 0.6, plus false positives of random class.
    """
    rng = _rng("eval_multi_video", seed)
    results: dict[str, list[tuple]] = {}
    annotations: dict[str, list[tuple]] = {}
    for v in range(EVAL_VIDEOS):
        video = f"eval{v:03d}"
        lengths = rng.uniform(1.0, 10.0, EVAL_GT_PER_VIDEO)
        starts = rng.uniform(0.0, VIDEO_SECONDS - 10.0, EVAL_GT_PER_VIDEO)
        verbs = rng.integers(VERBS, size=EVAL_GT_PER_VIDEO)
        nouns = rng.integers(NOUNS, size=EVAL_GT_PER_VIDEO)
        annotations[video] = [
            (int(q), int(p), round(float(s), 4), round(float(s + d), 4))
            for q, p, s, d in zip(verbs, nouns, starts, lengths)
        ]
        entries = []
        for q, p, s, d in zip(verbs, nouns, starts, lengths):
            jitter = rng.normal(0.0, 0.15 * d, (EVAL_DETS_PER_GT, 2))
            right = rng.uniform(size=(EVAL_DETS_PER_GT, 2)) < 0.6
            for (js, je), (rv, rn) in zip(jitter, right):
                start = max(0.0, s + js)
                end = max(start + 0.1, s + d + je)
                verb = int(q) if rv else int(rng.integers(VERBS))
                noun = int(p) if rn else int(rng.integers(NOUNS))
                entries.append((verb, noun, start, end, float(rng.uniform(0.001, 1.0))))
        for _ in range(EVAL_FALSE_PER_VIDEO):
            start = float(rng.uniform(0.0, VIDEO_SECONDS - 10.0))
            entries.append((int(rng.integers(VERBS)), int(rng.integers(NOUNS)), start,
                            start + float(rng.uniform(1.0, 10.0)), float(rng.uniform(0.001, 1.0))))
        entries.sort(key=lambda e: (-round(e[4], 4), round(e[2], 4), e[0], e[1]))
        results[video] = entries
    submission = workdir / "submission.json"
    submission.write_text(_submission_text(results), encoding="utf-8")
    gt = workdir / "ground_truth.json"
    gt.write_text(_ground_truth_text(annotations), encoding="utf-8")
    output = workdir / "metrics.txt"
    detections = EVAL_VIDEOS * (EVAL_GT_PER_VIDEO * EVAL_DETS_PER_GT + EVAL_FALSE_PER_VIDEO)
    return Workload(
        name="eval_multi_video",
        argv=["eval", "--submission", str(submission), "--ground-truth", str(gt),
              "--output", str(output)],
        output=output,
        items=detections,
        item_unit="scored detections",
        properties={
            "detections": detections,
            "videos": EVAL_VIDEOS,
            "ground_truth": EVAL_VIDEOS * EVAL_GT_PER_VIDEO,
        },
        ground_truth=gt,
    )


def make_simulate(seed: int, workdir: Path) -> Workload:
    """Config files sizing the fusion simulator; the seed goes on the CLI.

    The set-up launch runs ``simulate`` itself on a small config, so a
    start-up cost moved from every command into this one still shows in
    ``setup_s``.
    """
    config = workdir / "simulate.cfg"
    config.write_text(f"sim_segments = {SIM_SEGMENTS}\n", encoding="utf-8")
    setup_config = workdir / "simulate-setup.cfg"
    setup_config.write_text(f"sim_segments = {SIM_SETUP_SEGMENTS}\n", encoding="utf-8")
    output = workdir / "simulate.txt"
    return Workload(
        name="simulate",
        argv=["simulate", "--config", str(config), "--seed", str(seed), "--output", str(output)],
        output=output,
        items=SIM_SEGMENTS,
        item_unit="segments",
        properties={"segments": SIM_SEGMENTS, "sim_seed": seed},
        setup_argv=["simulate", "--config", str(setup_config), "--seed", str(seed)],
    )


MAKERS = {
    "pipeline_dense": make_pipeline_dense,
    "nms_crowded": make_nms_crowded,
    "eval_multi_video": make_eval_multi_video,
    "simulate": make_simulate,
}


def make(name: str, seed: int, workdir: Path) -> Workload:
    """Write the inputs of workload ``name`` for ``seed`` under ``workdir``."""
    workdir.mkdir(parents=True, exist_ok=True)
    return MAKERS[name](seed, workdir)
