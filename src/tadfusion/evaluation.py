"""Per-class average precision and mean AP over tIoU thresholds.

Follows the challenge protocol: a detection is a true positive when an
unmatched ground-truth instance of the same class on the same video
overlaps it with tIoU at or above the threshold; matching is greedy in
score order and one-to-one. AP interpolates the precision envelope over
recall, per-class APs average over classes that have at least one
ground-truth instance, and the headline number averages over thresholds
0.1 to 0.5. A temporally accurate detection with the wrong class counts
as a false positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig
from .suppression import CLASS_KEYS, ActionDetection, rank_key, temporal_iou

DEFAULT_TIOU_THRESHOLDS = (0.1, 0.2, 0.3, 0.4, 0.5)


@dataclass(frozen=True)
class GroundTruthInstance:
    """One annotated action segment."""

    video_id: str
    start: float
    end: float
    verb_index: int
    noun_index: int

    def __post_init__(self):
        if not self.start < self.end:  # also rejects a nan boundary
            raise InvalidConfig(f"ground truth start {self.start} >= end {self.end}")

    @property
    def interval(self) -> tuple[float, float]:
        return (self.start, self.end)


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation thresholds and the task (class key) to score."""

    thresholds: tuple[float, ...] = DEFAULT_TIOU_THRESHOLDS
    task: str = "action"

    def __post_init__(self):
        if self.task not in CLASS_KEYS:
            raise InvalidConfig(f"task must be one of {CLASS_KEYS}, got {self.task!r}")
        if not self.thresholds:
            raise InvalidConfig("at least one threshold required")
        prev = 0.0
        for t in self.thresholds:
            if not 0.0 < t <= 1.0 or t <= prev:
                raise InvalidConfig("thresholds must be strictly increasing in (0, 1]")
            prev = t


@dataclass
class MeanApResult:
    """mAP per threshold plus the unweighted average over thresholds."""

    task: str
    per_threshold: dict[float, float]
    average: float


def _task_class(obj, task: str):
    if task == "verb":
        return obj.verb_index
    if task == "noun":
        return obj.noun_index
    return (obj.verb_index, obj.noun_index)


def sort_detections(dets: list[ActionDetection]) -> list[ActionDetection]:
    """Score-descending order with deterministic tie-breaks."""
    return sorted(dets, key=lambda d: (*rank_key(d), d.video_id))


def _overlap_rows(dets, gts, task: str) -> list[list[tuple[int, float]]]:
    """Per detection, ``(gt index, tIoU)`` for every same-video, same-class
    ground truth it overlaps (tIoU > 0), in ground-truth index order."""
    by_video: dict = {}
    for gi, gt in enumerate(gts):
        by_video.setdefault(gt.video_id, []).append((gi, gt))
    return [[(gi, iou) for gi, gt in by_video.get(det.video_id, ())
             if _task_class(gt, task) == _task_class(det, task)
             and (iou := temporal_iou(det.interval, gt.interval)) > 0.0]
            for det in dets]


def _greedy_match(rows, num_gt: int, tau: float) -> list[bool]:
    matched = [False] * num_gt
    flags = []
    for row in rows:
        best_idx, best_iou = -1, 0.0
        for gi, iou in row:
            if iou > best_iou and not matched[gi]:
                best_idx, best_iou = gi, iou
        hit = best_idx >= 0 and best_iou >= tau
        if hit:
            matched[best_idx] = True
        flags.append(hit)
    return flags


def match_detections(
    dets: list[ActionDetection],
    gts: list[GroundTruthInstance],
    tau: float,
    task: str = "action",
) -> list[bool]:
    """Greedy one-to-one matching of detections against ground truth.

    ``dets`` must already be in score-descending order. Each detection
    matches the unmatched same-class ground truth on the same video with
    the highest tIoU, provided that tIoU >= tau (ties go to the earliest
    ground-truth index). Returns one True (TP) / False (FP) flag per
    detection, in input order.
    """
    return _greedy_match(_overlap_rows(dets, gts, task), len(gts), tau)


def average_precision(flags: list[bool], num_gt: int) -> float:
    """Area under the interpolated precision-recall curve.

    ``flags`` are TP/FP indicators in score order. Precision at each
    recall level is replaced by the maximum precision at any greater or
    equal recall before integrating. Zero ground truth yields 0 (such
    classes are excluded from class means upstream).

    Recall steps only at true positives, where the envelope is the best
    later true-positive precision. The step terms and the closing
    ``(1 - recall) * 0`` go to one ``np.sum``: its pairwise grouping fixes
    every AP's rounding, and a left-to-right sum differs from 8 terms on.
    """
    if num_gt < 0:
        raise InvalidConfig("num_gt must be >= 0")
    hits = [rank for rank, flag in enumerate(flags, start=1) if flag]
    if num_gt == 0 or not hits:
        return 0.0
    terms = [(1.0 - len(hits) / num_gt) * 0.0] if len(hits) != num_gt else []
    envelope = 0.0
    for tp in range(len(hits), 0, -1):
        envelope = max(envelope, tp / hits[tp - 1])
        terms.append((tp / num_gt - (tp - 1) / num_gt) * envelope)
    return float(np.sum(terms[::-1]))


def mean_ap(
    dets: list[ActionDetection],
    gts: list[GroundTruthInstance],
    cfg: EvalConfig = EvalConfig(),
) -> MeanApResult:
    """Mean AP over classes with ground truth, at every threshold.

    Classes are keyed by the task's factor (verb index, noun index, or
    the verb-noun pair for the action task). Classes without any ground
    truth are excluded from the mean rather than scored 0. Each class's
    overlap rows are built once and matched at every threshold; one
    stable sort of all detections gives each class its sorted order.
    """
    gt_by_class: dict = {}
    for gt in gts:
        gt_by_class.setdefault(_task_class(gt, cfg.task), []).append(gt)

    det_by_class: dict = {}
    for det in sort_detections(dets):
        det_by_class.setdefault(_task_class(det, cfg.task), []).append(det)

    classes = [(len(gt_by_class[cls]), _overlap_rows(det_by_class.get(cls, ()),
                                                     gt_by_class[cls], cfg.task))
               for cls in sorted(gt_by_class)]
    per_threshold = {}
    for tau in cfg.thresholds:
        aps = [average_precision(_greedy_match(rows, num_gt, tau), num_gt)
               for num_gt, rows in classes]
        per_threshold[tau] = float(np.mean(aps)) if aps else 0.0

    average = float(np.mean(list(per_threshold.values())))
    return MeanApResult(task=cfg.task, per_threshold=per_threshold, average=average)
