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
from .suppression import ActionDetection, rank_key, temporal_iou

DEFAULT_TIOU_THRESHOLDS = (0.1, 0.2, 0.3, 0.4, 0.5)

EVAL_TASKS = ("verb", "noun", "action")


@dataclass(frozen=True)
class GroundTruthInstance:
    """One annotated action segment."""

    video_id: str
    start: float
    end: float
    verb_index: int
    noun_index: int

    def __post_init__(self):
        if self.start >= self.end:
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
        if self.task not in EVAL_TASKS:
            raise InvalidConfig(f"task must be one of {EVAL_TASKS}, got {self.task!r}")
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
    return sorted(dets, key=lambda d: (*rank_key(d, d.score), d.video_id))


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
    matched = [False] * len(gts)
    flags = []
    for det in dets:
        det_class = _task_class(det, task)
        best_idx = -1
        best_iou = 0.0
        for gi, gt in enumerate(gts):
            if matched[gi] or gt.video_id != det.video_id:
                continue
            if _task_class(gt, task) != det_class:
                continue
            iou = temporal_iou(det.interval, gt.interval)
            if iou > best_iou:
                best_iou = iou
                best_idx = gi
        if best_idx >= 0 and best_iou >= tau:
            matched[best_idx] = True
            flags.append(True)
        else:
            flags.append(False)
    return flags


def average_precision(flags: list[bool], num_gt: int) -> float:
    """Area under the interpolated precision-recall curve.

    ``flags`` are TP/FP indicators in score order. Precision at each
    recall level is replaced by the maximum precision at any greater or
    equal recall before integrating. Zero ground truth yields 0 (such
    classes are excluded from class means upstream).
    """
    if num_gt < 0:
        raise InvalidConfig("num_gt must be >= 0")
    if num_gt == 0 or not flags:
        return 0.0
    tp = np.cumsum(np.asarray(flags, dtype=float))
    fp = np.cumsum(1.0 - np.asarray(flags, dtype=float))
    recall = tp / num_gt
    precision = tp / (tp + fp)

    mprec = np.concatenate([[0.0], precision, [0.0]])
    mrec = np.concatenate([[0.0], recall, [1.0]])
    for i in range(len(mprec) - 2, -1, -1):
        mprec[i] = max(mprec[i], mprec[i + 1])
    steps = np.where(mrec[1:] != mrec[:-1])[0] + 1
    return float(np.sum((mrec[steps] - mrec[steps - 1]) * mprec[steps]))


def mean_ap(
    dets: list[ActionDetection],
    gts: list[GroundTruthInstance],
    cfg: EvalConfig = EvalConfig(),
) -> MeanApResult:
    """Mean AP over classes with ground truth, at every threshold.

    Classes are keyed by the task's factor (verb index, noun index, or
    the verb-noun pair for the action task). Classes without any ground
    truth are excluded from the mean rather than scored 0.
    """
    gt_by_class: dict = {}
    for gt in gts:
        gt_by_class.setdefault(_task_class(gt, cfg.task), []).append(gt)

    det_by_class: dict = {}
    for det in dets:
        det_by_class.setdefault(_task_class(det, cfg.task), []).append(det)

    ranked = {cls: sort_detections(det_by_class.get(cls, [])) for cls in gt_by_class}
    per_threshold = {}
    for tau in cfg.thresholds:
        aps = []
        for cls in sorted(gt_by_class):
            class_gts = gt_by_class[cls]
            flags = match_detections(ranked[cls], class_gts, tau, cfg.task)
            aps.append(average_precision(flags, len(class_gts)))
        per_threshold[tau] = float(np.mean(aps)) if aps else 0.0

    average = float(np.mean(list(per_threshold.values())))
    return MeanApResult(task=cfg.task, per_threshold=per_threshold, average=average)
