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
from .suppression import DETECTION, ActionDetection, detection_columns, rank_order, temporal_iou

# the three mAP tasks, each scored on its own class key
CLASS_KEYS = ("verb", "noun", "action")

DEFAULT_TIOU_THRESHOLDS = (0.1, 0.2, 0.3, 0.4, 0.5)

# One video's annotated action segments: the ``DETECTION`` columns up to noun.
GROUND_TRUTH = np.dtype(DETECTION.descr[:4])

# The columns scored: detections and ground truth of all videos, each
# row with its video as a code, the index of its id among the sorted ids.
EVAL_DETECTION = np.dtype([("video", np.int64), *DETECTION.descr])
EVAL_GROUND_TRUTH = np.dtype([("video", np.int64), *GROUND_TRUTH.descr])


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


def eval_columns(
    dets_by_video: dict[str, np.recarray], truth_by_video: dict[str, np.recarray]
) -> tuple[np.recarray, np.recarray]:
    """Detections (``DETECTION`` record arrays by video id) and ground
    truth (``GROUND_TRUTH`` record arrays by video id) as the columns
    ``score_columns`` takes: video after video in sorted order, each
    video's rows in their order."""
    videos = sorted(dets_by_video.keys() | truth_by_video.keys())
    columns = []
    for by_video, dtype in ((dets_by_video, EVAL_DETECTION),
                            (truth_by_video, EVAL_GROUND_TRUTH)):
        codes = [code for code, video_id in enumerate(videos) if video_id in by_video]
        blocks = [by_video[videos[code]] for code in codes]
        stacked = np.empty(sum(map(len, blocks)), dtype)
        stacked["video"] = np.repeat(codes, [len(block) for block in blocks])
        if blocks:  # np.concatenate needs at least one array
            rows = np.concatenate(blocks)
            for name in dtype.names[1:]:
                stacked[name] = rows[name]
        columns.append(stacked.view(np.recarray))
    return columns[0], columns[1]


def columns_by_video(dets: list[ActionDetection], gts: list[GroundTruthInstance]) -> tuple:
    """Detection and ground-truth objects as ``DETECTION`` and
    ``GROUND_TRUTH`` record arrays by video id, each video's in their order."""
    det_rows, gt_rows = {}, {}
    for det in dets:
        det_rows.setdefault(det.video_id, []).append(det)
    for gt in gts:
        gt_rows.setdefault(gt.video_id, []).append((gt.start, gt.end, gt.verb_index,
                                                    gt.noun_index))
    return ({video_id: detection_columns(rows) for video_id, rows in det_rows.items()},
            {video_id: np.rec.fromrecords(rows, dtype=GROUND_TRUTH)
             for video_id, rows in gt_rows.items()})


def average_precision(hits: list[int], num_gt: int) -> float:
    """Area under the interpolated precision-recall curve.

    ``hits`` are the 1-based ranks of the true positives in score order.
    Precision at each recall level is replaced by the maximum precision
    at any greater or equal recall before integrating. Zero ground truth
    yields 0 (such classes are excluded from class means upstream).

    Recall steps only at true positives, where the envelope is the best
    later true-positive precision. The step terms and the closing
    ``(1 - recall) * 0`` are summed as ``np.sum`` sums them: left to right
    below 8 terms, and pairwise, by ``np.sum`` itself, from 8 terms on. The
    short sums add in a loop, because ``sum`` compensates from Python 3.12.
    """
    if num_gt < 0:
        raise InvalidConfig("num_gt must be >= 0")
    if num_gt == 0 or not hits:
        return 0.0
    terms = [(1.0 - len(hits) / num_gt) * 0.0] if len(hits) != num_gt else []
    envelope = 0.0
    for tp in range(len(hits), 0, -1):
        envelope = max(envelope, tp / hits[tp - 1])
        terms.append((tp / num_gt - (tp - 1) / num_gt) * envelope)
    if len(terms) >= 8:
        return float(np.sum(terms[::-1]))
    total = 0.0
    for term in reversed(terms):
        total += term
    return total


def _task_classes(dets: np.recarray, gts: np.recarray, task: str):
    """Class of every detection and ground truth under ``task``; an action
    class orders as its ``(verb, noun)`` pair."""
    if task != "action":
        return dets[task], gts[task]
    span = 1 + max(dets.noun.max(initial=0), gts.noun.max(initial=0))
    return dets.verb * span + dets.noun, gts.verb * span + gts.noun


def score_columns(dets: np.recarray, gts: np.recarray, cfg: EvalConfig) -> MeanApResult:
    """Mean AP of evaluation columns (see ``eval_columns``) on one task.

    Classes are keyed by the task's factor (verb index, noun index, or
    the verb-noun pair for the action task). Classes without any ground
    truth are excluded from the mean rather than scored 0.

    Detections rank within their class by ``rank_order``: score
    descending, then start and action id, with input order on full ties.
    ``eval_columns`` stacks videos in sorted id order, so that input
    order breaks full ties by video. One join finds every same-video,
    same-class (detection, ground truth) pair with tIoU at or above the
    lowest threshold; no other pair can match. The pairs run by detection
    in rank order, then tIoU descending, then ground-truth order. Greedy
    matching at a threshold walks them once and takes a pair whose tIoU
    passes and whose detection and ground truth are both unmatched: since
    a detection's later pairs overlap no more, that is its first pair
    with unmatched ground truth if that one passes, and none otherwise. A
    detection without a match is a false positive.
    """
    det_class, gt_class = _task_classes(dets, gts, cfg.task)
    videos = 1 + max(dets.video.max(initial=0), gts.video.max(initial=0))
    # ground truth by class, then video, in input order within
    gt_index = np.lexsort((gts.video, gt_class))
    sorted_class = gt_class[gt_index]
    first = np.ones(len(gts), dtype=bool)
    first[1:] = sorted_class[1:] != sorted_class[:-1]
    first = np.flatnonzero(first)
    classes, num_gt = sorted_class[first], np.diff(np.append(first, len(gts)))
    gt_key = np.repeat(np.arange(len(classes)), num_gt) * videos + gts.video[gt_index]

    # detections of classes with ground truth, by class, in rank order
    ranked = rank_order(dets.score, dets.start, dets.action, det_class)
    class_id = np.searchsorted(classes, det_class[ranked])
    has_gt = class_id < len(classes)
    has_gt[has_gt] = classes[class_id[has_gt]] == det_class[ranked][has_gt]
    ranked, class_id = ranked[has_gt], class_id[has_gt]
    rank = np.arange(1, len(ranked) + 1) - np.searchsorted(class_id, class_id)

    # the join: each detection against its (class, video) block of ground truth
    det_key = class_id * videos + dets.video[ranked]
    lo = np.searchsorted(gt_key, det_key, "left")
    count = np.searchsorted(gt_key, det_key, "right") - lo
    pair_det = np.repeat(np.arange(len(ranked)), count)
    # a detection's pairs are its block: positions lo, lo + 1, ... of gt_key
    offset = np.arange(len(pair_det)) - np.repeat(np.cumsum(count) - count, count)
    pair_gt = gt_index[np.repeat(lo, count) + offset]
    det = ranked[pair_det]
    iou = temporal_iou((dets.start[det], dets.end[det]), (gts.start[pair_gt], gts.end[pair_gt]))
    matchable = iou >= cfg.thresholds[0]  # a pair below the lowest threshold never matches
    pair_det, pair_gt, iou = pair_det[matchable], pair_gt[matchable], iou[matchable]
    order = np.lexsort((pair_gt, -iou, pair_det))
    pairs = list(zip(pair_det[order].tolist(), iou[order].tolist(), pair_gt[order].tolist()))

    per_threshold = {}
    class_of, rank_of, num_gt = class_id.tolist(), rank.tolist(), num_gt.tolist()
    for tau in cfg.thresholds:
        det_matched, gt_matched = bytearray(len(ranked)), bytearray(len(gts))
        hits = [[] for _ in num_gt]
        for i, pair_iou, g in pairs:
            if pair_iou >= tau and not det_matched[i] and not gt_matched[g]:
                det_matched[i] = gt_matched[g] = 1
                hits[class_of[i]].append(rank_of[i])
        aps = [average_precision(h, n) for h, n in zip(hits, num_gt)]
        per_threshold[tau] = float(np.mean(aps)) if aps else 0.0

    average = float(np.mean(list(per_threshold.values())))
    return MeanApResult(task=cfg.task, per_threshold=per_threshold, average=average)


def mean_ap(
    dets: list[ActionDetection],
    gts: list[GroundTruthInstance],
    cfg: EvalConfig = EvalConfig(),
) -> MeanApResult:
    """Mean AP of detection and ground-truth objects at every threshold:
    ``score_columns`` on their columns."""
    return score_columns(*eval_columns(*columns_by_video(dets, gts)), cfg)
