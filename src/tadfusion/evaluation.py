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
from .suppression import DETECTION, lex_order, rank_order, temporal_iou

# the three mAP tasks, each scored on its own class key
CLASS_KEYS = ("verb", "noun", "action")

DEFAULT_TIOU_THRESHOLDS = (0.1, 0.2, 0.3, 0.4, 0.5)

# scoring holds a hit list per threshold, so memory grows with thresholds
# times hits; the protocol scores 5
MAX_EVAL_THRESHOLDS = 100

# candidate (detection, ground truth) pairs the join builds at once; of
# 2**14 to 2**20, 2**16 joined 25 million candidates fastest
_JOIN_CHUNK = 1 << 16

# One video's annotated action segments: the ``DETECTION`` columns up to noun.
GROUND_TRUTH = np.dtype(DETECTION.descr[:4])

# The columns scored: detections and ground truth of all videos, each
# row with its video as a code, the index of its id among the sorted ids.
EVAL_DETECTION = np.dtype([("video", np.int64), *DETECTION.descr])
EVAL_GROUND_TRUTH = np.dtype([("video", np.int64), *GROUND_TRUTH.descr])


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation thresholds and the task (class key) to score."""

    thresholds: tuple[float, ...] = DEFAULT_TIOU_THRESHOLDS
    task: str = "action"

    def __post_init__(self):
        if self.task not in CLASS_KEYS:
            raise InvalidConfig(f"task must be one of {CLASS_KEYS}, got {self.task!r}")
        if not 1 <= len(self.thresholds) <= MAX_EVAL_THRESHOLDS:
            raise InvalidConfig(f"between 1 and {MAX_EVAL_THRESHOLDS} thresholds required")
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
    ``score_columns`` takes. Ground truth runs video after video in sorted
    id order, each video's rows in their order. Detections come in
    ``rank_order`` over that same layout, so a full tie keeps video id
    order, then the video's own order: ranked once here for every task."""
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
    dets, truth = columns
    return dets.take(rank_order(dets.score, dets.start, dets.action)), truth


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and length of every run of equal values in ``keys``."""
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    first = np.flatnonzero(first)
    return first, np.diff(np.append(first, len(keys)))


def average_precisions(row, rank, num_gt) -> np.ndarray:
    """Area under the interpolated precision-recall curve of every row.

    Row ``r`` holds the true positives of one ranked list with
    ``num_gt[r]`` ground truths (at least one for a row with a true
    positive). ``row`` and ``rank`` list every true positive as its row
    and its 1-based rank in score order, grouped by row and ascending in
    rank within a row. A row without one scores 0. Precision at each
    recall level is replaced by the maximum precision at any greater or
    equal recall before integrating.

    Recall steps only at true positives, where the envelope is the best
    later true-positive precision. The step terms and the closing
    ``(1 - recall) * 0`` are summed as ``np.sum`` sums them: left to right
    below 8 terms, here by one ``np.add.accumulate`` over rows padded with
    -0.0, and pairwise, by ``np.sum`` of the row itself, from 8 terms on.
    Every step term is positive, so the closing +0.0 adds as the -0.0
    padding does: it only counts toward the number of terms.
    """
    aps = np.zeros(len(num_gt))
    if not len(row):
        return aps
    row, rank = np.asarray(row), np.asarray(rank)
    # the rows with true positives, each with its count k of them
    first, k = _runs(row)
    scored = row[first]
    n = np.asarray(num_gt)[scored]
    # one line per such row, its hit with tp true positives at column
    # tp - 1 and room for its closing term at column k; -0.0 pads the line
    width = int(k.max()) + 1
    tp = np.arange(1, len(row) + 1) - np.repeat(first, k)
    at = np.repeat(np.arange(len(scored)) * width - 1, k) + tp
    terms = np.full((len(scored), width), -0.0)
    flat = terms.reshape(-1)
    flat[at] = tp / rank
    # the envelope: the best precision at this or any later true positive
    np.maximum.accumulate(terms[:, ::-1], axis=1, out=terms[:, ::-1])
    n_at = np.repeat(n, k)
    flat[at] *= tp / n_at - (tp - 1) / n_at
    aps[scored] = np.add.accumulate(terms[:, :7], axis=1)[:, -1]
    length = k + (k != n)
    for i in np.flatnonzero(length >= 8).tolist():
        aps[scored[i]] = np.sum(terms[i, : length[i]])
    return aps


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

    The detections come in ``rank_order`` (score descending, then start
    and action id), as ``eval_columns`` returns them, so a full tie keeps
    video id order. One sort by class, ties in input order, keeps that
    rank within each class. One join, built a run of detections at a time,
    finds every same-video, same-class (detection, ground truth) pair with
    tIoU at or above the lowest threshold; no other pair can match. The pairs
    run by detection in rank order, then tIoU descending, then ground-truth order.
    Greedy matching at a threshold walks them once and takes a pair whose
    tIoU passes and whose detection and ground truth are both unmatched:
    since a detection's later pairs overlap no more, that is its first
    pair with unmatched ground truth if that one passes, and none
    otherwise. A detection without a match is a false positive. The hits of every threshold and class are scored by
    one ``average_precisions`` call.
    """
    det_class, gt_class = _task_classes(dets, gts, cfg.task)
    videos = 1 + max(dets.video.max(initial=0), gts.video.max(initial=0))
    # ground truth by class, then video, in input order within
    gt_index = lex_order(gts.video, gt_class)
    sorted_class = gt_class[gt_index]
    first, num_gt = _runs(sorted_class)
    classes = sorted_class[first]
    gt_key = np.repeat(np.arange(len(classes)), num_gt) * videos + gts.video[gt_index]

    # detections of classes with ground truth, by class, in rank order
    ranked = lex_order(det_class)
    class_id = np.searchsorted(classes, det_class[ranked])
    has_gt = class_id < len(classes)
    has_gt[has_gt] = classes[class_id[has_gt]] == det_class[ranked][has_gt]
    ranked, class_id = ranked[has_gt], class_id[has_gt]
    rank = np.arange(1, len(ranked) + 1) - np.searchsorted(class_id, class_id)

    # the join: each detection against its (class, video) block of ground truth
    det_key = class_id * videos + dets.video[ranked]
    lo = np.searchsorted(gt_key, det_key, "left")
    count = np.searchsorted(gt_key, det_key, "right") - lo
    # a run of detections at a time, of at most _JOIN_CHUNK candidate pairs or
    # one detection with more; only matchable pairs are kept, so memory follows them
    begin = np.append(0, np.cumsum(count))  # the pairs before each detection, then all
    runs, a = [], 0
    while not runs or a < len(ranked):
        b = np.searchsorted(begin, begin[a] + _JOIN_CHUNK, "right") - 1
        b = min(len(ranked), max(a + 1, int(b)))
        pair_det = np.repeat(np.arange(a, b), count[a:b])
        # a detection's pairs are its block: positions lo, lo + 1, ... of gt_key
        offset = np.arange(begin[a], begin[b]) - np.repeat(begin[a:b], count[a:b])
        pair_gt = gt_index[np.repeat(lo[a:b], count[a:b]) + offset]
        det = ranked[pair_det]
        iou = temporal_iou((dets.start[det], dets.end[det]),
                           (gts.start[pair_gt], gts.end[pair_gt]))
        matchable = iou >= cfg.thresholds[0]  # no pair below it can match
        runs.append((pair_det[matchable], pair_gt[matchable], iou[matchable]))
        a = b
    pair_det, pair_gt, iou = map(np.concatenate, zip(*runs))
    order = lex_order(pair_gt, -iou, pair_det)
    pairs = list(zip(pair_det[order].tolist(), iou[order].tolist(), pair_gt[order].tolist()))

    # hits grouped by row t * classes + class, each row's in rank order,
    # because the pairs run class by class in rank order
    hit_row, hit_rank = [], []
    class_of, rank_of = class_id.tolist(), rank.tolist()
    for t, tau in enumerate(cfg.thresholds):
        det_matched, gt_matched = bytearray(len(ranked)), bytearray(len(gts))
        base = t * len(classes)
        for i, pair_iou, g in pairs:
            if pair_iou >= tau and not det_matched[i] and not gt_matched[g]:
                det_matched[i] = gt_matched[g] = 1
                hit_row.append(base + class_of[i])
                hit_rank.append(rank_of[i])
    aps = average_precisions(hit_row, hit_rank, np.tile(num_gt, len(cfg.thresholds)))
    aps = aps.reshape(len(cfg.thresholds), len(classes))
    per_threshold = {tau: float(np.mean(aps[t])) if len(classes) else 0.0
                     for t, tau in enumerate(cfg.thresholds)}

    average = float(np.mean(list(per_threshold.values())))
    return MeanApResult(task=cfg.task, per_threshold=per_threshold, average=average)
