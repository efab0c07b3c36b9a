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
from .suppression import lex_order, run_index, runs, temporal_iou

# the three mAP tasks, each scored on its own class key
CLASS_KEYS = ("verb", "noun", "action")

DEFAULT_TIOU_THRESHOLDS = (0.1, 0.2, 0.3, 0.4, 0.5)

# scoring holds ground-truth flags and a hit list per threshold, so memory
# grows with thresholds times ground truths; the protocol scores 5
MAX_EVAL_THRESHOLDS = 100

# candidate (detection, ground truth) pairs the join builds and matches at
# once; of 2**14 to 2**20, 2**16 joined 25 million candidates fastest
_JOIN_CHUNK = 1 << 16


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

    per_threshold: dict[float, float]
    average: float


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
    # the rows with true positives, each with its count k of them
    first, k = runs(row)
    scored = row[first]
    n = num_gt[scored]
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


def score_columns(dets: np.recarray, gts: np.recarray, cfg: EvalConfig) -> MeanApResult:
    """Mean AP on one task of detections and ground truth whose video codes
    index one list of ids.

    A task's class is its column in either table: the verb index, the
    noun index or the action id ``VocabSpec.action_id(noun, verb)``.
    Classes without any ground truth are excluded from the mean rather
    than scored 0.

    The detections come in ``rank_order`` (score descending, then start
    and action id), as ``pipeline.evaluate_files`` ranks them, so a full
    tie keeps video id order. One sort by class, ties in input order,
    keeps that rank within each class: a detection's rank is its
    ``run_index`` in its class plus 1, and the scored classes are the
    ``runs`` of equal class in the ground truth sorted by class. The join
    pairs each detection with the ground truth of its class and video a
    run of detections at a time, and orders and matches each run before
    it builds the next. Runs of the join are ranges of detections, and a
    run's pairs go by detection, then tIoU descending, then ground-truth
    order; sorting by the first two keys keeps the third, because each
    detection's pairs are built in ascending ground-truth order and full
    ties keep input order. Greedy matching at a threshold walks the pairs
    whose tIoU passes and takes one whose detection and ground truth are
    both unmatched; the ground-truth flags carry from run to run, and a
    detection, whose pairs lie in one run, is matched once it is the
    threshold's last hit. A detection without a match is a false positive.
    The hits of every threshold and class are scored by one
    ``average_precisions`` call.
    """
    det_class, gt_class = dets[cfg.task], gts[cfg.task]
    videos = 1 + max(dets.video.max(initial=0), gts.video.max(initial=0))
    # ground truth by class, then video, in input order within
    gt_index = lex_order(gts.video, gt_class)
    sorted_class = gt_class[gt_index]
    first, num_gt = runs(sorted_class)
    classes = sorted_class[first]
    gt_key = np.repeat(np.arange(len(classes)), num_gt) * videos + gts.video[gt_index]

    # detections of classes with ground truth, by class, in rank order
    ranked = lex_order(det_class)
    class_id = np.searchsorted(classes, det_class[ranked])
    has_gt = class_id < len(classes)
    has_gt[has_gt] = classes[class_id[has_gt]] == det_class[ranked][has_gt]
    ranked, class_id = ranked[has_gt], class_id[has_gt]
    rank = run_index(class_id) + 1

    # the join: each detection against its (class, video) block of ground truth
    det_key = class_id * videos + dets.video[ranked]
    lo = np.searchsorted(gt_key, det_key, "left")
    count = np.searchsorted(gt_key, det_key, "right") - lo
    begin = np.append(0, np.cumsum(count))  # the pairs before each detection, then all
    # per threshold, the matched ground truth and the matched detections' positions
    gt_matched = [bytearray(len(gts)) for _ in cfg.thresholds]
    hits = [[] for _ in cfg.thresholds]
    a = 0
    while a < len(ranked):
        # a run of at most _JOIN_CHUNK candidate pairs, or one detection with more
        b = np.searchsorted(begin, begin[a] + _JOIN_CHUNK, "right") - 1
        b = min(len(ranked), max(a + 1, int(b)))
        pair_det = np.repeat(np.arange(a, b), count[a:b])
        # a detection's pairs are its block: positions lo, lo + 1, ... of gt_key
        offset = np.arange(begin[a], begin[b]) - np.repeat(begin[a:b], count[a:b])
        pair_gt = gt_index[np.repeat(lo[a:b], count[a:b]) + offset]
        det = ranked[pair_det]
        iou = temporal_iou((dets.start[det], dets.end[det]),
                           (gts.start[pair_gt], gts.end[pair_gt]))
        order = lex_order(-iou, pair_det)
        pair_det, pair_gt, iou = pair_det[order], pair_gt[order], iou[order]
        for tau, matched, hit in zip(cfg.thresholds, gt_matched, hits):
            passes = iou >= tau
            last = -1
            for i, g in zip(pair_det[passes].tolist(), pair_gt[passes].tolist()):
                if i != last and not matched[g]:
                    matched[g] = 1
                    hit.append(i)
                    last = i
        a = b

    # hits grouped by row t * classes + class, each row's in rank order,
    # because the detections run class by class in rank order
    at = np.array([i for hit in hits for i in hit], dtype=np.intp)
    row = np.repeat(np.arange(len(hits)) * len(classes), [len(hit) for hit in hits])
    aps = average_precisions(row + class_id[at], rank[at], np.tile(num_gt, len(hits)))
    aps = aps.reshape(len(cfg.thresholds), len(classes))
    per_threshold = {tau: float(np.mean(aps[t])) if len(classes) else 0.0
                     for t, tau in enumerate(cfg.thresholds)}

    average = float(np.mean(list(per_threshold.values())))
    return MeanApResult(per_threshold=per_threshold, average=average)
