"""Class-wise Soft-NMS with score decay and boundary voting.

Sliding-window inference emits near-duplicate detections wherever
windows overlap. Suppression runs per class and per video: the highest
scoring detection is kept, every overlapping neighbor has its score
decayed by a Gaussian of the overlap, and neighbors falling below the
minimum score are dropped. A kept detection's interval is refined by a
score-weighted vote over its highly overlapping neighbors. Detections
of different classes never affect each other.

Two rules tie the vote to the decay within one selection round. The
vote uses the round's pre-decay tIoU and the neighbors' original
(never decayed) scores. The decay uses the kept detection's un-voted
interval, so voting moves only the reported boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidConfig

DEFAULT_PRE_NMS_CAP = 5000
DEFAULT_MAX_PER_VIDEO = 3000

# the three tasks: a Soft-NMS class key here, an mAP task in evaluation
CLASS_KEYS = ("verb", "noun", "action")


@dataclass(frozen=True)
class NmsConfig:
    """Soft-NMS constants for one task."""

    sigma: float
    min_score: float
    vote_threshold: float
    pre_nms_cap: int = DEFAULT_PRE_NMS_CAP
    max_per_video: int = DEFAULT_MAX_PER_VIDEO

    def __post_init__(self):
        if self.sigma <= 0.0:
            raise InvalidConfig("sigma must be positive")
        if self.min_score < 0.0:
            raise InvalidConfig("min_score must be non-negative")
        if not 0.0 < self.vote_threshold <= 1.0:
            raise InvalidConfig("vote_threshold must lie in (0, 1]")
        if self.pre_nms_cap < 1 or self.max_per_video < 1:
            raise InvalidConfig("candidate caps must be >= 1")


NOUN_NMS = NmsConfig(sigma=0.6, min_score=0.005, vote_threshold=0.65)
VERB_ACTION_NMS = NmsConfig(sigma=0.4, min_score=0.001, vote_threshold=0.75)

NMS_PRESETS = {"noun": NOUN_NMS, "verb_action": VERB_ACTION_NMS}


@dataclass(frozen=True)
class ActionDetection:
    """A final detection: interval in seconds, composed label, score."""

    video_id: str
    start: float
    end: float
    verb_index: int
    noun_index: int
    action_id: int
    score: float

    def __post_init__(self):
        if not self.start < self.end:  # also rejects a nan boundary
            raise InvalidConfig(f"detection start {self.start} >= end {self.end}")
        if not 0.0 <= self.score <= 1.0:
            raise InvalidConfig(f"detection score {self.score} outside [0, 1]")

    @property
    def interval(self) -> tuple[float, float]:
        return (self.start, self.end)


# One video's detections pass from composition to the submission as a
# record array of this dtype; a task's class column is named after it.
DETECTION = np.dtype([("start", float), ("end", float), ("verb", np.int64), ("noun", np.int64),
                      ("action", np.int64), ("score", float)])


def detection_columns(dets: list[ActionDetection]) -> np.recarray:
    """The detection objects as a record array, in their order."""
    return np.rec.fromrecords([(d.start, d.end, d.verb_index, d.noun_index, d.action_id,
                                d.score) for d in dets], dtype=DETECTION)


def temporal_iou(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Intersection-over-union of two time intervals; 0 when disjoint."""
    intersection = min(a[1], b[1]) - max(a[0], b[0])
    if intersection <= 0.0:
        return 0.0
    union = max(a[1], b[1]) - min(a[0], b[0])
    return intersection / union


def rank_key(det: ActionDetection) -> tuple:
    """Rank order of detections: score descending, earlier start, smaller action id."""
    return (-det.score, det.start, det.action_id)


def soft_nms(dets: list, cfg: NmsConfig, *, vote: bool = False) -> list:
    """Soft-NMS over detections of one class on one video.

    Iteratively keeps the highest-scoring detection and decays every
    remaining score by ``exp(-tIoU^2 / sigma)``; detections decayed
    below ``cfg.min_score`` are dropped. Stops once ``max_per_video``
    detections are kept. With ``vote=True`` each kept interval becomes
    the mean of its own and of the round's neighbors with tIoU >=
    ``cfg.vote_threshold``, weighted by original scores; the kept score
    is not voted. One pass per round computes each neighbor's tIoU once
    and uses it for both the vote and the decay.

    ``dets`` are ActionDetection objects, kept ones returned in rank
    order, or rows ``[-score, start, action_id, position, end, score]``,
    which this consumes, kept ones returned in the order they were kept
    as ``(-score, start, action_id, position, end)``.
    """
    if dets and isinstance(dets[0], ActionDetection):
        rows = [[-d.score, d.start, d.action_id, i, d.end, d.score] for i, d in enumerate(dets)]
        kept = [replace(dets[i], start=start, end=end, score=-neg_score)
                for neg_score, start, _, i, end in soft_nms(rows, cfg, vote=vote)]
        return sorted(kept, key=rank_key)
    # min(pool) is the next to keep: its rank key is its first three
    # fields, with the current score, and the position breaks ties
    pool = dets
    sigma, min_score, vote_threshold = cfg.sigma, cfg.min_score, cfg.vote_threshold
    kept = []
    while pool and len(kept) < cfg.max_per_video:
        best = min(pool)
        pool.remove(best)
        neg_score, start, action_id, position, end, weight = best
        start_sum, end_sum = weight * start, weight * end
        survivors = []
        for entry in pool:
            # temporal_iou((start, end), (lo, hi)) with min() and max()
            # spelled out: each returns its first operand on a tie
            lo, hi = entry[1], entry[4]
            inter = (hi if hi < end else end) - (lo if lo > start else start)
            if inter > 0.0:
                iou = inter / ((hi if hi > end else end) - (lo if lo < start else start))
                if vote and iou >= vote_threshold:
                    score = entry[5]
                    weight += score
                    start_sum += score * lo
                    end_sum += score * hi
                if iou > 0.0:  # nan when both starts are -inf: no decay
                    entry[0] *= math.exp(-(iou * iou) / sigma)
            if -entry[0] >= min_score:
                survivors.append(entry)
        pool = survivors
        if vote and weight > 0.0:
            start, end = start_sum / weight, end_sum / weight
        kept.append((neg_score, start, action_id, position, end))
    return kept


def suppress_video(dets: np.recarray, cfg: NmsConfig, class_key: str = "action") -> np.recarray:
    """Suppress one video's pooled detections, class by class.

    Applies the global pre-NMS cap by rank, runs Soft-NMS with boundary
    voting within each class pool, then merges the pools in rank order
    and truncates to ``max_per_video``. Equal ranks keep pool order, then
    the order in which Soft-NMS kept them.
    """
    if class_key not in CLASS_KEYS:
        raise InvalidConfig(f"class_key must be one of {CLASS_KEYS}, got {class_key!r}")
    if not len(dets):
        return dets
    order = np.lexsort((dets.action, dets.start, -dets.score))[: cfg.pre_nms_cap]
    classes = dets[class_key][order]
    pools = np.argsort(classes, kind="stable")  # ascending class, rank order within
    order, classes = order[pools], classes[pools]
    score = dets.score[order]
    rows = list(map(list, zip((-score).tolist(), dets.start[order].tolist(),
                              dets.action[order].tolist(), range(len(order)),
                              dets.end[order].tolist(), score.tolist())))
    bounds = [0, *(np.flatnonzero(classes[1:] != classes[:-1]) + 1).tolist(), len(rows)]
    merged = []
    for lo, hi in zip(bounds, bounds[1:]):
        merged.extend(soft_nms(rows[lo:hi], cfg, vote=True))
    neg_score, start, action_id, position, end = (np.array(c) for c in zip(*merged))
    # stable: equal ranks keep pool order, then the order Soft-NMS kept them
    ranked = np.lexsort((action_id, start, neg_score))[: cfg.max_per_video]
    kept = dets[order[position[ranked]]]
    kept.start, kept.end, kept.score = start[ranked], end[ranked], -neg_score[ranked]
    return kept
