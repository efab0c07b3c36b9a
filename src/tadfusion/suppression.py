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
from dataclasses import dataclass

from .errors import InvalidConfig

DEFAULT_PRE_NMS_CAP = 5000
DEFAULT_MAX_PER_VIDEO = 3000

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
        if self.start >= self.end:
            raise InvalidConfig(f"detection start {self.start} >= end {self.end}")
        if not 0.0 <= self.score <= 1.0:
            raise InvalidConfig(f"detection score {self.score} outside [0, 1]")

    @property
    def interval(self) -> tuple[float, float]:
        return (self.start, self.end)


def temporal_iou(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Intersection-over-union of two time intervals; 0 when disjoint."""
    intersection = min(a[1], b[1]) - max(a[0], b[0])
    if intersection <= 0.0:
        return 0.0
    union = max(a[1], b[1]) - min(a[0], b[0])
    return intersection / union


def rank_key(det: ActionDetection, score: float) -> tuple:
    """Rank order of detections: ``score`` descending, then earlier start,
    then smaller action id. ``score`` is ``det.score`` everywhere except
    inside Soft-NMS, which ranks by the decayed score."""
    return (-score, det.start, det.action_id)


def by_rank(dets) -> list[ActionDetection]:
    """``dets`` sorted by ``rank_key`` of their own scores."""
    return sorted(dets, key=lambda d: rank_key(d, d.score))


def class_key_of(det: ActionDetection, class_key: str):
    """Class identity used for grouping under the given task."""
    if class_key == "verb":
        return det.verb_index
    if class_key == "noun":
        return det.noun_index
    if class_key == "action":
        return det.action_id
    raise InvalidConfig(f"class_key must be one of {CLASS_KEYS}, got {class_key!r}")


def soft_nms(
    dets: list[ActionDetection],
    cfg: NmsConfig,
    *,
    vote: bool = False,
) -> list[ActionDetection]:
    """Soft-NMS over detections of one class on one video.

    Iteratively keeps the highest-scoring detection and decays every
    remaining score by ``exp(-tIoU^2 / sigma)``; detections decayed
    below ``cfg.min_score`` are dropped. Stops once ``max_per_video``
    detections are kept. With ``vote=True`` each kept interval becomes
    the mean of its own and of the round's neighbors with tIoU >=
    ``cfg.vote_threshold``, weighted by original scores; the kept score
    is not voted. One pass per round computes each neighbor's tIoU once
    and uses it for both the vote and the decay.
    """
    # pool entries: [*rank_key(det, current score), input position, end, det],
    # so min(pool) is the next to keep and -entry[0] is its current score
    pool = [[*rank_key(d, d.score), i, d.end, d] for i, d in enumerate(dets)]
    sigma, min_score, vote_threshold = cfg.sigma, cfg.min_score, cfg.vote_threshold
    kept: list[ActionDetection] = []
    while pool and len(kept) < cfg.max_per_video:
        best = min(pool)
        pool.remove(best)
        neg_score, start, _, _, end, det = best
        weight = det.score
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
                    score = entry[5].score
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
        kept.append(ActionDetection(det.video_id, start, end, det.verb_index,
                                    det.noun_index, det.action_id, -neg_score))
    return by_rank(kept)


def suppress_video(
    dets: list[ActionDetection],
    cfg: NmsConfig,
    class_key: str = "action",
) -> list[ActionDetection]:
    """Suppress one video's pooled detections, class by class.

    Applies the global pre-NMS cap by score, runs Soft-NMS with boundary
    voting within each class group, then merges, sorts by score and
    truncates to ``max_per_video``.
    """
    groups: dict = {}
    for det in by_rank(dets)[: cfg.pre_nms_cap]:
        groups.setdefault(class_key_of(det, class_key), []).append(det)

    merged: list[ActionDetection] = []
    for key in sorted(groups):
        merged.extend(soft_nms(groups[key], cfg, vote=True))
    return by_rank(merged)[: cfg.max_per_video]
