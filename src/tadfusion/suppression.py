"""Class-wise Soft-NMS with score decay and boundary voting.

Sliding-window inference emits near-duplicate detections wherever
windows overlap. Suppression runs per class and per video: the highest
scoring detection is kept, every overlapping neighbor has its score
decayed by a Gaussian of the overlap, and neighbors falling below the
minimum score are dropped. A kept detection's interval is refined by a
score-weighted vote over its highly overlapping neighbors. Detections
of different classes never affect each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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


def boundary_vote(
    kept: ActionDetection,
    neighbors: list[ActionDetection],
    vote_threshold: float,
) -> ActionDetection:
    """Refine a kept detection's interval by a score-weighted average.

    Neighbors are the detections considered during the kept detection's
    selection round; those overlapping it with tIoU >= vote_threshold
    vote with their original (pre-decay) scores, the kept detection
    included. The kept score is unchanged.
    """
    weight = kept.score
    start_sum = kept.score * kept.start
    end_sum = kept.score * kept.end
    for n in neighbors:
        if temporal_iou(kept.interval, n.interval) >= vote_threshold:
            weight += n.score
            start_sum += n.score * n.start
            end_sum += n.score * n.end
    if weight <= 0.0:
        return kept
    return replace(kept, start=start_sum / weight, end=end_sum / weight)


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
    detections are kept. With ``vote=True`` each kept interval is
    additionally refined by ``boundary_vote`` over that round's pool
    (original scores, pre-vote overlaps).
    """
    # pool entries: [*rank_key(det, current score), input position, det], so
    # min(pool) is the next to keep and -entry[0] is the current score
    pool = [[*rank_key(d, d.score), i, d] for i, d in enumerate(dets)]
    kept: list[ActionDetection] = []
    while pool and len(kept) < cfg.max_per_video:
        best = min(pool)
        pool.remove(best)
        det = best[-1]
        if vote:
            refined = boundary_vote(det, [entry[-1] for entry in pool], cfg.vote_threshold)
        else:
            refined = det
        kept.append(replace(refined, score=-best[0]))
        survivors = []
        for entry in pool:
            iou = temporal_iou(det.interval, entry[-1].interval)
            if iou > 0.0:
                entry[0] *= math.exp(-(iou * iou) / cfg.sigma)
            if -entry[0] >= cfg.min_score:
                survivors.append(entry)
        pool = survivors
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
