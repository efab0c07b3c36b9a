"""Class-wise Soft-NMS with score decay and boundary voting.

Sliding-window inference emits near-duplicate detections wherever
windows overlap. Suppression runs per action class and per video: the
highest scoring detection is kept, every overlapping neighbor has its
score decayed by a Gaussian of the overlap, and neighbors falling below
the minimum score are dropped. A kept detection's interval is refined
by a score-weighted vote over its highly overlapping neighbors.
Detections of different action classes never affect each other.

Two rules tie the vote to the decay within one selection round. The
vote uses the round's pre-decay tIoU and the neighbors' original
(never decayed) scores. The decay uses the kept detection's un-voted
interval, so voting moves only the reported boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, groupby
from operator import itemgetter

import numpy as np

from .errors import InvalidConfig


@dataclass(frozen=True)
class NmsConfig:
    """Soft-NMS constants for one task."""

    sigma: float
    min_score: float
    vote_threshold: float
    pre_nms_cap: int = 5000
    max_per_video: int = 3000

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


# One video's detections pass from composition to the submission as a
# record array of this dtype; a task's class column is named after it.
DETECTION = np.dtype([("start", float), ("end", float), ("verb", np.int64), ("noun", np.int64),
                      ("action", np.int64), ("score", float)])


def temporal_iou(a: tuple, b: tuple):
    """Intersection-over-union of time intervals ``(start, end)``; 0 when
    disjoint. Starts and ends may be finite numbers or arrays of them."""
    with np.errstate(over="ignore", invalid="ignore"):
        union = np.maximum(a[1], b[1]) - np.minimum(a[0], b[0])
        if np.any(union == np.inf):  # halved ends are exact, and their union is finite
            half = np.where(union == np.inf, 0.5, 1.0)
            a, b = [t * half for t in a], [t * half for t in b]
            union = np.maximum(a[1], b[1]) - np.minimum(a[0], b[0])
        intersection = np.minimum(a[1], b[1]) - np.maximum(a[0], b[0])
        return np.maximum(0.0, intersection) / union


def rank_order(score, start, action) -> np.ndarray:
    """Indices of columns in rank order: score descending, then earlier
    start, then smaller action id; input order breaks full ties. The one
    ranking of detections."""
    return np.lexsort((action, start, -score))


def _scaled_vote(voters: list, field: int, weight: float) -> float:
    """The vote of ``voters``' coordinate ``field`` whose weighted sum
    overflows, from coordinates scaled by 2**-k (2**k > 2 * ``weight``) and
    scaled back: power-of-two scaling is exact, and the scaled sum finite."""
    k = math.frexp(weight)[1] + 1
    total = 0.0
    for row in voters:
        total += row[4] * math.ldexp(row[field], -k)
    return math.ldexp(total / weight, k)


def soft_nms(rows: list, cfg: NmsConfig, *, vote: bool = False) -> list:
    """Soft-NMS over the rows of one class pool on one video.

    Iteratively keeps the highest-scoring row and decays every remaining
    score by ``exp(-tIoU^2 / sigma)``; rows decayed below
    ``cfg.min_score`` are dropped. Stops once ``max_per_video`` rows are
    kept. With ``vote=True`` each kept interval becomes the mean of its
    own and of the round's neighbors with tIoU >= ``cfg.vote_threshold``,
    weighted by original scores; the kept score is not voted (a weighted
    sum past the float maximum is taken from scaled boundaries, see
    ``_scaled_vote``). One pass per round computes each neighbor's tIoU
    once and uses it for both the vote and the decay.

    ``rows`` are ``[-score, start, tie, end, score, component]``, grouped
    by component and in rank order within each, where rows of different
    components never overlap and ``tie`` ranks rows of equal score and
    start. The rounds run component by component, which consumes the
    rows, and the kept ones are returned component after component, each
    in the order they were kept, as ``(-score, start, tie, end)``.
    """
    # min(pool) is the next to keep: its rank key is its first three
    # fields, with the current score
    sigma, min_score, vote_threshold = cfg.sigma, cfg.min_score, cfg.vote_threshold
    inf = math.inf
    kept = []
    for _, pool in groupby(rows, itemgetter(5)):
        pool = list(pool)
        while pool and len(kept) < cfg.max_per_video:
            best = min(pool)
            pool.remove(best)
            neg_score, start, tie, end, weight = best[:5]
            start_sum, end_sum = weight * start, weight * end
            voters = [best]
            survivors = []
            for entry in pool:
                # the tIoU of (start, end) and (lo, hi), with min() and max()
                # spelled out: each returns its first operand on a tie
                lo, hi = entry[1], entry[3]
                inter = (hi if hi < end else end) - (lo if lo > start else start)
                if inter > 0.0:
                    union = (hi if hi > end else end) - (lo if lo < start else start)
                    iou = (inter / union if union < inf
                           else float(temporal_iou((start, end), (lo, hi))))
                    if vote and iou >= vote_threshold:
                        voters.append(entry)
                        score = entry[4]
                        weight += score
                        start_sum += score * lo
                        end_sum += score * hi
                    if iou > 0.0:
                        entry[0] *= math.exp(-(iou * iou) / sigma)
                if -entry[0] >= min_score:
                    survivors.append(entry)
            pool = survivors
            if vote and weight > 0.0:
                start = (start_sum / weight if -inf < start_sum < inf
                         else _scaled_vote(voters, 1, weight))
                end = end_sum / weight if -inf < end_sum < inf else _scaled_vote(voters, 3, weight)
            kept.append((neg_score, start, tie, end))
    return kept


def _overlap_components(start, end, pool, cap: int) -> np.ndarray:
    """Component ids, ascending, of rows sorted by pool and then start.

    A row opens a component when its start is at or past the largest end
    before it in its pool, so rows of different components never
    overlap. A pool of more than ``cap`` rows is one component.
    """
    # complex numbers compare by real part, then imaginary part: so the
    # running maximum of (pool, end) is the largest end so far in the pool
    key = np.empty(len(start), complex)
    key.real, key.imag = pool, end
    reach = np.maximum.accumulate(key).imag
    small = np.bincount(pool) <= cap
    opens = np.concatenate(([True], (pool[1:] != pool[:-1])
                            | (small[pool[1:]] & (start[1:] >= reach[:-1]))))
    return np.cumsum(opens) - 1


def suppress_video(dets: np.recarray, cfg: NmsConfig) -> np.recarray:
    """Suppress one video's pooled detections, action class by action class.

    Applies the global pre-NMS cap by rank, runs Soft-NMS with boundary
    voting within each pool of one action id, then merges the pools in
    rank order and truncates to ``max_per_video``.

    Two rows interact only when their intervals overlap, so each pool is
    split into overlap components. Rows below ``min_score`` are dropped
    first, except the pool's best row and the rows that overlap it:
    round 1 keeps the best, lets the rows it overlaps vote, and drops
    every other row below ``min_score`` before it acts. A row that then
    overlaps nothing in its pool keeps its score and its vote with
    itself, computed in arrays. The rows of larger components go to one
    ``soft_nms`` call per pool. A pool of more than ``max_per_video``
    such rows stays one component, because the cap inside the rounds
    depends on the pick order across components. Boundaries must be
    finite, as every reader ensures. A row's tie is its index in the
    order by pool (so action), original start and position; the rounds
    and the merge both break rank ties by it, which is the order in
    which the rounds over a whole pool keep tied rows.
    """
    if not len(dets):
        return dets
    order = rank_order(dets.score, dets.start, dets.action)[: cfg.pre_nms_cap]
    order = order[np.argsort(dets.action[order], kind="stable")]  # rank order within an action
    start, end, score, action = (dets[name][order] for name in ("start", "end", "score", "action"))
    opens_pool = np.concatenate(([True], action[1:] != action[:-1]))
    pool = np.cumsum(opens_pool) - 1
    heads = np.flatnonzero(opens_pool)  # a pool's first row is its best
    best = heads[pool]
    live = (score >= cfg.min_score) | (np.minimum(end, end[best]) > np.maximum(start, start[best]))
    live[heads] = True
    live = np.flatnonzero(live)
    # live rows by pool, then start, then position
    by_start = live[np.lexsort((start[live], pool[live]))]
    component = _overlap_components(start[by_start], end[by_start], pool[by_start],
                                    cfg.max_per_video)
    single = (np.bincount(component) == 1)[component]
    # a row's tie is its index in by_start; rows of larger components go
    # by component and then position, which is rank order in the pool
    tie = np.flatnonzero(~single)
    tie = tie[np.lexsort((by_start[tie], component[tie]))]
    at = by_start[tie]
    rows = list(map(list, zip((-score[at]).tolist(), start[at].tolist(), tie.tolist(),
                              end[at].tolist(), score[at].tolist(), component[tie].tolist())))
    bounds = [*np.flatnonzero(np.diff(pool[at], prepend=-1)).tolist(), len(rows)]
    merged = []
    for lo, hi in zip(bounds, bounds[1:]):
        merged.extend(soft_nms(rows[lo:hi], cfg, vote=True))
    # one float array of the kept rows: ties are exact below 2**53
    neg_score, kept_start, kept_tie, kept_end = np.fromiter(
        chain.from_iterable(merged), float, count=4 * len(merged)).reshape(-1, 4).T
    # each singleton is kept with its own score and its vote with itself
    alone = np.flatnonzero(single)
    at = by_start[alone]
    weight = score[at]
    voted = weight > 0.0
    kept_tie = np.concatenate((kept_tie.astype(np.int64), alone))
    neg_score = np.concatenate((neg_score, -weight))
    kept_start = np.concatenate((kept_start, np.divide(weight * start[at], weight,
                                                       out=start[at], where=voted)))
    kept_end = np.concatenate((kept_end, np.divide(weight * end[at], weight,
                                                   out=end[at], where=voted)))
    # equal ranks in pool (so action) order, then by original start and position
    ranked = np.lexsort((kept_tie, kept_start, neg_score))[: cfg.max_per_video]
    kept = dets.take(order[by_start[kept_tie[ranked]]])
    kept.start, kept.end, kept.score = kept_start[ranked], kept_end[ranked], -neg_score[ranked]
    return kept
