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
from itertools import chain, groupby, islice
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


# Detections pass from composition to the submission as one record array
# of this dtype, of every video; a task's class column is named after it.
# A row's video is a code: the index of its video's id in a sorted list.
DETECTION = np.dtype([("video", np.int64), ("start", float), ("end", float),
                      ("verb", np.int64), ("noun", np.int64), ("action", np.int64),
                      ("score", float)])
# Annotated action segments: the ``DETECTION`` columns up to action.
GROUND_TRUTH = np.dtype(DETECTION.descr[:6])


def video_codes(video_ids) -> tuple[list[str], np.ndarray]:
    """The distinct ids of ``video_ids``, sorted, and the code of each
    item: the index of its id among them. (``np.unique`` would load
    ``numpy.ma``.)"""
    ids = sorted(set(video_ids))
    code = {video_id: i for i, video_id in enumerate(ids)}
    return ids, np.array([code[video_id] for video_id in video_ids], np.int64)


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


def runs(*keys) -> tuple[np.ndarray, np.ndarray]:
    """Start and length of every run of equal rows of the columns ``keys``:
    a row opens a run when it is the first row or when any key differs
    from the row before (``-0.0 == 0.0``). The one grouping of rows."""
    n = len(keys[0])
    opens = np.zeros(n, bool)
    opens[:1] = True
    for key in keys:
        opens[1:] |= key[1:] != key[:-1]
    first = np.flatnonzero(opens)
    return first, np.diff(first, append=n)


def run_index(*keys) -> np.ndarray:
    """Index of every row within its run of ``runs(*keys)``, from 0."""
    first, length = runs(*keys)
    return np.arange(len(keys[0])) - np.repeat(first, length)


def lex_order(*keys) -> np.ndarray:
    """Indices that sort columns by ``keys``, the last key first and input
    order on full ties: exactly ``np.lexsort(keys)``, from NumPy's default
    argsort, which is unstable and several times faster than its stable
    sorts. The one way rows are ordered.

    An integer last key is a group, sorted over rows in the order of the
    other keys: as ``uint16`` by NumPy's stable sort, a radix sort, when
    every group lies in ``[0, 2**16)``, and otherwise as the unique int64
    key ``group * n + i``, which needs ``|group| < 2**32`` and
    ``n < 2**31``. A float last key (no NaN) is sorted first, and only its
    runs of equal values (``-0.0 == 0.0``) are then ordered by the other
    keys and input order.
    """
    *rest, last = keys
    n = len(last)
    if last.dtype.kind in "iu":
        order = lex_order(*rest) if rest else np.arange(n)
        group = last[order]
        if n and 0 <= group.min() and group.max() < 2**16:
            return order[np.argsort(group.astype(np.uint16), kind="stable")]
        return order[np.argsort(group.astype(np.int64) * n + np.arange(n))]
    order = np.argsort(last)
    ranked = last[order]
    if (ranked[1:] != ranked[:-1]).all():  # no equal neighbours: no ties to order
        return order
    first, length = runs(ranked)
    # the rows of runs of more than one value, in input order, by their run
    slots = np.flatnonzero(np.repeat(length > 1, length))
    run = np.empty(n, np.int64)
    run[order] = np.repeat(np.arange(len(first)), length)
    rows = np.sort(order[slots])
    order[slots] = rows[lex_order(*(key[rows] for key in rest), run[rows])]
    return order


def rank_order(score, start, action, *video) -> np.ndarray:
    """Indices of columns in rank order: score descending, then earlier
    start, then smaller action id; input order breaks full ties. Given a
    video code column, rows are grouped by it first, ascending, and ranked
    within their video. The one ranking of detections."""
    return lex_order(action, start, -score, *video)


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
    """Suppress the pooled detections of every video of ``dets``, video by
    video and action class by action class.

    Applies each video's pre-NMS cap by rank, runs Soft-NMS with boundary
    voting within each pool of one video and action id, then merges each
    video's pools in rank order and truncates them to ``max_per_video``.
    The kept rows come grouped by video code, ascending. A pool is a run of
    equal ``(action, video)`` of ranked rows, and a cap keeps the rows of
    ``run_index`` below it in a run of one video: ``runs`` finds both.

    Two rows interact only when their intervals overlap, so each pool is
    split into overlap components. Rows below ``min_score`` are dropped
    first, except the pool's best row and the rows that overlap it:
    round 1 keeps the best, lets the rows it overlaps vote, and drops
    every other row below ``min_score`` before it acts. Components of one
    or two rows run their rounds in arrays: a row alone keeps its score
    and its vote with itself, and a pair's first round keeps its row
    first in rank order. ``soft_nms`` receives each pool's components of
    three or more rows, in one call per pool; a pool whose components all
    have one or two rows makes no call. A pool of more than
    ``max_per_video`` such rows stays one component, because the cap
    inside the rounds depends on the pick order across components.
    Boundaries must be finite, as every reader ensures. A row's tie is its
    index in the order by pool (so action, within a video), original
    start and position; the rounds and the merge both break rank ties by
    it, which is the order in which the rounds over a whole pool keep
    tied rows.
    """
    if not len(dets):
        return dets
    order = rank_order(dets.score, dets.start, dets.action, dets.video)
    order = order[run_index(dets.video[order]) < cfg.pre_nms_cap]
    order = order[lex_order(dets.action[order])]  # pools: (action, video) runs, ranked
    start, end, score, action, video = (dets[name][order] for name in
                                        ("start", "end", "score", "action", "video"))
    heads, length = runs(action, video)  # a pool's first row is its best
    pool = np.repeat(np.arange(len(heads)), length)
    best = np.repeat(heads, length)
    live = (score >= cfg.min_score) | (np.minimum(end, end[best]) > np.maximum(start, start[best]))
    live[heads] = True
    live = np.flatnonzero(live)
    # live rows by pool, then start, then position
    by_start = live[lex_order(start[live], pool[live])]
    component = _overlap_components(start[by_start], end[by_start], pool[by_start],
                                    cfg.max_per_video)
    size = np.bincount(component)[component]
    small = size <= min(2, cfg.max_per_video)
    # a row's tie is its index in by_start; rows of larger components go
    # by component and then position, which is rank order in the pool
    tie = np.flatnonzero(~small)
    tie = tie[lex_order(by_start[tie], component[tie])]
    at = by_start[tie]
    # made as each pool runs and freed with it, which spares the collector
    rows = map(list, zip((-score[at]).tolist(), start[at].tolist(), tie.tolist(),
                         end[at].tolist(), score[at].tolist(), component[tie].tolist()))
    merged = []
    for count in runs(pool[at])[1].tolist():
        merged.extend(soft_nms(list(islice(rows, count)), cfg, vote=True))
    # one float array of the kept rows: ties are exact below 2**53
    neg_score, kept_start, kept_tie, kept_end = np.fromiter(
        chain.from_iterable(merged), float, count=4 * len(merged)).reshape(-1, 4).T
    # a pair's round 1 keeps its lead, the row first in rank order, and
    # decays the other by their tIoU, which votes if within vote_threshold
    # (temporal_iou is the tIoU of the rounds wherever rows overlap)
    pair = np.flatnonzero(small & (size == 2))[::2]
    swap = by_start[pair] > by_start[pair + 1]
    lead, other = pair + swap, pair + 1 - swap
    a, b = by_start[lead], by_start[other]
    iou = temporal_iou((start[a], end[a]), (start[b], end[b]))
    neg = -score[by_start]  # each row's score when kept, negated
    neg[other] *= np.fromiter(map(math.exp, (-(iou * iou) / cfg.sigma).tolist()), float,
                              len(iou))
    # leads, singletons and the other rows that stay: each is kept with its
    # vote with itself and, for a lead, with its other row if that votes
    alone = np.concatenate((lead, np.flatnonzero(size == 1),
                            other[-neg[other] >= cfg.min_score]))
    at = by_start[alone]
    weight = score[at]
    bounds = np.array((start[at], end[at]))
    sums = weight * bounds
    voter = np.flatnonzero(iou >= cfg.vote_threshold)
    votes = b[voter]
    weight[voter] += score[votes]
    with np.errstate(over="ignore"):
        sums[:, voter] += score[votes] * np.array((start[votes], end[votes]))
    np.divide(sums, weight, out=bounds, where=weight > 0.0)
    for field, i in zip(*np.nonzero(np.isinf(sums))):  # a lead's sum past the float maximum
        voters = [(0, start[j], 0, end[j], score[j]) for j in (at[i], b[i])]
        bounds[field, i] = _scaled_vote(voters, 2 * field + 1, weight[i])
    kept_tie = np.concatenate((kept_tie.astype(np.int64), alone))
    neg_score = np.concatenate((neg_score, neg[alone]))
    kept_start = np.concatenate((kept_start, bounds[0]))
    kept_end = np.concatenate((kept_end, bounds[1]))
    # by video; equal ranks by pool (so action), original start and position
    kept_video = video[by_start[kept_tie]]
    ranked = lex_order(kept_tie, kept_start, neg_score, kept_video)
    ranked = ranked[run_index(kept_video[ranked]) < cfg.max_per_video]
    kept = dets.take(order[by_start[kept_tie[ranked]]])
    kept.start, kept.end, kept.score = kept_start[ranked], kept_end[ranked], -neg_score[ranked]
    return kept
