"""Independent brute-force references used by unit and acceptance tests.

Everything here is deliberately written with plain loops and no imports
from the package's evaluation or suppression internals, so agreement
between module output and these references is a meaningful check.
"""

import math
from dataclasses import replace

from tadfusion.evaluation import sort_detections


def oracle_interval_iou(a, b):
    inter = min(a[1], b[1]) - max(a[0], b[0])
    if inter <= 0:
        return 0.0
    return inter / (max(a[1], b[1]) - min(a[0], b[0]))


def _class_of(x, task):
    if task == "verb":
        return x.verb_index
    if task == "noun":
        return x.noun_index
    return (x.verb_index, x.noun_index)


def oracle_match(dets, gts, tau, task):
    """Greedy one-to-one matching, highest tIoU first, earliest gt on ties."""
    used = set()
    flags = []
    for d in dets:
        best = None
        for gi, g in enumerate(gts):
            if gi in used or g.video_id != d.video_id:
                continue
            if _class_of(g, task) != _class_of(d, task):
                continue
            iou = oracle_interval_iou((d.start, d.end), (g.start, g.end))
            if best is None or iou > best[0]:
                best = (iou, gi)
        if best is not None and best[0] >= tau:
            used.add(best[1])
            flags.append(True)
        else:
            flags.append(False)
    return flags


def oracle_ap(flags, num_gt):
    """Envelope-interpolated AP from explicit prefix precision/recall."""
    if num_gt == 0 or not flags:
        return 0.0
    precisions, recalls = [], []
    tp = 0
    for i, flag in enumerate(flags, start=1):
        if flag:
            tp += 1
        precisions.append(tp / i)
        recalls.append(tp / num_gt)
    ap = 0.0
    prev_recall = 0.0
    for i, r in enumerate(recalls):
        if r > prev_recall:
            best_prec = max(precisions[j] for j in range(i, len(precisions)))
            ap += (r - prev_recall) * best_prec
            prev_recall = r
    return ap


def oracle_mean_ap(dets, gts, tau, task):
    classes = sorted({_class_of(g, task) for g in gts})
    aps = []
    for c in classes:
        class_gts = [g for g in gts if _class_of(g, task) == c]
        class_dets = sort_detections([d for d in dets if _class_of(d, task) == c])
        flags = oracle_match(class_dets, class_gts, tau, task)
        aps.append(oracle_ap(flags, len(class_gts)))
    return sum(aps) / len(aps) if aps else 0.0


def oracle_hard_nms(dets, iou_threshold):
    """Classic hard NMS: keep the best, delete everything overlapping it."""
    remaining = sorted(dets, key=lambda d: (-d.score, d.start, d.action_id))
    kept = []
    while remaining:
        best = remaining.pop(0)
        kept.append(best)
        remaining = [
            d
            for d in remaining
            if oracle_interval_iou((best.start, best.end), (d.start, d.end))
            <= iou_threshold
        ]
    return kept


def _rank(det, score):
    return (-score, det.start, det.action_id)


def _oracle_boundary_vote(kept, neighbors, vote_threshold):
    """Score-weighted mean of the kept interval and every neighbor's with
    tIoU >= vote_threshold, weighted by original scores."""
    weight = kept.score
    start_sum = kept.score * kept.start
    end_sum = kept.score * kept.end
    for n in neighbors:
        if oracle_interval_iou((kept.start, kept.end), (n.start, n.end)) >= vote_threshold:
            weight += n.score
            start_sum += n.score * n.start
            end_sum += n.score * n.end
    if weight <= 0.0:
        return kept
    return replace(kept, start=start_sum / weight, end=end_sum / weight)


def oracle_soft_nms(dets, cfg, vote=False):
    """Object-at-a-time Soft-NMS: keep the best, vote its interval over the
    round's pool, then decay the pool against the kept un-voted interval."""
    pool = [[*_rank(d, d.score), i, d] for i, d in enumerate(dets)]
    kept = []
    while pool and len(kept) < cfg.max_per_video:
        best = min(pool)
        pool.remove(best)
        det = best[-1]
        if vote:
            refined = _oracle_boundary_vote(det, [e[-1] for e in pool], cfg.vote_threshold)
        else:
            refined = det
        kept.append(replace(refined, score=-best[0]))
        survivors = []
        for entry in pool:
            other = entry[-1]
            iou = oracle_interval_iou((det.start, det.end), (other.start, other.end))
            if iou > 0.0:
                entry[0] *= math.exp(-(iou * iou) / cfg.sigma)
            if -entry[0] >= cfg.min_score:
                survivors.append(entry)
        pool = survivors
    return sorted(kept, key=lambda d: _rank(d, d.score))
