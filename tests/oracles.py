"""Independent brute-force references used by unit and acceptance tests.

The references are deliberately written with plain loops over detection
and ground-truth objects and no imports from the package's evaluation or
suppression internals, so agreement between module output and these
references is a meaningful check. The objects and the adapters between
them and the package's tables and Soft-NMS rows come first; they are the
only object and per-video forms of detections and ground truth, and
``ProposalRecord`` the only dense form of proposals.
"""

import json
import math
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from tadfusion.composition import ENTRY, VocabSpec
from tadfusion.errors import DegenerateInterval, InvalidConfig, ParseError
from tadfusion.evaluation import EvalConfig, score_columns
from tadfusion.fusion import dwf_weights
from tadfusion.io import SUBMISSION_CHALLENGE, Proposals, SubmissionDocument, VideoTable
from tadfusion.simulation import (
    _MAX_NOISE_RESAMPLES,
    FusionReport,
    Scenario,
    scenario_to_records,
)
from tadfusion.suppression import DETECTION, GROUND_TRUTH, rank_order, soft_nms


class ActionDetection(NamedTuple):
    """A detection: its video and the fields of a ``DETECTION`` row."""

    video_id: str
    start: float
    end: float
    verb_index: int
    noun_index: int
    action_id: int
    score: float

    @property
    def interval(self) -> tuple:
        return (self.start, self.end)


class GroundTruthInstance(NamedTuple):
    """An annotated segment: its video and the fields of a ``GROUND_TRUTH``
    row up to its noun. The adapters add the action id, as
    ``read_ground_truth`` does under the default vocabulary."""

    video_id: str
    start: float
    end: float
    verb_index: int
    noun_index: int

    @property
    def interval(self) -> tuple:
        return (self.start, self.end)


class ProposalRecord(NamedTuple):
    """One aligned proposal pair with dense score vectors, a class without
    an entry scoring 0."""

    video_id: str
    window_start: int
    noun_boundary: tuple
    noun_scores: np.ndarray
    verb_boundary: tuple
    verb_scores: np.ndarray


def score_entries(scores, every_class: bool = True) -> np.ndarray:
    """Dense score vectors (one, or a matrix of one row per proposal) as
    ``ENTRY`` rows: of every class, or of the nonzero ones only, as the
    proposal file holds them."""
    scores = np.atleast_2d(np.asarray(scores, dtype=float))
    row, cls = np.indices(scores.shape).reshape(2, -1) if every_class else np.nonzero(scores)
    entries = np.empty(len(row), ENTRY)
    entries["row"], entries["class"], entries["score"] = row, cls, scores[row, cls]
    return entries


def proposal_columns(records: list) -> Proposals:
    """Proposal records as the columns the file reader gives for them."""
    boundaries = np.array([(*r.noun_boundary, *r.verb_boundary) for r in records],
                          dtype=float).reshape(-1, 4).T
    nouns, verbs = (score_entries([getattr(r, stream) for r in records], every_class=False)
                    for stream in ("noun_scores", "verb_scores"))
    return Proposals([r.video_id for r in records], [r.window_start for r in records],
                     (boundaries[0], boundaries[1]), (boundaries[2], boundaries[3]), nouns, verbs)


def proposal_records(proposals: Proposals, vocab) -> list:
    """Proposal columns as dense records, one per row."""
    def dense(entries, size):
        scores = np.zeros((len(proposals), size))
        scores[entries["row"], entries["class"]] = entries["score"]
        return scores

    noun_start, noun_end = (coord.tolist() for coord in proposals.noun_boundary)
    verb_start, verb_end = (coord.tolist() for coord in proposals.verb_boundary)
    return [ProposalRecord(*fields) for fields in zip(
        proposals.video_ids, proposals.window_starts, zip(noun_start, noun_end),
        dense(proposals.noun_entries, vocab.noun_count), zip(verb_start, verb_end),
        dense(proposals.verb_entries, vocab.verb_count))]


def record_array(rows: list, dtype) -> np.recarray:
    """Rows as a record array of ``dtype``. Ground-truth rows end at the
    noun and gain the action id ``read_ground_truth`` gives them under the
    default vocabulary."""
    if dtype == GROUND_TRUTH:
        rows = [(*row, VocabSpec().action_id(row[4], row[3])) for row in rows]
    return np.rec.fromrecords(rows, dtype=dtype)


def video_table(items: list, dtype=DETECTION, video_ids=None) -> VideoTable:
    """Detection or ground-truth objects as a table of ``dtype`` rows in
    their order, each coded among ``video_ids`` (by default the sorted ids
    of their videos). Sort the objects by video id for the grouped table
    the readers give."""
    if video_ids is None:
        video_ids = sorted({item.video_id for item in items})
    code = {video_id: i for i, video_id in enumerate(video_ids)}
    rows = [(code[item.video_id], *item[1:]) for item in items]
    return VideoTable(video_ids, record_array(rows, dtype))


def detection_objects(table: VideoTable) -> list:
    """A table's ``DETECTION`` rows as objects, in its order."""
    return [ActionDetection(table.video_ids[video], *fields)
            for video, *fields in table.rows.tolist()]


def by_video(table: VideoTable) -> dict:
    """A table in its per-video form: each video id, in sorted order, to
    its rows in the table's order, without the video column."""
    fields = list(table.rows.dtype.names[1:])
    return {video_id: table.rows[table.rows.video == code][fields]
            for code, video_id in enumerate(table.video_ids)}


def from_video(rows_by_video: dict, dtype=DETECTION) -> VideoTable:
    """The per-video form, each video's rows as tuples of the fields after
    the video column (up to the noun for ground truth), as one table."""
    video_ids = sorted(rows_by_video)
    rows = [(code, *row) for code, video_id in enumerate(video_ids)
            for row in rows_by_video[video_id]]
    return VideoTable(video_ids, record_array(rows, dtype))


def tables(dets: list, gts: list) -> tuple:
    """Detection and ground-truth objects as a submission and a ground-truth
    table as the readers give them: each on the sorted ids of its own
    videos, grouped by video and in the objects' order within."""
    submission = video_table(sorted(dets, key=attrgetter("video_id")))
    return (SubmissionDocument(submission.video_ids, submission.rows),
            video_table(sorted(gts, key=attrgetter("video_id")), GROUND_TRUTH))


def score_objects(dets: list, gts: list, cfg: EvalConfig = EvalConfig()):
    """``score_columns`` of detection and ground-truth objects: both grouped
    by video on one list of ids, the detections ranked as
    ``evaluate_files`` ranks them."""
    video_ids = sorted({item.video_id for item in (*dets, *gts)})
    det_rows, gt_rows = (
        video_table(sorted(items, key=attrgetter("video_id")), dtype, video_ids).rows
        for items, dtype in ((dets, DETECTION), (gts, GROUND_TRUTH)))
    ranked = det_rows.take(rank_order(det_rows.score, det_rows.start, det_rows.action))
    return score_columns(ranked, gt_rows, cfg)


def soft_nms_objects(dets: list, cfg, vote: bool = False) -> list:
    """``soft_nms`` of detection objects run as one pool, the kept ones
    back as objects in rank order. A row's tie is its action id and then
    its position."""
    rows = [[-d.score, d.start, (d.action_id, i), d.end, d.score, 0] for i, d in enumerate(dets)]
    kept = (dets[i]._replace(start=start, end=end, score=-neg_score)
            for neg_score, start, (_, i), end in soft_nms(rows, cfg, vote=vote))
    return sorted(kept, key=lambda d: _rank(d, d.score))


def sort_detections(dets: list[ActionDetection]) -> list[ActionDetection]:
    """Score-descending order with deterministic tie-breaks."""
    return sorted(dets, key=lambda d: (*_rank(d, d.score), d.video_id))


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


# The evaluator as it was before overlaps were built once per class: one
# full match and one NumPy AP per (class, threshold). Kept verbatim (with
# the oracle's tIoU and class helpers, which compute the same values) so
# the current evaluator can be pinned to it bit for bit.
def _legacy_match_detections(dets, gts, tau, task="action"):
    matched = [False] * len(gts)
    flags = []
    for det in dets:
        det_class = _class_of(det, task)
        best_idx = -1
        best_iou = 0.0
        for gi, gt in enumerate(gts):
            if matched[gi] or gt.video_id != det.video_id:
                continue
            if _class_of(gt, task) != det_class:
                continue
            iou = oracle_interval_iou(det.interval, gt.interval)
            if iou > best_iou:
                best_iou = iou
                best_idx = gi
        if best_idx >= 0 and best_iou >= tau:
            matched[best_idx] = True
            flags.append(True)
        else:
            flags.append(False)
    return flags


def _legacy_average_precision(flags, num_gt):
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


def legacy_average_precision(hits, num_gt):
    """AP of one ranked list as the scalar evaluator summed it: ``hits`` are
    the 1-based ranks of its true positives. The step terms and the closing
    ``(1 - recall) * 0`` add left to right below 8 terms, by ``np.sum``
    from 8 on."""
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


def oracle_mean_ap_legacy(dets, gts, thresholds, task):
    """``(per_threshold, average)`` as the per-threshold evaluator gave them."""
    gt_by_class = {}
    for gt in gts:
        gt_by_class.setdefault(_class_of(gt, task), []).append(gt)

    det_by_class = {}
    for det in dets:
        det_by_class.setdefault(_class_of(det, task), []).append(det)

    ranked = {cls: sort_detections(det_by_class.get(cls, [])) for cls in gt_by_class}
    per_threshold = {}
    for tau in thresholds:
        aps = []
        for cls in sorted(gt_by_class):
            class_gts = gt_by_class[cls]
            flags = _legacy_match_detections(ranked[cls], class_gts, tau, task)
            aps.append(_legacy_average_precision(flags, len(class_gts)))
        per_threshold[tau] = float(np.mean(aps)) if aps else 0.0

    average = float(np.mean(list(per_threshold.values())))
    return per_threshold, average


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
    return kept._replace(start=start_sum / weight, end=end_sum / weight)


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
        kept.append(refined._replace(score=-best[0]))
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


def _boundary_error(boundary, truth):
    return abs(boundary[0] - truth[0]) + abs(boundary[1] - truth[1])


def oracle_compare_fusion(scenario, epsilon):
    """Segment-at-a-time fusion comparison through the scalar fusion calls,
    with each stream's confidence read back as the maximum of its exported
    score vector."""
    n = len(scenario.truth)
    err_dwf = np.empty(n)
    err_mean = np.empty(n)
    confidences = np.empty(2 * n)
    stream_errors = np.empty(2 * n)
    records = proposal_records(scenario_to_records(scenario), scenario.config.vocab)
    noun_boundaries = scenario.noun_boundary.tolist()
    verb_boundaries = scenario.verb_boundary.tolist()
    for i, (_, start, end, *_) in enumerate(scenario.truth.tolist()):
        noun, verb = tuple(noun_boundaries[i]), tuple(verb_boundaries[i])
        c_noun, c_verb = np.max(records[i].noun_scores), np.max(records[i].verb_scores)
        w_noun, w_verb = dwf_weights(c_noun, c_verb, epsilon)
        fused = tuple(w_noun * noun[k] + w_verb * verb[k] for k in (0, 1))
        if fused[0] >= fused[1]:
            raise DegenerateInterval(f"fused boundary at index {i} ({fused[0].item()!r}, "
                                     f"{fused[1].item()!r}) is empty or inverted")
        err_dwf[i] = _boundary_error(fused, (start, end))
        mean = tuple(0.5 * noun[k] + 0.5 * verb[k] for k in (0, 1))
        err_mean[i] = _boundary_error(mean, (start, end))
        confidences[2 * i] = c_noun
        confidences[2 * i + 1] = c_verb
        stream_errors[2 * i] = _boundary_error(noun, (start, end))
        stream_errors[2 * i + 1] = _boundary_error(verb, (start, end))

    if np.std(confidences) > 0.0 and np.std(stream_errors) > 0.0:
        correlation = float(np.corrcoef(confidences, stream_errors)[0, 1])
    else:
        correlation = float("nan")
    diff = err_dwf - err_mean
    if n < 2 or np.allclose(diff, 0.0):
        p_value = 1.0
    else:
        from scipy.special import stdtr

        m = diff.mean()
        var = np.mean((diff - m) ** 2) * (n / (n - 1.0))
        p_value = float(stdtr(float(n - 1), m / np.sqrt(var / n)))
    return FusionReport(
        num_segments=n,
        mean_abs_err_dwf=float(err_dwf.mean()),
        mean_abs_err_mean=float(err_mean.mean()),
        per_segment_dwf=err_dwf,
        per_segment_mean=err_mean,
        confidence_error_correlation=correlation,
        p_value=p_value,
    )


# ``generate_scenario`` and ``_noisy_boundary`` as they drew each segment
# through its own child SeedSequence, ``default_rng`` and
# ``Generator.uniform``, verbatim, so the array-derived seeds and the
# ``lo + (hi - lo) * random()`` draws are pinned to them byte for byte.
def _oracle_noisy_boundary(rng, true_boundary, confidence, cfg):
    # resample, rather than truncate, to avoid biasing noise near edges
    std = cfg.noise_std(confidence)
    for _ in range(_MAX_NOISE_RESAMPLES):
        start = true_boundary[0] + rng.normal(0.0, std)
        end = true_boundary[1] + rng.normal(0.0, std)
        if 0.0 <= start < end <= cfg.video_length_s:
            return (start, end)
    raise InvalidConfig(
        "could not draw a valid noisy boundary; noise scale is too large "
        "for the video length"
    )


def oracle_generate_scenario(cfg):
    n = cfg.num_segments
    truth = np.empty(n, GROUND_TRUTH)
    noun_confidence, verb_confidence = np.empty(n), np.empty(n)
    noun_boundary, verb_boundary = np.empty((n, 2)), np.empty((n, 2))
    for i, seq in enumerate(np.random.SeedSequence(cfg.seed).spawn(n)):
        rng = np.random.default_rng(seq)
        length = rng.uniform(cfg.min_segment_s, cfg.max_segment_s)
        start = rng.uniform(0.0, cfg.video_length_s - length)
        true_boundary = (start, start + length)
        verb = int(rng.integers(cfg.vocab.verb_count))
        noun = int(rng.integers(cfg.vocab.noun_count))
        c_noun = noun_confidence[i] = rng.uniform(cfg.confidence_lo, cfg.confidence_hi)
        c_verb = verb_confidence[i] = rng.uniform(cfg.confidence_lo, cfg.confidence_hi)
        noun_boundary[i] = _oracle_noisy_boundary(rng, true_boundary, c_noun, cfg)
        verb_boundary[i] = _oracle_noisy_boundary(rng, true_boundary, c_verb, cfg)
        truth[i] = (0, *true_boundary, verb, noun, cfg.vocab.action_id(noun, verb))
    return Scenario(
        config=cfg,
        truth=truth.view(np.recarray),
        noun_confidence=noun_confidence,
        verb_confidence=verb_confidence,
        noun_boundary=noun_boundary,
        verb_boundary=verb_boundary,
    )


# The post-processing chain as it ran one proposal record and one
# detection object at a time: ``_record_detections``,
# ``suppress_submission``, ``build_submission`` (returning the version and
# the object lists) and the object-at-a-time ``serialize_submission``
# verbatim, with the top-K composition, per-record fusion, scalar seconds
# conversion and object-at-a-time suppression they called (Soft-NMS by
# ``oracle_soft_nms``), so the columnar chain can be pinned to it byte
# for byte.
class _Candidate(NamedTuple):
    noun_index: int
    verb_index: int
    action_id: int
    score: float


def _legacy_top_k(scores, k):
    if k < 1:
        raise InvalidConfig("k must be >= 1")
    vec = np.asarray(scores, dtype=float)
    order = sorted(range(vec.size), key=lambda i: (-vec[i], i))
    return [(i, float(vec[i])) for i in order[:k]]


def _legacy_compose_actions(noun_scores, verb_scores, k_n, k_v, vocab):
    # rank on the product: two products one ulp apart can share a sqrt
    ranked = []
    verb_top = _legacy_top_k(verb_scores, k_v)
    for p, noun_score in _legacy_top_k(noun_scores, k_n):
        for q, verb_score in verb_top:
            product = noun_score * verb_score
            candidate = _Candidate(
                noun_index=p,
                verb_index=q,
                action_id=vocab.noun_count * q + p,
                score=math.sqrt(product),
            )
            ranked.append((-product, candidate.action_id, candidate))
    ranked.sort(key=lambda entry: entry[:2])
    return [candidate for *_, candidate in ranked]


def _legacy_fuse_candidate_boundary(record, cfg):
    if cfg.fusion_mode == "mean":
        w_noun = w_verb = 0.5
    else:
        c_noun, c_verb = float(np.max(record.noun_scores)), float(np.max(record.verb_scores))
        w_noun, w_verb = dwf_weights(c_noun, c_verb, cfg.epsilon)
    return tuple(w_noun * record.noun_boundary[k] + w_verb * record.verb_boundary[k]
                 for k in (0, 1))


def _legacy_boundary_to_seconds(boundary, grid, window_start_frame):
    start, end = boundary
    if start >= end:
        raise DegenerateInterval(f"boundary start {start} >= end {end}")
    start = max(start, 0.0)
    end = max(end, 0.0)
    if start >= end:
        raise DegenerateInterval("boundary collapsed to a point after clamping at 0")

    def convert(u: float) -> float:
        return (u * grid.stride_frames + window_start_frame + grid.offset_frames) / grid.fps

    return (convert(start), convert(end))


def _legacy_record_detections(record, cfg, vocab, min_score):
    candidates = _legacy_compose_actions(
        record.noun_scores, record.verb_scores, cfg.top_k_nouns, cfg.top_k_verbs, vocab
    )
    grid, window_start_frame = cfg.grid(), record.window_start * cfg.stride_frames
    candidates = [cand for cand in candidates if cand.score >= min_score]
    if not candidates:
        return []
    try:
        start_s, end_s = _legacy_boundary_to_seconds(
            _legacy_fuse_candidate_boundary(record, cfg), grid, window_start_frame)
    except DegenerateInterval:
        return []  # empty after fusion or clamping; nothing to keep
    except OverflowError:  # a window start too large for a float
        start_s = end_s = math.inf
    if not (math.isfinite(start_s) and math.isfinite(end_s)):
        raise ParseError(
            f"boundary of video {record.video_id!r} at window start {record.window_start} "
            "is too large to convert to finite seconds"
        )
    return [
        ActionDetection(
            video_id=record.video_id,
            start=start_s,
            end=end_s,
            verb_index=cand.verb_index,
            noun_index=cand.noun_index,
            action_id=cand.action_id,
            score=cand.score,
        )
        for cand in candidates
    ]


def _legacy_class_key_of(det, class_key):
    if class_key == "verb":
        return det.verb_index
    if class_key == "noun":
        return det.noun_index
    if class_key == "action":
        return det.action_id
    raise InvalidConfig(f"class_key must be one of ('verb', 'noun', 'action'), got {class_key!r}")


def _legacy_by_rank(dets):
    return sorted(dets, key=lambda d: _rank(d, d.score))


def oracle_suppress_video(dets, cfg, class_key="action"):
    """A video's detection objects suppressed class pool by class pool."""
    groups: dict = {}
    for det in _legacy_by_rank(dets)[: cfg.pre_nms_cap]:
        groups.setdefault(_legacy_class_key_of(det, class_key), []).append(det)

    merged = []
    for key in sorted(groups):
        merged.extend(oracle_soft_nms(groups[key], cfg, vote=True))
    return _legacy_by_rank(merged)[: cfg.max_per_video]


def _legacy_suppress_submission(by_video, nms_cfg, version):
    suppressed = {
        video_id: oracle_suppress_video(dets, nms_cfg, class_key="action")
        for video_id, dets in sorted(by_video.items())
    }
    return _legacy_build_submission(suppressed, version=version)


def _legacy_build_submission(detections_by_video, version):
    results = {}
    for video_id in sorted(detections_by_video):
        dets = []
        for d in detections_by_video[video_id]:
            start = round(d.start, 4)
            end = round(d.end, 4)
            if start >= end:
                continue  # quantization collapsed a sub-0.1ms interval
            dets.append(
                ActionDetection(
                    video_id=d.video_id,
                    start=start,
                    end=end,
                    verb_index=d.verb_index,
                    noun_index=d.noun_index,
                    action_id=d.action_id,
                    score=round(d.score, 4),
                )
            )
        results[video_id] = _legacy_by_rank(dets)
    return version, results


def _legacy_serialize_submission(version, results):
    lines = ["{"]
    lines.append(f'  "version": {json.dumps(version)},')
    lines.append(f'  "challenge": {json.dumps("action_detection")},')
    lines.append('  "results": {')
    video_ids = sorted(results)
    for vi, video_id in enumerate(video_ids):
        entries = []
        for d in results[video_id]:
            entries.append(
                "      {"
                + f'"verb": {d.verb_index}, "noun": {d.noun_index}, '
                + f'"action": "{d.verb_index},{d.noun_index}", '
                + f'"segment": [{d.start:.4f}, {d.end:.4f}], "score": {d.score:.4f}'
                + "}"
            )
        body = ",\n".join(entries)
        suffix = "," if vi < len(video_ids) - 1 else ""
        if entries:
            lines.append(f"    {json.dumps(video_id)}: [")
            lines.append(body)
            lines.append(f"    ]{suffix}")
        else:
            lines.append(f"    {json.dumps(video_id)}: []{suffix}")
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def oracle_serialize_submission(doc: SubmissionDocument) -> str:
    """The submission text with every value of every row formatted in
    place: the reference for ``io.serialize_submission``, which formats
    each distinct piece once."""
    dets = doc.rows
    entries = [
        f'      {{"verb": {verb}, "noun": {noun}, "action": "{verb},{noun}", '
        f'"segment": [{start:.4f}, {end:.4f}], "score": {score:.4f}}}'
        for verb, noun, start, end, score in zip(
            dets.verb.tolist(), dets.noun.tolist(), dets.start.tolist(),
            dets.end.tolist(), dets.score.tolist())
    ]
    lines = ["{", f'  "version": {json.dumps(doc.version)},',
             f'  "challenge": {json.dumps(SUBMISSION_CHALLENGE)},', '  "results": {']
    # each video's run of rows: entries[bounds[code]:bounds[code + 1]]
    bounds = np.searchsorted(dets.video, np.arange(len(doc.video_ids) + 1)).tolist()
    for code, (video_id, lo, hi) in enumerate(zip(doc.video_ids, bounds, bounds[1:])):
        suffix = "," if code < len(doc.video_ids) - 1 else ""
        if lo < hi:  # the rows as one line: joined once, not copied again
            lines += [f"    {json.dumps(video_id)}: [", ",\n".join(entries[lo:hi]),
                      f"    ]{suffix}"]
        else:
            lines.append(f"    {json.dumps(video_id)}: []{suffix}")
    lines += ["  }", "}", ""]  # "" for the final newline, without a copy of the text
    return "\n".join(lines)


def oracle_fuse(records, cfg):
    """The text ``fuse`` writes for ``records``, fused one at a time from
    their dense score vectors. A stream's confidence is its vector's
    maximum, and +0.0 where that is a zero of either sign."""
    lines = ["# video_id fused_start fused_end"]
    for r in records:
        if cfg.fusion_mode == "mean":
            w_noun = w_verb = 0.5
        else:
            w_noun, w_verb = dwf_weights(float(np.max(r.noun_scores)) or 0.0,
                                         float(np.max(r.verb_scores)) or 0.0, cfg.epsilon)
        start, end = (w_noun * r.noun_boundary[i] + w_verb * r.verb_boundary[i]
                      for i in (0, 1))
        if start >= end:
            raise ParseError(f"fused boundary ({start}, {end}) of video {r.video_id!r} "
                             f"at window start {r.window_start} is empty or inverted")
        lines.append(f"{r.video_id} {start:.4f} {end:.4f}")
    return "\n".join(lines) + "\n"


def oracle_run_pipeline(records, cfg):
    """The submission text the record-at-a-time chain wrote for ``records``."""
    vocab = cfg.vocab()
    nms_cfg = cfg.nms_config()
    by_video = {}
    for record in records:
        by_video.setdefault(record.video_id, []).extend(
            _legacy_record_detections(record, cfg, vocab, nms_cfg.min_score)
        )
    return _legacy_serialize_submission(
        *_legacy_suppress_submission(by_video, nms_cfg, cfg.submission_version))
