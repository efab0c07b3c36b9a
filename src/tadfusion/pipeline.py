"""End-to-end post-processing: compose, fuse, convert, suppress, emit.

Input is a set of aligned noun-verb proposal pairs in window-local
feature coordinates. For each pair the top noun and verb classes are
crossed into scored action candidates, weak candidates are dropped,
boundaries are fused (confidence-weighted or hard mean), converted to
seconds with the window's frame origin, pooled per video, and suppressed
class-wise before serialization.
"""

from __future__ import annotations

import logging
import math

from .composition import VocabSpec, compose_actions
from .config import PipelineConfig
from .errors import DegenerateInterval, ParseError
from .evaluation import (
    DEFAULT_TIOU_THRESHOLDS,
    EvalConfig,
    GroundTruthInstance,
    MeanApResult,
    mean_ap,
)
from .fusion import dwf_weights, fuse_boundaries, hard_mean_fusion, stream_confidences
from .io import (
    ProposalRecord,
    SubmissionDocument,
    build_submission,
    submission_detections,
)
from .suppression import CLASS_KEYS, ActionDetection, NmsConfig, suppress_video
from .timeline import boundary_to_seconds

logger = logging.getLogger(__name__)


def fuse_candidate_boundary(record: ProposalRecord, cfg: PipelineConfig) -> tuple[float, float]:
    """Fuse a record's aligned noun and verb boundaries under the configured mode.

    Fusion is proposal-wise: every candidate composed from the record
    shares this one interval.
    """
    if cfg.fusion_mode == "mean":
        return hard_mean_fusion(record.noun_boundary, record.verb_boundary)
    c_noun, c_verb = stream_confidences(record.noun_scores, record.verb_scores)
    weights = dwf_weights(c_noun, c_verb, cfg.epsilon)
    return fuse_boundaries(record.noun_boundary, record.verb_boundary, weights)


def _record_detections(
    record: ProposalRecord, cfg: PipelineConfig, vocab: VocabSpec, min_score: float
) -> list[ActionDetection]:
    candidates = compose_actions(
        record.noun_scores, record.verb_scores, cfg.top_k_nouns, cfg.top_k_verbs, vocab
    )
    grid = cfg.grid(window_start_frame=record.window_start * cfg.stride_frames)
    candidates = [cand for cand in candidates if cand.score >= min_score]
    if not candidates:
        return []
    try:
        start_s, end_s = boundary_to_seconds(fuse_candidate_boundary(record, cfg), grid)
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


def suppress_submission(
    by_video: dict[str, list[ActionDetection]], nms_cfg: NmsConfig, version: str
) -> SubmissionDocument:
    """Suppress each video's detections, in video order, into a submission."""
    suppressed = {
        video_id: suppress_video(dets, nms_cfg, class_key="action")
        for video_id, dets in sorted(by_video.items())
    }
    return build_submission(suppressed, version=version)


def run_pipeline(records: list[ProposalRecord], cfg: PipelineConfig) -> SubmissionDocument:
    """Run the full post-processing chain over parsed proposal records.

    Empty input is not an error: it produces a valid empty submission
    (with a warning), so a video with no surviving proposals still
    yields well-formed output.
    """
    if not records:
        logger.warning("no proposal records; emitting an empty submission")
    vocab = cfg.vocab()
    nms_cfg = cfg.nms_config()
    by_video: dict[str, list[ActionDetection]] = {}
    for record in records:
        by_video.setdefault(record.video_id, []).extend(
            _record_detections(record, cfg, vocab, nms_cfg.min_score)
        )
    return suppress_submission(by_video, nms_cfg, cfg.submission_version)


def evaluate_detections(
    dets: list[ActionDetection],
    gts: list[GroundTruthInstance],
    thresholds: tuple[float, ...] = DEFAULT_TIOU_THRESHOLDS,
) -> dict[str, MeanApResult]:
    """Score one detection set on all three tasks."""
    return {
        task: mean_ap(dets, gts, EvalConfig(thresholds=thresholds, task=task))
        for task in CLASS_KEYS
    }


def evaluate_files(
    submission: SubmissionDocument,
    gts: list[GroundTruthInstance],
    thresholds: tuple[float, ...] = DEFAULT_TIOU_THRESHOLDS,
) -> dict[str, MeanApResult]:
    """Score a parsed submission against parsed ground truth."""
    return evaluate_detections(submission_detections(submission), gts, thresholds)


def format_metrics_table(results: dict[str, MeanApResult]) -> str:
    """Human-readable grid: one row per task, one column per threshold."""
    thresholds = list(next(iter(results.values())).per_threshold)
    header = "task    " + "".join(f"  mAP@{t:.1f}" for t in thresholds) + "     avg"
    lines = [header, "-" * len(header)]
    for task in CLASS_KEYS:
        if task not in results:
            continue
        row = results[task]
        cells = "".join(f"  {row.per_threshold[t]:7.4f}" for t in thresholds)
        lines.append(f"{task:<8}{cells} {row.average:7.4f}")
    return "\n".join(lines)


def format_metrics_keyvalues(results: dict[str, MeanApResult]) -> str:
    """Machine-readable ``key = value`` lines mirroring the table."""
    lines = []
    for task in CLASS_KEYS:
        if task not in results:
            continue
        row = results[task]
        for t, value in row.per_threshold.items():
            lines.append(f"{task}_map_{t:.1f} = {value:.4f}")
        lines.append(f"{task}_map_avg = {row.average:.4f}")
    return "\n".join(lines)
