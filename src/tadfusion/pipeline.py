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

import numpy as np

from .composition import VocabSpec, compose_actions
from .config import PipelineConfig
from .errors import ParseError
from .evaluation import (
    CLASS_KEYS,
    DEFAULT_TIOU_THRESHOLDS,
    EvalConfig,
    MeanApResult,
    score_columns,
    eval_columns,
)
from .fusion import fuse_proposals
from .io import ProposalRecord, SubmissionDocument, build_submission
from .suppression import DETECTION, NmsConfig, suppress_video
from .timeline import intervals_to_seconds

logger = logging.getLogger(__name__)


def stack_records(records: list[ProposalRecord]):
    """Noun and verb boundaries (``(starts, ends)`` arrays) and score matrices of records."""
    noun_boundary = np.array([r.noun_boundary for r in records], dtype=float).T
    verb_boundary = np.array([r.verb_boundary for r in records], dtype=float).T
    noun_scores = np.stack([r.noun_scores for r in records])
    verb_scores = np.stack([r.verb_scores for r in records])
    return noun_boundary, verb_boundary, noun_scores, verb_scores


def _video_detections(
    records: list[ProposalRecord], cfg: PipelineConfig, vocab: VocabSpec, min_score: float
) -> tuple[np.recarray, np.ndarray]:
    """One video's candidates, each with its record's fused interval in
    seconds (records whose interval is empty are dropped), and a mask of
    the records whose interval is not finite but has a surviving candidate."""
    noun_boundary, verb_boundary, noun_scores, verb_scores = stack_records(records)
    composed = compose_actions(
        noun_scores, verb_scores, cfg.top_k_nouns, cfg.top_k_verbs, vocab
    ).reshape(len(records), -1)
    start, end = fuse_proposals(noun_boundary, verb_boundary, noun_scores, verb_scores,
                                cfg.fusion_mode, cfg.epsilon)
    frames = [r.window_start * cfg.stride_frames for r in records]
    start_s, end_s, kept = intervals_to_seconds(start, end, frames, cfg.grid())
    passing = composed.score >= min_score
    unconvertible = passing.any(axis=1) & kept & ~(np.isfinite(start_s) & np.isfinite(end_s))
    passing &= kept[:, None]
    record, cand = np.nonzero(passing)[0], composed[passing]
    return np.rec.fromarrays([start_s[record], end_s[record], cand.verb, cand.noun,
                              cand.action, cand.score], dtype=DETECTION), unconvertible


def suppress_submission(
    by_video: dict[str, np.recarray], nms_cfg: NmsConfig, version: str
) -> SubmissionDocument:
    """Suppress each video's detections, in video order, into a submission."""
    suppressed = {video_id: suppress_video(dets, nms_cfg)
                  for video_id, dets in sorted(by_video.items())}
    return build_submission(suppressed, version=version)


def run_pipeline(records: list[ProposalRecord], cfg: PipelineConfig) -> SubmissionDocument:
    """Run the full post-processing chain over parsed proposal records.

    Each video's records are composed, fused and converted together.
    Empty input is not an error: it produces a valid empty submission
    (with a warning), so a video with no surviving proposals still
    yields well-formed output.
    """
    if not records:
        logger.warning("no proposal records; emitting an empty submission")
    vocab = cfg.vocab()
    nms_cfg = cfg.nms_config()
    positions: dict[str, list[int]] = {}
    for i, record in enumerate(records):
        positions.setdefault(record.video_id, []).append(i)
    by_video: dict[str, np.recarray] = {}
    unconvertible = []
    for video_id, rows in positions.items():
        by_video[video_id], bad = _video_detections(
            [records[i] for i in rows], cfg, vocab, nms_cfg.min_score
        )
        unconvertible.extend(np.asarray(rows)[bad].tolist())
    if unconvertible:  # name the first such record in the file
        record = records[min(unconvertible)]
        raise ParseError(
            f"boundary of video {record.video_id!r} at window start {record.window_start} "
            "is too large to convert to finite seconds"
        )
    return suppress_submission(by_video, nms_cfg, cfg.submission_version)


def evaluate_files(
    submission: SubmissionDocument,
    truth_by_video: dict[str, np.recarray],
    thresholds: tuple[float, ...] = DEFAULT_TIOU_THRESHOLDS,
) -> dict[str, MeanApResult]:
    """Score a parsed submission against ground truth (``GROUND_TRUTH``
    record arrays by video id) on all three tasks, from columns built once."""
    dets, truth = eval_columns(submission.results, truth_by_video)
    return {
        task: score_columns(dets, truth, EvalConfig(thresholds=thresholds, task=task))
        for task in CLASS_KEYS
    }


def format_metrics_table(results: dict[str, MeanApResult]) -> str:
    """Human-readable grid: one row per task, one column per threshold.
    A threshold is labelled by its shortest round-trip decimal, so distinct
    thresholds get distinct labels; a column widens to fit its label."""
    thresholds = list(next(iter(results.values())).per_threshold)
    labels = [f"mAP@{t}" for t in thresholds]
    widths = [max(7, len(label)) for label in labels]
    header = "task    " + "".join(f"  {s:>{w}}" for s, w in zip(labels, widths)) + "     avg"
    lines = [header, "-" * len(header)]
    for task in CLASS_KEYS:
        row = results[task]
        cells = "".join(f"  {row.per_threshold[t]:{w}.4f}" for t, w in zip(thresholds, widths))
        lines.append(f"{task:<8}{cells} {row.average:7.4f}")
    return "\n".join(lines)


def format_metrics_keyvalues(results: dict[str, MeanApResult]) -> str:
    """Machine-readable ``key = value`` lines mirroring the table, each
    threshold in its shortest round-trip decimal."""
    lines = []
    for task in CLASS_KEYS:
        row = results[task]
        for t, value in row.per_threshold.items():
            lines.append(f"{task}_map_{t} = {value:.4f}")
        lines.append(f"{task}_map_avg = {row.average:.4f}")
    return "\n".join(lines)
