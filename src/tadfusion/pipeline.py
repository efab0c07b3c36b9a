"""End-to-end post-processing: compose, fuse, convert, suppress, emit.

Input is a set of aligned noun-verb proposal pairs in window-local
feature coordinates, as columns. For each pair the top noun and verb
classes are crossed into scored action candidates, weak candidates are
dropped, boundaries are fused (confidence-weighted or hard mean),
converted to seconds with the window's frame origin, pooled per video,
and suppressed class-wise before serialization.
"""

from __future__ import annotations

import logging

import numpy as np

from .composition import compose_actions
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
from .io import Proposals, SubmissionDocument, build_submission
from .suppression import DETECTION, NmsConfig, suppress_video
from .timeline import intervals_to_seconds

logger = logging.getLogger(__name__)


def suppress_submission(
    by_video: dict[str, np.recarray], nms_cfg: NmsConfig, version: str
) -> SubmissionDocument:
    """Suppress each video's detections into a submission."""
    suppressed = {video_id: suppress_video(dets, nms_cfg) for video_id, dets in by_video.items()}
    return build_submission(suppressed, version=version)


def _video_detections(proposals: Proposals, cfg: PipelineConfig,
                      min_score: float) -> dict[str, np.recarray]:
    """Each video's candidates of at least ``min_score``, in row order, as
    ``DETECTION`` rows. All rows are composed, fused and converted to
    seconds in one pass before they are pooled by video; a row whose
    interval is empty is dropped."""
    composed = compose_actions(proposals.noun_entries, proposals.verb_entries,
                               cfg.top_k_nouns, cfg.top_k_verbs, cfg.vocab())
    start, end = fuse_proposals(proposals, cfg.fusion_mode, cfg.epsilon)
    frames = [window_start * cfg.stride_frames for window_start in proposals.window_starts]
    start_s, end_s, kept = intervals_to_seconds(start, end, frames, cfg.grid())
    passing = composed.score >= min_score
    surviving = np.bincount(composed.row[passing], minlength=len(proposals)) > 0
    unconvertible = surviving & kept & ~(np.isfinite(start_s) & np.isfinite(end_s))
    if unconvertible.any():  # name the first such row in the file
        row = int(np.argmax(unconvertible))
        raise ParseError(
            f"boundary of video {proposals.video_ids[row]!r} at window start "
            f"{proposals.window_starts[row]} is too large to convert to finite seconds"
        )
    keep = np.flatnonzero(passing & kept[composed.row])
    videos: dict[str, int] = {}  # video id -> its index, in first-appearance order
    video = np.array([videos.setdefault(v, len(videos)) for v in proposals.video_ids], int)
    keep = keep[np.argsort(video[composed.row[keep]], kind="stable")]  # by video, in row order
    row = composed.row[keep]  # gathered field by field: whole structured records are slower
    dets = np.rec.fromarrays([start_s[row], end_s[row], composed.verb[keep], composed.noun[keep],
                              composed.action[keep], composed.score[keep]], dtype=DETECTION)
    ends = np.cumsum(np.bincount(video[row], minlength=len(videos)))
    return dict(zip(videos, np.split(dets, ends[:-1])))


def run_pipeline(proposals: Proposals, cfg: PipelineConfig) -> SubmissionDocument:
    """Run the full post-processing chain over proposal columns. Empty input
    is not an error: it produces a valid empty submission (with a warning),
    and a video whose proposals all drop still yields an empty list."""
    if not len(proposals):
        logger.warning("no proposal records; emitting an empty submission")
    nms_cfg = cfg.nms_config()
    by_video = _video_detections(proposals, cfg, nms_cfg.min_score)
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
