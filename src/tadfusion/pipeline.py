"""End-to-end post-processing: compose, fuse, convert, suppress, emit.

Input is a set of aligned noun-verb proposal pairs in window-local
feature coordinates, as columns. For each pair the top noun and verb
classes are crossed into scored action candidates, weak candidates are
dropped, boundaries are fused (confidence-weighted or hard mean),
converted to seconds with the window's frame origin, and suppressed
class-wise per video before serialization. From there on the detections
of every video are one table with a video code column.
"""

from __future__ import annotations

import logging

import numpy as np

# perfbench's tracer takes each function imported here by name from another
# module as an entry into that layer; the ordering and video code helpers
# are none, so they are called through their module
from . import suppression
from .composition import compose_actions
from .config import PipelineConfig
from .errors import ParseError
from .evaluation import (
    CLASS_KEYS,
    DEFAULT_TIOU_THRESHOLDS,
    EvalConfig,
    MeanApResult,
    score_columns,
)
from .fusion import fuse_proposals
from .io import Proposals, SubmissionDocument, VideoTable, build_submission
from .suppression import DETECTION, suppress_video
from .timeline import intervals_to_seconds

logger = logging.getLogger(__name__)


def _video_detections(proposals: Proposals, cfg: PipelineConfig,
                      min_score: float) -> tuple[list[str], np.recarray]:
    """The sorted video ids of ``proposals`` and, in row order, the
    ``DETECTION`` rows of their candidates of at least ``min_score``. All
    rows are composed, fused and converted to seconds in one pass; a row
    whose interval is empty is dropped."""
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
    video_ids, video = suppression.video_codes(proposals.video_ids)
    row = composed.row[keep]  # gathered field by field: whole structured records are slower
    dets = np.rec.fromarrays([video[row], start_s[row], end_s[row], composed.verb[keep],
                              composed.noun[keep], composed.action[keep], composed.score[keep]],
                             dtype=DETECTION)
    return video_ids, dets


def run_pipeline(proposals: Proposals, cfg: PipelineConfig) -> SubmissionDocument:
    """Run the full post-processing chain over proposal columns. Empty input
    is not an error: it produces a valid empty submission (with a warning),
    and a video whose proposals all drop still yields an empty list."""
    if not len(proposals):
        logger.warning("no proposal records; emitting an empty submission")
    nms_cfg = cfg.nms_config()
    video_ids, dets = _video_detections(proposals, cfg, nms_cfg.min_score)
    return build_submission(video_ids, suppress_video(dets, nms_cfg), cfg.submission_version)


def evaluate_files(
    submission: SubmissionDocument,
    truth: VideoTable,
    thresholds: tuple[float, ...] = DEFAULT_TIOU_THRESHOLDS,
) -> dict[str, MeanApResult]:
    """Score a parsed submission against ground truth, both with the
    ``suppression.GROUND_TRUTH`` columns and one vocabulary's action ids,
    on all three tasks, from columns built once. Both tables' video codes
    are mapped onto the sorted union of their ids, and the detections
    ranked once: a full tie keeps video id order, then the video's own order."""
    _, codes = suppression.video_codes([*submission.video_ids, *truth.video_ids])
    rows, gts = submission.rows, truth.rows.copy()
    dets = rows.take(suppression.rank_order(rows.score, rows.start, rows.action))
    dets.video = codes[:len(submission.video_ids)][dets.video]
    gts.video = codes[len(submission.video_ids):][gts.video]
    return {
        task: score_columns(dets, gts, EvalConfig(thresholds=thresholds, task=task))
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
