"""Anchor-free decode of detector head outputs into stream proposals.

Each pyramid level emits, per temporal point, a class-probability vector
and a pair of non-negative distances to the segment start and end. The
decode turns those into intervals in feature coordinates; pooling shifts
per-window intervals into one global frame so overlapping windows are
not treated as independent videos.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, WindowMismatch
from .suppression import DEFAULT_PRE_NMS_CAP
from .timeline import Window


@dataclass(eq=False)
class HeadOutput:
    """Per-point outputs of one pyramid level of one stream head.

    ``point_scores`` is (T, num_classes), ``point_distances`` is (T, 2)
    as (d_start, d_end) in level-stride units, ``validity_mask`` is (T,).
    """

    level: int
    level_stride: int
    point_scores: np.ndarray
    point_distances: np.ndarray
    validity_mask: np.ndarray

    def __post_init__(self):
        self.point_scores = np.asarray(self.point_scores, dtype=float)
        self.point_distances = np.asarray(self.point_distances, dtype=float)
        self.validity_mask = np.asarray(self.validity_mask, dtype=bool)
        if self.level_stride < 1:
            raise InvalidConfig("level_stride must be >= 1")
        n = len(self.point_scores)
        if len(self.point_distances) != n or len(self.validity_mask) != n:
            raise InvalidConfig("scores, distances and mask must have equal length")
        if self.point_scores.size and (
            self.point_scores.min() < 0.0 or self.point_scores.max() > 1.0
        ):
            raise InvalidConfig("point scores must lie in [0, 1]")
        if self.point_distances.size and self.point_distances.min() < 0.0:
            raise InvalidConfig("point distances must be non-negative")


@dataclass(eq=False)
class StreamProposal:
    """One factor stream's candidate interval plus its class scores.

    The boundary is (start, end) in feature coordinates, window-local
    until pooled. ``source_window`` records the sliding window the
    proposal was decoded in, when known.
    """

    boundary: tuple[float, float]
    scores: np.ndarray
    source_window: Window | None = None

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=float)
        start, end = self.boundary
        if start >= end:
            raise InvalidConfig(f"proposal boundary start {start} >= end {end}")

    @property
    def max_score(self) -> float:
        return float(self.scores.max()) if self.scores.size else 0.0


def decode_anchor_free(head: HeadOutput, window: Window | None = None) -> list[StreamProposal]:
    """Decode one head level into proposals in feature coordinates.

    Point ``t`` sits at location ``t * level_stride``; its interval is
    ``(location - d_start * stride, location + d_end * stride)``. Points
    masked invalid or with zero total distance carry no interval and are
    skipped.
    """
    proposals = []
    stride = head.level_stride
    for t in range(len(head.point_scores)):
        if not head.validity_mask[t]:
            continue
        d_start, d_end = head.point_distances[t]
        if d_start + d_end == 0.0:
            continue
        location = t * stride
        boundary = (location - d_start * stride, location + d_end * stride)
        proposals.append(
            StreamProposal(boundary=boundary, scores=head.point_scores[t], source_window=window)
        )
    return proposals


def pre_nms_select(
    proposals: list[StreamProposal],
    min_score: float,
    top_k: int = DEFAULT_PRE_NMS_CAP,
) -> list[StreamProposal]:
    """Filter by maximum class score and keep at most ``top_k`` proposals.

    Output is sorted by max score descending; ties break by earlier
    start, then original input order, so the selection is deterministic.
    """
    if top_k < 1:
        raise InvalidConfig("top_k must be >= 1")
    scored = [
        (p.max_score, p.boundary[0], idx, p)
        for idx, p in enumerate(proposals)
        if p.max_score >= min_score
    ]
    scored.sort(key=lambda item: (-item[0], item[1], item[2]))
    return [p for _, _, _, p in scored[:top_k]]


def pool_windows(
    per_window: list[tuple[Window, list[StreamProposal]]],
) -> list[StreamProposal]:
    """Shift per-window proposals into global feature coordinates.

    Duplicates emitted by overlapping windows are kept; suppression
    happens later, class-wise, over the pooled set. Input pairs are
    sorted by window start first so the merged order does not depend on
    per-window completion order.

    Raises:
        WindowMismatch: if a proposal carries a source window different
            from the window it is listed under.
    """
    pooled = []
    for window, proposals in sorted(per_window, key=lambda pair: pair[0].start_feature):
        for proposal in proposals:
            if proposal.source_window is not None and proposal.source_window != window:
                raise WindowMismatch(
                    f"proposal from window {proposal.source_window} pooled under {window}"
                )
            start, end = proposal.boundary
            pooled.append(
                StreamProposal(
                    boundary=(start + window.start_feature, end + window.start_feature),
                    scores=proposal.scores,
                    source_window=window,
                )
            )
    return pooled
