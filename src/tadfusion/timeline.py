"""Feature-grid time conversion and sliding-window generation.

Detector heads operate on a feature grid: one feature step covers
``stride_frames`` video frames, and the whole grid is shifted by a fixed
frame offset. Everything downstream (fusion, suppression, evaluation)
works in seconds, so the conversions here are the single place where
grid coordinates and wall-clock time meet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, InvalidOverlap

DEFAULT_STRIDE_FRAMES = 8
DEFAULT_OFFSET_FRAMES = 4
DEFAULT_FPS = 30.0
DEFAULT_WINDOW_LENGTH = 4608
DEFAULT_WINDOW_OVERLAP = 0.5


@dataclass(frozen=True)
class FeatureGrid:
    """Constants mapping feature coordinates to seconds."""

    stride_frames: int = DEFAULT_STRIDE_FRAMES
    offset_frames: int = DEFAULT_OFFSET_FRAMES
    fps: float = DEFAULT_FPS

    def __post_init__(self):
        if self.stride_frames < 1:
            raise InvalidConfig("stride_frames must be >= 1")
        if self.offset_frames < 0:
            raise InvalidConfig("offset_frames must be >= 0")
        if self.fps <= 0:
            raise InvalidConfig("fps must be positive")


@dataclass(frozen=True)
class Window:
    """A contiguous span of feature indices, [start, start + length)."""

    start_feature: int
    length_features: int

    def __post_init__(self):
        if self.start_feature < 0:
            raise InvalidConfig("window start must be >= 0")
        if self.length_features < 1:
            raise InvalidConfig("window length must be >= 1")

    @property
    def end_feature(self) -> int:
        return self.start_feature + self.length_features


def _float_or_inf(n: int) -> float:
    try:
        return float(n)
    except OverflowError:  # an integer past the float range
        return math.inf


def intervals_to_seconds(
    start: np.ndarray, end: np.ndarray, window_start_frame, grid: FeatureGrid = FeatureGrid()
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Convert arrays of (start, end) feature coordinates to seconds.

    Coordinates may be fractional (regressed) and may undershoot the
    window origin; negative values clamp to 0 before conversion. Row i is
    local to the window starting at video frame ``window_start_frame[i]``
    (an integer), so overlapping windows share one global clock. Feature
    index i, at coordinate i, is the temporal center of its feature step.

    Returns ``(start_s, end_s, kept)``; ``kept`` is False where the input
    is empty or inverted, or clamping collapses it to a point.
    """
    kept = ~(start >= end)
    start = np.where(0.0 > start, 0.0, start)  # max(start, 0.0), -0.0 and nan as is
    end = np.where(0.0 > end, 0.0, end)
    kept &= ~(start >= end)
    frames = np.array([_float_or_inf(f) for f in window_start_frame], dtype=float)
    with np.errstate(over="ignore"):  # huge coordinates become inf seconds
        start_s = (start * grid.stride_frames + frames + grid.offset_frames) / grid.fps
        end_s = (end * grid.stride_frames + frames + grid.offset_frames) / grid.fps
    return start_s, end_s, kept


def seconds_to_feature_coord(
    seconds: float, grid: FeatureGrid = FeatureGrid(), window_start_frame: int = 0
) -> float:
    """Inverse of ``intervals_to_seconds``: seconds to feature coordinates
    local to the window starting at ``window_start_frame``.

    The result may be negative for times before the grid's first center;
    the forward conversion clamps those at 0.
    """
    return (seconds * grid.fps - window_start_frame - grid.offset_frames) / grid.stride_frames


def generate_windows(
    total_features: int,
    max_len: int = DEFAULT_WINDOW_LENGTH,
    overlap: float = DEFAULT_WINDOW_OVERLAP,
) -> list[Window]:
    """Generate sliding windows covering ``total_features`` feature steps.

    Windows advance by ``floor(max_len * (1 - overlap))``. The final
    window is shifted left, not shortened, so fixed-length detectors see
    a full window whose end lands exactly on the sequence end. Sequences
    shorter than ``max_len`` yield a single window of their full length.

    Raises:
        InvalidOverlap: if overlap is outside [0, 1).
    """
    if not 0.0 <= overlap < 1.0:
        raise InvalidOverlap(f"overlap must be in [0, 1), got {overlap}")
    if total_features < 1:
        raise InvalidConfig("total_features must be >= 1")
    if max_len < 1:
        raise InvalidConfig("max_len must be >= 1")

    if total_features <= max_len:
        return [Window(0, total_features)]

    stride = max(1, math.floor(max_len * (1.0 - overlap)))
    starts: list[int] = []
    start = 0
    while True:
        if start + max_len >= total_features:
            starts.append(total_features - max_len)
            break
        starts.append(start)
        start += stride
    return [Window(s, max_len) for s in starts]
