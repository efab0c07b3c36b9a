"""Feature-grid time conversion and sliding-window generation.

Detector heads operate on a feature grid: one feature step covers
``stride_frames`` video frames, and the whole grid is shifted by a fixed
frame offset. Everything downstream (fusion, suppression, evaluation)
works in seconds, so the conversions here are the single place where
grid coordinates and wall-clock time meet.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig
from .fusion import empty

DEFAULT_WINDOW_LENGTH = 4608
DEFAULT_WINDOW_OVERLAP = 0.5
# windows one call may generate; counted before any is built
MAX_WINDOWS = 2**20


@dataclass(frozen=True)
class FeatureGrid:
    """Constants mapping feature coordinates to seconds."""

    stride_frames: int = 8
    offset_frames: int = 4
    fps: float = 30.0

    def __post_init__(self):
        # an int compares with the float maximum exactly, without converting
        if not 1 <= self.stride_frames <= sys.float_info.max:
            raise InvalidConfig("stride_frames must be >= 1 and within the float range")
        if not 0 <= self.offset_frames <= sys.float_info.max:
            raise InvalidConfig("offset_frames must be >= 0 and within the float range")
        if self.fps <= 0:
            raise InvalidConfig("fps must be positive")


@dataclass(frozen=True)
class Window:
    """A contiguous span of feature indices, [start, start + length)."""

    start_feature: int
    length_features: int


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
    start = np.where(0.0 > start, 0.0, start)  # max(start, 0.0), -0.0 and nan as is
    end = np.where(0.0 > end, 0.0, end)
    kept = ~empty(start, end)  # an empty or inverted pair stays so when clamped
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
        InvalidConfig: if overlap is outside [0, 1), ``total_features`` is
            below 1 or would give more than ``MAX_WINDOWS`` windows, or
            ``max_len`` is below 1 or past the float range.
    """
    if not 0.0 <= overlap < 1.0:
        raise InvalidConfig(f"overlap must be in [0, 1), got {overlap}")
    if total_features < 1:
        raise InvalidConfig("total_features must be >= 1")
    # an int compares with the float maximum exactly, without converting
    if not 1 <= max_len <= sys.float_info.max:
        raise InvalidConfig("max_len must be >= 1 and within the float range")

    if total_features <= max_len:
        return [Window(0, total_features)]

    stride = max(1, math.floor(max_len * (1.0 - overlap)))
    last = total_features - max_len
    if -(-last // stride) + 1 > MAX_WINDOWS:
        raise InvalidConfig(f"total_features gives more than {MAX_WINDOWS} windows")
    return [Window(s, max_len) for s in range(0, last, stride)] + [Window(last, max_len)]
