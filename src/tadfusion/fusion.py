"""Confidence-weighted fusion of noun and verb boundaries.

The two streams regress slightly different intervals for the same
proposal. The baseline averages them with equal weight, which drags a
correct boundary toward a degraded stream. Dynamic weighted fusion
instead normalizes each stream's maximum classification confidence into
a boundary weight, shifting authority toward the stream that looks more
reliable for this particular proposal. Scores are never touched here:
fusion reassigns the interval only.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateInterval, InvalidConfig

DEFAULT_FUSION_EPSILON = 1e-6

FUSION_MODES = ("dwf", "mean")
MEAN_WEIGHTS = (0.5, 0.5)  # the equal-weight baseline's


def stream_confidences(
    noun_scores: np.ndarray, verb_scores: np.ndarray
) -> tuple[float, float]:
    """Per-stream confidences: the maximum class probability, per vector or matrix row."""
    return (np.asarray(noun_scores, dtype=float).max(axis=-1),
            np.asarray(verb_scores, dtype=float).max(axis=-1))


def dwf_weights(
    noun_confidence: float,
    verb_confidence: float,
    epsilon: float = DEFAULT_FUSION_EPSILON,
) -> tuple[float, float]:
    """Normalize stream confidences (floats, or arrays of proposals) into
    ``(noun_weight, verb_weight)`` boundary weights.

    The weights sum to ``(c_noun + c_verb) / (c_noun + c_verb + epsilon)``,
    slightly under 1; the epsilon keeps the normalization total even when
    both confidences vanish.
    """
    if np.min((noun_confidence, verb_confidence)) < 0.0:
        raise InvalidConfig("confidences must be non-negative")
    if epsilon <= 0.0:
        raise InvalidConfig("epsilon must be positive")
    total = noun_confidence + verb_confidence + epsilon
    return noun_confidence / total, verb_confidence / total


def _weighted(noun_boundary, verb_boundary, weights: tuple[float, float]):
    noun_weight, verb_weight = weights
    return (noun_weight * noun_boundary[0] + verb_weight * verb_boundary[0],
            noun_weight * noun_boundary[1] + verb_weight * verb_boundary[1])


def fuse_boundaries(
    noun_boundary: tuple[float, float],
    verb_boundary: tuple[float, float],
    weights: tuple[float, float],
) -> tuple[float, float]:
    """Linearly combine the two stream boundaries, coordinate-wise.

    Applied to both start and end; each coordinate may be an array of
    proposals, with weights to match. The candidate's action score is not
    read or modified. Candidates whose confidences both vanish collapse
    to a point interval, which raises ``DegenerateInterval`` naming the
    first such index.
    """
    fused_start, fused_end = _weighted(noun_boundary, verb_boundary, weights)
    empty = np.flatnonzero(fused_start >= fused_end)
    if len(empty):
        i = empty[0]
        start, end = np.ravel(fused_start)[i].item(), np.ravel(fused_end)[i].item()
        raise DegenerateInterval(
            f"fused boundary at index {i} ({start!r}, {end!r}) is empty or inverted")
    return (fused_start, fused_end)


def fuse_proposals(noun_boundary, verb_boundary, noun_scores, verb_scores, mode: str,
                   epsilon: float = DEFAULT_FUSION_EPSILON) -> tuple[np.ndarray, np.ndarray]:
    """Fused ``(start, end)`` arrays of R aligned proposals under ``mode``:
    boundaries are ``(starts, ends)`` arrays, scores ``(R, classes)``
    matrices. An empty or inverted interval is returned as it is."""
    if mode not in FUSION_MODES:
        raise InvalidConfig(f"fusion mode must be one of {FUSION_MODES}, got {mode!r}")
    weights = MEAN_WEIGHTS if mode == "mean" else dwf_weights(
        *stream_confidences(noun_scores, verb_scores), epsilon)
    return _weighted(noun_boundary, verb_boundary, weights)


def hard_mean_fusion(
    noun_boundary: tuple[float, float], verb_boundary: tuple[float, float]
) -> tuple[float, float]:
    """Equal-weight baseline: coordinate-wise arithmetic mean, the
    weighted sum at ``MEAN_WEIGHTS``.

    Halving before adding keeps boundaries near the float maximum
    finite. Wherever ``a + b`` does not overflow and neither the halves
    nor the mean are subnormal, it gives the bits of ``0.5 * (a + b)``.
    """
    return _weighted(noun_boundary, verb_boundary, MEAN_WEIGHTS)
