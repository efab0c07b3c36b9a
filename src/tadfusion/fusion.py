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

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInterval, EmptyVector, InvalidConfig

DEFAULT_FUSION_EPSILON = 1e-6

FUSION_MODES = ("dwf", "mean")


@dataclass(frozen=True)
class FusionWeights:
    """Per-proposal boundary weights of the noun and verb streams.

    ``dwf_weights`` makes them sum to ``(c_noun + c_verb) / (c_noun +
    c_verb + epsilon)``, slightly under 1; the epsilon keeps the
    normalization total even when both confidences vanish.
    """

    noun_weight: float
    verb_weight: float


def stream_confidences(
    noun_scores: np.ndarray, verb_scores: np.ndarray
) -> tuple[float, float]:
    """Scalar per-stream confidences: the maximum class probability."""
    noun = np.asarray(noun_scores, dtype=float)
    verb = np.asarray(verb_scores, dtype=float)
    if noun.size == 0 or verb.size == 0:
        raise EmptyVector("score vectors must be non-empty")
    return float(noun.max()), float(verb.max())


def dwf_weights(
    noun_confidence: float,
    verb_confidence: float,
    epsilon: float = DEFAULT_FUSION_EPSILON,
) -> FusionWeights:
    """Normalize stream confidences (floats, or arrays of proposals) into boundary weights."""
    if np.min((noun_confidence, verb_confidence)) < 0.0:
        raise InvalidConfig("confidences must be non-negative")
    if epsilon <= 0.0:
        raise InvalidConfig("epsilon must be positive")
    total = noun_confidence + verb_confidence + epsilon
    return FusionWeights(noun_weight=noun_confidence / total, verb_weight=verb_confidence / total)


def fuse_boundaries(
    noun_boundary: tuple[float, float],
    verb_boundary: tuple[float, float],
    weights: FusionWeights,
) -> tuple[float, float]:
    """Linearly combine the two stream boundaries, coordinate-wise.

    Applied to both start and end; each coordinate may be an array of
    proposals, with weights to match. The candidate's action score is not
    read or modified. Candidates whose confidences both vanish collapse
    to a point interval; upstream min-score filtering removes them, and
    this raises ``DegenerateInterval`` as a backstop.
    """
    fused_start = weights.noun_weight * noun_boundary[0] + weights.verb_weight * verb_boundary[0]
    fused_end = weights.noun_weight * noun_boundary[1] + weights.verb_weight * verb_boundary[1]
    if np.any(fused_start >= fused_end):
        raise DegenerateInterval(
            f"fused boundary ({fused_start}, {fused_end}) is empty or inverted"
        )
    return (fused_start, fused_end)


def hard_mean_fusion(
    noun_boundary: tuple[float, float], verb_boundary: tuple[float, float]
) -> tuple[float, float]:
    """Equal-weight baseline: coordinate-wise arithmetic mean.

    Halving before adding keeps boundaries near the float maximum
    finite. Wherever ``a + b`` does not overflow and neither the halves
    nor the mean are subnormal, it gives the bits of ``0.5 * (a + b)``.
    """
    return (
        0.5 * noun_boundary[0] + 0.5 * verb_boundary[0],
        0.5 * noun_boundary[1] + 0.5 * verb_boundary[1],
    )
