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

from .errors import InvalidConfig

DEFAULT_FUSION_EPSILON = 1e-6

FUSION_MODES = ("dwf", "mean")
MEAN_WEIGHTS = (0.5, 0.5)  # the equal-weight baseline's


def stream_confidences(noun_entries, verb_entries, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-stream confidences of ``rows`` proposals from their ``ENTRY``
    arrays: a row's largest score, and +0.0 where none is positive. The one
    confidence rule."""
    confidences = np.zeros((2, rows))
    for confidence, entries in zip(confidences, (noun_entries, verb_entries)):
        positive = entries[entries["score"] > 0.0]
        np.maximum.at(confidence, positive["row"], positive["score"])
    return confidences[0], confidences[1]


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
    if np.min((noun_confidence, verb_confidence), initial=0.0) < 0.0:  # 0 proposals too
        raise InvalidConfig("confidences must be non-negative")
    if epsilon <= 0.0:
        raise InvalidConfig("epsilon must be positive")
    total = noun_confidence + verb_confidence + epsilon
    return noun_confidence / total, verb_confidence / total


def fuse(noun_boundary, verb_boundary, weights: tuple[float, float]):
    """Linearly combine the two stream boundaries, coordinate-wise: the one
    boundary combiner. Each coordinate may be an array of proposals, with
    weights to match. An empty or inverted interval is returned as it is.

    At ``MEAN_WEIGHTS`` this is the equal-weight baseline. Halving before
    adding keeps boundaries near the float maximum finite. Wherever
    ``a + b`` does not overflow and neither the halves nor the mean are
    subnormal, it gives the bits of ``0.5 * (a + b)``.
    """
    noun_weight, verb_weight = weights
    return (noun_weight * noun_boundary[0] + verb_weight * verb_boundary[0],
            noun_weight * noun_boundary[1] + verb_weight * verb_boundary[1])


def empty(start, end):
    """True where ``start >= end`` (empty or inverted); a nan endpoint is not."""
    return np.greater_equal(start, end)


def first_empty(start, end) -> int | None:
    """Index of the first ``empty`` interval among ``start`` and ``end``
    arrays (or scalars), or None if there is none."""
    found = np.flatnonzero(empty(start, end))
    return int(found[0]) if len(found) else None


def fuse_proposals(proposals, mode: str,
                   epsilon: float = DEFAULT_FUSION_EPSILON) -> tuple[np.ndarray, np.ndarray]:
    """Fused ``(start, end)`` arrays of proposal columns (``io.Proposals``)
    under ``mode``. An empty or inverted interval is returned as it is."""
    if mode not in FUSION_MODES:
        raise InvalidConfig(f"fusion mode must be one of {FUSION_MODES}, got {mode!r}")
    weights = MEAN_WEIGHTS if mode == "mean" else dwf_weights(*stream_confidences(
        proposals.noun_entries, proposals.verb_entries, len(proposals)), epsilon)
    return fuse(proposals.noun_boundary, proposals.verb_boundary, weights)
