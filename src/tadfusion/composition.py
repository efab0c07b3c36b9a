"""Composition of factor-level noun and verb predictions into actions.

The two streams stay decoupled until this point. For an aligned proposal
pair, the top noun classes and top verb classes are crossed into action
hypotheses; each hypothesis scores as the geometric mean of its factor
probabilities, so an action is strong only when both object and motion
evidence support it. Action labels flatten to ``noun_count * q + p``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ActionIdOutOfRange, InvalidConfig

DEFAULT_TOP_K_NOUNS = 10
DEFAULT_TOP_K_VERBS = 10
# Largest vocabulary size accepted: dense score rows of this many classes
# stay small, and every action id fits an int64.
MAX_VOCABULARY_SIZE = 1 << 16


@dataclass(frozen=True)
class VocabSpec:
    """Sizes of the noun and verb vocabularies."""

    noun_count: int = 300
    verb_count: int = 97

    def __post_init__(self):
        for count in (self.noun_count, self.verb_count):
            if not 1 <= count <= MAX_VOCABULARY_SIZE:
                raise InvalidConfig(f"vocabulary sizes must lie in [1, {MAX_VOCABULARY_SIZE}]")

    @property
    def action_count(self) -> int:
        return self.noun_count * self.verb_count

    def action_id(self, noun, verb):
        """Flat action id of noun and verb indices, ints or arrays alike."""
        return self.noun_count * verb + noun


def encode_action_id(noun_index: int, verb_index: int, vocab: VocabSpec = VocabSpec()) -> int:
    """Flatten a (noun, verb) pair to a single action id."""
    if not 0 <= noun_index < vocab.noun_count:
        raise ActionIdOutOfRange(f"noun index {noun_index} outside [0, {vocab.noun_count})")
    if not 0 <= verb_index < vocab.verb_count:
        raise ActionIdOutOfRange(f"verb index {verb_index} outside [0, {vocab.verb_count})")
    return vocab.action_id(noun_index, verb_index)


def decode_action_id(action_id: int, vocab: VocabSpec = VocabSpec()) -> tuple[int, int]:
    """Invert the flat action id back to (noun_index, verb_index)."""
    if not 0 <= action_id < vocab.action_count:
        raise ActionIdOutOfRange(
            f"action id {action_id} outside [0, {vocab.action_count})"
        )
    return action_id % vocab.noun_count, action_id // vocab.noun_count


# Composed action hypotheses are a record array of this dtype: noun and
# verb class index, flat action id and score.
CANDIDATE = np.dtype([("noun", np.int64), ("verb", np.int64), ("action", np.int64),
                      ("score", float)])


def compose_actions(
    noun_scores: np.ndarray,
    verb_scores: np.ndarray,
    k_n: int = DEFAULT_TOP_K_NOUNS,
    k_v: int = DEFAULT_TOP_K_VERBS,
    vocab: VocabSpec = VocabSpec(),
) -> np.recarray:
    """Cross the top noun and verb classes of aligned proposal pairs.

    ``noun_scores`` and ``verb_scores`` are ``(R, nouns)`` and ``(R, verbs)``
    matrices, one row per pair, or one pair's two vectors. Each pair gives
    ``min(k_n, nouns) * min(k_v, verbs)`` candidates from its top classes
    (ties go to the lower index), scored as ``sqrt(P_noun * P_verb)``.
    The result holds them pair after pair; within a pair, noun by noun in
    top-K order and, for each noun, verb by verb. Nothing here ranks
    them: ``suppression.rank_order`` is the one ranking of detections.
    """
    nouns = np.atleast_2d(np.asarray(noun_scores, dtype=float))
    verbs = np.atleast_2d(np.asarray(verb_scores, dtype=float))
    if (nouns.shape[1], verbs.shape[1]) != (vocab.noun_count, vocab.verb_count):
        raise InvalidConfig(
            f"score vectors have {nouns.shape[1]} noun and {verbs.shape[1]} verb entries, "
            f"vocabulary expects {vocab.noun_count} and {vocab.verb_count}")
    if k_n < 1 or k_v < 1:
        raise InvalidConfig("k must be >= 1")
    # a stable sort of the negated scores breaks ties by the lower index
    p = np.argsort(-nouns, axis=1, kind="stable")[:, :k_n]
    q = np.argsort(-verbs, axis=1, kind="stable")[:, :k_v]
    product = (np.take_along_axis(nouns, p, 1)[:, :, None]
               * np.take_along_axis(verbs, q, 1)[:, None, :])
    noun, verb = np.repeat(p, q.shape[1]), np.tile(q, p.shape[1]).reshape(-1)
    return np.rec.fromarrays([noun, verb, vocab.action_id(noun, verb),
                              np.sqrt(product).reshape(-1)], dtype=CANDIDATE)
