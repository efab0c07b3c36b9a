"""Composition of factor-level noun and verb predictions into actions.

The two streams stay decoupled until this point. For an aligned proposal
pair, the top noun classes and top verb classes are crossed into action
hypotheses; each hypothesis scores as the geometric mean of its factor
probabilities, so an action is strong only when both object and motion
evidence support it. Action labels flatten to ``noun_count * q + p``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ActionIdOutOfRange, InvalidConfig

DEFAULT_NOUN_COUNT = 300
DEFAULT_VERB_COUNT = 97
DEFAULT_TOP_K_NOUNS = 10
DEFAULT_TOP_K_VERBS = 10


@dataclass(frozen=True)
class VocabSpec:
    """Sizes of the noun and verb vocabularies."""

    noun_count: int = DEFAULT_NOUN_COUNT
    verb_count: int = DEFAULT_VERB_COUNT

    def __post_init__(self):
        if self.noun_count < 1 or self.verb_count < 1:
            raise InvalidConfig("vocabulary sizes must be >= 1")

    @property
    def action_count(self) -> int:
        return self.noun_count * self.verb_count


@dataclass(frozen=True)
class ActionCandidate:
    """A composed (verb, noun) hypothesis with its score."""

    noun_index: int
    verb_index: int
    action_id: int
    score: float


def encode_action_id(noun_index: int, verb_index: int, vocab: VocabSpec = VocabSpec()) -> int:
    """Flatten a (noun, verb) pair to a single action id."""
    if not 0 <= noun_index < vocab.noun_count:
        raise ActionIdOutOfRange(f"noun index {noun_index} outside [0, {vocab.noun_count})")
    if not 0 <= verb_index < vocab.verb_count:
        raise ActionIdOutOfRange(f"verb index {verb_index} outside [0, {vocab.verb_count})")
    return vocab.noun_count * verb_index + noun_index


def decode_action_id(action_id: int, vocab: VocabSpec = VocabSpec()) -> tuple[int, int]:
    """Invert the flat action id back to (noun_index, verb_index)."""
    if not 0 <= action_id < vocab.action_count:
        raise ActionIdOutOfRange(
            f"action id {action_id} outside [0, {vocab.action_count})"
        )
    return action_id % vocab.noun_count, action_id // vocab.noun_count


def top_k(scores: np.ndarray, k: int) -> list[tuple[int, float]]:
    """Indices and values of the k highest entries, score descending.

    Ties break by ascending class index. Returns fewer than k pairs when
    the vector is shorter than k.
    """
    if k < 1:
        raise InvalidConfig("k must be >= 1")
    vec = np.asarray(scores, dtype=float)
    order = sorted(range(vec.size), key=lambda i: (-vec[i], i))
    return [(i, float(vec[i])) for i in order[:k]]


def compose_actions(
    noun_scores: np.ndarray,
    verb_scores: np.ndarray,
    k_n: int = DEFAULT_TOP_K_NOUNS,
    k_v: int = DEFAULT_TOP_K_VERBS,
    vocab: VocabSpec = VocabSpec(),
) -> list[ActionCandidate]:
    """Cross the top noun and verb classes of one aligned proposal pair.

    Emits ``min(k_n, nouns) * min(k_v, verbs)`` candidates sorted by
    ``P_noun * P_verb`` descending (ties by ascending action id), each
    scored as ``sqrt(P_noun * P_verb)``.
    """
    if len(noun_scores) != vocab.noun_count:
        raise InvalidConfig(
            f"noun scores have {len(noun_scores)} entries, vocabulary expects {vocab.noun_count}"
        )
    if len(verb_scores) != vocab.verb_count:
        raise InvalidConfig(
            f"verb scores have {len(verb_scores)} entries, vocabulary expects {vocab.verb_count}"
        )
    # rank on the product: two products one ulp apart can share a sqrt
    ranked = []
    verb_top = top_k(verb_scores, k_v)
    for p, noun_score in top_k(noun_scores, k_n):
        for q, verb_score in verb_top:
            product = noun_score * verb_score
            candidate = ActionCandidate(
                noun_index=p,
                verb_index=q,
                action_id=encode_action_id(p, q, vocab),
                score=math.sqrt(product),
            )
            ranked.append((-product, candidate.action_id, candidate))
    ranked.sort(key=lambda entry: entry[:2])
    return [candidate for *_, candidate in ranked]
