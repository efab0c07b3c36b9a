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

from .errors import InvalidConfig, ParseError
from .suppression import lex_order, run_index

DEFAULT_TOP_K_NOUNS = 10
DEFAULT_TOP_K_VERBS = 10
# Largest vocabulary size accepted: every action id fits an int64.
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
        raise ParseError(f"noun index {noun_index} outside [0, {vocab.noun_count})")
    if not 0 <= verb_index < vocab.verb_count:
        raise ParseError(f"verb index {verb_index} outside [0, {vocab.verb_count})")
    return vocab.action_id(noun_index, verb_index)


def decode_action_id(action_id: int, vocab: VocabSpec = VocabSpec()) -> tuple[int, int]:
    """Invert the flat action id back to (noun_index, verb_index)."""
    if not 0 <= action_id < vocab.action_count:
        raise ParseError(f"action id {action_id} outside [0, {vocab.action_count})")
    return action_id % vocab.noun_count, action_id // vocab.noun_count


# A stream's class scores are sparse entries of this dtype: the proposal
# row (a line of the proposal file), the class index and its score.
ENTRY = np.dtype([("row", np.int64), ("class", np.int64), ("score", float)])

# Composed action hypotheses are a record array of this dtype: proposal
# row, noun and verb class index, flat action id and score.
CANDIDATE = np.dtype([("row", np.int64), ("noun", np.int64), ("verb", np.int64),
                      ("action", np.int64), ("score", float)])


def _top(entries: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` best ``ENTRY`` rows of each proposal row: by row,
    then score descending, then class index."""
    order = lex_order(entries["class"], -entries["score"], entries["row"])
    return order[run_index(entries["row"][order]) < k]


def compose_actions(
    noun_entries: np.ndarray,
    verb_entries: np.ndarray,
    k_n: int = DEFAULT_TOP_K_NOUNS,
    k_v: int = DEFAULT_TOP_K_VERBS,
    vocab: VocabSpec = VocabSpec(),
) -> np.recarray:
    """Cross the top noun and verb classes of aligned proposal pairs.

    ``noun_entries`` and ``verb_entries`` are each stream's ``ENTRY`` rows.
    Each row crosses its ``k_n`` best noun entries with its ``k_v`` best
    verb entries (by score descending, then class index) into candidates
    scored ``sqrt(P_noun * P_verb)``, row after row; within a row, noun by
    noun in top-K order, then verb by verb. Nothing here ranks them:
    ``suppression.rank_order`` is the one ranking of detections.

    A dense top-K over the vocabulary would also pick absent classes, at
    score 0. It gives the same candidates of positive score in the same
    order, and both NMS presets have ``min_score > 0``: a candidate of
    score 0 never survives, so the submission is the same.
    """
    if k_n < 1 or k_v < 1:
        raise InvalidConfig("k must be >= 1")
    if not (len(noun_entries) and len(verb_entries)):  # no pairs to cross
        return np.recarray(0, CANDIDATE)
    p, q = _top(noun_entries, k_n), _top(verb_entries, k_v)
    noun_row = noun_entries["row"][p]
    count = np.bincount(verb_entries["row"][q], minlength=1 + noun_row.max(initial=-1))
    repeats = count[noun_row]  # each noun crosses the run of its row's verbs
    q = q[np.arange(repeats.sum()) + np.repeat(
        (np.cumsum(count) - count)[noun_row] - (np.cumsum(repeats) - repeats), repeats)]
    p = np.repeat(p, repeats)
    noun, verb = noun_entries["class"][p], verb_entries["class"][q]
    return np.rec.fromarrays(
        [noun_entries["row"][p], noun, verb, vocab.action_id(noun, verb),
         np.sqrt(noun_entries["score"][p] * verb_entries["score"][q])], dtype=CANDIDATE)
