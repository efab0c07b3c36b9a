import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tadfusion.composition import (
    VocabSpec,
    compose_actions,
    decode_action_id,
    encode_action_id,
)
from tadfusion.errors import ActionIdOutOfRange, InvalidConfig


def candidates(composed):
    """``(noun, verb, action id, score)`` of each candidate, in order."""
    return [tuple(c) for c in composed.tolist()]


class TestTopK:
    """Top-K selection, seen through a single verb of score 1: each
    candidate is one selected noun, scored sqrt(P_noun)."""

    @staticmethod
    def nouns(scores, k):
        vocab = VocabSpec(noun_count=len(scores), verb_count=1)
        composed = compose_actions(np.array(scores), np.array([1.0]), k_n=k, k_v=1, vocab=vocab)
        return [(p, score) for p, _, _, score in candidates(composed)]

    def test_two_highest(self):
        assert self.nouns([0.1, 0.7, 0.2], 2) == [(1, math.sqrt(0.7)), (2, math.sqrt(0.2))]

    def test_tie_broken_by_index(self):
        assert self.nouns([0.5, 0.5], 1) == [(0, math.sqrt(0.5))]
        # and for verbs: the lower of two tied verb indices is kept
        vocab = VocabSpec(noun_count=1, verb_count=3)
        composed = compose_actions(np.array([1.0]), np.array([0.2, 0.6, 0.6]), k_n=1, k_v=1,
                                   vocab=vocab)
        assert candidates(composed) == [(0, 1, 1, math.sqrt(0.6))]

    def test_k_exceeding_length(self):
        assert self.nouns([0.3], 10) == [(0, math.sqrt(0.3))]

    def test_k_below_1_rejected(self):
        with pytest.raises(InvalidConfig):
            self.nouns([0.3], 0)


class TestActionIds:
    def test_encode_example(self):
        assert encode_action_id(noun_index=5, verb_index=2) == 605

    def test_decode_example(self):
        assert decode_action_id(605) == (5, 2)

    def test_identity_case(self):
        assert decode_action_id(0) == (0, 0)

    def test_out_of_range(self):
        with pytest.raises(ActionIdOutOfRange):
            decode_action_id(29100)
        with pytest.raises(ActionIdOutOfRange):
            decode_action_id(-1)

    @given(st.integers(0, 299), st.integers(0, 96))
    def test_round_trip(self, p, q):
        assert decode_action_id(encode_action_id(p, q)) == (p, q)


class TestComposeActions:
    def small_pair(self, noun_scores, verb_scores, vocab):
        return candidates(compose_actions(noun_scores, verb_scores, k_n=2, k_v=2, vocab=vocab))

    def test_geometric_mean_score(self):
        vocab = VocabSpec(noun_count=1, verb_count=1)
        composed = compose_actions(np.array([0.9]), np.array([0.4]), k_n=1, k_v=1, vocab=vocab)
        ((_, _, _, score),) = candidates(composed)
        assert score == pytest.approx(0.6)

    def test_all_pairs_enumerated_and_sorted(self):
        # oracle: brute-force cross product, sorted by product of scores
        vocab = VocabSpec(noun_count=2, verb_count=2)
        noun_scores = np.array([0.9, 0.1])
        verb_scores = np.array([0.8, 0.2])
        composed = self.small_pair(noun_scores, verb_scores, vocab)
        expected = sorted(
            (
                (math.sqrt(noun_scores[p] * verb_scores[q]), q, p)
                for p, q in itertools.product(range(2), range(2))
            ),
            key=lambda item: -item[0],
        )
        assert len(composed) == 4
        for (p, q, _, cand_score), (score, exp_q, exp_p) in zip(composed, expected):
            assert cand_score == pytest.approx(score)
            assert (q, p) == (exp_q, exp_p)
        assert [c[3] for c in composed] == pytest.approx(
            [math.sqrt(x) for x in (0.72, 0.18, 0.08, 0.02)]
        )

    def test_candidate_count_with_large_vocab(self):
        rng = np.random.default_rng(2)
        noun_scores = rng.uniform(size=300)
        verb_scores = rng.uniform(size=97)
        composed = compose_actions(noun_scores, verb_scores, k_n=10, k_v=10, vocab=VocabSpec())
        assert len(composed) == 100
        stacked = compose_actions(np.stack([noun_scores] * 3), np.stack([verb_scores] * 3),
                                  k_n=10, k_v=10, vocab=VocabSpec())
        assert len(stacked) == 300

    def test_action_id_consistent(self):
        vocab = VocabSpec(noun_count=7, verb_count=5)
        noun_scores = np.linspace(0.1, 0.8, 7)
        verb_scores = np.linspace(0.2, 0.9, 5)
        composed = compose_actions(noun_scores, verb_scores, k_n=3, k_v=3, vocab=vocab)
        for p, q, action_id, _ in candidates(composed):
            assert action_id == vocab.noun_count * q + p

    def test_products_one_ulp_apart_rank_by_product(self):
        # 0.5 * 0.4 = 0.2 and 0.6 * (1/3) = 0.19999999999999998 share one
        # sqrt; the larger product must still rank first
        vocab = VocabSpec(noun_count=2, verb_count=2)
        composed = self.small_pair(np.array([0.5, 0.6]), np.array([1 / 3, 0.4]), vocab)
        pairs = [(p, q) for p, q, _, _ in composed]
        assert pairs == [(1, 1), (0, 1), (1, 0), (0, 0)]
        assert composed[1][3] == composed[2][3] == math.sqrt(0.2)

    @given(st.data())
    def test_ranking_matches_product_ranking(self, data):
        # geometric mean is monotone in the product, so sorting by S must
        # equal sorting by the raw product
        n = data.draw(st.integers(2, 6))
        v = data.draw(st.integers(2, 6))
        noun_scores = np.array(data.draw(st.lists(
            st.floats(0.01, 1.0), min_size=n, max_size=n)))
        verb_scores = np.array(data.draw(st.lists(
            st.floats(0.01, 1.0), min_size=v, max_size=v)))
        vocab = VocabSpec(noun_count=n, verb_count=v)
        composed = compose_actions(noun_scores, verb_scores, k_n=n, k_v=v, vocab=vocab)
        products = [noun_scores[p] * verb_scores[q] for p, q, _, _ in candidates(composed)]
        assert products == sorted(products, reverse=True)

    def test_rows_compose_as_single_pairs(self):
        # a stacked matrix gives, pair after pair, what each pair gives alone
        rng = np.random.default_rng(5)
        vocab = VocabSpec(noun_count=6, verb_count=4)
        nouns = rng.choice([0.0, 0.25, 0.5, 1.0], size=(5, 6))
        verbs = rng.choice([0.0, 0.25, 0.5, 1.0], size=(5, 4))
        stacked = compose_actions(nouns, verbs, k_n=3, k_v=2, vocab=vocab)
        for row in range(5):
            alone = compose_actions(nouns[row], verbs[row], k_n=3, k_v=2, vocab=vocab)
            assert candidates(stacked[6 * row: 6 * row + 6]) == candidates(alone)
