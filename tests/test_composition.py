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
    top_k,
)
from tadfusion.decode import StreamProposal
from tadfusion.errors import ActionIdOutOfRange


class TestTopK:
    def test_two_highest(self):
        assert top_k(np.array([0.1, 0.7, 0.2]), 2) == [(1, 0.7), (2, 0.2)]

    def test_tie_broken_by_index(self):
        assert top_k(np.array([0.5, 0.5]), 1) == [(0, 0.5)]

    def test_k_exceeding_length(self):
        assert top_k(np.array([0.3]), 10) == [(0, 0.3)]


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
        noun = StreamProposal(boundary=(10.0, 20.0), scores=noun_scores)
        verb = StreamProposal(boundary=(14.0, 24.0), scores=verb_scores)
        return compose_actions(noun, verb, k_n=2, k_v=2, vocab=vocab)

    def test_geometric_mean_score(self):
        vocab = VocabSpec(noun_count=1, verb_count=1)
        noun = StreamProposal(boundary=(0.0, 1.0), scores=np.array([0.9]))
        verb = StreamProposal(boundary=(0.0, 1.0), scores=np.array([0.4]))
        (cand,) = compose_actions(noun, verb, k_n=1, k_v=1, vocab=vocab)
        assert cand.score == pytest.approx(0.6)

    def test_all_pairs_enumerated_and_sorted(self):
        # oracle: brute-force cross product, sorted by product of scores
        vocab = VocabSpec(noun_count=2, verb_count=2)
        noun_scores = np.array([0.9, 0.1])
        verb_scores = np.array([0.8, 0.2])
        candidates = self.small_pair(noun_scores, verb_scores, vocab)
        expected = sorted(
            (
                (math.sqrt(noun_scores[p] * verb_scores[q]), q, p)
                for p, q in itertools.product(range(2), range(2))
            ),
            key=lambda item: -item[0],
        )
        assert len(candidates) == 4
        for cand, (score, q, p) in zip(candidates, expected):
            assert cand.score == pytest.approx(score)
            assert (cand.verb_index, cand.noun_index) == (q, p)
        assert [c.score for c in candidates] == pytest.approx(
            [math.sqrt(x) for x in (0.72, 0.18, 0.08, 0.02)]
        )

    def test_boundaries_carried_through(self):
        vocab = VocabSpec(noun_count=2, verb_count=2)
        for cand in self.small_pair(np.array([0.9, 0.1]), np.array([0.8, 0.2]), vocab):
            assert cand.noun_boundary == (10.0, 20.0)
            assert cand.verb_boundary == (14.0, 24.0)

    def test_candidate_count_with_large_vocab(self):
        rng = np.random.default_rng(2)
        noun = StreamProposal(boundary=(0.0, 1.0), scores=rng.uniform(size=300))
        verb = StreamProposal(boundary=(0.0, 1.0), scores=rng.uniform(size=97))
        candidates = compose_actions(noun, verb, k_n=10, k_v=10, vocab=VocabSpec())
        assert len(candidates) == 100

    def test_action_id_consistent(self):
        vocab = VocabSpec(noun_count=7, verb_count=5)
        noun = StreamProposal(boundary=(0.0, 1.0), scores=np.linspace(0.1, 0.8, 7))
        verb = StreamProposal(boundary=(0.0, 1.0), scores=np.linspace(0.2, 0.9, 5))
        for cand in compose_actions(noun, verb, k_n=3, k_v=3, vocab=vocab):
            assert cand.action_id == vocab.noun_count * cand.verb_index + cand.noun_index

    def test_products_one_ulp_apart_rank_by_product(self):
        # 0.5 * 0.4 = 0.2 and 0.6 * (1/3) = 0.19999999999999998 share one
        # sqrt; the larger product must still rank first
        vocab = VocabSpec(noun_count=2, verb_count=2)
        candidates = self.small_pair(np.array([0.5, 0.6]), np.array([1 / 3, 0.4]), vocab)
        pairs = [(c.noun_index, c.verb_index) for c in candidates]
        assert pairs == [(1, 1), (0, 1), (1, 0), (0, 0)]
        assert candidates[1].score == candidates[2].score == math.sqrt(0.2)

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
        noun = StreamProposal(boundary=(0.0, 1.0), scores=noun_scores)
        verb = StreamProposal(boundary=(0.0, 1.0), scores=verb_scores)
        candidates = compose_actions(noun, verb, k_n=n, k_v=v, vocab=vocab)
        products = [noun_scores[c.noun_index] * verb_scores[c.verb_index] for c in candidates]
        assert products == sorted(products, reverse=True)
