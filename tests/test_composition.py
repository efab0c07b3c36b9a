import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import score_entries
from tadfusion.composition import (
    VocabSpec,
    compose_actions,
    decode_action_id,
    encode_action_id,
)
from tadfusion.errors import ActionIdOutOfRange, InvalidConfig


def candidates(composed):
    """``(noun, verb, action id, score)`` of each candidate, in order."""
    return composed[["noun", "verb", "action", "score"]].tolist()


def compose_dense(noun_scores, verb_scores, **kwargs):
    """``compose_actions`` of dense score vectors or matrices, every class an entry."""
    return compose_actions(score_entries(noun_scores), score_entries(verb_scores), **kwargs)


class TestTopK:
    """Top-K selection, seen through a single verb of score 1: each
    candidate is one selected noun, scored sqrt(P_noun)."""

    @staticmethod
    def nouns(scores, k):
        vocab = VocabSpec(noun_count=len(scores), verb_count=1)
        composed = compose_dense(np.array(scores), np.array([1.0]), k_n=k, k_v=1, vocab=vocab)
        return [(p, score) for p, _, _, score in candidates(composed)]

    def test_two_highest(self):
        assert self.nouns([0.1, 0.7, 0.2], 2) == [(1, math.sqrt(0.7)), (2, math.sqrt(0.2))]

    def test_tie_broken_by_index(self):
        assert self.nouns([0.5, 0.5], 1) == [(0, math.sqrt(0.5))]
        # and for verbs: the lower of two tied verb indices is kept
        vocab = VocabSpec(noun_count=1, verb_count=3)
        composed = compose_dense(np.array([1.0]), np.array([0.2, 0.6, 0.6]), k_n=1, k_v=1,
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
        return candidates(compose_dense(noun_scores, verb_scores, k_n=2, k_v=2, vocab=vocab))

    def test_geometric_mean_score(self):
        vocab = VocabSpec(noun_count=1, verb_count=1)
        composed = compose_dense(np.array([0.9]), np.array([0.4]), k_n=1, k_v=1, vocab=vocab)
        ((_, _, _, score),) = candidates(composed)
        assert score == pytest.approx(0.6)

    def test_all_pairs_enumerated_by_noun_rank_then_verb_rank(self):
        # noun-major top-K order, not product order: 0.5 * 0.8 = 0.4
        # comes after 0.9 * 0.2 = 0.18
        vocab = VocabSpec(noun_count=2, verb_count=2)
        composed = self.small_pair(np.array([0.9, 0.5]), np.array([0.8, 0.2]), vocab)
        assert [(p, q) for p, q, _, _ in composed] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert [c[3] for c in composed] == [math.sqrt(x) for x in (
            0.9 * 0.8, 0.9 * 0.2, 0.5 * 0.8, 0.5 * 0.2)]

    def test_candidate_count_with_large_vocab(self):
        rng = np.random.default_rng(2)
        noun_scores = rng.uniform(size=300)
        verb_scores = rng.uniform(size=97)
        composed = compose_dense(noun_scores, verb_scores, k_n=10, k_v=10, vocab=VocabSpec())
        assert len(composed) == 100
        stacked = compose_dense(np.stack([noun_scores] * 3), np.stack([verb_scores] * 3),
                                  k_n=10, k_v=10, vocab=VocabSpec())
        assert len(stacked) == 300

    def test_action_id_consistent(self):
        vocab = VocabSpec(noun_count=7, verb_count=5)
        noun_scores = np.linspace(0.1, 0.8, 7)
        verb_scores = np.linspace(0.2, 0.9, 5)
        composed = compose_dense(noun_scores, verb_scores, k_n=3, k_v=3, vocab=vocab)
        for p, q, action_id, _ in candidates(composed):
            assert action_id == vocab.noun_count * q + p

    @given(st.data())
    def test_candidates_in_top_k_order_scored_by_sqrt_of_product(self, data):
        # each pair's candidates cross the top-K nouns with the top-K verbs,
        # noun by noun, where top-K is a stable argsort of the negated
        # scores; ties and zeros make that order differ from product order
        n, v = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
        rows = data.draw(st.integers(1, 3))
        k_n, k_v = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
        score = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))
        nouns = np.array(data.draw(st.lists(st.lists(score, min_size=n, max_size=n),
                                            min_size=rows, max_size=rows)))
        verbs = np.array(data.draw(st.lists(st.lists(score, min_size=v, max_size=v),
                                            min_size=rows, max_size=rows)))
        vocab = VocabSpec(noun_count=n, verb_count=v)
        composed = compose_dense(nouns, verbs, k_n=k_n, k_v=k_v, vocab=vocab)
        per_pair = composed.reshape(rows, -1)

        def topk(scores, k):
            return np.argsort(-scores, kind="stable")[:k].tolist()

        for row in range(rows):
            expected = [(p, q) for p in topk(nouns[row], k_n) for q in topk(verbs[row], k_v)]
            assert [(p, q) for p, q, _, _ in candidates(per_pair[row])] == expected
            products = np.array([nouns[row, p] * verbs[row, q] for p, q in expected])
            assert per_pair[row].score.tobytes() == np.sqrt(products).tobytes()

    def test_rows_compose_as_single_pairs(self):
        # a stacked matrix gives, pair after pair, what each pair gives alone
        rng = np.random.default_rng(5)
        vocab = VocabSpec(noun_count=6, verb_count=4)
        nouns = rng.choice([0.0, 0.25, 0.5, 1.0], size=(5, 6))
        verbs = rng.choice([0.0, 0.25, 0.5, 1.0], size=(5, 4))
        stacked = compose_dense(nouns, verbs, k_n=3, k_v=2, vocab=vocab)
        for row in range(5):
            alone = compose_dense(nouns[row], verbs[row], k_n=3, k_v=2, vocab=vocab)
            assert candidates(stacked[6 * row: 6 * row + 6]) == candidates(alone)

    @given(st.data())
    def test_sparse_entries_give_the_dense_candidates_of_positive_score(self, data):
        # the nonzero entries of each row, in any order within the row, as a
        # proposal file may list them: the candidates of positive score are
        # those of the dense every-class composition, in the same order
        n, v = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
        rows = data.draw(st.integers(1, 4))
        k_n, k_v = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
        score = st.one_of(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))
        nouns = np.array(data.draw(st.lists(st.lists(score, min_size=n, max_size=n),
                                            min_size=rows, max_size=rows)))
        verbs = np.array(data.draw(st.lists(st.lists(score, min_size=v, max_size=v),
                                            min_size=rows, max_size=rows)))
        vocab = VocabSpec(noun_count=n, verb_count=v)

        def file_order(entries):
            keys = data.draw(st.permutations(range(len(entries))))
            return entries[np.lexsort((keys, entries["row"]))]

        sparse = compose_actions(file_order(score_entries(nouns, every_class=False)),
                                 file_order(score_entries(verbs, every_class=False)),
                                 k_n=k_n, k_v=k_v, vocab=vocab)
        dense = compose_dense(nouns, verbs, k_n=k_n, k_v=k_v, vocab=vocab)
        assert sparse[sparse.score > 0.0].tolist() == dense[dense.score > 0.0].tolist()
