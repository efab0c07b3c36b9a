import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import ProposalRecord, proposal_columns, score_entries
from tadfusion.errors import InvalidConfig
from tadfusion.fusion import (
    MEAN_WEIGHTS,
    dwf_weights,
    first_empty,
    fuse,
    fuse_proposals,
    stream_confidences,
)


def confidences(noun_scores, verb_scores):
    """``stream_confidences`` of one pair's dense score vectors, as floats."""
    (c_noun,), (c_verb,) = stream_confidences(score_entries(noun_scores),
                                              score_entries(verb_scores), 1)
    return c_noun, c_verb


class TestStreamConfidences:
    def test_maxima(self):
        assert confidences([0.1, 0.8, 0.3], [0.4, 0.2]) == (0.8, 0.4)

    def test_all_zero(self):
        assert confidences(np.zeros(5), np.zeros(3)) == (0.0, 0.0)

    def test_singletons(self):
        assert confidences([0.5], [0.5]) == (0.5, 0.5)

    @pytest.mark.parametrize("scores", [[-0.0], [0.0, -0.0], [-0.0, 0.0], [], [-0.0, -0.0]])
    def test_no_positive_entry_is_positive_zero(self, scores):
        # whatever mix of signed zeros a row's entries hold, or none at all
        entries = score_entries(scores) if scores else score_entries(np.zeros(1), False)
        (noun,), (verb,) = stream_confidences(entries, entries, 1)
        assert math.copysign(1.0, noun) == math.copysign(1.0, verb) == 1.0

    def test_rows_without_entries_and_entries_in_any_order(self):
        nouns = score_entries([[0.0, 0.3, 0.7], [0.0, 0.0, 0.0], [0.2, 0.0, 0.9]], False)
        noun, verb = stream_confidences(nouns[::-1], nouns[:0], 4)
        assert noun.tolist() == [0.7, 0.0, 0.9, 0.0]
        assert verb.tolist() == [0.0] * 4


class TestDwfWeights:
    def test_against_high_precision_oracle(self):
        mpmath.mp.dps = 50
        w_noun, w_verb = dwf_weights(0.8, 0.2, epsilon=1e-6)
        total = mpmath.mpf(0.8) + mpmath.mpf(0.2) + mpmath.mpf(1e-6)
        assert w_noun == pytest.approx(float(mpmath.mpf(0.8) / total), abs=1e-12)
        assert w_verb == pytest.approx(float(mpmath.mpf(0.2) / total), abs=1e-12)

    def test_symmetric_confidences(self):
        w_noun, w_verb = dwf_weights(0.4, 0.4)
        assert w_noun == pytest.approx(w_verb)
        assert w_noun == pytest.approx(0.5, abs=1e-5)

    def test_zero_confidences_zero_weights(self):
        assert dwf_weights(0.0, 0.0) == (0.0, 0.0)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_weight_sum_identity(self, c_noun, c_verb):
        w_noun, w_verb = dwf_weights(c_noun, c_verb)
        total = c_noun + c_verb
        assert w_noun + w_verb == pytest.approx(total / (total + 1e-6))
        assert w_noun >= 0.0 and w_verb >= 0.0
        assert w_noun + w_verb <= 1.0


class TestFirstEmpty:
    def test_equal_endpoints_are_empty(self):
        assert first_empty(np.array([1.0, 2.0]), np.array([2.0, 2.0])) == 1
        assert first_empty(3.0, 3.0) == 0

    def test_nan_endpoint_is_not_empty(self):
        assert first_empty(np.array([np.nan, 1.0]), np.array([1.0, np.nan])) is None

    def test_first_index_is_returned(self):
        start, end = np.array([0.0, 5.0, 3.0, 9.0]), np.array([1.0, 4.0, 3.0, 1.0])
        assert first_empty(start, end) == 1

    def test_none_without_an_empty_interval(self):
        assert first_empty(np.array([0.0, -1.0]), np.array([1.0, 2.0])) is None
        assert first_empty(np.array([]), np.array([])) is None


class TestFuse:
    def test_asymmetric_confidence_example(self):
        # oracle: high-precision evaluation of the weight equation at eps=1e-6;
        # the deviation from the eps->0 limit (10.8, 20.8) is coord * eps / (1 + eps)
        mpmath.mp.dps = 50
        w = dwf_weights(0.8, 0.2, epsilon=1e-6)
        fused = fuse((10.0, 20.0), (14.0, 24.0), w)
        total = mpmath.mpf(0.8) + mpmath.mpf(0.2) + mpmath.mpf(1e-6)
        exact = (
            float((mpmath.mpf(0.8) * 10 + mpmath.mpf(0.2) * 14) / total),
            float((mpmath.mpf(0.8) * 20 + mpmath.mpf(0.2) * 24) / total),
        )
        assert fused[0] == pytest.approx(exact[0], abs=1e-12)
        assert fused[1] == pytest.approx(exact[1], abs=1e-12)
        assert abs(fused[0] - 10.8) < 2e-5
        assert abs(fused[1] - 20.8) < 2.1e-5

    def test_equal_confidences_reduce_to_mean(self):
        for c in (0.05, 0.3, 1.0):
            w = dwf_weights(c, c)
            fused = fuse((10.0, 20.0), (14.0, 24.0), w)
            # exact identity: the fused pair is the mean scaled by 2c/(2c+eps)
            scale = 2 * c / (2 * c + 1e-6)
            assert fused[0] == pytest.approx(12.0 * scale, abs=1e-9)
            assert fused[1] == pytest.approx(22.0 * scale, abs=1e-9)
            # deviation from the plain mean shrinks as confidence grows
            assert abs(fused[0] - 12.0) <= 12.0 * 1e-6 / (2 * c)
            assert abs(fused[1] - 22.0) <= 22.0 * 1e-6 / (2 * c)

    def test_manual_full_authority(self):
        assert fuse((10.0, 20.0), (14.0, 24.0), (1.0, 0.0)) == (10.0, 20.0)

    def test_vanishing_confidences_fuse_to_an_empty_interval_returned_as_is(self):
        # the caller decides what an empty interval means: see first_empty
        fused = fuse((10.0, 20.0), (14.0, 24.0), dwf_weights(0.0, 0.0))
        assert fused == (0.0, 0.0)
        assert first_empty(*fused) == 0

    @given(
        st.floats(0.0, 50.0), st.floats(0.1, 20.0),
        st.floats(0.0, 50.0), st.floats(0.1, 20.0),
        st.floats(0.01, 1.0), st.floats(0.01, 1.0),
    )
    def test_convex_hull_and_symmetry(self, ns, nl, vs, vl, c_noun, c_verb):
        noun_b = (ns, ns + nl)
        verb_b = (vs, vs + vl)
        fused = fuse(noun_b, verb_b, dwf_weights(c_noun, c_verb))
        swapped = fuse(verb_b, noun_b, dwf_weights(c_verb, c_noun))
        assert fused[0] == pytest.approx(swapped[0], abs=1e-12)
        assert fused[1] == pytest.approx(swapped[1], abs=1e-12)
        # epsilon shrinks the hull by at most the weight-sum deficit
        scale = (c_noun + c_verb) / (c_noun + c_verb + 1e-6)
        for k in range(2):
            lo = min(noun_b[k], verb_b[k]) * scale
            hi = max(noun_b[k], verb_b[k])
            assert lo - 1e-9 <= fused[k] <= hi + 1e-9

    def test_confidence_monotonicity(self):
        noun_b, verb_b = (10.0, 20.0), (14.0, 24.0)
        previous = None
        for c_noun in np.linspace(0.1, 0.9, 9):
            fused = fuse(noun_b, verb_b, dwf_weights(float(c_noun), 0.5))
            if previous is not None:
                # larger noun confidence pulls strictly toward the noun boundary
                assert fused[0] < previous[0]
                assert fused[1] < previous[1]
            previous = fused


class TestFuseAtMeanWeights:
    def test_average(self):
        assert fuse((10.0, 20.0), (14.0, 24.0), MEAN_WEIGHTS) == (12.0, 22.0)

    def test_idempotent_on_equal_inputs(self):
        assert fuse((3.0, 7.0), (3.0, 7.0), MEAN_WEIGHTS) == (3.0, 7.0)

    def test_plain_case(self):
        assert fuse((0.0, 10.0), (10.0, 20.0), MEAN_WEIGHTS) == (5.0, 15.0)


class TestFuseProposals:
    PROPOSALS = proposal_columns([ProposalRecord("P01", 0, (0.0, 10.0), np.array([0.9]),
                                                 (2.0, 12.0), np.array([0.2]))])

    @pytest.mark.parametrize("mode", ["Mean", "DWF", ""])
    def test_unknown_mode_is_rejected(self, mode):
        with pytest.raises(InvalidConfig, match=repr(mode)):
            fuse_proposals(self.PROPOSALS, mode)
