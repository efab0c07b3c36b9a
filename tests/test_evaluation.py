"""Evaluator tests, including the brute-force oracle used by acceptance.

The oracle re-implements greedy matching and envelope interpolation with
plain loops and no shared code, so agreement is meaningful.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tadfusion.errors import InvalidConfig
from tadfusion.evaluation import (
    EvalConfig,
    GroundTruthInstance,
    average_precision,
    match_detections,
    mean_ap,
    sort_detections,
)
from tadfusion.suppression import ActionDetection


def det(start, end, score, verb=0, noun=0, video="v"):
    return ActionDetection(
        video_id=video,
        start=start,
        end=end,
        verb_index=verb,
        noun_index=noun,
        action_id=300 * verb + noun,
        score=score,
    )


def gt(start, end, verb=0, noun=0, video="v"):
    return GroundTruthInstance(
        video_id=video, start=start, end=end, verb_index=verb, noun_index=noun
    )


from oracles import oracle_ap, oracle_mean_ap


def random_instance(rng, max_dets=10, max_gts=5, max_classes=3):
    num_classes = int(rng.integers(1, max_classes + 1))
    gts = []
    for _ in range(int(rng.integers(1, max_gts + 1))):
        start = rng.uniform(0, 40)
        gts.append(
            gt(start, start + rng.uniform(1, 10), verb=int(rng.integers(num_classes)))
        )
    dets = []
    for _ in range(int(rng.integers(0, max_dets + 1))):
        start = rng.uniform(0, 40)
        dets.append(
            det(
                start,
                start + rng.uniform(1, 10),
                score=float(rng.uniform(0.01, 1.0)),
                verb=int(rng.integers(num_classes)),
            )
        )
    return dets, gts


# ---------------------------------------------------------------------------


class TestGroundTruthInstance:
    def test_nan_boundary_rejected(self):
        with pytest.raises(InvalidConfig):
            gt(float("nan"), 1.0)
        with pytest.raises(InvalidConfig):
            gt(0.0, float("nan"))


class TestMatchDetections:
    def test_exact_hit(self):
        flags = match_detections([det(0, 10, 0.9)], [gt(0, 10)], tau=1.0)
        assert flags == [True]

    def test_one_to_one_constraint(self):
        dets = sort_detections([det(0, 10, 0.9), det(0.5, 10.5, 0.8)])
        flags = match_detections(dets, [gt(0, 10)], tau=0.5)
        assert flags == [True, False]

    def test_wrong_class_is_fp(self):
        flags = match_detections([det(0, 10, 0.9, verb=1)], [gt(0, 10, verb=0)], tau=0.1)
        assert flags == [False]

    def test_wrong_video_is_fp(self):
        flags = match_detections([det(0, 10, 0.9, video="a")], [gt(0, 10, video="b")], 0.1)
        assert flags == [False]


class TestAveragePrecision:
    def test_perfect_single(self):
        assert average_precision([True], 1) == 1.0

    def test_nothing_recalled(self):
        assert average_precision([False], 1) == 0.0

    def test_interpolated_example(self):
        # oracle: enumerate prefix precisions and take envelope maxima
        assert oracle_ap([True, False, True], 2) == pytest.approx(0.5 + 0.5 * (2 / 3))
        assert average_precision([True, False, True], 2) == pytest.approx(5 / 6)

    def test_zero_ground_truth(self):
        assert average_precision([False, False], 0) == 0.0

    def test_trailing_fp_never_increases(self):
        base = average_precision([True, True], 2)
        with_fp = average_precision([True, True, False], 2)
        assert with_fp <= base

    @given(st.lists(st.booleans(), min_size=1, max_size=12), st.integers(1, 6))
    def test_matches_oracle(self, flags, num_gt):
        assert average_precision(flags, num_gt) == pytest.approx(
            oracle_ap(flags, num_gt), abs=1e-12
        )


class TestMeanAp:
    def test_empty_detections(self):
        result = mean_ap([], [gt(0, 10)], EvalConfig())
        assert all(v == 0.0 for v in result.per_threshold.values())
        assert result.average == 0.0

    def test_perfect_detections(self):
        gts = [gt(0, 10, verb=0), gt(20, 30, verb=1), gt(40, 50, verb=2)]
        dets = [det(0, 10, 0.9, verb=0), det(20, 30, 0.8, verb=1), det(40, 50, 0.7, verb=2)]
        result = mean_ap(dets, gts, EvalConfig(task="verb"))
        assert all(v == 1.0 for v in result.per_threshold.values())
        assert result.average == 1.0

    def test_shifted_detection_drops_at_higher_threshold(self):
        # det (1, 20) vs gt (0, 10): intersection 9, union 20 -> tIoU 0.45
        gts = [gt(0, 10, verb=0), gt(20, 30, verb=1), gt(40, 50, verb=2)]
        dets = [det(1, 20, 0.9, verb=0), det(20, 30, 0.8, verb=1), det(40, 50, 0.7, verb=2)]
        result = mean_ap(dets, gts, EvalConfig(task="verb"))
        for tau in (0.1, 0.2, 0.3, 0.4):
            assert result.per_threshold[tau] == pytest.approx(
                oracle_mean_ap(dets, gts, tau, "verb")
            )
            assert result.per_threshold[tau] == 1.0
        assert result.per_threshold[0.5] == pytest.approx(
            oracle_mean_ap(dets, gts, 0.5, "verb")
        )
        assert result.per_threshold[0.5] == pytest.approx(2 / 3)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(7)
        dets, gts = random_instance(rng, max_dets=10, max_gts=5)
        result = mean_ap(dets, gts, EvalConfig(task="verb"))
        values = [result.per_threshold[t] for t in (0.1, 0.2, 0.3, 0.4, 0.5)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_score_order_invariance(self):
        # AP depends only on the ranking, not the score magnitudes
        gts = [gt(0, 10), gt(20, 30)]
        dets_a = [det(0, 10, 0.9), det(21, 31, 0.5), det(5, 15, 0.2)]
        dets_b = [det(0, 10, 0.99), det(21, 31, 0.98), det(5, 15, 0.97)]
        res_a = mean_ap(dets_a, gts, EvalConfig(task="verb"))
        res_b = mean_ap(dets_b, gts, EvalConfig(task="verb"))
        assert res_a.per_threshold == res_b.per_threshold

    def test_action_task_uses_pair_identity(self):
        gts = [gt(0, 10, verb=1, noun=2)]
        dets = [det(0, 10, 0.9, verb=1, noun=3)]
        result = mean_ap(dets, gts, EvalConfig(task="action"))
        assert result.average == 0.0
        dets = [det(0, 10, 0.9, verb=1, noun=2)]
        result = mean_ap(dets, gts, EvalConfig(task="action"))
        assert result.average == 1.0

    def test_oracle_equivalence_randomized(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            dets, gts = random_instance(rng)
            for tau in (0.1, 0.3, 0.5):
                expected = oracle_mean_ap(dets, gts, tau, "verb")
                got = mean_ap(dets, gts, EvalConfig(thresholds=(tau,), task="verb"))
                assert got.per_threshold[tau] == pytest.approx(expected, abs=1e-12)

    def test_invalid_config(self):
        with pytest.raises(InvalidConfig):
            EvalConfig(thresholds=(0.5, 0.1))
        with pytest.raises(InvalidConfig):
            EvalConfig(task="other")
