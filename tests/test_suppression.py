import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import oracle_soft_nms, oracle_suppress_video
from tadfusion.errors import InvalidConfig
from tadfusion.suppression import (
    ActionDetection,
    NmsConfig,
    NOUN_NMS,
    VERB_ACTION_NMS,
    detection_columns,
    soft_nms,
    suppress_video,
    temporal_iou,
)


def det(start, end, score, action_id=0, verb=0, noun=0, video="v"):
    return ActionDetection(
        video_id=video,
        start=start,
        end=end,
        verb_index=verb,
        noun_index=noun,
        action_id=action_id,
        score=score,
    )


def suppress(dets, cfg, class_key):
    """``suppress_video`` over the columns of detection objects, with the
    kept columns back as objects."""
    kept = suppress_video(detection_columns(dets), cfg, class_key=class_key)
    return [ActionDetection("v", *row) for row in kept.tolist()]


VOTE_065 = NmsConfig(sigma=0.6, min_score=0.005, vote_threshold=0.65)


class TestActionDetection:
    def test_nan_boundary_rejected(self):
        with pytest.raises(InvalidConfig):
            det(math.nan, 1.0, 0.5)
        with pytest.raises(InvalidConfig):
            det(0.0, math.nan, 0.5)


class TestTemporalIou:
    def test_partial_overlap(self):
        assert temporal_iou((5, 15), (10, 20)) == pytest.approx(5 / 15)

    def test_identical(self):
        assert temporal_iou((3, 9), (3, 9)) == 1.0

    def test_disjoint(self):
        assert temporal_iou((0, 1), (2, 3)) == 0.0

    @given(
        st.floats(0, 100), st.floats(0.1, 50),
        st.floats(0, 100), st.floats(0.1, 50),
    )
    def test_bounded_and_symmetric(self, s1, l1, s2, l2):
        a, b = (s1, s1 + l1), (s2, s2 + l2)
        iou = temporal_iou(a, b)
        assert 0.0 <= iou <= 1.0
        assert iou == pytest.approx(temporal_iou(b, a))


class TestPresets:
    def test_preset_constants(self):
        assert (NOUN_NMS.sigma, NOUN_NMS.min_score, NOUN_NMS.vote_threshold) == (
            0.6, 0.005, 0.65,
        )
        assert (
            VERB_ACTION_NMS.sigma,
            VERB_ACTION_NMS.min_score,
            VERB_ACTION_NMS.vote_threshold,
        ) == (0.4, 0.001, 0.75)
        assert NOUN_NMS.pre_nms_cap == 5000
        assert NOUN_NMS.max_per_video == 3000

    def test_invalid_config_rejected(self):
        with pytest.raises(InvalidConfig):
            NmsConfig(sigma=0.0, min_score=0.001, vote_threshold=0.75)
        with pytest.raises(InvalidConfig):
            NmsConfig(sigma=0.4, min_score=0.001, vote_threshold=1.5)


class TestSoftNms:
    def test_disjoint_pass_through(self):
        dets = [det(0, 1, 0.9), det(5, 6, 0.4)]
        kept = soft_nms(dets, VERB_ACTION_NMS)
        assert [d.score for d in kept] == [0.9, 0.4]
        assert [d.interval for d in kept] == [(0, 1), (5, 6)]

    def test_duplicate_decay_oracle(self):
        # oracle: independent evaluation of the Gaussian decay
        dets = [det(0, 10, 0.9), det(0, 10, 0.5)]
        kept = soft_nms(dets, VERB_ACTION_NMS)
        expected = 0.5 * math.exp(-1.0 / 0.4)
        assert expected == pytest.approx(0.04104, abs=1e-5)
        assert len(kept) == 2
        assert kept[1].score == pytest.approx(expected)

    def test_half_overlap_decay_oracle(self):
        # tIoU 0.5 at sigma 0.4 decays a unit score to exp(-0.625) ~ 0.53526
        dets = [det(0, 10, 1.0), det(5, 10, 0.99)]
        assert temporal_iou((0, 10), (5, 10)) == pytest.approx(0.5)
        kept = soft_nms(dets, VERB_ACTION_NMS)
        assert math.exp(-0.5**2 / 0.4) == pytest.approx(0.53526, abs=1e-5)
        assert kept[1].score == pytest.approx(0.99 * math.exp(-0.625))

    def test_decay_below_min_score_drops(self):
        dets = [det(0, 10, 0.9), det(0, 10, 0.01)]
        kept = soft_nms(dets, VERB_ACTION_NMS)
        # 0.01 * exp(-2.5) = 0.00082 < 0.001
        assert len(kept) == 1

    def test_scores_never_increase(self):
        rng = np.random.default_rng(0)
        dets = [
            det(s, s + l, sc)
            for s, l, sc in zip(
                rng.uniform(0, 30, 40), rng.uniform(1, 10, 40), rng.uniform(0.01, 1, 40)
            )
        ]
        by_interval = {d.interval: d.score for d in dets}
        kept = soft_nms(dets, NOUN_NMS)
        assert len(kept) <= len(dets)
        for d in kept:
            assert d.score <= by_interval[d.interval] + 1e-12

    def test_sigma_to_zero_reproduces_hard_nms(self):
        cfg = NmsConfig(sigma=1e-6, min_score=0.001, vote_threshold=0.75)
        dets = [det(0, 10, 0.9), det(1, 11, 0.8), det(20, 30, 0.7)]
        kept = soft_nms(dets, cfg)
        assert [d.interval for d in kept] == [(0, 10), (20, 30)]

    def test_voting_moves_intervals_only_with_flag(self):
        dets = [det(10, 20, 0.8), det(12, 22, 0.2)]
        assert temporal_iou((10, 20), (12, 22)) >= 0.65
        plain = soft_nms(dets, VOTE_065)
        assert plain[0].interval == (10, 20)
        voted = soft_nms(dets, VOTE_065, vote=True)
        assert voted[0].start == pytest.approx(10.4)
        assert voted[0].end == pytest.approx(20.4)

    def test_vote_without_neighbor_above_threshold_keeps_interval(self):
        kept = soft_nms([det(10, 20, 0.8), det(100, 110, 0.5)], VOTE_065, vote=True)
        assert kept[0].interval == (10, 20)

    def test_vote_is_score_weighted_average(self):
        kept = soft_nms([det(10, 20, 0.8), det(12, 22, 0.2)], VOTE_065, vote=True)
        assert kept[0].start == pytest.approx(10.4)
        assert kept[0].end == pytest.approx(20.4)
        assert kept[0].score == 0.8

    def test_vote_over_identical_intervals_keeps_interval(self):
        dets = [det(5, 9, 0.6), det(5, 9, 0.3), det(5, 9, 0.1)]
        kept = soft_nms(dets, VERB_ACTION_NMS, vote=True)
        assert kept[0].start == pytest.approx(5.0)
        assert kept[0].end == pytest.approx(9.0)


def random_pool(rng):
    """0-24 detections of one class. Gridded pools give tied starts and
    touching, nested and identical intervals; score modes give tied
    scores, scores of exactly 0 and 1, and all-zero pools."""
    gridded = rng.random() < 0.6
    draw_score = {
        "grid": lambda: rng.choice([0.0, 1.0, 0.5, 0.25, 1e-3]),
        "binary": lambda: rng.choice([0.0, 1.0]),
        "zero": lambda: 0.0,
        "uniform": rng.random,
    }[rng.choice(["grid", "binary", "zero", "uniform"])]
    dets = []
    for _ in range(rng.randrange(25)):
        if gridded:
            start, length = 0.5 * rng.randrange(21), rng.choice([0.5, 1.0, 2.0, 5.0])
        else:
            start, length = rng.uniform(0, 30), rng.uniform(0.1, 10)
        dets.append(det(start, start + length, draw_score(), action_id=rng.randrange(3)))
    return dets


class TestSoftNmsMatchesOracle:
    CONFIGS = [
        cfg
        for preset in (NOUN_NMS, VERB_ACTION_NMS)
        for cfg in (preset, replace(preset, max_per_video=3))
    ]

    def test_bit_identical_on_2400_pools(self):
        rng = random.Random(6)
        for _ in range(2400):
            dets = random_pool(rng)
            for cfg in self.CONFIGS:
                for vote in (False, True):
                    assert soft_nms(dets, cfg, vote=vote) == oracle_soft_nms(dets, cfg, vote)

    def test_empty_pool(self):
        assert soft_nms([], VERB_ACTION_NMS, vote=True) == []

    def test_nan_overlap_of_two_infinite_starts_does_not_decay(self):
        dets = [det(-math.inf, 1.0, 0.9), det(-math.inf, 2.0, 0.5)]
        kept = soft_nms(dets, VERB_ACTION_NMS)
        assert kept == oracle_soft_nms(dets, VERB_ACTION_NMS)
        assert [d.score for d in kept] == [0.9, 0.5]


class TestSuppressVideoMatchesOracle:
    def test_identical_on_600_videos(self):
        # class keys that disagree with the action ids tie rank keys
        # across pools; small caps cut pools and the merged output
        rng = random.Random(12)
        for _ in range(600):
            dets = [replace(d, verb_index=rng.randrange(3), noun_index=rng.randrange(2))
                    for _ in range(rng.randrange(1, 4)) for d in random_pool(rng)]
            cfg = replace(rng.choice(TestSoftNmsMatchesOracle.CONFIGS),
                          pre_nms_cap=rng.choice([1, 4, 5000]),
                          max_per_video=rng.choice([1, 3, 3000]))
            for class_key in ("verb", "noun", "action"):
                assert suppress(dets, cfg, class_key) == oracle_suppress_video(
                    dets, cfg, class_key)


class TestSuppressVideo:
    def test_one_detection_per_class_all_kept(self):
        dets = [det(0, 10, 0.9, action_id=1), det(0, 10, 0.8, action_id=2)]
        kept = suppress(dets, VERB_ACTION_NMS, class_key="action")
        assert len(kept) == 2

    def test_max_per_video_cap(self):
        cfg = NmsConfig(sigma=0.4, min_score=0.001, vote_threshold=0.75, max_per_video=3)
        dets = [det(10 * i, 10 * i + 5, 0.1 + 0.01 * i, action_id=i) for i in range(6)]
        kept = suppress(dets, cfg, class_key="action")
        assert len(kept) == 3
        assert [d.action_id for d in kept] == [5, 4, 3]

    def test_class_isolation(self):
        dets = [det(0, 10, 0.9, action_id=1), det(0, 10, 0.9, action_id=2)]
        kept = suppress(dets, VERB_ACTION_NMS, class_key="action")
        assert len(kept) == 2
        assert all(d.score == 0.9 for d in kept)

    def test_pre_nms_cap_applied_globally(self):
        cfg = NmsConfig(
            sigma=0.4, min_score=0.001, vote_threshold=0.75, pre_nms_cap=4, max_per_video=10
        )
        dets = [det(10 * i, 10 * i + 5, 0.1 + 0.01 * i, action_id=i) for i in range(8)]
        kept = suppress(dets, cfg, class_key="action")
        assert len(kept) == 4
        assert {d.action_id for d in kept} == {4, 5, 6, 7}

    def test_group_by_verb_or_noun(self):
        dets = [
            det(0, 10, 0.9, action_id=1, verb=1, noun=3),
            det(0, 10, 0.5, action_id=2, verb=1, noun=4),
        ]
        by_verb = suppress(dets, VERB_ACTION_NMS, class_key="verb")
        assert len(by_verb) == 2
        assert by_verb[1].score == pytest.approx(0.5 * math.exp(-2.5))
        by_noun = suppress(dets, VERB_ACTION_NMS, class_key="noun")
        assert all(d.score in (0.9, 0.5) for d in by_noun)

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_kept_subset_with_bounded_scores(self, data):
        n = data.draw(st.integers(1, 25))
        starts = data.draw(st.lists(st.floats(0, 50), min_size=n, max_size=n))
        lengths = data.draw(st.lists(st.floats(0.5, 10), min_size=n, max_size=n))
        scores = data.draw(st.lists(st.floats(0.01, 1), min_size=n, max_size=n))
        actions = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        dets = [
            det(s, s + l, sc, action_id=a)
            for s, l, sc, a in zip(starts, lengths, scores, actions)
        ]
        kept = suppress(dets, VERB_ACTION_NMS, class_key="action")
        assert len(kept) <= len(dets)
        out_scores = [d.score for d in kept]
        assert out_scores == sorted(out_scores, reverse=True)
        assert all(0.0 <= s <= 1.0 for s in out_scores)
