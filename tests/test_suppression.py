import json
import math
import random
from dataclasses import replace
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    ActionDetection,
    detection_objects,
    oracle_soft_nms,
    oracle_suppress_video,
    soft_nms_objects,
    video_table,
)
from tadfusion import suppression
from tadfusion.cli import main
from tadfusion.errors import InvalidConfig
from tadfusion.io import VideoTable
from tadfusion.suppression import (
    NmsConfig,
    NOUN_NMS,
    VERB_ACTION_NMS,
    lex_order,
    run_index,
    runs,
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


def suppress(dets, cfg):
    """``suppress_video`` over the table of detection objects, with the
    kept rows back as objects."""
    table = video_table(dets)
    return detection_objects(VideoTable(table.video_ids, suppress_video(table.rows, cfg)))


VOTE_065 = NmsConfig(sigma=0.6, min_score=0.005, vote_threshold=0.65)


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


# grid-snapped floats with heavy ties, -0.0 beside 0.0, and integer groups
# up to the largest the helper accepts
GRID_FLOATS = st.sampled_from([-1.5, -0.25, -0.0, 0.0, 0.25, 1.5])
GROUPS = st.sampled_from([0, 1, 2, 2**32 - 2, 2**32 - 1])


class TestLexOrder:
    """``lex_order`` is ``np.lexsort``, index for index."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_lexsort(self, data):
        n = data.draw(st.integers(0, 150))
        kinds = data.draw(st.lists(st.sampled_from([GRID_FLOATS, GROUPS]), min_size=1,
                                   max_size=3))
        keys = [np.array(data.draw(st.lists(kind, min_size=n, max_size=n)),
                         float if kind is GRID_FLOATS else np.int64) for kind in kinds]
        assert lex_order(*keys).tolist() == np.lexsort(keys).tolist()

    @pytest.mark.parametrize("n", [0, 1, 7])
    @pytest.mark.parametrize("value", [-0.0, 0.0, 2.5, 2**32 - 1])
    def test_all_keys_equal_keep_input_order(self, n, value):
        keys = [np.full(n, value), np.full(n, int(value))]
        assert lex_order(*keys).tolist() == np.lexsort(keys).tolist() == list(range(n))

    def test_signed_zeros_tie(self):
        keys = [np.array([2, 1, 0, 1]), np.array([0.0, -0.0, 0.0, -0.0])]
        assert lex_order(*keys).tolist() == np.lexsort(keys).tolist() == [2, 1, 3, 0]


def oracle_runs(keys):
    """Start and length of each run of equal rows, by ``itertools.groupby``
    over the rows as tuples of Python numbers (``-0.0 == 0.0``)."""
    rows = list(zip(*(key.tolist() for key in keys)))
    first, length = [], []
    for _, run in groupby(range(len(rows)), key=rows.__getitem__):
        run = list(run)
        first.append(run[0])
        length.append(len(run))
    return first, length


class TestRuns:
    """``runs`` and ``run_index`` group rows as ``itertools.groupby`` does."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_equal_groupby(self, data):
        n = data.draw(st.integers(0, 60))
        kinds = data.draw(st.lists(st.sampled_from([GRID_FLOATS, GROUPS]), min_size=1,
                                   max_size=3))
        keys = [np.array(data.draw(st.lists(kind, min_size=n, max_size=n)),
                         float if kind is GRID_FLOATS else np.int64) for kind in kinds]
        first, length = oracle_runs(keys)
        got_first, got_length = runs(*keys)
        assert (got_first.tolist(), got_length.tolist()) == (first, length)
        assert run_index(*keys).tolist() == [i for size in length for i in range(size)]

    def test_signed_zeros_are_one_run(self):
        keys = [np.array([-0.0, 0.0, -0.0, 1.0]), np.array([3, 3, 3, 3])]
        assert [a.tolist() for a in runs(*keys)] == [[0, 3], [3, 1]]
        assert run_index(*keys).tolist() == [0, 1, 2, 0]

    @pytest.mark.parametrize("n", [1, 5])
    def test_all_keys_equal_are_one_run(self, n):
        keys = [np.full(n, 2.5), np.full(n, 7)]
        assert [a.tolist() for a in runs(*keys)] == [[0], [n]]
        assert run_index(*keys).tolist() == list(range(n))

    def test_empty_input_has_no_runs(self):
        keys = [np.array([], float), np.array([], np.int64)]
        assert [a.tolist() for a in runs(*keys)] == [[], []]
        assert run_index(*keys).tolist() == []


# at scale 1e308, two overlapping intervals whose union, but not either
# length, lies past the float maximum (about 1.8e308): tIoU 1.35 / 2.05
WIDE = [(-0.85, 0.85), (-0.5, 1.2)]


def scaled(intervals, scale):
    return [(start * scale, end * scale) for start, end in intervals]


class TestOverflowingUnion:
    """A union past the float maximum is computed from halved ends: the
    tIoU is that of any copy scaled by a power of two, with no warning."""

    def test_temporal_iou_is_scale_free(self):
        big, small = scaled(WIDE, 1e308), scaled(WIDE, 1e308 * 2.0**-8)
        assert float(temporal_iou(*big)) == float(temporal_iou(*small))
        assert temporal_iou(*big) == pytest.approx(1.35 / 2.05)
        # an intersection past the maximum too, and one ordinary pair
        assert temporal_iou((-1e308, 1e308), (-1e308, 1e308)) == 1.0
        starts, ends = np.array([big[1][0], 5.0]), np.array([big[1][1], 15.0])
        ious = temporal_iou((np.array([big[0][0], 10.0]), np.array([big[0][1], 20.0])),
                            (starts, ends))
        assert ious.tolist() == [temporal_iou(*small), 5 / 15]

    def test_soft_nms_decays_as_on_a_scaled_copy(self):
        def kept(scale):
            dets = [det(start, end, score) for (start, end), score
                    in zip(scaled(WIDE, scale), (0.9, 0.8))]
            return [d.score for d in soft_nms_objects(dets, VERB_ACTION_NMS)]

        assert kept(1e308) == kept(1e308 * 2.0**-8)
        assert kept(1e308)[1] < 0.8

    def test_nms_output_is_that_of_a_scaled_copy(self, tmp_path, capsys):
        def nms(scale):
            path = tmp_path / "submission.json"
            path.write_text(json.dumps({"version": "0.1", "challenge": "action_detection",
                                        "results": {"v": [
                {"verb": 3, "noun": 5, "action": "3,5", "segment": [start, end], "score": score}
                for (start, end), score in zip(scaled(WIDE, scale), (0.9, 0.8))]}}))
            assert main(["nms", "--input", str(path)]) == 0
            return json.loads(capsys.readouterr().out)["results"]["v"]

        big, small = nms(1e308), nms(1e308 * 2.0**-8)
        assert [d["score"] for d in big] == [d["score"] for d in small] == [0.9, 0.2705]
        assert [d["segment"] for d in big] == [[x * 2.0**8 for x in d["segment"]] for d in small]


class TestOverflowingVote:
    """A voted boundary whose weighted sum passes the float maximum is the
    vote of a copy scaled by a power of two, scaled back: finite, and bit
    for bit that of any other scaled copy."""

    @pytest.mark.parametrize("segment, scores", [
        ((-0.1e308, 0.85e308), (0.9, 0.8, 0.7)),  # a sum that halving brings back
        ((0.5e308, 1.7e308), (1.0, 1.0, 1.0, 1.0, 1.0)),  # one that needs 2**-4
    ])
    def test_soft_nms_votes_as_on_a_scaled_copy(self, segment, scores):
        def kept(scale):
            dets = [det(segment[0] * scale, segment[1] * scale, score) for score in scores]
            return soft_nms_objects(dets, VERB_ACTION_NMS, vote=True)

        big, small = kept(1.0), kept(2.0**-8)
        assert all(math.isfinite(x) for d in big for x in d.interval)
        assert [d.interval for d in big] == [(d.start * 2.0**8, d.end * 2.0**8) for d in small]
        assert [d.score for d in big] == [d.score for d in small]

    def test_nms_writes_json_that_nms_and_eval_read_back(self, tmp_path, capsys):
        def reject(constant):
            raise ValueError(f"non-finite JSON constant {constant}")

        submission, out = tmp_path / "submission.json", tmp_path / "nms.json"
        submission.write_text(json.dumps({"version": "0.1", "challenge": "action_detection",
                                          "results": {"v": [
            {"verb": 3, "noun": 5, "action": "3,5", "segment": [-0.1e308, 0.85e308],
             "score": score} for score in (0.9, 0.8, 0.7)]}}))
        assert main(["nms", "--input", str(submission), "--output", str(out)]) == 0
        results = json.loads(out.read_text(), parse_constant=reject)["results"]["v"]
        assert [d["score"] for d in results][0] == 0.9
        assert all(math.isfinite(x) for d in results for x in d["segment"])
        truth = tmp_path / "truth.json"
        truth.write_text(json.dumps({"annotations": {"v": [
            {"verb": 3, "noun": 5, "segment": [-0.1e308, 0.85e308]}]}}))
        assert main(["nms", "--input", str(out), "--output", str(tmp_path / "again.json")]) == 0
        assert main(["eval", "--submission", str(out), "--ground-truth", str(truth)]) == 0
        assert "action_map_avg = 1.0000" in capsys.readouterr().out


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
        kept = soft_nms_objects(dets, VERB_ACTION_NMS)
        assert [d.score for d in kept] == [0.9, 0.4]
        assert [d.interval for d in kept] == [(0, 1), (5, 6)]

    def test_duplicate_decay_oracle(self):
        # oracle: independent evaluation of the Gaussian decay
        dets = [det(0, 10, 0.9), det(0, 10, 0.5)]
        kept = soft_nms_objects(dets, VERB_ACTION_NMS)
        expected = 0.5 * math.exp(-1.0 / 0.4)
        assert expected == pytest.approx(0.04104, abs=1e-5)
        assert len(kept) == 2
        assert kept[1].score == pytest.approx(expected)

    def test_half_overlap_decay_oracle(self):
        # tIoU 0.5 at sigma 0.4 decays a unit score to exp(-0.625) ~ 0.53526
        dets = [det(0, 10, 1.0), det(5, 10, 0.99)]
        assert temporal_iou((0, 10), (5, 10)) == pytest.approx(0.5)
        kept = soft_nms_objects(dets, VERB_ACTION_NMS)
        assert math.exp(-0.5**2 / 0.4) == pytest.approx(0.53526, abs=1e-5)
        assert kept[1].score == pytest.approx(0.99 * math.exp(-0.625))

    def test_decay_below_min_score_drops(self):
        dets = [det(0, 10, 0.9), det(0, 10, 0.01)]
        kept = soft_nms_objects(dets, VERB_ACTION_NMS)
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
        kept = soft_nms_objects(dets, NOUN_NMS)
        assert len(kept) <= len(dets)
        for d in kept:
            assert d.score <= by_interval[d.interval] + 1e-12

    def test_sigma_to_zero_reproduces_hard_nms(self):
        cfg = NmsConfig(sigma=1e-6, min_score=0.001, vote_threshold=0.75)
        dets = [det(0, 10, 0.9), det(1, 11, 0.8), det(20, 30, 0.7)]
        kept = soft_nms_objects(dets, cfg)
        assert [d.interval for d in kept] == [(0, 10), (20, 30)]

    def test_voting_moves_intervals_only_with_flag(self):
        dets = [det(10, 20, 0.8), det(12, 22, 0.2)]
        assert temporal_iou((10, 20), (12, 22)) >= 0.65
        plain = soft_nms_objects(dets, VOTE_065)
        assert plain[0].interval == (10, 20)
        voted = soft_nms_objects(dets, VOTE_065, vote=True)
        assert voted[0].start == pytest.approx(10.4)
        assert voted[0].end == pytest.approx(20.4)

    def test_vote_without_neighbor_above_threshold_keeps_interval(self):
        kept = soft_nms_objects([det(10, 20, 0.8), det(100, 110, 0.5)], VOTE_065, vote=True)
        assert kept[0].interval == (10, 20)

    def test_vote_is_score_weighted_average(self):
        kept = soft_nms_objects([det(10, 20, 0.8), det(12, 22, 0.2)], VOTE_065, vote=True)
        assert kept[0].start == pytest.approx(10.4)
        assert kept[0].end == pytest.approx(20.4)
        assert kept[0].score == 0.8

    def test_vote_over_identical_intervals_keeps_interval(self):
        dets = [det(5, 9, 0.6), det(5, 9, 0.3), det(5, 9, 0.1)]
        kept = soft_nms_objects(dets, VERB_ACTION_NMS, vote=True)
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
                    kept = soft_nms_objects(dets, cfg, vote=vote)
                    assert kept == oracle_soft_nms(dets, cfg, vote)

    def test_empty_pool(self):
        assert suppression.soft_nms([], VERB_ACTION_NMS, vote=True) == []

    def test_nan_overlap_of_two_infinite_starts_does_not_decay(self):
        dets = [det(-math.inf, 1.0, 0.9), det(-math.inf, 2.0, 0.5)]
        kept = soft_nms_objects(dets, VERB_ACTION_NMS)
        assert kept == oracle_soft_nms(dets, VERB_ACTION_NMS)
        assert [d.score for d in kept] == [0.9, 0.5]


class TestSuppressVideoMatchesOracle:
    def test_identical_on_1800_videos(self):
        # several pools of random action ids tie rank keys across pools;
        # small caps cut pools and the merged output
        rng = random.Random(12)
        for _ in range(1800):
            dets = [d._replace(verb_index=rng.randrange(3), noun_index=rng.randrange(2))
                    for _ in range(rng.randrange(1, 4)) for d in random_pool(rng)]
            cfg = replace(rng.choice(TestSoftNmsMatchesOracle.CONFIGS),
                          pre_nms_cap=rng.choice([1, 4, 5000]),
                          max_per_video=rng.choice([1, 3, 3000]))
            assert suppress(dets, cfg) == oracle_suppress_video(dets, cfg, "action")

    @pytest.mark.parametrize("cap", [1, 2, 3, None], ids=["1", "2", "3", "defaults"])
    def test_one_call_on_interleaved_videos_is_the_oracle_per_video(self, cap):
        # rows of 3 videos, interleaved in input order: one call cuts each
        # video's pre-NMS cap and max_per_video, and pools by video and action
        rng = random.Random(31 if cap is None else cap)
        for _ in range(200):
            dets = [d._replace(video_id=rng.choice("cab"))
                    for _ in range(3) for d in random_video(rng)]
            cfg = rng.choice([NOUN_NMS, VERB_ACTION_NMS])
            if cap is not None:
                cfg = replace(cfg, pre_nms_cap=cap, max_per_video=cap)
            per_video = [d for video in sorted({d.video_id for d in dets})
                         for d in oracle_suppress_video(
                             [d for d in dets if d.video_id == video], cfg, "action")]
            assert suppress(dets, cfg) == per_video


SCORES = [1.0, 0.9, 0.5, 0.5, 0.31, 0.3, 0.2, 0.06, 0.05, 0.01, 0.001, 0.0005, 0.0]


def random_video(rng):
    """1-40 detections spread over 5, 30 or 200 s, so class pools split into
    overlap components, plus: copies of some rows with other verb and noun
    indices, which land in the row's own action pool and tie its full rank
    key there; and up to two rows scored 0.0005, 0.01 or 0.2, below some
    tested ``min_score``, placed on the best row, half a second off it, or
    starting where it ends."""
    gridded = rng.random() < 0.5
    span = rng.choice([5, 30, 200])
    dets = []
    for _ in range(rng.randrange(1, 41)):
        if gridded:
            start, length = 0.5 * rng.randrange(2 * span), rng.choice([0.5, 1.0, 2.0, 5.0])
        else:
            start, length = rng.uniform(0, span), rng.uniform(0.1, 10)
        score = rng.choice(SCORES) if rng.random() < 0.7 else rng.random()
        dets.append(det(start, start + length, score, action_id=rng.randrange(3),
                        verb=rng.randrange(3), noun=rng.randrange(2)))
    dets += [d._replace(verb_index=rng.randrange(3), noun_index=rng.randrange(2))
             for d in rng.sample(dets, rng.randrange(min(4, len(dets)) + 1))]
    best = max(dets, key=lambda d: (d.score, -d.start))
    for _ in range(rng.randrange(3)):
        shift = rng.choice([-0.5, 0.0, 0.5, best.end - best.start])
        dets.append(best._replace(start=best.start + shift, end=best.end + shift,
                            action_id=rng.randrange(3), score=rng.choice([0.0005, 0.01, 0.2])))
    rng.shuffle(dets)
    return dets


class TestSuppressVideoOverlapComponents:
    def test_identical_to_the_oracle_on_6000_cases(self):
        # a max_per_video of 3 or 10 leaves pools above it: one component each
        rng = random.Random(17)
        mismatches = 0
        for _ in range(6000):
            dets = random_video(rng)
            cfg = NmsConfig(sigma=rng.choice([0.4, 0.6]),
                            min_score=rng.choice([0.001, 0.05, 0.3]),
                            vote_threshold=rng.choice([0.65, 0.75]),
                            pre_nms_cap=rng.choice([5, 20, 5000]),
                            max_per_video=rng.choice([3, 10, 3000]))
            mismatches += suppress(dets, cfg) != oracle_suppress_video(dets, cfg, "action")
        assert mismatches == 0

    def test_tied_final_scores_keep_the_order_they_were_kept(self):
        # b and a both decay to exactly 0 and are kept at the same start,
        # one ulp past b's own; the rounds keep b first, by its earlier
        # start, although a ranks first by its original score
        start = 3.2
        assert (0.1 * start) / 0.1 == np.nextafter(start, math.inf)
        cfg = NmsConfig(sigma=1e-6, min_score=0.0, vote_threshold=1.0)
        dets = [det(3.0, 13.2, 1.0), det(np.nextafter(start, math.inf), 4.2, 0.5),
                det(start, 13.2, 0.1)]
        kept = suppress(dets, cfg)
        assert kept == oracle_suppress_video(dets, cfg, "action")
        assert [d.score for d in kept] == [1.0, 0.0, 0.0]
        assert kept[1].start == kept[2].start
        assert [d.end for d in kept[1:]] == [(0.1 * 13.2) / 0.1, 4.2]


class TestClassPoolContract:
    """``suppress_video`` calls ``soft_nms`` once per class pool with rows
    that overlap, with the pool's overlapping rows: the benchmark reads the
    class-pool size from these calls."""

    def test_one_call_per_crowded_pool_with_all_its_rows(self, monkeypatch):
        sizes = []
        original = suppression.soft_nms

        def counting(rows, *args, **kwargs):
            sizes.append(len(rows))
            return original(rows, *args, **kwargs)

        monkeypatch.setattr(suppression, "soft_nms", counting)
        # 4 classes, each 10 clusters of 30 overlapping rows
        rng = np.random.default_rng(0)
        dets = [det(100.0 * cluster + offset, 100.0 * cluster + offset + 10.0, score,
                    action_id=action)
                for action in range(4) for cluster in range(10)
                for offset, score in zip(rng.uniform(0, 5, 30), rng.uniform(0.05, 1, 30))]
        kept = suppress(dets, VERB_ACTION_NMS)
        assert sizes == [300] * 4
        assert kept == oracle_suppress_video(dets, VERB_ACTION_NMS, "action")


class TestSuppressVideo:
    def test_one_detection_per_class_all_kept(self):
        dets = [det(0, 10, 0.9, action_id=1), det(0, 10, 0.8, action_id=2)]
        kept = suppress(dets, VERB_ACTION_NMS)
        assert len(kept) == 2

    def test_max_per_video_cap(self):
        cfg = NmsConfig(sigma=0.4, min_score=0.001, vote_threshold=0.75, max_per_video=3)
        dets = [det(10 * i, 10 * i + 5, 0.1 + 0.01 * i, action_id=i) for i in range(6)]
        kept = suppress(dets, cfg)
        assert len(kept) == 3
        assert [d.action_id for d in kept] == [5, 4, 3]

    def test_class_isolation(self):
        dets = [det(0, 10, 0.9, action_id=1), det(0, 10, 0.9, action_id=2)]
        kept = suppress(dets, VERB_ACTION_NMS)
        assert len(kept) == 2
        assert all(d.score == 0.9 for d in kept)

    def test_pre_nms_cap_applied_globally(self):
        cfg = NmsConfig(
            sigma=0.4, min_score=0.001, vote_threshold=0.75, pre_nms_cap=4, max_per_video=10
        )
        dets = [det(10 * i, 10 * i + 5, 0.1 + 0.01 * i, action_id=i) for i in range(8)]
        kept = suppress(dets, cfg)
        assert len(kept) == 4
        assert {d.action_id for d in kept} == {4, 5, 6, 7}

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
        kept = suppress(dets, VERB_ACTION_NMS)
        assert len(kept) <= len(dets)
        out_scores = [d.score for d in kept]
        assert out_scores == sorted(out_scores, reverse=True)
        assert all(0.0 <= s <= 1.0 for s in out_scores)
