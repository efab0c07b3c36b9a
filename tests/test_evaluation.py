"""Evaluator tests, including the brute-force oracle used by acceptance.

The oracle re-implements greedy matching and envelope interpolation with
plain loops and no shared code, so agreement is meaningful.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    ActionDetection,
    GroundTruthInstance,
    detection_objects,
    legacy_average_precision,
    oracle_ap,
    oracle_mean_ap,
    oracle_mean_ap_legacy,
    score_objects,
    sort_detections,
    tables,
)
from tadfusion import evaluation, pipeline
from tadfusion.cli import main
from tadfusion.errors import InvalidConfig
from tadfusion.evaluation import EvalConfig, average_precisions
from tadfusion.pipeline import evaluate_files


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


def replace_video(d, video):
    return det(d.start, d.end, d.score, d.verb_index, d.noun_index, video)


def map_at(tau, dets, gts, task="action"):
    """mAP of ``dets`` at the single threshold ``tau``."""
    return score_objects(dets, gts, EvalConfig(thresholds=(tau,), task=task)).average


def batched(rows):
    """``average_precisions`` of ``rows`` in one call, as floats: each row
    the 1-based ranks of its true positives in score order and its
    ground-truth count."""
    row = np.array([r for r, (hits, _) in enumerate(rows) for _ in hits], dtype=np.intp)
    rank = np.array([h for hits, _ in rows for h in hits], dtype=np.intp)
    num_gt = np.array([n for _, n in rows], dtype=np.intp)
    return [float(ap) for ap in average_precisions(row, rank, num_gt)]


def average_precision(hits, num_gt):
    """``average_precisions`` of the one row ``(hits, num_gt)``."""
    return batched([(hits, num_gt)])[0]


def ap_of(flags, num_gt):
    """``average_precision`` of TP/FP flags in score order."""
    return average_precision([rank for rank, flag in enumerate(flags, 1) if flag], num_gt)


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


class TestMatchDetections:
    """Greedy one-to-one matching, seen through the AP that ``score_columns`` scores."""

    def test_exact_hit(self):
        assert map_at(1.0, [det(0, 10, 0.9)], [gt(0, 10)]) == 1.0

    def test_one_to_one_constraint(self):
        # the duplicate finds gt 0 taken: a false positive, so recall stays 1/2
        dets = sort_detections([det(0, 10, 0.9), det(0.5, 10.5, 0.8)])
        assert map_at(0.5, dets, [gt(0, 10), gt(50, 60)]) == 0.5

    def test_a_detection_whose_best_match_is_taken_tries_its_next(self):
        # the second detection's best ground truth (0, 10) is taken, and its
        # next, (2, 12), overlaps it with tIoU 8/12: a hit at 0.5, not at 0.7
        gts = [gt(0, 10), gt(2, 12)]
        dets = [det(0, 10, 0.9), det(0, 10, 0.8)]
        result = score_objects(dets, gts, EvalConfig(thresholds=(0.5, 0.7)))
        assert result.per_threshold == {0.5: 1.0, 0.7: 0.5}

    def test_wrong_class_is_fp(self):
        dets, gts = [det(0, 10, 0.9, verb=1)], [gt(0, 10, verb=0)]
        assert map_at(0.1, dets, gts) == 0.0
        assert map_at(0.1, dets, gts, task="verb") == 0.0
        assert map_at(0.1, dets, gts, task="noun") == 1.0  # both noun 0

    def test_wrong_video_is_fp(self):
        # the first-ranked detection is on another video: precision 1/2 at the hit
        dets = [det(0, 10, 0.9, video="a"), det(0, 10, 0.8, video="b")]
        assert map_at(0.1, dets[:1], [gt(0, 10, video="b")]) == 0.0
        assert map_at(0.1, dets, [gt(0, 10, video="b")]) == 0.5

    def test_a_full_tie_ranks_by_video_id(self):
        # equal score, start and class: the detection on video "a" ranks
        # first whatever the input order, and it is a false positive
        dets = [det(0, 10, 0.9, video="b"), det(0, 10, 0.9, video="a")]
        assert map_at(0.1, dets, [gt(0, 10, video="b")]) == 0.5


class TestAveragePrecision:
    def test_perfect_single(self):
        assert ap_of([True], 1) == 1.0

    def test_nothing_recalled(self):
        assert ap_of([False], 1) == 0.0

    def test_interpolated_example(self):
        # oracle: enumerate prefix precisions and take envelope maxima
        assert oracle_ap([True, False, True], 2) == pytest.approx(0.5 + 0.5 * (2 / 3))
        assert ap_of([True, False, True], 2) == pytest.approx(5 / 6)

    def test_zero_ground_truth(self):
        assert ap_of([False, False], 0) == 0.0

    def test_trailing_fp_never_increases(self):
        base = ap_of([True, True], 2)
        with_fp = ap_of([True, True, False], 2)
        assert with_fp <= base

    @given(st.lists(st.booleans(), min_size=1, max_size=12), st.integers(1, 6))
    def test_matches_oracle(self, flags, num_gt):
        assert ap_of(flags, num_gt) == pytest.approx(
            oracle_ap(flags, num_gt), abs=1e-12
        )


class TestApSumCutOver:
    """AP adds its step terms as ``np.sum`` does: left to right below 8 terms,
    pairwise from 8 on. Pinned by ``repr``, so a NumPy that changes its
    pairwise block size fails here rather than in a benchmark digest."""

    def test_seven_terms_add_left_to_right(self):
        # 7 hits of 7 ground truths: seven step terms; pairwise grouping and
        # exact summation of the same terms both give 0.4256137237503697
        assert repr(average_precision([2, 3, 7, 18, 19, 20, 23], 7)) == "0.42561372375036977"

    def test_eight_terms_add_pairwise(self):
        # 7 hits of 11 ground truths: seven step terms and the closing one;
        # left to right the same terms give 0.21212121212121213
        assert repr(average_precision([5, 10, 12, 14, 18, 19, 21], 11)) == "0.2121212121212121"


@st.composite
def ap_rows(draw):
    """Rows of true-positive ranks with their ground-truth counts: 0-20
    hits per row, from one with a count equal to its hits (no closing
    term) to one with three times as many ground truths."""
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        hits = sorted(draw(st.sets(st.integers(1, 60), max_size=20)))
        low = max(1, len(hits))
        rows.append((hits, draw(st.one_of(st.just(low), st.integers(low, 3 * low)))))
    return rows


class TestBatchedApIsTheScalarAp:
    """One ``average_precisions`` call gives every row the bits of the
    scalar AP, including the 7- and 8-term sums on either side of
    ``np.sum``'s pairwise cut-over."""

    @given(ap_rows())
    @settings(max_examples=300, deadline=None)
    def test_every_row_matches_the_scalar_ap(self, rows):
        assert [repr(ap) for ap in batched(rows)] == [
            repr(legacy_average_precision(hits, n)) for hits, n in rows]

    @pytest.mark.parametrize("hits, num_gt", [
        ([2, 3, 7, 18, 19, 20, 23], 7),       # 7 terms, no closing term
        ([5, 10, 12, 14, 18, 19, 21], 11),    # 7 step terms and the closing one
        ([1, 3, 4, 9, 11, 12, 17, 30], 8),    # 8 terms, no closing term
        ([2, 3, 5, 7, 11, 13], 9),            # 7 terms with the closing one
    ])
    def test_cut_over_rows_between_others(self, hits, num_gt):
        rows = [([1, 4], 3), (hits, num_gt), ([], 2), ([3], 1)]
        assert [repr(ap) for ap in batched(rows)] == [
            repr(legacy_average_precision(h, n)) for h, n in rows]


class TestRankOrderContract:
    """``evaluate_files`` ranks the detections once for every task."""

    def tied_videos(self):
        # videos listed out of id order; each holds the same (score, start,
        # action) rows, and "b" also a full tie within itself
        rows = [det(0, 10, 0.9), det(0, 12, 0.9), det(5, 10, 0.9), det(0, 10, 0.4, verb=1)]
        dets = [replace_video(d, video) for video in ("c", "a", "b") for d in rows]
        dets.append(replace_video(rows[0], "b"))
        gts = [gt(0, 10, video="b"), gt(0, 12, video="a"), gt(1, 10, verb=1, video="c"),
               gt(0, 9, video="c")]
        return dets, gts

    def files(self, tmp_path, dets, gts, videos):
        """A submission and a ground-truth file of ``dets`` and ``gts``,
        their ``results`` and ``annotations`` listing ``videos`` in order."""
        def entry(x):
            fields = {"verb": x.verb_index, "noun": x.noun_index, "segment": [x.start, x.end]}
            if isinstance(x, ActionDetection):
                fields.update(action=f"{x.verb_index},{x.noun_index}", score=x.score)
            return fields

        paths = tmp_path / f"s-{videos}.json", tmp_path / f"g-{videos}.json"
        paths[0].write_text(json.dumps({"version": "0.1", "challenge": "action_detection",
                                        "results": {v: [entry(d) for d in dets
                                                        if d.video_id == v] for v in videos}}))
        paths[1].write_text(json.dumps({"annotations": {
            v: [entry(g) for g in gts if g.video_id == v] for v in videos}}))
        return paths

    def test_evaluate_files_ranks_ties_in_video_id_order(self, monkeypatch):
        # the detections reach the score in rank order, a full tie in video
        # id order and then in each video's own order
        dets, gts = self.tied_videos()
        seen, score_columns = [], pipeline.score_columns

        def recording(ranked, truth, cfg):
            seen.append(ranked)
            return score_columns(ranked, truth, cfg)

        monkeypatch.setattr(pipeline, "score_columns", recording)
        evaluate_files(*tables(dets, gts), EXACT_THRESHOLDS)
        assert len(seen) == 3
        expected = sorted(
            ((-d.score, d.start, d.action_id, d.video_id, i, d.end)
             for i, d in enumerate(dets)), key=lambda key: key[:5])
        for ranked in seen:
            assert ranked.video.tolist() == ["abc".index(key[3]) for key in expected]
            assert ranked.end.tolist() == [key[5] for key in expected]

    def test_files_ignore_the_order_in_which_they_list_videos(self, tmp_path, capsys):
        # "c", "a", "b" and the sorted "a", "b", "c" give the same eval text
        # and nms bytes; a video's own rows keep their order
        dets, gts = self.tied_videos()
        out = []
        for videos in ("cab", "abc"):
            submission, truth = self.files(tmp_path, dets, gts, list(videos))
            assert main(["eval", "--submission", str(submission),
                         "--ground-truth", str(truth)]) == 0
            assert main(["nms", "--input", str(submission)]) == 0
            out.append(capsys.readouterr().out)
        assert out[0] == out[1]
        assert '"results": {\n    "a": [' in out[0]

    @pytest.mark.parametrize("task", ["verb", "noun", "action"])
    def test_identical_rows_on_two_videos_score_as_the_legacy_evaluator(self, task):
        dets, gts = self.tied_videos()
        per_threshold, average = oracle_mean_ap_legacy(dets, gts, EXACT_THRESHOLDS, task)
        got = score_objects(dets, gts, EvalConfig(thresholds=EXACT_THRESHOLDS, task=task))
        assert [repr(got.per_threshold[t]) for t in EXACT_THRESHOLDS] == [
            repr(per_threshold[t]) for t in EXACT_THRESHOLDS]
        assert repr(got.average) == repr(average)


class TestMeanAp:
    def test_empty_detections(self):
        result = score_objects([], [gt(0, 10)], EvalConfig())
        assert all(v == 0.0 for v in result.per_threshold.values())
        assert result.average == 0.0

    def test_perfect_detections(self):
        gts = [gt(0, 10, verb=0), gt(20, 30, verb=1), gt(40, 50, verb=2)]
        dets = [det(0, 10, 0.9, verb=0), det(20, 30, 0.8, verb=1), det(40, 50, 0.7, verb=2)]
        result = score_objects(dets, gts, EvalConfig(task="verb"))
        assert all(v == 1.0 for v in result.per_threshold.values())
        assert result.average == 1.0

    def test_shifted_detection_drops_at_higher_threshold(self):
        # det (1, 20) vs gt (0, 10): intersection 9, union 20 -> tIoU 0.45
        gts = [gt(0, 10, verb=0), gt(20, 30, verb=1), gt(40, 50, verb=2)]
        dets = [det(1, 20, 0.9, verb=0), det(20, 30, 0.8, verb=1), det(40, 50, 0.7, verb=2)]
        result = score_objects(dets, gts, EvalConfig(task="verb"))
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
        result = score_objects(dets, gts, EvalConfig(task="verb"))
        values = [result.per_threshold[t] for t in (0.1, 0.2, 0.3, 0.4, 0.5)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_score_order_invariance(self):
        # AP depends only on the ranking, not the score magnitudes
        gts = [gt(0, 10), gt(20, 30)]
        dets_a = [det(0, 10, 0.9), det(21, 31, 0.5), det(5, 15, 0.2)]
        dets_b = [det(0, 10, 0.99), det(21, 31, 0.98), det(5, 15, 0.97)]
        res_a = score_objects(dets_a, gts, EvalConfig(task="verb"))
        res_b = score_objects(dets_b, gts, EvalConfig(task="verb"))
        assert res_a.per_threshold == res_b.per_threshold

    def test_action_task_uses_pair_identity(self):
        gts = [gt(0, 10, verb=1, noun=2)]
        dets = [det(0, 10, 0.9, verb=1, noun=3)]
        result = score_objects(dets, gts, EvalConfig(task="action"))
        assert result.average == 0.0
        dets = [det(0, 10, 0.9, verb=1, noun=2)]
        result = score_objects(dets, gts, EvalConfig(task="action"))
        assert result.average == 1.0

    def test_oracle_equivalence_randomized(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            dets, gts = random_instance(rng)
            for tau in (0.1, 0.3, 0.5):
                expected = oracle_mean_ap(dets, gts, tau, "verb")
                got = score_objects(dets, gts, EvalConfig(thresholds=(tau,), task="verb"))
                assert got.per_threshold[tau] == pytest.approx(expected, abs=1e-12)

    def test_a_union_past_the_float_maximum_scores_as_a_scaled_copy(self, tmp_path, capsys):
        # tIoU 1.35 / 2.05: at scale 1e308 the union of the two segments is
        # past the float maximum (about 1.8e308), and neither length is
        cfg = tmp_path / "eval.cfg"
        cfg.write_text("eval_thresholds = 0.6,0.7\n")

        def metrics(scale):
            submission, truth = tmp_path / "submission.json", tmp_path / "truth.json"
            submission.write_text(json.dumps({"version": "0.1", "challenge": "action_detection",
                                              "results": {"v": [
                {"verb": 3, "noun": 5, "action": "3,5", "score": 0.9,
                 "segment": [-0.85 * scale, 0.85 * scale]}]}}))
            truth.write_text(json.dumps({"annotations": {"v": [
                {"verb": 3, "noun": 5, "segment": [-0.5 * scale, 1.2 * scale]}]}}))
            assert main(["eval", "--submission", str(submission), "--ground-truth", str(truth),
                         "--config", str(cfg)]) == 0
            return capsys.readouterr().out

        out = metrics(1e308)
        assert out == metrics(1e308 * 2.0**-8)
        assert "action_map_avg = 0.5000" in out  # a hit at 0.6, not at 0.7

    def test_invalid_config(self):
        with pytest.raises(InvalidConfig):
            EvalConfig(thresholds=(0.5, 0.1))
        with pytest.raises(InvalidConfig):
            EvalConfig(task="other")


# -- the evaluator pinned bit for bit to the per-threshold one ------------------

EXACT_THRESHOLDS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.75, 0.9, 1.0)


def grid_instance(rng):
    """Half-second-grid detections and ground truth that exercise every
    matching and summing case: several videos and a video with no ground
    truth, tied scores and intervals, exact hits, a detection overlapping
    two ground truths equally, a class with ground truth and no detection,
    and a crowded class whose AP adds 10 step terms."""
    videos = ["v0", "v1", "v2"]
    gts, dets = [], []
    for _ in range(int(rng.integers(3, 12))):
        start = int(rng.integers(0, 20)) / 2
        gts.append(gt(start, start + int(rng.integers(1, 6)) / 2, verb=int(rng.integers(3)),
                      noun=int(rng.integers(2)), video=str(rng.choice(videos))))
    for _ in range(int(rng.integers(0, 25))):
        start = int(rng.integers(0, 20)) / 2
        dets.append(det(start, start + int(rng.integers(1, 6)) / 2,
                        score=float(rng.choice([0.2, 0.5, 0.9, rng.uniform(0.01, 1.0)])),
                        verb=int(rng.integers(3)), noun=int(rng.integers(2)),
                        video=str(rng.choice(videos + ["no_gt"]))))
    for i in range(10):
        crowded = gt(100.0 + 2 * i, 101.0 + 2 * i, verb=3, video="v0")
        gts.append(crowded)
        shift = float(rng.choice([0.0, 0.0, 0.5, -0.5]))
        dets.append(det(crowded.start + shift, crowded.end + shift,
                        score=float(rng.choice([0.5, rng.uniform(0.01, 1.0)])),
                        verb=3, video="v0"))
    gts += [gt(200.0, 202.0, verb=4, video="v1"), gt(201.0, 203.0, verb=4, video="v1"),
            gt(0.0, 1.0, verb=5, noun=1, video="v2")]
    # tIoU 0.5 with both; taking the first leaves the later exact hit unmatched
    dets += [det(201.0, 202.0, score=0.5, verb=4, video="v1"),
             det(200.0, 202.0, score=0.4, verb=4, video="v1")]
    return dets, gts


class TestMeanApExact:
    @pytest.mark.parametrize("task", ["verb", "noun", "action"])
    def test_matches_per_threshold_evaluator_bit_for_bit(self, task):
        rng = np.random.default_rng(2024)
        cfg = EvalConfig(thresholds=EXACT_THRESHOLDS, task=task)
        for _ in range(200):
            dets, gts = grid_instance(rng)
            per_threshold, average = oracle_mean_ap_legacy(dets, gts, EXACT_THRESHOLDS, task)
            got = score_objects(dets, gts, cfg)
            assert [repr(got.per_threshold[t]) for t in EXACT_THRESHOLDS] == [
                repr(per_threshold[t]) for t in EXACT_THRESHOLDS]
            assert repr(got.average) == repr(average)

    def test_evaluate_files_matches_per_threshold_evaluator_bit_for_bit(self):
        # grid instances hold tied scores and a video only in the submission;
        # each adds a video only in the ground truth, and every tenth is
        # scored as an empty submission
        rng = np.random.default_rng(2025)
        for i in range(120):
            dets, gts = grid_instance(rng)
            gts.append(gt(3.0, 4.5, verb=1, video="gt_only"))
            if i % 10 == 0:
                dets = []
            doc, truth = tables(dets, gts)
            results = evaluate_files(doc, truth, EXACT_THRESHOLDS)
            for task in ("verb", "noun", "action"):
                per_threshold, average = oracle_mean_ap_legacy(
                    detection_objects(doc), gts, EXACT_THRESHOLDS, task)
                got = results[task]
                assert [repr(got.per_threshold[t]) for t in EXACT_THRESHOLDS] == [
                    repr(per_threshold[t]) for t in EXACT_THRESHOLDS]
                assert repr(got.average) == repr(average)

    def test_equal_overlaps_go_to_the_earliest_ground_truth(self):
        gts = [gt(200.0, 202.0), gt(201.0, 203.0)]
        dets = [det(201.0, 202.0, 0.9), det(200.0, 202.0, 0.8)]
        # the first detection takes gt 0, so the exact hit on gt 0 is a false
        # positive and recall stays 1/2; listed the other way round, both hit
        assert map_at(0.5, dets, gts) == 0.5
        assert map_at(0.5, dets, gts[::-1]) == 1.0


class TestJoinChunks:
    """The join is built a run of detections at a time. Wherever the runs
    are cut, inside one (class, video) block of ground truth too, every
    metric keeps its bits."""

    @pytest.mark.parametrize("chunk", [1, 2, 3, 17])
    def test_metrics_do_not_depend_on_the_chunk_size(self, monkeypatch, chunk):
        rng = np.random.default_rng(29)
        instances = [grid_instance(rng) for _ in range(125)]
        configs = [EvalConfig(thresholds=EXACT_THRESHOLDS, task=task)
                   for task in ("verb", "noun", "action")]

        def metrics():
            return [repr(score_objects(dets, gts, cfg))
                    for dets, gts in instances for cfg in configs]

        want = metrics()
        monkeypatch.setattr(evaluation, "_JOIN_CHUNK", chunk)
        assert metrics() == want
