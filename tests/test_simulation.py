from dataclasses import fields

import numpy as np
import pytest
from scipy import stats

from oracles import oracle_compare_fusion
from tadfusion.composition import VocabSpec
from tadfusion.errors import InvalidConfig
from tadfusion.simulation import (
    FusionReport,
    ScenarioConfig,
    _score_vector,
    compare_fusion,
    generate_scenario,
    scenario_to_records,
)

SMALL_VOCAB = VocabSpec(noun_count=30, verb_count=12)


def config(**kwargs):
    defaults = dict(num_segments=200, video_length_s=300.0, seed=42, vocab=SMALL_VOCAB)
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


class TestGenerateScenario:
    def test_zero_noise_reproduces_truth(self):
        scenario = generate_scenario(config(sigma_min=0.0, sigma_max=0.0))
        for gt, noun, verb in zip(
            scenario.ground_truth, scenario.noun_boundary, scenario.verb_boundary
        ):
            assert tuple(noun) == pytest.approx(gt.interval)
            assert tuple(verb) == pytest.approx(gt.interval)

    def test_determinism(self):
        a = generate_scenario(config())
        b = generate_scenario(config())
        for field in ("noun_boundary", "verb_boundary", "noun_confidence", "verb_confidence"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
        for ra, rb in zip(scenario_to_records(a), scenario_to_records(b)):
            np.testing.assert_array_equal(ra.noun_scores, rb.noun_scores)
        for ga, gb in zip(a.ground_truth, b.ground_truth):
            assert ga == gb

    def test_different_seeds_differ(self):
        a = generate_scenario(config(seed=1))
        b = generate_scenario(config(seed=2))
        assert np.any(a.noun_boundary != b.noun_boundary)

    def test_score_maximum_equals_drawn_confidence(self):
        scenario = generate_scenario(config())
        records = scenario_to_records(scenario)
        for record, gt, drawn in zip(records, scenario.ground_truth, scenario.noun_confidence):
            top = int(np.argmax(record.noun_scores))
            assert top == gt.noun_index
            assert record.noun_scores[top] == drawn
            # filler mass is strictly below the true-class confidence
            others = np.delete(record.noun_scores, top)
            assert others.max() < record.noun_scores[top]

    def test_boundaries_inside_video(self):
        cfg = config(sigma_min=0.5, sigma_max=2.0, video_length_s=50.0)
        scenario = generate_scenario(cfg)
        for stream in (scenario.noun_boundary, scenario.verb_boundary):
            for start, end in stream:
                assert 0.0 <= start < end <= 50.0

    def test_alignment_one_pair_per_segment(self):
        scenario = generate_scenario(config())
        assert (
            len(scenario.ground_truth)
            == len(scenario.noun_boundary)
            == len(scenario.verb_boundary)
            == len(scenario.noun_confidence)
            == len(scenario.verb_confidence)
            == 200
        )

    def test_invalid_config_rejected(self):
        with pytest.raises(InvalidConfig):
            ScenarioConfig(num_segments=0)
        with pytest.raises(InvalidConfig):
            ScenarioConfig(confidence_lo=0.9, confidence_hi=0.2)
        with pytest.raises(InvalidConfig):
            ScenarioConfig(sigma_min=1.0, sigma_max=0.5)
        with pytest.raises(InvalidConfig):
            ScenarioConfig(video_length_s=2.0, max_segment_s=8.0)

    def test_zero_confidence(self):
        # DWF is undefined when both streams have confidence 0
        with pytest.raises(InvalidConfig, match="confidence_hi"):
            ScenarioConfig(confidence_lo=0.0, confidence_hi=0.0)
        # a zero draw (possible when confidence_lo = 0) scores nothing
        assert _score_vector(300, 5, 0.0).max() == 0.0


class TestCompareFusion:
    def test_zero_noise_zero_error(self):
        scenario = generate_scenario(config(sigma_min=0.0, sigma_max=0.0))
        report = compare_fusion(scenario)
        # the hard mean of two exact copies is exact
        assert report.mean_abs_err_mean == 0.0
        # dwf weights sum to C/(C+eps) < 1, so at eps=1e-6 the fused
        # boundary carries a shrinkage bias of at most |b*| * eps / C
        max_coord = max(gt.end for gt in scenario.ground_truth)
        min_conf = 2 * scenario.config.confidence_lo
        assert report.mean_abs_err_dwf <= 2 * max_coord * 1e-6 / min_conf
        # in the eps -> 0 limit the error vanishes up to float rounding
        limit = compare_fusion(scenario, epsilon=1e-300)
        assert limit.mean_abs_err_dwf < 1e-12

    def test_symmetric_regime_gap_within_noise(self):
        # equal confidences force symmetric weights: the two strategies
        # agree up to the epsilon scaling, so the gap is dominated by
        # Monte-Carlo noise of the *same draws* and is essentially zero
        cfg = config(
            num_segments=10_000,
            confidence_lo=0.6,
            confidence_hi=0.6,
            sigma_min=0.05,
            sigma_max=0.3,
            video_length_s=2000.0,
        )
        report = compare_fusion(generate_scenario(cfg))
        gap = report.mean_abs_err_dwf - report.mean_abs_err_mean
        diffs = report.per_segment_dwf - report.per_segment_mean
        stderr = float(np.std(diffs, ddof=1) / np.sqrt(len(diffs))) + 1e-12
        assert abs(gap) < 3 * stderr + 1e-6

    def test_asymmetric_regime_dwf_wins(self):
        cfg = config(
            num_segments=10_000,
            confidence_lo=0.1,
            confidence_hi=0.95,
            sigma_min=0.05,
            sigma_max=1.0,
            video_length_s=2000.0,
        )
        report = compare_fusion(generate_scenario(cfg))
        assert report.mean_abs_err_dwf < report.mean_abs_err_mean
        assert report.p_value < 0.01
        # confidence anti-correlates with realized boundary error here
        assert report.confidence_error_correlation < 0.0
        # cross-check the reported p-value against scipy directly
        check = stats.ttest_rel(
            report.per_segment_dwf, report.per_segment_mean, alternative="less"
        )
        assert report.p_value == pytest.approx(float(check.pvalue))

    def test_report_determinism(self):
        a = compare_fusion(generate_scenario(config()))
        b = compare_fusion(generate_scenario(config()))
        assert a.mean_abs_err_dwf == b.mean_abs_err_dwf
        assert a.mean_abs_err_mean == b.mean_abs_err_mean
        np.testing.assert_array_equal(a.per_segment_dwf, b.per_segment_dwf)


class TestCompareFusionOracle:
    """The array pass equals the segment-at-a-time scalar form bit for bit."""

    @pytest.mark.parametrize("epsilon", [1e-6, 1e-300])
    @pytest.mark.parametrize("overrides", [
        {},
        dict(vocab=VocabSpec(noun_count=1, verb_count=1)),
        dict(vocab=VocabSpec(noun_count=2, verb_count=3)),
        dict(confidence_lo=0.6, confidence_hi=0.6),
        dict(sigma_min=0.0, sigma_max=0.0),
        dict(confidence_lo=0.0),
        dict(num_segments=1),
        dict(num_segments=2),
    ])
    def test_matches_oracle(self, overrides, epsilon):
        for seed in range(6):
            scenario = generate_scenario(config(seed=seed, **overrides))
            got = compare_fusion(scenario, epsilon)
            want = oracle_compare_fusion(scenario, epsilon)
            for f in fields(FusionReport):
                a, b = getattr(got, f.name), getattr(want, f.name)
                if isinstance(a, np.ndarray):
                    assert a.tobytes() == b.tobytes(), (seed, f.name)
                else:
                    assert repr(a) == repr(b), (seed, f.name)


class TestScenarioToRecords:
    def test_record_per_segment_with_seconds_round_trip(self):
        from tadfusion.timeline import FeatureGrid, intervals_to_seconds

        scenario = generate_scenario(config(num_segments=20))
        records = scenario_to_records(scenario)
        assert len(records) == 20
        grid = FeatureGrid()
        for record, noun in zip(records, scenario.noun_boundary):
            if record.noun_boundary[0] >= 0:  # clamping region excluded
                (start,), (end,), (kept,) = intervals_to_seconds(
                    *np.array([record.noun_boundary]).T, [0], grid)
                assert kept
                assert (start, end) == pytest.approx(tuple(noun), abs=1e-9)


class TestPairedTTest:
    @pytest.mark.parametrize("num_segments", [2, 3, 50, 5000])
    def test_p_value_equals_scipy_ttest_rel_exactly(self, num_segments):
        for seed in range(10):
            report = compare_fusion(generate_scenario(config(num_segments=num_segments, seed=seed)))
            check = stats.ttest_rel(
                report.per_segment_dwf, report.per_segment_mean, alternative="less"
            )
            assert report.p_value == float(check.pvalue), seed
