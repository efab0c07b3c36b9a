import math
import random
from dataclasses import fields

import numpy as np
import pytest
from scipy import stats

from oracles import oracle_compare_fusion, oracle_generate_scenario, proposal_records
from tadfusion import simulation
from tadfusion.composition import VocabSpec
from tadfusion.errors import DegenerateInterval, InvalidConfig
from tadfusion.simulation import (
    _PCG_MULT,
    _ZIGGURAT_KI,
    _ZIGGURAT_WI,
    FusionReport,
    ScenarioConfig,
    _bounded_index,
    _child_states,
    _pcg64_words,
    _score_entries,
    compare_fusion,
    generate_scenario,
    scenario_to_records,
)
from tadfusion.suppression import GROUND_TRUTH

SMALL_VOCAB = VocabSpec(noun_count=30, verb_count=12)


def score_vector(size, true_class, confidence):
    """The dense score vector of one row that ``_score_entries`` exports."""
    entries = _score_entries(size, np.array([true_class]), np.array([confidence]))
    vector = np.zeros(size)
    vector[entries["class"]] = entries["score"]
    return vector


def config(**kwargs):
    defaults = dict(num_segments=200, video_length_s=300.0, seed=42, vocab=SMALL_VOCAB)
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


class TestGenerateScenario:
    def test_zero_noise_reproduces_truth(self):
        scenario = generate_scenario(config(sigma_min=0.0, sigma_max=0.0))
        truth = np.column_stack((scenario.truth.start, scenario.truth.end))
        np.testing.assert_allclose(scenario.noun_boundary, truth)
        np.testing.assert_allclose(scenario.verb_boundary, truth)

    def test_truth_columns(self):
        scenario = generate_scenario(config())
        assert scenario.truth.dtype == GROUND_TRUTH

    @pytest.mark.parametrize("vocab", [VocabSpec(), VocabSpec(noun_count=1, verb_count=7)],
                             ids=["default", "one-noun"])
    def test_truth_action_is_the_vocabulary_action_id(self, monkeypatch, vocab):
        # with a one-entry vocabulary every segment is replayed
        replayed = count_replays(monkeypatch)
        truth = generate_scenario(ScenarioConfig(vocab=vocab)).truth
        assert (truth.action == vocab.action_id(truth.noun, truth.verb)).all()
        assert (len(replayed) == len(truth)) == (vocab.noun_count == 1)

    def test_determinism(self):
        a = generate_scenario(config())
        b = generate_scenario(config())
        for field in ("truth", "noun_boundary", "verb_boundary", "noun_confidence",
                      "verb_confidence"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
        for ra, rb in zip(proposal_records(scenario_to_records(a), SMALL_VOCAB),
                          proposal_records(scenario_to_records(b), SMALL_VOCAB)):
            np.testing.assert_array_equal(ra.noun_scores, rb.noun_scores)

    def test_different_seeds_differ(self):
        a = generate_scenario(config(seed=1))
        b = generate_scenario(config(seed=2))
        assert np.any(a.noun_boundary != b.noun_boundary)

    def test_score_maximum_equals_drawn_confidence(self):
        scenario = generate_scenario(config())
        records = proposal_records(scenario_to_records(scenario), SMALL_VOCAB)
        for record, noun, drawn in zip(records, scenario.truth.noun, scenario.noun_confidence):
            top = int(np.argmax(record.noun_scores))
            assert top == noun
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
            len(scenario.truth)
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
        # a run's memory bounds the count far below the 2**32 spawn keys
        with pytest.raises(InvalidConfig, match="num_segments"):
            ScenarioConfig(num_segments=2**20 + 1)
        for length in (math.inf, math.nan):
            with pytest.raises(InvalidConfig, match="video_length_s"):
                ScenarioConfig(video_length_s=length)

    def test_zero_confidence(self):
        # DWF is undefined when both streams have confidence 0
        with pytest.raises(InvalidConfig, match="confidence_hi"):
            ScenarioConfig(confidence_lo=0.0, confidence_hi=0.0)
        # a zero draw (possible when confidence_lo = 0) scores nothing
        assert score_vector(300, 5, 0.0).max() == 0.0


# seeds of one to six 32-bit words; those past four words are mixed into
# the pool after it is filled
RANDOM_SEEDS = [random.Random(14).getrandbits(bits) for bits in range(1, 161, 3)]


class TestChildStates:
    """Row i is the seed of child i of ``SeedSequence(seed)``, so a NumPy
    that changes its seeding algorithm fails here before any digest."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 7, 2**128 + 3, 10**54])
    def test_edge_seeds(self, seed):
        self.check(seed, 300)

    @pytest.mark.parametrize("seed", RANDOM_SEEDS)
    def test_random_seeds(self, seed):
        self.check(seed, 1 + seed % 300)

    @staticmethod
    def check(seed, n):
        want = [child.generate_state(4, np.uint64)
                for child in np.random.SeedSequence(seed).spawn(n)]
        got = _child_states(seed, n)
        assert got.dtype == np.uint64 and got.shape == (n, 4)
        for i, row in enumerate(want):
            assert (got[i] == row).all(), (seed, i)


def assert_same_scenario(got, want):
    for field in ("truth", "noun_confidence", "verb_confidence", "noun_boundary",
                  "verb_boundary"):
        a, b = getattr(got, field), getattr(want, field)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), field
        assert a.tobytes() == b.tobytes(), field


def count_replays(monkeypatch):
    """Record what every scalar replay of ``generate_scenario`` returns."""
    replayed = []

    def draw_segment(rng, cfg):
        replayed.append(draw(rng, cfg))
        return replayed[-1]

    draw = simulation._draw_segment
    monkeypatch.setattr(simulation, "_draw_segment", draw_segment)
    return replayed


def replay_reason(seq, cfg):
    """Why ``generate_scenario`` must replay the segment drawn from ``seq``,
    or None. Draws it as the scalar loop does and compares the stream with
    a fresh one after ``random_raw``: an index word was rejected when the
    draws up to the confidences took more than raw words 0-4, a normal was
    off the ziggurat's fast path when it took more than one word, and
    otherwise the segment replays when its first noun or verb pair leaves
    the video."""
    rng, fresh = np.random.default_rng(seq), np.random.default_rng(seq)

    def took(count):
        fresh.bit_generator.random_raw(count)
        got, want = rng.bit_generator.state, fresh.bit_generator.state
        return (got["state"], got["has_uint32"]) == (want["state"], 0)

    length = rng.uniform(cfg.min_segment_s, cfg.max_segment_s)
    start = rng.uniform(0.0, cfg.video_length_s - length)
    rng.integers(cfg.vocab.verb_count), rng.integers(cfg.vocab.noun_count)
    stds = [cfg.noise_std(rng.uniform(cfg.confidence_lo, cfg.confidence_hi)) for _ in "nv"]
    if not took(5):
        return "index"
    boundary = []
    for k in range(4):
        boundary.append((start, start + length)[k % 2] + rng.normal(0.0, stds[k // 2]))
        if not took(1):
            return f"normal {k}"
    if not all(0.0 <= lo < hi <= cfg.video_length_s for lo, hi in (boundary[:2], boundary[2:])):
        return "pair"
    return None


class TestPcg64Words:
    """The array pass steps PCG64 as NumPy does: each child stream's first
    nine raw words equal ``random_raw(9)`` of a PCG64 seeded with its row."""

    @pytest.mark.parametrize("seed", [0, 7, 2**64 + 7, 10**30])
    def test_matches_random_raw(self, seed):
        from numpy.random import PCG64
        from numpy.random.bit_generator import ISeedSequence

        class Row(ISeedSequence):
            def __init__(self, words):
                self.words = words

            def generate_state(self, n_words, dtype=np.uint32):
                return self.words

        states = _child_states(seed, 1000)
        got = _pcg64_words(states, 9)
        assert got.dtype == np.uint64 and got.shape == (1000, 9)
        for i, row in enumerate(states):
            assert (got[i] == PCG64(Row(row)).random_raw(9)).all(), (seed, i)


class TestZigguratTables:
    """The packed ``wi`` and ``ki`` equal the installed NumPy's, probed
    through the public ``bit_generator.state`` setter: a state whose next
    PCG64 output is a chosen word (post-step high half 0, so the output is
    the low half), one ``standard_normal``, and whether the stream took
    exactly that one word. Word ``idx | rabs << 9`` takes the fast path,
    returning ``rabs * wi[idx]``, exactly when ``rabs < ki[idx]``."""

    def test_tables_match_installed_numpy(self):
        from numpy.random import PCG64, Generator

        inverse, inc = pow(_PCG_MULT, -1, 2**128), 1
        bitgen = PCG64()
        normal = Generator(bitgen).standard_normal

        def draw(word):
            state = (word - inc) * inverse % 2**128
            bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                            "has_uint32": 0, "uinteger": 0}
            z = normal()
            return z, bitgen.state["state"]["state"] == word

        wi, ki = [], []
        for idx in range(256):
            wi.append(draw(idx | 1 << 9)[0])
            lo, hi = 0, 2**52
            while lo < hi:  # the smallest rabs off the fast path
                mid = (lo + hi) // 2
                lo, hi = (mid + 1, hi) if draw(idx | mid << 9)[1] else (lo, mid)
            ki.append(lo)
        assert ki[1] == 0
        assert _ZIGGURAT_WI.tolist() == wi
        assert _ZIGGURAT_KI.tolist() == ki


class TestBoundedIndex:
    """``_bounded_index`` on a stream's 32-bit words, low half of each
    64-bit output first, against ``Generator.integers(k)`` on the same
    fresh stream: the first unflagged word gives NumPy's value, and NumPy
    has consumed exactly the words up to it (``integers(2**32)`` returns
    the next word whole)."""

    @pytest.mark.parametrize("k", [2, 7, 97, 300, 65175, 65535, 65536, 2**31 + 1])
    def test_matches_generator_integers(self, k):
        flagged_seen = 0
        for seed in range(300):
            raw = np.random.default_rng(seed).bit_generator.random_raw(8)
            words = np.column_stack((raw & 0xFFFFFFFF, raw >> 32)).ravel()
            index, flagged = _bounded_index(words, k)
            first = int(np.argmin(flagged))
            assert not flagged[first]
            rng = np.random.default_rng(seed)
            assert int(rng.integers(k)) == index[first]
            assert int(rng.integers(2**32)) == words[first + 1]
            flagged_seen += first
        # about half of all words are rejected at k = 2**31 + 1
        assert (flagged_seen > 200) == (k == 2**31 + 1)


class TestGenerateScenarioOracle:
    """The array-seeded loop draws what the per-segment ``SeedSequence``
    and ``Generator.uniform`` loop drew, bit for bit. NumPy computes
    ``uniform`` as ``lo + (hi - lo) * random()`` in C, so a platform whose
    compiler fuses that into one multiply-add fails here."""

    def test_many_seeds(self):
        for seed in range(100):
            cfg = config(seed=seed, num_segments=60)
            assert_same_scenario(generate_scenario(cfg), oracle_generate_scenario(cfg))

    @pytest.mark.parametrize("overrides", [
        # noise as wide as the video: most draws are resampled
        dict(video_length_s=10.0, sigma_min=2.0, sigma_max=6.0),
        dict(confidence_lo=0.6, confidence_hi=0.6),
        dict(confidence_lo=0.0),
        dict(vocab=VocabSpec(noun_count=1, verb_count=1)),
        dict(min_segment_s=5.0, max_segment_s=5.0, video_length_s=5.0),
        dict(num_segments=1),
        # integers(1) consumes no bits, so the other index takes the low half
        dict(vocab=VocabSpec(noun_count=1, verb_count=7)),
        dict(vocab=VocabSpec(noun_count=7, verb_count=1)),
        dict(vocab=VocabSpec(noun_count=65536, verb_count=65535)),
        dict(sigma_min=0.0, sigma_max=0.0, confidence_lo=1.0, confidence_hi=1.0),
    ])
    @pytest.mark.parametrize("seed", [0, 7, 2**64 + 7, 10**30])
    def test_edge_configs(self, overrides, seed):
        cfg = config(**{"seed": seed, "num_segments": 50, **overrides})
        assert_same_scenario(generate_scenario(cfg), oracle_generate_scenario(cfg))

    def test_default_config_replays_exactly_the_segments_it_cannot_finish(self, monkeypatch):
        replayed = count_replays(monkeypatch)
        cfg = ScenarioConfig(num_segments=5000, seed=3)
        assert_same_scenario(generate_scenario(cfg), oracle_generate_scenario(cfg))
        reasons = [replay_reason(seq, cfg) for seq in np.random.SeedSequence(3).spawn(5000)]
        assert len(replayed) == sum(reason is not None for reason in reasons)
        # about 5.5% of segments have a normal off the fast path
        assert sum(reason.startswith("normal") for reason in filter(None, reasons)) > 200

    @pytest.mark.parametrize("seed, num_segments, normal, tail", [
        (22, 81, 1, True),   # segment 80's noun end: idx 0, the ziggurat's tail
        (0, 43, 3, False),   # segment 42's verb end: rabs at or above ki[idx]
    ], ids=["tail", "ki"])
    def test_normal_off_the_fast_path_is_replayed(self, monkeypatch, seed, num_segments,
                                                  normal, tail):
        replayed = count_replays(monkeypatch)
        cfg = config(seed=seed, num_segments=num_segments)
        got = generate_scenario(cfg)
        assert_same_scenario(got, oracle_generate_scenario(cfg))
        assert got.truth[-1].tolist() in [row[0] for row in replayed]
        last = np.random.SeedSequence(seed).spawn(num_segments)[-1]
        assert replay_reason(last, cfg) == f"normal {normal}"
        word = int(np.random.default_rng(last).bit_generator.random_raw(9)[5 + normal])
        assert (word & 0xFF == 0) == tail

    @pytest.mark.parametrize("seed, num_segments", [
        (143, 53),  # segment 52: NumPy rejects the verb's word
        (68, 74),   # segment 73: NumPy rejects the noun's word
    ])
    def test_rejected_index_word_is_replayed(self, monkeypatch, seed, num_segments):
        # 2**32 % 65175 is close to 65175: about 1.5 in 10**5 words are rejected
        replayed = count_replays(monkeypatch)
        cfg = config(seed=seed, num_segments=num_segments,
                     vocab=VocabSpec(noun_count=65175, verb_count=65175))
        got = generate_scenario(cfg)
        assert_same_scenario(got, oracle_generate_scenario(cfg))
        assert got.truth[-1].tolist() in [row[0] for row in replayed]

    def test_exhausted_resampling_raises_the_same_error(self):
        cfg = config(num_segments=1, video_length_s=1.0, min_segment_s=1.0,
                     max_segment_s=1.0, sigma_min=1e6, sigma_max=1e6)
        with pytest.raises(InvalidConfig) as got:
            generate_scenario(cfg)
        with pytest.raises(InvalidConfig) as want:
            oracle_generate_scenario(cfg)
        assert str(got.value) == str(want.value)


class TestCompareFusion:
    def test_zero_noise_zero_error(self):
        scenario = generate_scenario(config(sigma_min=0.0, sigma_max=0.0))
        report = compare_fusion(scenario)
        # the hard mean of two exact copies is exact
        assert report.mean_abs_err_mean == 0.0
        # dwf weights sum to C/(C+eps) < 1, so at eps=1e-6 the fused
        # boundary carries a shrinkage bias of at most |b*| * eps / C
        max_coord = scenario.truth.end.max()
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

    @pytest.mark.parametrize("compare", [compare_fusion, oracle_compare_fusion])
    def test_empty_fused_boundary_names_the_first_index_in_one_line(self, compare):
        # both confidences of segments 1 and 2 vanish: DWF fuses them to (0.0, 0.0)
        truth = np.rec.array(np.zeros(3, GROUND_TRUTH))
        truth.start, truth.end = 10.0, 20.0
        confidence = np.array([0.5, 0.0, 0.0])
        noun_boundary = np.array([[10.0, 20.0]] * 3)
        scenario = simulation.Scenario(config(num_segments=3), truth, confidence, confidence,
                                       noun_boundary, noun_boundary + 4.0)
        with pytest.raises(DegenerateInterval) as info:
            compare(scenario, 1e-6)
        assert str(info.value) == "fused boundary at index 1 (0.0, 0.0) is empty or inverted"

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
        records = proposal_records(scenario_to_records(scenario), SMALL_VOCAB)
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
