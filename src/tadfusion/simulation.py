"""Seeded Monte-Carlo comparison of fusion strategies.

Generates synthetic ground-truth segments and two noisy proposal streams
whose boundary noise shrinks as their drawn confidence grows, the regime
where the more confident stream really is the more reliable one. Running
confidence-weighted fusion and the hard mean over the same draws then
measures the expected absolute boundary-error gap directly, without any
trained detector in the loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .composition import VocabSpec
from .errors import InvalidConfig
from .evaluation import GROUND_TRUTH, GroundTruthInstance
from .fusion import DEFAULT_FUSION_EPSILON, dwf_weights, fuse_boundaries, hard_mean_fusion
from .io import ProposalRecord
from .timeline import FeatureGrid, seconds_to_feature_coord

_MAX_NOISE_RESAMPLES = 10_000

# a run holds about 0.26 kB per segment at its peak, so 2**20 segments take
# about 0.27 GB; the 2**32 that one 32-bit spawn key per segment would allow
# cannot fit in memory
_MAX_SEGMENTS = 2**20

# NumPy SeedSequence's pool size and hash constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF

# the one video of every scenario
VIDEO_ID = "sim"


@dataclass(frozen=True)
class ScenarioConfig:
    """Parameters of one synthetic two-stream scenario.

    Per-stream confidences are drawn uniformly from
    [confidence_lo, confidence_hi]; boundary noise for a stream with
    confidence C is zero-mean Gaussian with standard deviation
    ``sigma_max * (1 - C) + sigma_min`` seconds, independently on start
    and end. ``confidence_hi`` must be positive: DWF is undefined when
    both streams have confidence 0. The defaults give the asymmetric
    regime where stream reliabilities genuinely differ.
    """

    num_segments: int = 1000
    video_length_s: float = 600.0
    confidence_lo: float = 0.1
    confidence_hi: float = 0.95
    sigma_min: float = 0.05
    sigma_max: float = 1.0
    seed: int = 0
    min_segment_s: float = 1.0
    max_segment_s: float = 8.0
    vocab: VocabSpec = field(default_factory=VocabSpec)

    def __post_init__(self):
        if not 1 <= self.num_segments <= _MAX_SEGMENTS:
            raise InvalidConfig(f"num_segments must lie in [1, {_MAX_SEGMENTS}]")
        if not 0.0 < self.video_length_s < math.inf:
            raise InvalidConfig("video_length_s must be positive and finite")
        if not 0.0 <= self.confidence_lo <= self.confidence_hi <= 1.0:
            raise InvalidConfig("confidence bounds must satisfy 0 <= lo <= hi <= 1")
        if self.confidence_hi == 0.0:
            raise InvalidConfig("confidence_hi must be positive; DWF is undefined at 0 and 0")
        if self.sigma_min < 0.0 or self.sigma_max < self.sigma_min:
            raise InvalidConfig("noise law requires 0 <= sigma_min <= sigma_max")
        if not 0.0 < self.min_segment_s <= self.max_segment_s:
            raise InvalidConfig("segment length bounds must satisfy 0 < min <= max")
        if self.max_segment_s > self.video_length_s:
            raise InvalidConfig("max_segment_s exceeds video length")
        if math.ulp(self.video_length_s) > 1e-6 * self.min_segment_s:
            raise InvalidConfig("video_length_s too large: float spacing there exceeds "
                                "1e-6 * min_segment_s")
        if self.seed < 0:
            raise InvalidConfig("seed must be >= 0")

    def noise_std(self, confidence: float) -> float:
        return self.sigma_max * (1.0 - confidence) + self.sigma_min


@dataclass
class Scenario:
    """Ground truth plus the aligned noun and verb draws, one row per segment.

    ``truth`` holds the ``GROUND_TRUTH`` rows of the one video ``VIDEO_ID``.
    ``noun_confidence`` and ``verb_confidence`` have shape ``(n,)``;
    ``noun_boundary`` and ``verb_boundary`` have shape ``(n, 2)`` and hold
    each stream's noisy (start, end) in seconds. Score vectors are built
    only when a scenario is exported as proposal records.
    """

    config: ScenarioConfig
    truth: np.recarray
    noun_confidence: np.ndarray
    verb_confidence: np.ndarray
    noun_boundary: np.ndarray
    verb_boundary: np.ndarray

    @property
    def ground_truth(self) -> list[GroundTruthInstance]:
        """``truth`` as objects, for ``evaluation.mean_ap``."""
        return [GroundTruthInstance(VIDEO_ID, *row) for row in self.truth.tolist()]


@dataclass
class FusionReport:
    """Boundary-error comparison between weighted and hard-mean fusion.

    Per-segment errors are |fused - true| summed over start and end.
    ``confidence_error_correlation`` is the Pearson correlation between a
    stream's confidence and its realized boundary error, pooled over both
    streams; the inequality under test assumes it is negative.
    ``p_value`` is a one-sided paired t-test of dwf error < mean error.
    """

    num_segments: int
    mean_abs_err_dwf: float
    mean_abs_err_mean: float
    per_segment_dwf: np.ndarray
    per_segment_mean: np.ndarray
    confidence_error_correlation: float
    p_value: float

    def key_values(self) -> list[tuple[str, float]]:
        return [
            ("num_segments", self.num_segments),
            ("mean_abs_err_dwf", self.mean_abs_err_dwf),
            ("mean_abs_err_mean", self.mean_abs_err_mean),
            ("error_gap", self.mean_abs_err_mean - self.mean_abs_err_dwf),
            ("confidence_error_correlation", self.confidence_error_correlation),
            ("p_value_dwf_less", self.p_value),
        ]


def _score_vector(size: int, true_class: int, confidence: float) -> np.ndarray:
    # the vector maximum must equal the drawn confidence, so the uniform
    # filler is capped at half of it (this binds in tiny vocabularies and
    # at confidence 0, where the filler is 0 too)
    if size == 1:
        return np.array([confidence])
    vec = np.full(size, min((1.0 - confidence) / (size - 1), 0.5 * confidence))
    vec[true_class] = confidence
    return vec


def _noisy_boundary(
    rng: np.random.Generator,
    true_boundary: tuple[float, float],
    confidence: float,
    cfg: ScenarioConfig,
) -> tuple[float, float]:
    # resample, rather than truncate, to avoid biasing noise near edges
    std = cfg.noise_std(confidence)
    for _ in range(_MAX_NOISE_RESAMPLES):
        start = true_boundary[0] + rng.normal(0.0, std)
        end = true_boundary[1] + rng.normal(0.0, std)
        if 0.0 <= start < end <= cfg.video_length_s:
            return (start, end)
    raise InvalidConfig(
        "could not draw a valid noisy boundary; noise scale is too large "
        "for the video length"
    )


def _draw_segment(rng: np.random.Generator, cfg: ScenarioConfig):
    """One segment's draws, one scalar call each, from its own stream.

    Returns its truth row (start, end, verb, noun), its noun and verb
    confidences and its noun and verb boundaries. ``generate_scenario``
    replays through it the segments its array pass cannot finish.
    """
    # Generator.uniform(lo, hi) returns lo + (hi - lo) * random(), bit for bit;
    # at lo = 0 that is the product alone, which is never -0.0
    length = cfg.min_segment_s + (cfg.max_segment_s - cfg.min_segment_s) * rng.random()
    start = (cfg.video_length_s - length) * rng.random()
    true_boundary = (start, start + length)
    verb = int(rng.integers(cfg.vocab.verb_count))
    noun = int(rng.integers(cfg.vocab.noun_count))
    conf_range = cfg.confidence_hi - cfg.confidence_lo
    c_noun = cfg.confidence_lo + conf_range * rng.random()
    c_verb = cfg.confidence_lo + conf_range * rng.random()
    return ((*true_boundary, verb, noun), c_noun, c_verb,
            _noisy_boundary(rng, true_boundary, c_noun, cfg),
            _noisy_boundary(rng, true_boundary, c_verb, cfg))


def _bounded_index(words: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``Generator.integers(k)`` for ``1 < k <= 2**32`` on 32-bit words held in uint64.

    NumPy draws a bounded integer by Lemire's method (arXiv:1805.10941):
    ``m = word * k``, index ``m >> 32``. When the low half of ``m`` is
    below ``(2**32 - k) % k`` it rejects the word and draws again; those
    words come back flagged, with an index NumPy does not return.
    """
    m = words * np.uint64(k)
    return m >> 32, (m & _MASK32) < (2**32 - k) % k


def _hasher(hash_const: int, mult: int):
    """SeedSequence's 32-bit hash, advancing its constant on every call.

    Takes Python ints or uint64 arrays of 32-bit words.
    """
    def hash_word(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * mult & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16
    return hash_word


def _mix(x, y):
    value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return value ^ value >> 16


def _child_states(seed: int, n: int) -> np.ndarray:
    """The ``(n, 4)`` PCG64 seed words of the first ``n`` children of a seed.

    Row ``i`` equals
    ``np.random.SeedSequence(seed).spawn(n)[i].generate_state(4, np.uint64)``.
    Each child's entropy is the seed's 32-bit words, padded with zeros to
    the pool size, then its spawn key ``i``. Everything but that last word
    is mixed once on Python ints; the key and the output hash are mixed
    over all keys at once, as 32-bit words held in uint64.
    """
    words = [seed & _MASK32]
    while seed := seed >> 32:
        words.append(seed & _MASK32)
    words += [0] * (_POOL_SIZE - len(words))

    hash_a = _hasher(_INIT_A, _MULT_A)
    pool = [hash_a(word) for word in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hash_a(pool[src]))
    for word in [*words[_POOL_SIZE:], np.arange(n, dtype=np.uint64)]:
        pool = [_mix(entry, hash_a(word)) for entry in pool]

    # generate_state(4, np.uint64): eight 32-bit words cycling over the
    # pool, paired little-endian into four 64-bit words
    hash_b = _hasher(_INIT_B, _MULT_B)
    out = [hash_b(pool[k % _POOL_SIZE]) for k in range(8)]
    return np.column_stack([lo | hi << 32 for lo, hi in zip(out[::2], out[1::2])])


def generate_scenario(cfg: ScenarioConfig) -> Scenario:
    """Draw a scenario deterministically from its seed.

    Segment ``i`` draws from its own PCG64 generator, seeded exactly as
    ``np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(n)[i])``
    would be; ``_child_states`` derives the seed words of all ``n`` child
    streams in one array pass. Results are therefore identical regardless
    of evaluation order, and segments could be generated in parallel.

    Each stream is asked for two things only: its first five raw 64-bit
    outputs and the next four standard normals. One array pass turns them
    into what ``_draw_segment``'s scalar calls return: ``random()`` is
    ``(raw >> 11) * 2**-53`` of outputs 0, 1, 3 and 4; the verb and noun
    indices come from the low and high halves of output 2, which PCG64
    hands out one 32-bit half at a time; ``normal(0, std)`` is
    ``0.0 + std * z``, normals 0-1 for the noun stream's first (start, end)
    and 2-3 for the verb's. A segment whose first boundary pair is
    invalid, or whose index word NumPy would reject, is replayed by
    ``_draw_segment``; so is every segment when a vocabulary has one
    entry, since ``integers(1)`` consumes no bits.
    """
    # numpy.random is imported here, not at module level, so that only
    # simulate pays for it at start-up
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class _Words(ISeedSequence):
        """Hands PCG64 one precomputed row of seed words."""

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    n, vocab = cfg.num_segments, cfg.vocab
    states = _child_states(cfg.seed, n)
    raw, normals = np.empty((n, 5), np.uint64), np.empty((n, 4))
    for i in range(n):
        bitgen = PCG64(_Words(states[i]))
        raw[i] = bitgen.random_raw(5)
        Generator(bitgen).standard_normal(out=normals[i])

    uniform = (raw[:, [0, 1, 3, 4]] >> 11) * 2.0**-53
    length = cfg.min_segment_s + (cfg.max_segment_s - cfg.min_segment_s) * uniform[:, 0]
    start = (cfg.video_length_s - length) * uniform[:, 1]
    truth = np.empty(n, GROUND_TRUTH).view(np.recarray)
    truth.start, truth.end = start, start + length
    truth.verb, verb_rejected = _bounded_index(raw[:, 2] & _MASK32, vocab.verb_count)
    truth.noun, noun_rejected = _bounded_index(raw[:, 2] >> 32, vocab.noun_count)
    conf_range = cfg.confidence_hi - cfg.confidence_lo
    noun_confidence = cfg.confidence_lo + conf_range * uniform[:, 2]
    verb_confidence = cfg.confidence_lo + conf_range * uniform[:, 3]

    true_boundary = np.column_stack((truth.start, truth.end))

    def noisy_boundary(confidence, z):
        boundary = true_boundary + (0.0 + cfg.noise_std(confidence)[:, None] * z)
        start, end = boundary.T
        return boundary, (0.0 <= start) & (start < end) & (end <= cfg.video_length_s)

    noun_boundary, noun_valid = noisy_boundary(noun_confidence, normals[:, :2])
    verb_boundary, verb_valid = noisy_boundary(verb_confidence, normals[:, 2:])

    replay = ~(noun_valid & verb_valid) | verb_rejected | noun_rejected
    if min(vocab.noun_count, vocab.verb_count) == 1:
        replay[:] = True
    for i in np.flatnonzero(replay).tolist():
        (truth[i], noun_confidence[i], verb_confidence[i], noun_boundary[i],
         verb_boundary[i]) = _draw_segment(Generator(PCG64(_Words(states[i]))), cfg)
    return Scenario(
        config=cfg,
        truth=truth,
        noun_confidence=noun_confidence,
        verb_confidence=verb_confidence,
        noun_boundary=noun_boundary,
        verb_boundary=verb_boundary,
    )


def scenario_to_records(
    scenario: Scenario, grid: FeatureGrid = FeatureGrid()
) -> list[ProposalRecord]:
    """Export a scenario as aligned proposal records for the pipeline.

    Noisy boundaries (in seconds) are mapped to feature coordinates of a
    single window starting at feature 0. Coordinates before the grid's
    first center come out negative; the pipeline clamps them on the way
    back to seconds. Each stream's score vector puts the drawn confidence
    on the ground-truth class.
    """
    vocab = scenario.config.vocab

    def to_feature(boundary):
        return tuple(seconds_to_feature_coord(t, grid) for t in boundary)

    return [
        ProposalRecord(
            video_id=VIDEO_ID,
            window_start=0,
            noun_boundary=to_feature(noun_boundary),
            noun_scores=_score_vector(vocab.noun_count, noun, c_noun),
            verb_boundary=to_feature(verb_boundary),
            verb_scores=_score_vector(vocab.verb_count, verb, c_verb),
        )
        for noun, verb, c_noun, c_verb, noun_boundary, verb_boundary in zip(
            scenario.truth.noun.tolist(),
            scenario.truth.verb.tolist(),
            scenario.noun_confidence.tolist(),
            scenario.verb_confidence.tolist(),
            scenario.noun_boundary.tolist(),
            scenario.verb_boundary.tolist(),
        )
    ]


def compare_fusion(
    scenario: Scenario, epsilon: float = DEFAULT_FUSION_EPSILON
) -> FusionReport:
    """Measure per-segment boundary errors of both fusion strategies.

    One array pass through the fusion operators the pipeline uses.
    """
    noun, verb = scenario.noun_boundary.T, scenario.verb_boundary.T
    truth = scenario.truth.start, scenario.truth.end
    n = len(scenario.truth)

    def error(boundary):
        return np.abs(boundary[0] - truth[0]) + np.abs(boundary[1] - truth[1])

    weights = dwf_weights(scenario.noun_confidence, scenario.verb_confidence, epsilon)
    err_dwf = error(fuse_boundaries(noun, verb, weights))
    err_mean = error(hard_mean_fusion(noun, verb))
    # noun, verb interleaved per segment: np.std and np.corrcoef sum in this order
    confidences = np.column_stack((scenario.noun_confidence, scenario.verb_confidence)).ravel()
    stream_errors = np.column_stack((error(noun), error(verb))).ravel()

    if np.std(confidences) > 0.0 and np.std(stream_errors) > 0.0:
        correlation = float(np.corrcoef(confidences, stream_errors)[0, 1])
    else:
        correlation = float("nan")

    diff = err_dwf - err_mean
    if n < 2 or np.allclose(diff, 0.0):
        p_value = 1.0
    else:
        # one-sided paired t-test: the operations of SciPy's
        # ttest_rel(err_dwf, err_mean, alternative="less"), in its order, so the
        # p-value matches it bit for bit without the ~1 s import of scipy.stats
        from scipy.special import stdtr

        m = diff.mean()
        var = np.mean((diff - m) ** 2) * (n / (n - 1.0))
        p_value = float(stdtr(float(n - 1), m / np.sqrt(var / n)))

    return FusionReport(
        num_segments=n,
        mean_abs_err_dwf=float(err_dwf.mean()),
        mean_abs_err_mean=float(err_mean.mean()),
        per_segment_dwf=err_dwf,
        per_segment_mean=err_mean,
        confidence_error_correlation=correlation,
        p_value=p_value,
    )
