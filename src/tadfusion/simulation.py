"""Seeded Monte-Carlo comparison of fusion strategies.

Generates synthetic ground-truth segments and two noisy proposal streams
whose boundary noise shrinks as their drawn confidence grows, the regime
where the more confident stream really is the more reliable one. Running
confidence-weighted fusion and the hard mean over the same draws then
measures the expected absolute boundary-error gap directly, without any
trained detector in the loop.
"""

from __future__ import annotations

import binascii
import math
from dataclasses import dataclass, field

import numpy as np

from .composition import ENTRY, VocabSpec
from .errors import DegenerateInterval, InvalidConfig
from .fusion import DEFAULT_FUSION_EPSILON, MEAN_WEIGHTS, dwf_weights, first_empty, fuse
from .io import Proposals
from .suppression import GROUND_TRUTH
from .timeline import FeatureGrid, seconds_to_feature_coord

_MAX_NOISE_RESAMPLES = 10_000

# a run holds about 0.36 kB per segment at its peak, so 2**20 segments take
# about 0.37 GB; the 2**32 that one 32-bit spawn key per segment would allow
# cannot fit in memory
_MAX_SEGMENTS = 2**20

# NumPy SeedSequence's pool size and hash constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF

# NumPy PCG64's multiplier: its 128-bit state steps to state * _PCG_MULT + inc
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

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

    ``truth`` holds the ``suppression.GROUND_TRUTH`` rows of the one video
    ``VIDEO_ID``, whose code is 0, with the vocabulary's action ids.
    ``noun_confidence`` and ``verb_confidence`` have shape ``(n,)``;
    ``noun_boundary`` and ``verb_boundary`` have shape ``(n, 2)`` and hold
    each stream's noisy (start, end) in seconds. Class scores are built
    only when a scenario is exported as proposal columns.
    """

    config: ScenarioConfig
    truth: np.recarray
    noun_confidence: np.ndarray
    verb_confidence: np.ndarray
    noun_boundary: np.ndarray
    verb_boundary: np.ndarray

    # perfbench/tracing.py's simulation.segments hook reads this alias; it
    # goes once that hook reads ``truth`` (ROADMAP item 9)
    @property
    def ground_truth(self) -> np.recarray:
        return self.truth


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


def _score_entries(size: int, true_class: np.ndarray, confidence: np.ndarray) -> np.ndarray:
    """``ENTRY`` rows of one stream, every class of every row in order: the
    drawn confidence on the true class and a uniform filler elsewhere."""
    # the row maximum must equal the drawn confidence, so the filler is
    # capped at half of it (this binds in tiny vocabularies and at
    # confidence 0, where the filler is 0 too)
    scores = np.repeat(np.minimum((1.0 - confidence) / max(size - 1, 1), 0.5 * confidence), size)
    scores[np.arange(len(confidence)) * size + true_class] = confidence
    kept = np.flatnonzero(scores)  # the file form omits zeros
    return np.rec.fromarrays([kept // size, kept % size, scores[kept]], dtype=ENTRY)


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

    Returns its truth row (video code 0, start, end, verb, noun, action),
    its noun and verb confidences and its noun and verb boundaries.
    ``generate_scenario`` replays through it the segments its array pass
    cannot finish.
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
    return ((0, *true_boundary, verb, noun, cfg.vocab.action_id(noun, verb)), c_noun, c_verb,
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


def _pcg64_words(states: np.ndarray, count: int) -> np.ndarray:
    """``random_raw(count)`` of PCG64 seeded with each row of ``states``.

    NumPy seeds ``inc = states[i, 2:4] << 1 | 1``, steps state 0, adds
    ``states[i, 0:2]`` and steps again (high half first in each pair); each
    output steps once more and returns ``rotr64(hi ^ lo, hi >> 58)``. The
    128-bit values are uint64 limb pairs, products taken in 32-bit halves.
    """
    mult_hi, mult_lo = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & 2**64 - 1)
    m0, m1 = mult_lo & np.uint64(_MASK32), mult_lo >> np.uint64(32)
    inc_hi = states[:, 2] << 1 | states[:, 3] >> 63
    inc_lo = states[:, 3] << 1 | 1
    # the first step takes state 0 to inc; step -1 below is the second
    lo = inc_lo + states[:, 1]
    hi = inc_hi + states[:, 0] + (lo < inc_lo)
    words = np.empty((len(states), count), np.uint64)
    for k in range(-1, count):
        a0, a1 = lo & _MASK32, lo >> 32
        low_cross = a1 * m0 + (a0 * m0 >> 32)
        mid = a0 * m1 + (low_cross & _MASK32)
        carry = a1 * m1 + (low_cross >> 32) + (mid >> 32)
        product = lo * mult_lo
        hi = hi * mult_lo + lo * mult_hi + carry + inc_hi
        lo = product + inc_lo
        hi += lo < product
        if k >= 0:
            xored, rot = hi ^ lo, hi >> 58
            words[:, k] = xored >> rot | xored << (64 - rot & 63)
    return words


def generate_scenario(cfg: ScenarioConfig) -> Scenario:
    """Draw a scenario deterministically from its seed.

    Segment ``i`` draws from its own PCG64 generator, seeded exactly as
    ``np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(n)[i])``
    would be; ``_child_states`` derives the seed words of all ``n`` child
    streams in one array pass. Results are therefore identical regardless
    of evaluation order, and segments could be generated in parallel.

    ``_pcg64_words`` steps all ``n`` streams at once for their first nine
    raw 64-bit outputs, and one array pass turns them into what
    ``_draw_segment``'s scalar calls return: ``random()`` is
    ``(raw >> 11) * 2**-53`` of outputs 0, 1, 3 and 4; the verb and noun
    indices come from the low and high halves of output 2, which PCG64
    hands out one 32-bit half at a time; outputs 5-8 are the four
    standard normals when each takes the ziggurat's fast path, and
    ``normal(0, std)`` is ``0.0 + std * z``, normals 0-1 for the noun
    stream's first (start, end) and 2-3 for the verb's. A segment is
    replayed by ``_draw_segment`` when its first boundary pair is invalid,
    NumPy would reject its index word or a normal is off the fast path
    (338 of 5,000 at the default seed 3); so is every segment when a
    vocabulary has one entry, since ``integers(1)`` consumes no bits.
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
    raw = _pcg64_words(states, 9)

    uniform = (raw[:, [0, 1, 3, 4]] >> 11) * 2.0**-53
    length = cfg.min_segment_s + (cfg.max_segment_s - cfg.min_segment_s) * uniform[:, 0]
    start = (cfg.video_length_s - length) * uniform[:, 1]
    truth = np.zeros(n, GROUND_TRUTH).view(np.recarray)  # all of video code 0
    truth.start, truth.end = start, start + length
    truth.verb, verb_rejected = _bounded_index(raw[:, 2] & _MASK32, vocab.verb_count)
    truth.noun, noun_rejected = _bounded_index(raw[:, 2] >> 32, vocab.noun_count)
    truth.action = vocab.action_id(truth.noun, truth.verb)
    conf_range = cfg.confidence_hi - cfg.confidence_lo
    noun_confidence = cfg.confidence_lo + conf_range * uniform[:, 2]
    verb_confidence = cfg.confidence_lo + conf_range * uniform[:, 3]

    # standard_normal's ziggurat: a draw whose rabs is below ki[idx]
    # returns +-rabs * wi[idx] and consumes its one word
    idx = raw[:, 5:] & 0xFF
    rabs = raw[:, 5:] >> 9 & (2**52 - 1)
    normals = rabs * _ZIGGURAT_WI[idx]
    np.negative(normals, out=normals, where=(raw[:, 5:] & 0x100) != 0)
    slow_normal = (rabs >= _ZIGGURAT_KI[idx]).any(axis=1)

    true_boundary = np.column_stack((truth.start, truth.end))

    def noisy_boundary(confidence, z):
        boundary = true_boundary + (0.0 + cfg.noise_std(confidence)[:, None] * z)
        start, end = boundary.T
        return boundary, (0.0 <= start) & (start < end) & (end <= cfg.video_length_s)

    noun_boundary, noun_valid = noisy_boundary(noun_confidence, normals[:, :2])
    verb_boundary, verb_valid = noisy_boundary(verb_confidence, normals[:, 2:])

    replay = ~(noun_valid & verb_valid) | verb_rejected | noun_rejected | slow_normal
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


def scenario_to_records(scenario: Scenario, grid: FeatureGrid = FeatureGrid()) -> Proposals:
    """Export a scenario as proposal columns for the pipeline.

    Noisy boundaries (in seconds) are mapped to feature coordinates of a
    single window starting at feature 0. Coordinates before the grid's
    first center come out negative; the pipeline clamps them on the way
    back to seconds. Each stream's scores put the drawn confidence on the
    ground-truth class.
    """
    vocab, n = scenario.config.vocab, len(scenario.truth)

    def to_feature(boundary):
        return tuple(seconds_to_feature_coord(boundary[:, i], grid) for i in (0, 1))

    return Proposals(
        [VIDEO_ID] * n, [0] * n, to_feature(scenario.noun_boundary),
        to_feature(scenario.verb_boundary),
        _score_entries(vocab.noun_count, scenario.truth.noun, scenario.noun_confidence),
        _score_entries(vocab.verb_count, scenario.truth.verb, scenario.verb_confidence))


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

    fused = fuse(noun, verb, dwf_weights(scenario.noun_confidence, scenario.verb_confidence,
                                          epsilon))
    if (i := first_empty(*fused)) is not None:
        raise DegenerateInterval(f"fused boundary at index {i} ({fused[0][i].item()!r}, "
                                 f"{fused[1][i].item()!r}) is empty or inverted")
    err_dwf = error(fused)
    err_mean = error(fuse(noun, verb, MEAN_WEIGHTS))
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


# NumPy's ziggurat tables for standard_normal: wi as 256 little-endian float64,
# then ki as 256 little-endian uint64. Recomputed in double precision, 66 ki
# entries come out wrong, so they are data; tests/test_simulation.py re-probes
# both from the installed NumPy.
_ZIGGURAT = np.frombuffer(binascii.a2b_base64(
    "edkVeDtJzzzG9v3jC42LPLRbLDyvUJI8YTtEOLl8lTwMpy/o/AGYPLzQTC4MI5o892E4L00AnDx0"
    "cnRaL6ydPMPVTC1IMp88rbuOJzJNoDxDXQI7BfWgPHc2QZemkqE89Rp6j6InojyA2GM4LrWiPPWR"
    "V8A/PKM8L7GiwZ69ozxVm/+N7zmkPKf+PTa7saQ8dNMaYnUlpTyWzgengJWlPOp+2c8xAqY8PXyj"
    "YdJrpjxwBQCSotKmPKb4RtPaNqc8dyqzEK2YpzxD9UatRfinPHcKQ1PMVag8mnZ7nmSxqDyYz06p"
    "LgupPOoeLIJHY6k8RsU4jsm5qTwsp6TczA6qPFnNd21nYqo8MBYQbq20qjycbBNtsQWrPCl6QoeE"
    "Vas8Op9Sjjakqzwygr8q1vGrPPNOWflwPqw8YTsypROKrDyLJnL+ydSsPEi3gA6fHq08EB/kKZ1n"
    "rTzDuCMAzq+tPFN28ak69608/u3Stes9rjwAb3oz6YOuPM6C+b06ya48JmLwhOcNrzyI9thU9lGv"
    "PK7Xh55tla88rC76fVPYrzzsNELgVg2wPJqPOfVALrA8/KUWnupOsDwQoHJbVm+wPAv0cZCGj7A8"
    "E2G8hH2vsDx/zEtmPc+wPGsIFkvI7rA87hWVMiAOsTy+DzEHRy2xPEGRjp8+TLE8HiDEvwhrsTw0"
    "2ngap4mxPIht7lEbqLE8yyr4+GbGsTwu1OCTi+SxPJ+gQJmKArI86cbEcmUgsjwfw+l9HT6yPPtr"
    "qQy0W7I8f9MdZip5sjwb1xnHgZayPNouuGK7s7I8U7jhYtjQsjyOqcvo2e2yPNdIbg3BCrM8MLn0"
    "4Y4nszyhXiZwRESzPNVSyrriYLM8algFvmp9szxksrJv3ZmzPAM9uL87trM84B1WmIbSszyDWnLe"
    "vu6zPHSe4HHlCrQ8XXSmLfsmtDykMDzoAEO0PF3HynP3XrQ8NsNmnt96tDwvj0gyupa0PF1BAvaH"
    "srQ83BGzrEnOtDwFpjgWAOq0PGJVXu+rBbU8WosK8k0htTxPZmrV5jy1PMiyG053WLU8eF9VDgB0"
    "tTwUhQ7GgY+1PFkbJCP9qrU8PXN90XLGtTzTjC974+G1PDhen8hP/bU8wx+jYLgYtjyisKLoHTS2"
    "PAsmtwSBT7Y8cpbJV+Jqtjw3MbGDQoa2PLGyUCmiobY8u0Oz6AG9tjxS0yhhYti2PFT4YTHE87Y8"
    "62iL9ycPtzzGFGlRjiq3PNzucNz3Rbc8H3PlNWVhtzxJ9O/61ny3PJO9ushNmLc8CRSLPMqztzz7"
    "ItvzTM+3POfec4zW6rc8H+qGpGcGuDx2hsjaACK4PBWfic6iPbg8vfXRH05ZuDzFfnpvA3W4PC33"
    "R1/DkLg8Q8AFko6suDycDKGrZci4PCdqRFFJ5Lg8j7VzKToAuTxHgyjcOBy5PPwK7xJGOLk8iqID"
    "eWJUuTzu1XC7jnC5PDEqLonLjLk8v5k/kxmpuTws2dWMecW5PBF0byvs4bk8StL6JnL+uTySNvk5"
    "DBu6PFvIoiG7N7o8iLsLnn9UujykqUpyWnG6PD0xoGRMjro8CPGfPlarujzO9VrNeMi6PDazi+G0"
    "5bo8GqHDTwsDuzxbmJrwfCC7PAAM4KAKPrs8Az3OQbVbuzwniT+5fXm7PDz35fFkl7s8biWF22u1"
    "uzyiwC5rk9O7PIOugZvc8bs8oBbsbEgQvDwtevDl1y68PBwNbhOMTbw8BYfsCGZsvDwXpuvgZou8"
    "PKuiNr2Pqrw8kNY7x+HJvDw34GgwXum8PG6PizIGCb08IO83ENsovTxHxjMV3ki9PCPx55YQab08"
    "pfvX9HOJvTxwbiCZCaq9PA5J/PjSyr08Ny5SldHrvTwc0kn7Bg2+PPZG6sR0Lr48iNHBmRxQvjwl"
    "/pcvAHK+PAq/KkshlL48CG/3wIG2vjw6pxB2I9m+PKnsAWEI/L48IVPCijIfvzxtTbcPpEK/PGgB"
    "ySBfZr88gpeJBGaKvzy/InEYu66/PIXnL9Jg0788C/YYwVn4vzx1oNNH1A7APEfJjwKoIcA8qwKp"
    "g6k0wDzH9T5O2kfAPH6zrfY7W8A8aCanI9BuwDwXLmOPmILAPFSi6AiXlsA8xMBxdc2qwDxI1O7R"
    "Pb/APDA9qjTq08A8k2URz9TowDy2n6bv//3APEFwIARuE8E8NV27myEpwTxtCcRpHT/BPDsuYEhk"
    "VcE88+6dO/lrwTxhEtJ034LBPKzrTlYamsE8ji9/d62xwTyUpnGpnMnBPDmu5Pvr4cE8Adniwp/6"
    "wTyBzASdvBPCPO7Tb3pHLcI8JJyspEVHwjzgWHbHvGHCPC5ZqPqyfMI8eA53zS6YwjxSCipTN7TC"
    "PJfbljHU0MI89XipsQ3uwjzurlbS7AvDPKOkaF57KsM8oxKuBcRJwzxAqDN60mnDPApBVpKzisM8"
    "+oiucHWswzymBBezJ8/DPHX0YKrb8sM82uW5nKQXxDyUXlQVmD3EPBU6p0TOZMQ8vEOcdWKNxDwn"
    "Wmudc7fEPAKJzQ0l48Q8QazpU58QxTxCfjpSEUDFPBvkSqmxccU82Y1xi8ClxTz+0DokitzFPEwe"
    "hs9pFsY86moAe85TxjzD5Z++QJXGPDLiCY1r28Y8NHpf8CgnxzxzBglWlXnHPIzO1vQt1Mc8NPIp"
    "BQM5yDwUfKq/D6vIPJZEb5TgLsk8q1dAAe7LyTxad5R43I/KPLH9eDgfmMs8M60JgrQ7zTxq7yWA"
    "PfMOAAAAAAAAAAAAqMb7mL4IDABCgb36VKMNAOruwX72UQ4AfvfT6VWyDgC5yn6BS+8OAKpE+gpH"
    "GQ8AGMv/Ye03DwBcJWGVRk8PAJajG+SlYQ8ApJZTdXpwDwCaRCjssnwPANNXYwzxhg8A3iWDV6aP"
    "DwDa0E3HJJcPAAn12wepnQ8AdPqB9WCjDwD4S1veb6gPANxU02DxrA8AD7kYZ/uwDwDGdFONn7QP"
    "AHf+ZiPstw8ADuWh6ey6DwDtCwSdq70PAFds/2AwwA8ASKI3EILCDwDRW+J6psQPADHuepeixg8A"
    "pJYoqXrIDwCF3kteMsoPABojAunMyw8AxDn4Ek3NDwCZ7I9Ntc4PADDJHb8H0A8A5sTWTUbRDwBQ"
    "9OKoctIPAB7J8E+O0w8AeLSQmZrUDwBTD5K4mNUPAOyZjsCJ1g8AMujIqW7XDwDoCHtUSNgPAIws"
    "rYsX2Q8A0q2nB93ZDwCMXhBwmdoPACAuwF1N2w8A0PxbXPnbDwB9mrnrndwPAJ1yGIE73Q8AkC80"
    "iNLdDwBknzZkY94PAE5RjXDu3g8ALrSmAXTfDwBA7Zll9N8PAPIkvORv4A8AWKIlwubgDwBMuCg8"
    "WeEPAJk/vIzH4Q8Aqhzb6THiDwCRG9qFmOIPAIZBtY/74g8ASo1VM1vjDwAqANCZt+MPAH+tnukQ"
    "5A8ANHfURmfkDwBcCUzTuuQPACSV0q4L5Q8AeLxO91nlDwASEuTIpeUPAImGEz7v5Q8AeBDZbzbm"
    "DwB41cZ1e+YPAKoRHma+5g8A8vTlVf/mDwACpwBZPucPADmePoJ75w8AonBw47bnDwBDQneN8OcP"
    "AIzwU5Ao6A8AOhc1+17oDwBkCITck+gPALzO8EHH6A8A9k59OPnoDwAdm4fMKekPAOqI0wlZ6Q8A"
    "opqT+4bpDwBmSHGss+kPANW2lCbf6Q8AfOarcwnqDwCkZvGcMuoPACyVMqta6g8AGnTVpoHqDwDw"
    "HN6Xp+oPACDZ84XM6g8APOZlePDqDwAT7C92E+sPAEoq/oU16w8AtGIxrlbrDwD6hOL0dusPABQg"
    "5l+W6w8AfJ3P9LTrDwDQSfS40usPAD4ubrHv6w8A6L0e4wvsDwAVWrFSJ+wPANOvnQRC7A8AlvEp"
    "/VvsDwD07mxAdewPALQMUNKN7A8AEh+RtqXsDwD+J8TwvOwPABX7VITT7A8As8iIdOnsDwC3kX/E"
    "/uwPACiFNXcT7Q8AA0mEjyftDwBMLyQQO+0PAG5YrftN7Q8A3cOYVGDtDwDoT0Edcu0PAIKp5FeD"
    "7Q8AyCykBpTtDwAEt4UrpO0PALRqdMiz7Q8AUmZB38LtDwBSbqRx0e0PANOKPIHf7Q8AgJmQD+3t"
    "DwAU1A8e+u0PAMRLEq4G7g8ABlrZwBLuDwDgBpBXHu4PACRlS3Mp7g8AvOQKFTTuDwA8m7g9Pu4P"
    "APSCKe5H7g8AhrAdJ1HuDwBBf0DpWe4PAC60KDVi7g8A8ZdYC2ruDwB6Bz5sce4PAIJ7Mlh47g8A"
    "ugZ7z37uDwCySkjShO4PAENjtmCK7g8AUcjMeo/uDwDaJX4glO4PAOopqFGY7g8AXEgTDpzuDwD0"
    "c3JVn+4PAK7MYiei7g8ArEJrg6TuDwBxLfxopu4PAPrWbten7g8ACvoEzqjuDwA7M+hLqe4PABBk"
    "KVCp7g8AXgfA2ajuDwBUdonnp+4PACQdSHim7g8Ag56iiqTuDwDa5CIdou4PACQgNS6f7g8ALq8m"
    "vJvuDwDk8iTFl+4PADoKPEeT7g8AFnVVQI7uDwB6nDauiO4PAP09f46C7g8AiLin3nvuDwD/N/+b"
    "dO4PAF69qcNs7g8AfgCeUmTuDwCIKKNFW+4PALZXTplR7g8AzwYASkfuDwBQLOFTPO4PANgq4LIw"
    "7g8ABYKtYiTuDwBaPLheF+4PAEcUKqIJ7g8AzEnjJ/vtDwBsIXbq6+0PAH4EIuTb7Q8A0znODsvt"
    "DwD0LARkue0PAMk46dym7Q8Ajek3cpPtDwA2qDgcf+0PACvAudJp7Q8AAK4GjVPtDwAipN5BPO0P"
    "ANgvaucj7Q8AROYvcwrtDwA0/gfa7+wPALi3DhDU7A8AtG6VCLfsDwDBMBK2mOwPAHipDQp57A8A"
    "/jEP9VfsDwBiyYZmNewPADWztEwR7A8A0G+OlOvrDwCStqApxOsPANwM7vWa6w8AQoXJ4W/rDwCe"
    "H63TQusPAEstC7AT6w8A6QIaWeLqDwBXIpmuruoPACbjjo146g8A5XP9zz/qDwD22Y1MBOoPADtW"
    "L9bF6Q8ApEepO4TpDwAoRx1HP+kPANbFdr326A8A5ujEXaroDwDqsXrgWegPAECpkPYE6A8AwDOC"
    "SKvnDwClah91TOcPAAKiKhDo5g8A2Ku2oH3mDwB+MDifDOYPAEL3OHOU5Q8AgHKXcBTlDwBY9DbU"
    "i+QPADce/b/54w8AnLHuNV3jDwD+5C8SteIPAFdVmQMA4g8AFIN4gjzhDwCwZ+7EaOAPAKpxK7CC"
    "3w8Aqv5+xYfeDwD9O8YJdd0PABO/KeVG3A8AggIu+PjaDwB1urLhhdkPAATPSO/m1w8AC2W9rRPW"
    "DwAS8OJJAdQPAKzHtKeh0Q8Anh92BOLODwCyEV7YqMsPACItzW7Sxw8A7SIeLyvDDwA6uMCBZb0P"
    "ADRUAMQGtg8AdCgqWECsDwCYRQEel54PAPwdpEj6iQ8ALDDw98VmDwBKHDNLWhoPAA=="), "<u8")
_ZIGGURAT_WI, _ZIGGURAT_KI = _ZIGGURAT[:256].view("<f8"), _ZIGGURAT[256:]
