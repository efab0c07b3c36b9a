"""Seeded Monte-Carlo comparison of fusion strategies.

Generates synthetic ground-truth segments and two noisy proposal streams
whose boundary noise shrinks as their drawn confidence grows, the regime
where the more confident stream really is the more reliable one. Running
confidence-weighted fusion and the hard mean over the same draws then
measures the expected absolute boundary-error gap directly, without any
trained detector in the loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .composition import VocabSpec
from .errors import InvalidConfig
from .evaluation import GroundTruthInstance
from .fusion import (
    DEFAULT_FUSION_EPSILON,
    dwf_weights,
    fuse_boundaries,
    hard_mean_fusion,
    stream_confidences,
)

_MAX_NOISE_RESAMPLES = 10_000


@dataclass(frozen=True)
class ScenarioConfig:
    """Parameters of one synthetic two-stream scenario.

    Per-stream confidences are drawn uniformly from
    [confidence_lo, confidence_hi]; boundary noise for a stream with
    confidence C is zero-mean Gaussian with standard deviation
    ``sigma_max * (1 - C) + sigma_min`` seconds, independently on start
    and end. The defaults give the asymmetric regime where stream
    reliabilities genuinely differ.
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
    video_id: str = "sim"
    vocab: VocabSpec = field(default_factory=VocabSpec)

    def __post_init__(self):
        if self.num_segments < 1:
            raise InvalidConfig("num_segments must be >= 1")
        if self.video_length_s <= 0.0:
            raise InvalidConfig("video_length_s must be positive")
        if not 0.0 <= self.confidence_lo <= self.confidence_hi <= 1.0:
            raise InvalidConfig("confidence bounds must satisfy 0 <= lo <= hi <= 1")
        if self.sigma_min < 0.0 or self.sigma_max < self.sigma_min:
            raise InvalidConfig("noise law requires 0 <= sigma_min <= sigma_max")
        if not 0.0 < self.min_segment_s <= self.max_segment_s:
            raise InvalidConfig("segment length bounds must satisfy 0 < min <= max")
        if self.max_segment_s > self.video_length_s:
            raise InvalidConfig("max_segment_s exceeds video length")
        if self.seed < 0:
            raise InvalidConfig("seed must be >= 0")

    def noise_std(self, confidence: float) -> float:
        return self.sigma_max * (1.0 - confidence) + self.sigma_min


@dataclass(eq=False)
class StreamProposal:
    """One stream's noisy boundary (seconds) and its class scores."""

    boundary: tuple[float, float]
    scores: np.ndarray


@dataclass
class Scenario:
    """Ground truth plus aligned noisy noun and verb proposal streams."""

    config: ScenarioConfig
    ground_truth: list[GroundTruthInstance]
    noun_stream: list[StreamProposal]
    verb_stream: list[StreamProposal]


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
    # the vector maximum must equal the drawn confidence; the uniform
    # filler is capped below it for degenerate (tiny-vocab) configs
    if size == 1:
        return np.array([confidence])
    filler = (1.0 - confidence) / (size - 1)
    if confidence > 0.0:
        filler = min(filler, 0.5 * confidence)
    vec = np.full(size, filler)
    vec[true_class] = confidence
    return vec


def _noisy_boundary(
    rng: np.random.Generator,
    true_boundary: tuple[float, float],
    std: float,
    video_length: float,
) -> tuple[float, float]:
    # resample, rather than truncate, to avoid biasing noise near edges
    for _ in range(_MAX_NOISE_RESAMPLES):
        start = true_boundary[0] + rng.normal(0.0, std)
        end = true_boundary[1] + rng.normal(0.0, std)
        if 0.0 <= start < end <= video_length:
            return (start, end)
    raise InvalidConfig(
        "could not draw a valid noisy boundary; noise scale is too large "
        "for the video length"
    )


def generate_scenario(cfg: ScenarioConfig) -> Scenario:
    """Draw a scenario deterministically from its seed.

    Every segment consumes an independent child stream of the master
    seed, so results are identical regardless of evaluation order and
    segments could be generated in parallel.
    """
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.num_segments)
    ground_truth = []
    noun_stream = []
    verb_stream = []
    for seq in seeds:
        rng = np.random.default_rng(seq)
        length = rng.uniform(cfg.min_segment_s, cfg.max_segment_s)
        start = rng.uniform(0.0, cfg.video_length_s - length)
        true_boundary = (start, start + length)
        verb = int(rng.integers(cfg.vocab.verb_count))
        noun = int(rng.integers(cfg.vocab.noun_count))
        c_noun = rng.uniform(cfg.confidence_lo, cfg.confidence_hi)
        c_verb = rng.uniform(cfg.confidence_lo, cfg.confidence_hi)
        noun_boundary = _noisy_boundary(
            rng, true_boundary, cfg.noise_std(c_noun), cfg.video_length_s
        )
        verb_boundary = _noisy_boundary(
            rng, true_boundary, cfg.noise_std(c_verb), cfg.video_length_s
        )
        ground_truth.append(
            GroundTruthInstance(
                video_id=cfg.video_id,
                start=true_boundary[0],
                end=true_boundary[1],
                verb_index=verb,
                noun_index=noun,
            )
        )
        noun_stream.append(
            StreamProposal(
                boundary=noun_boundary,
                scores=_score_vector(cfg.vocab.noun_count, noun, c_noun),
            )
        )
        verb_stream.append(
            StreamProposal(
                boundary=verb_boundary,
                scores=_score_vector(cfg.vocab.verb_count, verb, c_verb),
            )
        )
    return Scenario(
        config=cfg,
        ground_truth=ground_truth,
        noun_stream=noun_stream,
        verb_stream=verb_stream,
    )


def scenario_to_records(scenario: Scenario, grid=None) -> list["ProposalRecord"]:
    """Export a scenario as aligned proposal records for the pipeline.

    Noisy boundaries (in seconds) are mapped to feature coordinates of a
    single window starting at feature 0. Coordinates before the grid's
    first center come out negative; the pipeline clamps them on the way
    back to seconds.
    """
    from .io import ProposalRecord
    from .timeline import FeatureGrid, seconds_to_feature_coord

    if grid is None:
        grid = FeatureGrid()
    records = []
    for noun, verb in zip(scenario.noun_stream, scenario.verb_stream):
        records.append(
            ProposalRecord(
                video_id=scenario.config.video_id,
                window_start=0,
                noun_boundary=(
                    seconds_to_feature_coord(noun.boundary[0], grid),
                    seconds_to_feature_coord(noun.boundary[1], grid),
                ),
                noun_scores=noun.scores,
                verb_boundary=(
                    seconds_to_feature_coord(verb.boundary[0], grid),
                    seconds_to_feature_coord(verb.boundary[1], grid),
                ),
                verb_scores=verb.scores,
            )
        )
    return records


def _boundary_error(boundary: tuple[float, float], truth: tuple[float, float]) -> float:
    return abs(boundary[0] - truth[0]) + abs(boundary[1] - truth[1])


def compare_fusion(
    scenario: Scenario, epsilon: float = DEFAULT_FUSION_EPSILON
) -> FusionReport:
    """Measure per-segment boundary errors of both fusion strategies."""
    n = len(scenario.ground_truth)
    err_dwf = np.empty(n)
    err_mean = np.empty(n)
    confidences = np.empty(2 * n)
    stream_errors = np.empty(2 * n)
    for i, gt in enumerate(scenario.ground_truth):
        noun = scenario.noun_stream[i]
        verb = scenario.verb_stream[i]
        c_noun, c_verb = stream_confidences(noun.scores, verb.scores)
        weights = dwf_weights(c_noun, c_verb, epsilon)
        fused = fuse_boundaries(noun.boundary, verb.boundary, weights)
        averaged = hard_mean_fusion(noun.boundary, verb.boundary)
        err_dwf[i] = _boundary_error(fused, gt.interval)
        err_mean[i] = _boundary_error(averaged, gt.interval)
        confidences[2 * i] = c_noun
        confidences[2 * i + 1] = c_verb
        stream_errors[2 * i] = _boundary_error(noun.boundary, gt.interval)
        stream_errors[2 * i + 1] = _boundary_error(verb.boundary, gt.interval)

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
