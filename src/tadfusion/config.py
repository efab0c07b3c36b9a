"""Pipeline configuration: defaults and the key-value file format.

The file format is deliberately plain: UTF-8 text, one ``key = value``
per line, ``#`` comments. Every key has a default matching the constants
the pipeline was tuned with, so an empty file is a valid configuration.
Unknown keys are rejected rather than ignored; silent typos in a
post-processing config are a classic way to ship a broken submission.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .composition import (
    DEFAULT_NOUN_COUNT,
    DEFAULT_TOP_K_NOUNS,
    DEFAULT_TOP_K_VERBS,
    DEFAULT_VERB_COUNT,
    VocabSpec,
)
from .errors import InvalidConfig, ParseError, UnknownKey
from .evaluation import DEFAULT_TIOU_THRESHOLDS, EvalConfig
from .fusion import DEFAULT_FUSION_EPSILON, FUSION_MODES
from .io import SUBMISSION_VERSION, require_finite
from .simulation import ScenarioConfig
from .suppression import (
    DEFAULT_MAX_PER_VIDEO,
    DEFAULT_PRE_NMS_CAP,
    NMS_PRESETS,
    NmsConfig,
)
from .timeline import (
    DEFAULT_FPS,
    DEFAULT_OFFSET_FRAMES,
    DEFAULT_STRIDE_FRAMES,
    DEFAULT_WINDOW_LENGTH,
    DEFAULT_WINDOW_OVERLAP,
    FeatureGrid,
)


@dataclass
class PipelineConfig:
    """All pipeline constants, with the defaults the system was tuned at."""

    stride_frames: int = DEFAULT_STRIDE_FRAMES
    offset_frames: int = DEFAULT_OFFSET_FRAMES
    fps: float = DEFAULT_FPS
    window_length: int = DEFAULT_WINDOW_LENGTH
    window_overlap: float = DEFAULT_WINDOW_OVERLAP
    noun_count: int = DEFAULT_NOUN_COUNT
    verb_count: int = DEFAULT_VERB_COUNT
    top_k_nouns: int = DEFAULT_TOP_K_NOUNS
    top_k_verbs: int = DEFAULT_TOP_K_VERBS
    epsilon: float = DEFAULT_FUSION_EPSILON
    fusion_mode: str = "dwf"
    nms_preset: str = "verb_action"
    pre_nms_cap: int = DEFAULT_PRE_NMS_CAP
    max_per_video: int = DEFAULT_MAX_PER_VIDEO
    eval_thresholds: tuple[float, ...] = DEFAULT_TIOU_THRESHOLDS
    submission_version: str = SUBMISSION_VERSION
    sim_segments: int = 1000
    sim_video_length: float = 600.0
    sim_confidence_lo: float = 0.1
    sim_confidence_hi: float = 0.95
    sim_sigma_min: float = 0.05
    sim_sigma_max: float = 1.0
    sim_seed: int = 0

    def grid(self, window_start_frame: int = 0) -> FeatureGrid:
        return FeatureGrid(
            stride_frames=self.stride_frames,
            offset_frames=self.offset_frames,
            fps=self.fps,
            window_start_frame=window_start_frame,
        )

    def vocab(self) -> VocabSpec:
        return VocabSpec(noun_count=self.noun_count, verb_count=self.verb_count)

    def nms_config(self) -> NmsConfig:
        preset = NMS_PRESETS[self.nms_preset]
        return NmsConfig(
            sigma=preset.sigma,
            min_score=preset.min_score,
            vote_threshold=preset.vote_threshold,
            pre_nms_cap=self.pre_nms_cap,
            max_per_video=self.max_per_video,
        )

    def scenario(self) -> ScenarioConfig:
        return ScenarioConfig(
            num_segments=self.sim_segments,
            video_length_s=self.sim_video_length,
            confidence_lo=self.sim_confidence_lo,
            confidence_hi=self.sim_confidence_hi,
            sigma_min=self.sim_sigma_min,
            sigma_max=self.sim_sigma_max,
            seed=self.sim_seed,
            vocab=self.vocab(),
        )


_FIELD_TYPES = {f.name: f.type for f in fields(PipelineConfig)}

# The objects a config builds, each validating itself, and the keys it reads.
_CHECKED_OBJECTS = (
    (PipelineConfig.grid, ("stride_frames", "offset_frames", "fps")),
    (PipelineConfig.vocab, ("noun_count", "verb_count")),
    (PipelineConfig.nms_config, ("pre_nms_cap", "max_per_video")),
    (lambda cfg: EvalConfig(thresholds=cfg.eval_thresholds), ("eval_thresholds",)),
    (PipelineConfig.scenario, tuple(f for f in _FIELD_TYPES if f.startswith("sim_"))),
)


def _parse_value(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return require_finite(float(raw), key=key)
        if kind == "str":
            return raw
        # tuple[float, ...]: comma-separated values
        return tuple(
            require_finite(float(tok), key=key) for tok in raw.split(",") if tok.strip()
        )
    except ValueError as exc:
        raise ParseError(f"cannot parse value {raw!r}: {exc}", key=key) from None


def _validate(cfg: PipelineConfig, given) -> PipelineConfig:
    """Check ``cfg``; a ParseError names the offending keys among ``given``."""
    for key in ("window_length", "top_k_nouns", "top_k_verbs", "epsilon"):
        if getattr(cfg, key) <= 0:
            raise ParseError("value must be positive", key=key)
    if not 0.0 <= cfg.window_overlap < 1.0:
        raise ParseError("overlap must lie in [0, 1)", key="window_overlap")
    if cfg.fusion_mode not in FUSION_MODES:
        raise ParseError(f"fusion_mode must be one of {FUSION_MODES}", key="fusion_mode")
    if cfg.nms_preset not in NMS_PRESETS:
        raise ParseError(
            f"nms_preset must be one of {tuple(NMS_PRESETS)}", key="nms_preset"
        )
    for build, keys in _CHECKED_OBJECTS:
        try:
            build(cfg)
        except InvalidConfig as exc:
            raise ParseError(str(exc), key=", ".join(k for k in keys if k in given)) from None
    return cfg


def parse_config_text(text: str) -> PipelineConfig:
    """Parse ``key = value`` lines into a validated PipelineConfig."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParseError("expected 'key = value'", line=lineno)
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _FIELD_TYPES:
            raise UnknownKey(f"unknown configuration key {key!r}", line=lineno)
        values[key] = _parse_value(key, raw)
    return _validate(PipelineConfig(**values), values)


def parse_config(path) -> PipelineConfig:
    """Read a configuration file; an empty or absent body means defaults."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config_text(handle.read())
