"""Pipeline configuration: defaults and the key-value file format.

The file format is deliberately plain: UTF-8 text, one ``key = value``
per line, ``#`` comments. Every key has a default matching the constants
the pipeline was tuned with, so an empty file is a valid configuration.
Unknown and repeated keys are rejected rather than ignored; silent typos
in a post-processing config are a classic way to ship a broken submission.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .composition import DEFAULT_TOP_K_NOUNS, DEFAULT_TOP_K_VERBS, VocabSpec
from .errors import InvalidConfig, ParseError, UnknownKey
from .evaluation import DEFAULT_TIOU_THRESHOLDS, EvalConfig
from .fusion import DEFAULT_FUSION_EPSILON, FUSION_MODES
from .io import SUBMISSION_VERSION, open_text, require_finite
from .simulation import ScenarioConfig
from .suppression import NMS_PRESETS, NmsConfig
from .timeline import DEFAULT_WINDOW_LENGTH, DEFAULT_WINDOW_OVERLAP, FeatureGrid, generate_windows


@dataclass(frozen=True)
class PipelineConfig:
    """All pipeline constants, with the defaults the system was tuned at."""

    stride_frames: int = FeatureGrid.stride_frames
    offset_frames: int = FeatureGrid.offset_frames
    fps: float = FeatureGrid.fps
    window_length: int = DEFAULT_WINDOW_LENGTH
    window_overlap: float = DEFAULT_WINDOW_OVERLAP
    noun_count: int = VocabSpec.noun_count
    verb_count: int = VocabSpec.verb_count
    top_k_nouns: int = DEFAULT_TOP_K_NOUNS
    top_k_verbs: int = DEFAULT_TOP_K_VERBS
    epsilon: float = DEFAULT_FUSION_EPSILON
    fusion_mode: str = "dwf"
    nms_preset: str = "verb_action"
    pre_nms_cap: int = NmsConfig.pre_nms_cap
    max_per_video: int = NmsConfig.max_per_video
    eval_thresholds: tuple[float, ...] = DEFAULT_TIOU_THRESHOLDS
    submission_version: str = SUBMISSION_VERSION
    sim_segments: int = ScenarioConfig.num_segments
    sim_video_length: float = ScenarioConfig.video_length_s
    sim_confidence_lo: float = ScenarioConfig.confidence_lo
    sim_confidence_hi: float = ScenarioConfig.confidence_hi
    sim_sigma_min: float = ScenarioConfig.sigma_min
    sim_sigma_max: float = ScenarioConfig.sigma_max
    sim_seed: int = ScenarioConfig.seed

    def grid(self) -> FeatureGrid:
        return FeatureGrid(
            stride_frames=self.stride_frames, offset_frames=self.offset_frames, fps=self.fps
        )

    def vocab(self) -> VocabSpec:
        return VocabSpec(noun_count=self.noun_count, verb_count=self.verb_count)

    def nms_config(self) -> NmsConfig:
        if self.nms_preset not in NMS_PRESETS:
            raise InvalidConfig(f"nms_preset must be one of {tuple(NMS_PRESETS)}")
        return replace(NMS_PRESETS[self.nms_preset], pre_nms_cap=self.pre_nms_cap,
                       max_per_video=self.max_per_video)

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
    (lambda cfg: generate_windows(1, cfg.window_length, cfg.window_overlap),
     ("window_length", "window_overlap")),
    (PipelineConfig.vocab, ("noun_count", "verb_count")),
    (PipelineConfig.nms_config, ("nms_preset", "pre_nms_cap", "max_per_video")),
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


def _failure(build, cfg: PipelineConfig) -> InvalidConfig | None:
    try:
        build(cfg)
    except InvalidConfig as exc:
        return exc
    return None


def _validate(cfg: PipelineConfig, given) -> PipelineConfig:
    """Check ``cfg``; a ParseError names the offending keys among ``given``:
    those whose default alone lets the object build, else all it reads."""
    for key in ("top_k_nouns", "top_k_verbs", "epsilon"):
        if getattr(cfg, key) <= 0:
            raise ParseError("value must be positive", key=key)
    if cfg.fusion_mode not in FUSION_MODES:
        raise ParseError(f"fusion_mode must be one of {FUSION_MODES}", key="fusion_mode")
    for build, keys in _CHECKED_OBJECTS:
        if exc := _failure(build, cfg):
            keys = [k for k in keys if k in given]
            fixing = [k for k in keys if not _failure(
                build, replace(cfg, **{k: getattr(PipelineConfig, k)}))]
            raise ParseError(str(exc), key=", ".join(fixing or keys))
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
        if key in values:
            raise ParseError("repeated configuration key", line=lineno, key=key)
        values[key] = _parse_value(key, raw)
    return _validate(PipelineConfig(**values), values)


def parse_config(path, overrides=None) -> PipelineConfig:
    """The file at ``path`` (no path or an empty body means defaults), then
    ``overrides``, typed values by key, checked like file values. The file
    is checked first, so an override never hides an invalid file value."""
    cfg = PipelineConfig()
    if path:
        with open_text(path) as handle:
            cfg = parse_config_text(handle.read())
    return _validate(replace(cfg, **overrides), overrides) if overrides else cfg
