"""Pipeline configuration: defaults and the key-value file format.

The file format is deliberately plain: UTF-8 text, one ``key = value``
per line, ``#`` comments. Every key has a default matching the constants
the pipeline was tuned with, so an empty file is a valid configuration.
Unknown and repeated keys are rejected rather than ignored; silent typos
in a post-processing config are a classic way to ship a broken submission.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .composition import DEFAULT_TOP_K_NOUNS, DEFAULT_TOP_K_VERBS, VocabSpec, compose_actions
from .errors import InvalidConfig, ParseError
from .evaluation import DEFAULT_TIOU_THRESHOLDS, EvalConfig
from .fusion import DEFAULT_FUSION_EPSILON, dwf_weights, fuse_proposals
from .io import SUBMISSION_VERSION, data_lines, open_text, parse_number, parse_proposals
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

_NO_PROPOSALS = parse_proposals(())

# The objects a config builds, each validating itself, and the keys it reads.
# A stage that takes no object checks its values on empty input; epsilon has
# an entry of its own, since simulate reads it under either fusion mode.
_CHECKED_OBJECTS = (
    (lambda cfg: compose_actions(_NO_PROPOSALS.noun_entries, _NO_PROPOSALS.verb_entries,
                                 cfg.top_k_nouns, cfg.top_k_verbs),
     ("top_k_nouns", "top_k_verbs")),
    (lambda cfg: dwf_weights(0.0, 0.0, cfg.epsilon), ("epsilon",)),
    (lambda cfg: fuse_proposals(_NO_PROPOSALS, cfg.fusion_mode), ("fusion_mode",)),
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
    if kind == "str":
        return raw
    if kind in ("int", "float"):
        return parse_number(kind, raw, key=key)
    # tuple[float, ...]: comma-separated values, none of them empty
    return tuple(parse_number("float", item, key=key) for item in raw.split(","))


def _failure(build, cfg: PipelineConfig) -> InvalidConfig | None:
    try:
        build(cfg)
    except InvalidConfig as exc:
        return exc
    return None


def _validate(cfg: PipelineConfig, given) -> PipelineConfig:
    """Check ``cfg``; a ParseError names the offending keys among ``given``:
    those whose default alone lets the object build, else all it reads."""
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
    for lineno, line in data_lines(text.splitlines()):
        if "=" not in line:
            raise ParseError("expected 'key = value'", line=lineno)
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _FIELD_TYPES:
            raise ParseError(f"unknown configuration key {key!r}", line=lineno)
        if key in values:
            raise ParseError("repeated configuration key", line=lineno, key=key)
        values[key] = _parse_value(key, raw)
    return _validate(PipelineConfig(**values), values)


def parse_config(path, flags=None) -> PipelineConfig:
    """The file at ``path`` (``None`` or an empty body means defaults), then
    each entry of ``flags`` named after a key and not ``None``: text, read
    and checked like a file value. Other entries are ignored. The file is
    checked first, so a flag never hides an invalid file value."""
    cfg = PipelineConfig()
    if path is not None:
        with open_text(path) as handle:
            cfg = parse_config_text(handle.read())
    given = {key: _parse_value(key, raw) for key, raw in (flags or {}).items()
             if key in _FIELD_TYPES and raw is not None}
    return _validate(replace(cfg, **given), given) if given else cfg
