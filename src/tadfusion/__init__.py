"""Two-stream temporal action detection post-processing.

Library for the post-backbone half of a decoupled noun-verb action
detector: anchor-free boundary decode, sliding-window pooling, top-K
noun-verb composition, confidence-weighted boundary fusion with a
hard-mean baseline, class-wise Soft-NMS with boundary voting, and
tIoU/mAP evaluation. A seeded Monte-Carlo simulator measures the fusion
rules' boundary-error gap without a trained detector.
"""

__version__ = "0.1.0"

from .composition import (
    ActionCandidate,
    VocabSpec,
    compose_actions,
    decode_action_id,
    encode_action_id,
    top_k,
)
from .config import PipelineConfig, parse_config, parse_config_text
from .decode import (
    HeadOutput,
    StreamProposal,
    decode_anchor_free,
    pool_windows,
    pre_nms_select,
)
from .errors import (
    ActionIdOutOfRange,
    DegenerateInterval,
    DimensionMismatch,
    EmptySequence,
    EmptyVector,
    InvalidConfig,
    InvalidOverlap,
    LengthMismatch,
    ParseError,
    PipelineError,
    SchemaMismatch,
    UnknownKey,
    VocabularyMismatch,
    WindowMismatch,
)
from .evaluation import (
    EvalConfig,
    GroundTruthInstance,
    MeanApResult,
    average_precision,
    match_detections,
    mean_ap,
)
from .fusion import (
    FusionWeights,
    dwf_weights,
    fuse_boundaries,
    hard_mean_fusion,
    stream_confidences,
)
from .io import (
    ProposalRecord,
    SubmissionDocument,
    build_submission,
    read_ground_truth,
    read_proposal_file,
    read_submission,
    serialize_submission,
    submission_detections,
    write_ground_truth,
    write_proposal_file,
    write_submission,
)
from .pipeline import (
    evaluate_detections,
    evaluate_files,
    format_metrics_keyvalues,
    format_metrics_table,
    run_pipeline,
)
from .reliability import (
    GatedSequence,
    apply_gate,
    cross_window_attention,
    uncertainty_gate,
)
from .simulation import (
    FusionReport,
    Scenario,
    ScenarioConfig,
    compare_fusion,
    generate_scenario,
    scenario_to_records,
)
from .suppression import (
    ActionDetection,
    NmsConfig,
    NMS_PRESETS,
    NOUN_NMS,
    VERB_ACTION_NMS,
    soft_nms,
    suppress_video,
    temporal_iou,
)
from .timeline import (
    FeatureGrid,
    Window,
    boundary_to_seconds,
    feature_index_to_seconds,
    generate_windows,
    seconds_to_feature_coord,
)
