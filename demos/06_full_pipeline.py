"""The whole chain on synthetic data: proposals in, metrics out.

Generates a noisy two-stream scenario, writes it in the proposal file
format, runs the pipeline under both fusion modes, and scores the two
submissions against the scenario's ground truth. The weighted-fusion run
should match or beat the hard mean at the strict tIoU thresholds, where
boundary precision decides matches.
"""

import tempfile
from pathlib import Path

from tadfusion.config import PipelineConfig
from tadfusion.io import (
    VideoTable,
    read_proposal_file,
    serialize_submission,
    write_proposal_file,
)
from tadfusion.pipeline import evaluate_files, format_metrics_table, run_pipeline
from tadfusion.simulation import (
    VIDEO_ID,
    ScenarioConfig,
    generate_scenario,
    scenario_to_records,
)

scenario = generate_scenario(
    ScenarioConfig(
        num_segments=150,
        video_length_s=1500.0,
        seed=3,
        min_segment_s=1.0,
        max_segment_s=4.0,
    )
)
print(f"scenario: {len(scenario.truth)} ground-truth segments, one video\n")

with tempfile.TemporaryDirectory(prefix="tadfusion_demo_") as tmp:
    workdir = Path(tmp)
    proposal_path = workdir / "proposals.txt"
    write_proposal_file(proposal_path, scenario_to_records(scenario))
    proposals = read_proposal_file(proposal_path)
    print(f"wrote and re-read {len(proposals)} aligned proposal records: {proposal_path}")

    for mode in ("mean", "dwf"):
        cfg = PipelineConfig(fusion_mode=mode)
        submission = run_pipeline(proposals, cfg)
        out_path = workdir / f"submission_{mode}.json"
        out_path.write_text(serialize_submission(submission), encoding="utf-8")
        count = len(submission)
        print(f"\n=== fusion mode: {mode} ({count} detections) -> {out_path}")
        # ground truth goes in as one table of its video ids, as the reader returns it
        results = evaluate_files(submission, VideoTable([VIDEO_ID], scenario.truth))
        print(format_metrics_table(results))
