"""The whole chain on synthetic data: proposals in, metrics out.

Generates a noisy two-stream scenario, writes it in the proposal file
format, runs the pipeline under both fusion modes, and scores the two
submissions against the scenario's ground truth. The weighted-fusion run
should match or beat the hard mean at the strict tIoU thresholds, where
boundary precision decides matches.
"""

import tempfile
from pathlib import Path

from tadfusion import (
    PipelineConfig,
    ScenarioConfig,
    generate_scenario,
    read_proposal_file,
    run_pipeline,
    scenario_to_records,
    submission_detections,
    write_proposal_file,
    write_submission,
)
from tadfusion.pipeline import evaluate_detections, format_metrics_table

scenario = generate_scenario(
    ScenarioConfig(
        num_segments=150,
        video_length_s=1500.0,
        seed=3,
        min_segment_s=1.0,
        max_segment_s=4.0,
    )
)
print(f"scenario: {len(scenario.ground_truth)} ground-truth segments, one video\n")

with tempfile.TemporaryDirectory(prefix="tadfusion_demo_") as tmp:
    workdir = Path(tmp)
    proposal_path = workdir / "proposals.txt"
    write_proposal_file(proposal_path, scenario_to_records(scenario))
    records = read_proposal_file(proposal_path)
    print(f"wrote and re-read {len(records)} aligned proposal records: {proposal_path}")

    for mode in ("mean", "dwf"):
        cfg = PipelineConfig(fusion_mode=mode)
        submission = run_pipeline(records, cfg)
        out_path = workdir / f"submission_{mode}.json"
        write_submission(out_path, submission)
        dets = submission_detections(submission)
        print(f"\n=== fusion mode: {mode} ({len(dets)} detections) -> {out_path}")
        results = evaluate_detections(dets, scenario.ground_truth)
        print(format_metrics_table(results))
