import json
import math
import subprocess
import sys

import numpy as np
import pytest

from tadfusion.composition import VocabSpec
from tadfusion.config import PipelineConfig
from tadfusion.evaluation import GroundTruthInstance
from tadfusion.io import (
    ProposalRecord,
    read_submission,
    serialize_submission,
    submission_detections,
    write_ground_truth,
    write_proposal_file,
)
from tadfusion.pipeline import (
    evaluate_files,
    format_metrics_keyvalues,
    format_metrics_table,
    run_pipeline,
)

VOCAB = VocabSpec()


def record(video="P01_101", window_start=0, noun_b=(10.0, 20.0), verb_b=(14.0, 24.0),
           noun_idx=5, noun_p=0.9, verb_idx=3, verb_p=0.8):
    noun_scores = np.zeros(300)
    noun_scores[noun_idx] = noun_p
    verb_scores = np.zeros(97)
    verb_scores[verb_idx] = verb_p
    return ProposalRecord(
        video_id=video,
        window_start=window_start,
        noun_boundary=noun_b,
        noun_scores=noun_scores,
        verb_boundary=verb_b,
        verb_scores=verb_scores,
    )


class TestRunPipeline:
    def test_single_confident_pair(self):
        doc = run_pipeline([record()], PipelineConfig())
        dets = doc.results["P01_101"]
        assert len(dets) == 1
        d = dets[0]
        assert d.score == pytest.approx(math.sqrt(0.9 * 0.8), abs=1e-4)
        assert (d.verb_index, d.noun_index) == (3, 5)
        # dwf-fused boundary in feature coords, then seconds via the grid
        w_noun = 0.9 / (0.9 + 0.8 + 1e-6)
        w_verb = 0.8 / (0.9 + 0.8 + 1e-6)
        fused = (w_noun * 10 + w_verb * 14, w_noun * 20 + w_verb * 24)
        assert d.start == pytest.approx((fused[0] * 8 + 4) / 30, abs=1e-4)
        assert d.end == pytest.approx((fused[1] * 8 + 4) / 30, abs=1e-4)

    def test_mean_mode_uses_plain_average(self):
        cfg = PipelineConfig(fusion_mode="mean")
        doc = run_pipeline([record()], cfg)
        d = doc.results["P01_101"][0]
        assert d.start == pytest.approx((12.0 * 8 + 4) / 30, abs=1e-4)
        assert d.end == pytest.approx((22.0 * 8 + 4) / 30, abs=1e-4)

    def test_window_start_shifts_seconds(self):
        doc = run_pipeline([record(window_start=2304)], PipelineConfig(fusion_mode="mean"))
        d = doc.results["P01_101"][0]
        # W0 = 2304 features * 8 frames, shifting everything by 614.4 s
        assert d.start == pytest.approx((12.0 * 8 + 2304 * 8 + 4) / 30, abs=1e-4)

    def test_deterministic_output(self):
        records = [record(), record(video="P01_102", noun_idx=7)]
        a = serialize_submission(run_pipeline(records, PipelineConfig()))
        b = serialize_submission(run_pipeline(records, PipelineConfig()))
        assert a == b

    def test_empty_input_warns_and_emits_empty(self, caplog):
        with caplog.at_level("WARNING"):
            doc = run_pipeline([], PipelineConfig())
        assert doc.results == {}
        assert any("empty submission" in r.message for r in caplog.records)

    def test_duplicate_windows_suppressed_by_decay(self):
        # same action from two overlapping windows at tIoU 1.0: the copy
        # decays by exp(-2.5); with P = 0.01 each, S = 0.01 and the copy
        # falls below the 0.001 minimum score
        weak = [
            record(window_start=0, noun_p=0.01, verb_p=0.01),
            record(window_start=0, noun_p=0.01, verb_p=0.01),
        ]
        doc = run_pipeline(weak, PipelineConfig())
        assert len(doc.results["P01_101"]) == 1
        # with stronger scores the duplicate survives with a decayed score
        strong = [record(), record()]
        doc = run_pipeline(strong, PipelineConfig())
        dets = doc.results["P01_101"]
        assert len(dets) == 2
        expected = math.sqrt(0.72) * math.exp(-1.0 / 0.4)
        assert dets[1].score == pytest.approx(expected, abs=1e-4)

    def test_below_min_score_candidates_dropped(self):
        doc = run_pipeline([record(noun_p=0.001, verb_p=0.0005)], PipelineConfig())
        # S = sqrt(5e-7) ~ 7e-4 < 0.001 under the verb_action preset
        assert doc.results["P01_101"] == []

    def test_noun_preset_keeps_weaker_candidates_out(self):
        cfg = PipelineConfig(nms_preset="noun")
        doc = run_pipeline([record(noun_p=0.003, verb_p=0.003)], cfg)
        # S = 0.003 < noun preset minimum 0.005
        assert doc.results["P01_101"] == []


class TestEvaluateFiles:
    def test_submission_equal_to_ground_truth_scores_one(self):
        doc = run_pipeline([record()], PipelineConfig(fusion_mode="mean"))
        d = doc.results["P01_101"][0]
        gts = [
            GroundTruthInstance("P01_101", d.start, d.end, verb_index=3, noun_index=5)
        ]
        results = evaluate_files(doc, gts)
        for task in ("verb", "noun", "action"):
            assert results[task].average == pytest.approx(1.0)

    def test_empty_results_score_zero(self):
        doc = run_pipeline([], PipelineConfig())
        gts = [GroundTruthInstance("P01_101", 0.0, 1.0, 0, 0)]
        results = evaluate_files(doc, gts)
        for task in ("verb", "noun", "action"):
            assert results[task].average == 0.0

    def test_table_and_keyvalue_formats(self):
        doc = run_pipeline([record()], PipelineConfig())
        gts = [GroundTruthInstance("P01_101", 3.0, 6.0, verb_index=3, noun_index=5)]
        results = evaluate_files(doc, gts)
        table = format_metrics_table(results)
        assert "mAP@0.1" in table and "action" in table
        kv = format_metrics_keyvalues(results)
        assert any(line.startswith("action_map_avg = ") for line in kv.splitlines())


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "tadfusion", *args],
        capture_output=True,
        text=True,
    )


class TestCli:
    def test_pipeline_roundtrip_and_determinism(self, tmp_path):
        proposals = tmp_path / "proposals.txt"
        write_proposal_file(proposals, [record()])
        out1 = tmp_path / "sub1.json"
        out2 = tmp_path / "sub2.json"
        r1 = run_cli("pipeline", "--proposals", str(proposals), "--output", str(out1))
        r2 = run_cli("pipeline", "--proposals", str(proposals), "--output", str(out2))
        assert r1.returncode == 0 and r2.returncode == 0
        assert out1.read_bytes() == out2.read_bytes()
        payload = json.loads(out1.read_text())
        assert payload["challenge"] == "action_detection"
        assert len(payload["results"]["P01_101"]) == 1

    def test_fuse_subcommand(self, tmp_path):
        proposals = tmp_path / "proposals.txt"
        write_proposal_file(proposals, [record()])
        result = run_cli("fuse", "--proposals", str(proposals), "--fusion-mode", "mean")
        assert result.returncode == 0
        assert "P01_101 12.0000 22.0000" in result.stdout

    def test_nms_subcommand(self, tmp_path):
        proposals = tmp_path / "proposals.txt"
        write_proposal_file(proposals, [record(), record()])
        submission = tmp_path / "sub.json"
        run_cli("pipeline", "--proposals", str(proposals), "--output", str(submission))
        result = run_cli("nms", "--input", str(submission))
        assert result.returncode == 0
        assert json.loads(result.stdout)["challenge"] == "action_detection"

    def test_eval_subcommand(self, tmp_path):
        proposals = tmp_path / "proposals.txt"
        write_proposal_file(proposals, [record()])
        submission = tmp_path / "sub.json"
        run_cli("pipeline", "--proposals", str(proposals), "--output", str(submission))
        doc = read_submission(submission)
        d = submission_detections(doc)[0]
        gt_path = tmp_path / "gt.json"
        write_ground_truth(
            gt_path,
            [GroundTruthInstance("P01_101", d.start, d.end, verb_index=3, noun_index=5)],
        )
        result = run_cli(
            "eval", "--submission", str(submission), "--ground-truth", str(gt_path)
        )
        assert result.returncode == 0
        assert "action_map_avg = 1.0000" in result.stdout

    def test_simulate_determinism(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("sim_segments = 200\n")
        args = ("simulate", "--config", str(cfg), "--seed", "11")
        r1, r2 = run_cli(*args), run_cli(*args)
        assert r1.returncode == 0
        assert r1.stdout == r2.stdout
        assert "mean_abs_err_dwf" in r1.stdout

    def test_simulate_table_output(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("sim_segments = 50\n")
        table = tmp_path / "table.txt"
        result = run_cli(
            "simulate", "--config", str(cfg), "--seed", "3", "--table", str(table)
        )
        assert result.returncode == 0
        lines = table.read_text().strip().splitlines()
        assert len(lines) == 51  # header + one row per segment

    def test_windows_subcommand(self):
        result = run_cli("windows", "--total-features", "6000")
        assert result.returncode == 0
        assert result.stdout.splitlines() == ["0 4608", "1392 4608"]

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("only three fields\n")
        result = run_cli("pipeline", "--proposals", str(bad))
        assert result.returncode == 1
        assert "error" in result.stderr

    def test_bad_config_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("window_overlap = 1.5\n")
        result = run_cli("simulate", "--config", str(cfg))
        assert result.returncode == 1

    def test_missing_file_exit_code(self):
        result = run_cli("pipeline", "--proposals", "/nonexistent/path.txt")
        assert result.returncode == 1
