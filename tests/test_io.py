from dataclasses import replace

import numpy as np
import pytest

from tadfusion.composition import VocabSpec
from tadfusion.config import PipelineConfig, parse_config, parse_config_text
from tadfusion.errors import (
    InvalidConfig,
    ParseError,
    SchemaMismatch,
    UnknownKey,
    VocabularyMismatch,
)
from tadfusion.evaluation import GroundTruthInstance
from tadfusion.io import (
    ProposalRecord,
    build_submission,
    format_proposal_record,
    parse_proposal_line,
    parse_submission,
    read_ground_truth,
    read_proposal_file,
    serialize_submission,
    write_ground_truth,
    write_proposal_file,
)
from tadfusion.suppression import ActionDetection, detection_columns

VOCAB = VocabSpec(noun_count=300, verb_count=97)


def submission(by_video):
    """``build_submission`` over the columns of lists of detection objects."""
    return build_submission({video: detection_columns(dets) for video, dets in by_video.items()})


def sample_record():
    noun_scores = np.zeros(300)
    noun_scores[5] = 0.9
    verb_scores = np.zeros(97)
    verb_scores[3] = 0.8
    return ProposalRecord(
        video_id="P01_101",
        window_start=2304,
        noun_boundary=(10.0, 20.0),
        noun_scores=noun_scores,
        verb_boundary=(14.0, 24.0),
        verb_scores=verb_scores,
    )


class TestProposalRecord:
    def test_inverted_boundary_rejected(self):
        with pytest.raises(InvalidConfig, match="noun boundary"):
            replace(sample_record(), noun_boundary=(20.0, 10.0))

    def test_nan_boundary_rejected(self):
        with pytest.raises(InvalidConfig, match="verb boundary"):
            replace(sample_record(), verb_boundary=(14.0, float("nan")))


class TestProposalFile:
    def test_line_round_trip(self):
        line = format_proposal_record(sample_record())
        parsed = parse_proposal_line(line, 1, VOCAB)
        assert parsed.video_id == "P01_101"
        assert parsed.window_start == 2304
        assert parsed.noun_boundary == (10.0, 20.0)
        assert parsed.verb_boundary == (14.0, 24.0)
        np.testing.assert_array_equal(parsed.noun_scores, sample_record().noun_scores)
        np.testing.assert_array_equal(parsed.verb_scores, sample_record().verb_scores)

    def test_file_round_trip_with_comments(self, tmp_path):
        path = tmp_path / "proposals.txt"
        write_proposal_file(path, [sample_record()])
        content = path.read_text()
        assert content.startswith("#")
        records = read_proposal_file(path, VOCAB)
        assert len(records) == 1
        assert records[0].noun_boundary == (10.0, 20.0)

    def test_blank_and_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "proposals.txt"
        line = format_proposal_record(sample_record())
        path.write_text(f"# header\n\n{line}  # trailing comment\n")
        assert len(read_proposal_file(path, VOCAB)) == 1

    def test_field_count_error_carries_line_number(self):
        with pytest.raises(ParseError, match="line 7"):
            parse_proposal_line("P01 0 1 2 0:0.5 3 4", 7, VOCAB)

    def test_vocabulary_mismatch(self):
        line = "P01 0 1.0 2.0 300:0.5 3.0 4.0 0:0.5"
        with pytest.raises(VocabularyMismatch):
            parse_proposal_line(line, 1, VOCAB)

    def test_score_out_of_range(self):
        line = "P01 0 1.0 2.0 5:1.5 3.0 4.0 0:0.5"
        with pytest.raises(ParseError, match=r"outside \[0, 1\]"):
            parse_proposal_line(line, 1, VOCAB)

    def test_inverted_boundary_rejected(self):
        line = "P01 0 5.0 2.0 5:0.5 3.0 4.0 0:0.5"
        with pytest.raises(ParseError, match="noun boundary"):
            parse_proposal_line(line, 1, VOCAB)

    def test_negative_start_coordinate_allowed(self):
        # regressed starts may undershoot the window origin
        line = "P01 0 -0.5 2.0 5:0.5 3.0 4.0 0:0.5"
        record = parse_proposal_line(line, 1, VOCAB)
        assert record.noun_boundary[0] == -0.5

    def test_empty_score_vector_marker(self):
        line = "P01 0 1.0 2.0 - 3.0 4.0 0:0.5"
        record = parse_proposal_line(line, 1, VOCAB)
        assert record.noun_scores.sum() == 0.0


def detection(video="P01_101", start=0.13334, end=2.8, verb=3, noun=5, score=0.6):
    return ActionDetection(
        video_id=video,
        start=start,
        end=end,
        verb_index=verb,
        noun_index=noun,
        action_id=300 * verb + noun,
        score=score,
    )


class TestSubmission:
    def test_serialize_parse_round_trip(self):
        doc = submission({"P01_101": [detection()], "P01_102": []})
        text = serialize_submission(doc)
        parsed = parse_submission(text, VOCAB)
        assert parsed == doc

    def test_fixed_decimal_formatting(self):
        doc = submission({"v": [detection(start=0.5, end=2.0, score=0.25)]})
        text = serialize_submission(doc)
        assert '"segment": [0.5000, 2.0000]' in text
        assert '"score": 0.2500' in text

    def test_action_string_matches_indices(self):
        text = serialize_submission(submission({"v": [detection(verb=3, noun=5)]}))
        assert '"action": "3,5"' in text

    def test_entries_sorted_by_score(self):
        doc = submission(
            {"v": [detection(score=0.2, start=1.0, end=2.0), detection(score=0.9)]}
        )
        scores = [d.score for d in doc.results["v"]]
        assert scores == sorted(scores, reverse=True)

    def test_serialization_deterministic(self):
        dets = {"b": [detection(video="b")], "a": [detection(video="a")]}
        assert serialize_submission(submission(dets)) == serialize_submission(
            submission(dets)
        )

    def test_mismatched_action_string_rejected(self):
        text = serialize_submission(submission({"v": [detection()]}))
        broken = text.replace('"action": "3,5"', '"action": "3,6"')
        with pytest.raises(SchemaMismatch):
            parse_submission(broken, VOCAB)

    def test_missing_field_rejected(self):
        with pytest.raises(SchemaMismatch):
            parse_submission('{"version": "0.1", "results": {}}', VOCAB)

    def test_invalid_json_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_submission("{", VOCAB)

    def test_ranks_tied_by_quantization_keep_input_order(self):
        # both round to start 1.0 and score 0.5 under the same action
        dets = [detection(start=1.0, end=5.0, score=0.5),
                detection(start=1.00001, end=2.0, score=0.50001)]
        assert [d.end for d in submission({"v": dets}).results["v"]] == [5.0, 2.0]
        assert [d.end for d in submission({"v": dets[::-1]}).results["v"]] == [2.0, 5.0]

    def test_quantization_drops_collapsed_intervals(self):
        doc = submission({"v": [detection(start=1.00001, end=1.00004)]})
        assert doc.results["v"] == []


class TestGroundTruthFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "gt.json"
        instances = [
            GroundTruthInstance("a", 0.0, 10.0, verb_index=3, noun_index=5),
            GroundTruthInstance("b", 1.0, 2.0, verb_index=0, noun_index=0),
        ]
        write_ground_truth(path, instances)
        loaded = read_ground_truth(path)
        assert sorted(loaded, key=lambda g: g.video_id) == instances

    def test_schema_mismatch(self, tmp_path):
        path = tmp_path / "gt.json"
        path.write_text('{"wrong": 1}')
        with pytest.raises(SchemaMismatch):
            read_ground_truth(path)


class TestConfig:
    def test_empty_text_gives_defaults(self):
        cfg = parse_config_text("")
        assert cfg == PipelineConfig()

    def test_defaults_match_pipeline_constants(self):
        cfg = PipelineConfig()
        assert cfg.stride_frames == 8
        assert cfg.offset_frames == 4
        assert cfg.fps == 30
        assert cfg.window_length == 4608
        assert cfg.window_overlap == 0.5
        assert cfg.top_k_nouns == 10 and cfg.top_k_verbs == 10
        assert cfg.epsilon == 1e-6
        assert cfg.pre_nms_cap == 5000 and cfg.max_per_video == 3000

    def test_fusion_mode_override(self):
        cfg = parse_config_text("fusion_mode = mean\n")
        assert cfg.fusion_mode == "mean"

    def test_comments_and_blank_lines(self):
        cfg = parse_config_text("# comment\n\nnms_preset = noun  # inline\n")
        assert cfg.nms_preset == "noun"

    def test_out_of_range_overlap(self):
        with pytest.raises(ParseError, match="window_overlap"):
            parse_config_text("window_overlap = 1.5\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(UnknownKey, match="line 1"):
            parse_config_text("overlap = 0.5\n")

    def test_malformed_value(self):
        with pytest.raises(ParseError, match="stride_frames"):
            parse_config_text("stride_frames = eight\n")

    def test_missing_equals_sign(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_config_text("# fine\nstride_frames 8\n")

    def test_file_parsing(self, tmp_path):
        path = tmp_path / "pipeline.cfg"
        path.write_text("fusion_mode = mean\nsim_seed = 9\n")
        cfg = parse_config(path)
        assert cfg.fusion_mode == "mean"
        assert cfg.sim_seed == 9

    def test_eval_thresholds_parse_and_validate(self):
        cfg = parse_config_text("eval_thresholds = 0.25,0.5,0.75\n")
        assert cfg.eval_thresholds == (0.25, 0.5, 0.75)
        with pytest.raises(ParseError, match="eval_thresholds"):
            parse_config_text("eval_thresholds = 0.5,0.25\n")

    def test_nms_preset_lookup(self):
        cfg = parse_config_text("nms_preset = noun\n")
        nms = cfg.nms_config()
        assert (nms.sigma, nms.min_score, nms.vote_threshold) == (0.6, 0.005, 0.65)
