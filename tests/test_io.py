import json
import sys
from dataclasses import FrozenInstanceError
from itertools import repeat

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import (
    ActionDetection,
    ProposalRecord,
    by_video,
    from_video,
    proposal_columns,
    proposal_records,
)
from tadfusion.cli import main
from tadfusion.composition import VocabSpec
from tadfusion.config import PipelineConfig, parse_config, parse_config_text
from tadfusion.errors import InvalidConfig, ParseError
from tadfusion.evaluation import EvalConfig
from tadfusion.io import (
    _round4,
    build_submission,
    parse_proposals,
    parse_submission,
    read_ground_truth,
    read_proposal_file,
    serialize_submission,
    write_proposal_file,
)
from tadfusion.simulation import ScenarioConfig
from tadfusion.suppression import GROUND_TRUTH, VERB_ACTION_NMS
from tadfusion.timeline import FeatureGrid

VOCAB = VocabSpec(noun_count=300, verb_count=97)


def submission(dets_by_video):
    """``build_submission`` over the table of lists of detection objects by
    video id."""
    table = from_video({video: [d[1:] for d in dets] for video, dets in dets_by_video.items()})
    return build_submission(table.video_ids, table.rows)


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


def parse_proposal_line(line, lineno, vocab):
    """One proposal line as a dense record, read as the file reader reads it."""
    (record,) = proposal_records(parse_proposals([(lineno, line)], vocab), vocab)
    return record


class TestProposalFile:
    def test_line_round_trip(self, tmp_path):
        path = tmp_path / "proposals.txt"
        write_proposal_file(path, proposal_columns([sample_record()]))
        line = path.read_text().splitlines()[1]
        parsed = parse_proposal_line(line, 2, VOCAB)
        assert parsed.video_id == "P01_101"
        assert parsed.window_start == 2304
        assert parsed.noun_boundary == (10.0, 20.0)
        assert parsed.verb_boundary == (14.0, 24.0)
        np.testing.assert_array_equal(parsed.noun_scores, sample_record().noun_scores)
        np.testing.assert_array_equal(parsed.verb_scores, sample_record().verb_scores)

    def test_file_round_trip_with_comments(self, tmp_path):
        path = tmp_path / "proposals.txt"
        write_proposal_file(path, proposal_columns([sample_record()]))
        content = path.read_text()
        assert content.startswith("#")
        records = proposal_records(read_proposal_file(path, VOCAB), VOCAB)
        assert len(records) == 1
        assert records[0].noun_boundary == (10.0, 20.0)

    def test_blank_and_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "proposals.txt"
        write_proposal_file(path, proposal_columns([sample_record()]))
        line = path.read_text().splitlines()[1]
        path.write_text(f"# header\n\n{line}  # trailing comment\n")
        assert len(read_proposal_file(path, VOCAB)) == 1

    def test_field_count_error_carries_line_number(self):
        with pytest.raises(ParseError, match="line 7"):
            parse_proposal_line("P01 0 1 2 0:0.5 3 4", 7, VOCAB)

    def test_vocabulary_mismatch(self):
        line = "P01 0 1.0 2.0 300:0.5 3.0 4.0 0:0.5"
        with pytest.raises(ParseError,
                           match=r"noun class index 300 outside vocabulary of 300 \(line 1\)"):
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

    def test_entries_in_file_order_with_explicit_zeros_write_back_as_read(self, tmp_path):
        text = "# video_id window_start ns ne noun_scores vs ve verb_scores\n"
        line = "P01 3 1.0 2.0 7:0.25,3:0.0,5:-0.0 3.0 4.0 -"
        proposals = parse_proposals([(2, line)], VOCAB)
        assert proposals.noun_entries.tolist() == [(0, 7, 0.25), (0, 3, 0.0), (0, 5, -0.0)]
        assert str(proposals.noun_entries["score"][2]) == "-0.0"
        assert len(proposals.verb_entries) == 0
        write_proposal_file(tmp_path / "p.txt", proposals)
        assert (tmp_path / "p.txt").read_text() == text + line + "\n"


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


def increasing(elements, size):
    """Strictly increasing lists of ``size`` values drawn from ``elements``."""
    return st.lists(elements, min_size=size[0], max_size=size[1], unique=True).map(sorted)


class TestWrittenNumbersReadBack:
    """A number written as the writers write it (``str`` of an int, ``repr``
    of a float) reads back as the same value, bit for bit."""

    @given(st.integers(0, 10**30), increasing(finite_floats, (2, 2)),
           increasing(finite_floats, (2, 2)), st.integers(0, 299), st.floats(0.0, 1.0))
    def test_proposal_line(self, window_start, noun, verb, index, score):
        line = (f"P01 {window_start} {noun[0]!r} {noun[1]!r} {index}:{score!r} "
                f"{verb[0]!r} {verb[1]!r} 0:{score!r}")
        record = parse_proposal_line(line, 1, VOCAB)
        assert record.window_start == window_start
        read = [*record.noun_boundary, *record.verb_boundary,
                record.noun_scores[index].item(), record.verb_scores[0].item()]
        assert list(map(repr, read)) == list(map(repr, [*noun, *verb, score, score]))

    @given(st.integers(0, 10**30), st.floats(0.0, exclude_min=True, allow_infinity=False),
           increasing(st.floats(0.0, 1.0, exclude_min=True), (1, 4)))
    def test_config_values(self, seed, epsilon, thresholds):
        cfg = parse_config_text(f"sim_seed = {seed}\nepsilon = {epsilon!r}\n"
                                f"eval_thresholds = {','.join(map(repr, thresholds))}\n")
        assert cfg.sim_seed == seed
        assert repr(cfg.epsilon) == repr(epsilon)
        assert list(map(repr, cfg.eval_thresholds)) == list(map(repr, thresholds))


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
        assert (parsed.version, list(by_video(parsed))) == (doc.version, list(by_video(doc)))
        for video_id, dets in by_video(doc).items():
            assert by_video(parsed)[video_id].tolist() == dets.tolist()

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
        scores = [d.score for d in by_video(doc)["v"]]
        assert scores == sorted(scores, reverse=True)

    def test_serialization_deterministic(self):
        dets = {"b": [detection(video="b")], "a": [detection(video="a")]}
        assert serialize_submission(submission(dets)) == serialize_submission(
            submission(dets)
        )

    def test_mismatched_action_string_rejected(self):
        text = serialize_submission(submission({"v": [detection()]}))
        broken = text.replace('"action": "3,5"', '"action": "3,6"')
        with pytest.raises(ParseError, match="action string '3,6' does not match verb=3, noun=5"):
            parse_submission(broken, VOCAB)

    def test_missing_field_rejected(self):
        with pytest.raises(ParseError, match="submission missing 'challenge'"):
            parse_submission('{"version": "0.1", "results": {}}', VOCAB)

    def test_invalid_json_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_submission("{", VOCAB)

    def test_ranks_tied_by_quantization_keep_input_order(self):
        # both round to start 1.0 and score 0.5 under the same action
        dets = [detection(start=1.0, end=5.0, score=0.5),
                detection(start=1.00001, end=2.0, score=0.50001)]
        assert [d.end for d in by_video(submission({"v": dets}))["v"]] == [5.0, 2.0]
        assert [d.end for d in by_video(submission({"v": dets[::-1]}))["v"]] == [2.0, 5.0]

    def test_quantization_drops_collapsed_intervals(self):
        doc = submission({"v": [detection(start=1.00001, end=1.00004)]})
        assert len(by_video(doc)["v"]) == 0


def round_bits(values: np.ndarray) -> np.ndarray:
    """Bit patterns of Python's ``round(v, 4)`` over ``values``."""
    return np.array(list(map(round, values.tolist(), repeat(4)))).view(np.int64)


class TestRound4:
    """``_round4`` is ``round(v, 4)`` bit for bit, -0.0 and nan included."""

    def test_five_million_values(self):
        rng = np.random.default_rng(20261019)
        checked = 0
        for _ in range(5):
            n = 250_000
            # half-way points (k + 0.5) / 1e4 for k up to about 2**39 * 1e4
            k = np.floor(10 ** rng.uniform(0.0, 15.74, n))
            halves = (k + 0.5) / 1e4 * rng.choice([-1.0, 1.0], n)
            # subnormals, zeros after rounding, and values past 2**39
            spread = 10 ** rng.uniform(-325.0, 13.0, n) * rng.choice([-1.0, 1.0], n)
            values = np.concatenate([halves, np.nextafter(halves, np.inf),
                                     np.nextafter(halves, -np.inf), spread])
            mismatched = _round4(values).view(np.int64) != round_bits(values)
            assert not mismatched.any(), values[mismatched][:10]
            checked += len(values)
        assert checked >= 5_000_000

    def test_edge_values(self):
        limit = 2.0**39
        tiny = sys.float_info.min
        edges = np.array([
            0.0, -0.0, 5e-324, -5e-324, tiny, np.nextafter(tiny, 0.0), -tiny,
            0.00005, -0.00005, 0.00004999, -0.00004999, 0.5e-4 + 1e-20,
            1e12, -1e12, 1e12 + 0.00005, -1e12 - 0.00005,
            limit, -limit, np.nextafter(limit, 0.0), -np.nextafter(limit, 0.0),
            np.nextafter(limit, np.inf), limit - 0.5, limit - 1.00005,
            1.7e308, -1.7e308, sys.float_info.max, -sys.float_info.max,
            np.inf, -np.inf, np.nan, 510.37455, -510.37455, 2.675, 0.125, 0.375,
        ])
        assert (_round4(edges).view(np.int64) == round_bits(edges)).all()
        assert np.signbit(_round4(np.array([-0.0, -0.00001]))).all()

    def test_nms_writes_the_round_value(self, tmp_path, capsys):
        # the float 510.37455 lies below the decimal, but its product with
        # 1e4 rounds to 5103745.5, which np.round(x, 4) rounds up to even
        entry = {"verb": 3, "noun": 5, "action": "3,5", "segment": [510.37455, 512.0],
                 "score": 0.5}
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"version": "0.1", "challenge": "action_detection",
                                    "results": {"P01": [entry]}}), encoding="utf-8")
        assert main(["nms", "--input", str(path)]) == 0
        assert '"segment": [510.3745, 512.0000]' in capsys.readouterr().out


class TestGroundTruthFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "gt.json"
        path.write_text(json.dumps({"annotations": {
            "b": [{"verb": 2, "noun": 1, "segment": [4.0, 6.0]},
                  {"verb": 0, "noun": 0, "segment": [1.0, 2.0]}],
            "a": [{"verb": 3, "noun": 5, "segment": [0.0, 10.0]}],
            "c": [],
        }}))
        loaded = read_ground_truth(path)
        # one table of sorted video ids, each video's rows in file order
        assert loaded.video_ids == ["a", "b", "c"]
        assert loaded.rows.dtype == GROUND_TRUTH
        assert {video_id: rows.tolist() for video_id, rows in by_video(loaded).items()} == {
            "b": [(4.0, 6.0, 2, 1, 601), (1.0, 2.0, 0, 0, 0)], "a": [(0.0, 10.0, 3, 5, 905)],
            "c": []}

    def test_action_is_the_vocabulary_action_id(self, tmp_path):
        path = tmp_path / "gt.json"
        path.write_text(json.dumps({"annotations": {"v": [
            {"verb": verb, "noun": noun, "segment": [0.0, 1.0]}
            for verb in range(5) for noun in range(7)]}}))
        rows = read_ground_truth(path, VocabSpec(noun_count=7, verb_count=5)).rows
        assert rows.action.tolist() == (7 * rows.verb + rows.noun).tolist() == list(range(35))

    def test_schema_mismatch(self, tmp_path):
        path = tmp_path / "gt.json"
        path.write_text('{"wrong": 1}')
        with pytest.raises(ParseError, match="ground truth must contain an 'annotations' map"):
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

    def test_builds_the_library_defaults(self):
        # each tuned default has one home: the object that reads it
        cfg = PipelineConfig()
        assert cfg.grid() == FeatureGrid()
        assert cfg.vocab() == VocabSpec()
        assert cfg.nms_config() == VERB_ACTION_NMS
        assert cfg.scenario() == ScenarioConfig()
        assert EvalConfig(thresholds=cfg.eval_thresholds) == EvalConfig()

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
        with pytest.raises(ParseError, match=r"unknown configuration key 'overlap' \(line 1\)"):
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

    def test_unknown_preset_is_an_invalid_config(self):
        with pytest.raises(InvalidConfig, match="nms_preset"):
            PipelineConfig(nms_preset="bogus").nms_config()

    def test_frozen(self):
        with pytest.raises(FrozenInstanceError):
            PipelineConfig().fusion_mode = "mean"

    def test_overrides_apply_after_the_file(self, tmp_path):
        path = tmp_path / "pipeline.cfg"
        path.write_text("fusion_mode = mean\nsim_seed = 9\n")
        cfg = parse_config(path, {"sim_seed": "4", "window_length": "16", "fusion_mode": None,
                                  "output": "out.json"})
        assert (cfg.fusion_mode, cfg.sim_seed, cfg.window_length) == ("mean", 4, 16)
        assert parse_config(None, {}) == PipelineConfig()
