"""Every reader rejects malformed input with exit 1; none reaches exit 2."""

import argparse
import dataclasses
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracles import oracle_run_pipeline, proposal_records
from tadfusion.cli import build_parser, main
from tadfusion.config import PipelineConfig
from tadfusion.io import read_proposal_file

GOOD_PROPOSAL = "P01 0 10.0 20.0 5:0.9 14.0 24.0 3:0.8"
GOOD_ENTRY = {"verb": 3, "noun": 5, "action": "3,5", "segment": [1.0, 2.0], "score": 0.5}


def submission_text(entries):
    return json.dumps({"version": "0.1", "challenge": "action_detection",
                       "results": {"P01": entries}})


def run(tmp, command, **files):
    """Write ``files`` under ``tmp`` and run ``command`` with their paths."""
    paths = {}
    for name, text in files.items():
        path = Path(tmp) / name
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    return main([arg.format(**paths) for arg in command])


def run_under_one_gib(*argv):
    """Run ``tadfusion argv`` in a fresh interpreter limited to 1 GiB of
    address space."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run([sys.executable, "-m", "tadfusion", *argv], capture_output=True,
                          text=True, preexec_fn=limit, timeout=120,
                          env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})


class TestNonFiniteValues:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_proposal_boundary(self, tmp_path, capsys, value):
        text = f"{GOOD_PROPOSAL}\nP01 0 1.0 {value} 5:0.9 14.0 24.0 3:0.8\n"
        code = run(tmp_path, ["pipeline", "--proposals", "{p}"], p=text)
        assert code == 1
        assert "line 2" in capsys.readouterr().err

    def test_submission_segment(self, tmp_path, capsys):
        text = submission_text([dict(GOOD_ENTRY, segment=[float("nan"), 2.0])])
        assert run(tmp_path, ["nms", "--input", "{s}"], s=text) == 1
        assert "key 'segment'" in capsys.readouterr().err

    def test_ground_truth_segment(self, tmp_path, capsys):
        gt = {"annotations": {"P01": [{"verb": 3, "noun": 5, "segment": [1.0, float("inf")]}]}}
        code = run(tmp_path, ["eval", "--submission", "{s}", "--ground-truth", "{g}"],
                   s=submission_text([GOOD_ENTRY]), g=json.dumps(gt))
        assert code == 1
        assert "key 'segment'" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["epsilon = nan", "fps = nan", "sim_sigma_max = inf"])
    def test_config_value(self, tmp_path, capsys, line):
        code = run(tmp_path, ["windows", "--total-features", "10", "--config", "{c}"],
                   c=line + "\n")
        assert code == 1
        assert f"key {line.split()[0]!r}" in capsys.readouterr().err


class TestGroundTruthShape:
    @pytest.mark.parametrize("payload", [{"annotations": []}, {"annotations": {"P01": 5}}])
    def test_schema_mismatch_exits_1(self, tmp_path, capsys, payload):
        code = run(tmp_path, ["eval", "--submission", "{s}", "--ground-truth", "{g}"],
                   s=submission_text([GOOD_ENTRY]), g=json.dumps(payload))
        assert code == 1
        assert "must" in capsys.readouterr().err


class TestClassIndices:
    """Class indices must be JSON integers inside the vocabulary, never coerced."""

    @pytest.mark.parametrize("verb, noun, key", [
        (5000, 5, "verb"), (3, -7, "noun"), (3.9, 5, "verb"), (3, True, "noun"), (3, "5", "noun"),
    ])
    def test_ground_truth(self, tmp_path, capsys, verb, noun, key):
        bad = {"verb": verb, "noun": noun, "segment": [1.0, 2.0]}
        gt = {"annotations": {"P01": [{"verb": 3, "noun": 5, "segment": [1.0, 2.0]}, bad]}}
        code = run(tmp_path, ["eval", "--submission", "{s}", "--ground-truth", "{g}"],
                   s=submission_text([GOOD_ENTRY]), g=json.dumps(gt))
        assert code == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("verb, noun, key", [
        (3.9, "5", "verb"), (3.0, 5, "verb"), (True, 5, "verb"), (3, "5", "noun"),
    ])
    def test_submission(self, tmp_path, capsys, verb, noun, key):
        entry = dict(GOOD_ENTRY, verb=verb, noun=noun, action=f"{int(verb)},{int(noun)}")
        assert run(tmp_path, ["nms", "--input", "{s}"], s=submission_text([entry])) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("verb, noun, segment, message", [
        (5000, 5, [3.0, 1.0], "verb class index 5000 outside vocabulary of 97 (key 'verb')"),
        (3.9, -7, "12", "verb must be an integer class index, got 3.9"),
        (3, -7, [1.0, math.inf], "noun class index -7 outside vocabulary of 300 (key 'noun')"),
    ])
    def test_both_readers_name_the_first_fault_of_verb_noun_segment(
            self, tmp_path, capsys, verb, noun, segment, message):
        # submission and ground-truth entries share one checked path
        entry = {"verb": verb, "noun": noun, "segment": segment}
        submission = submission_text([dict(entry, action=f"{verb},{noun}", score=0.5)])
        assert run(tmp_path, ["nms", "--input", "{s}"], s=submission) == 1
        assert run(tmp_path, ["eval", "--submission", "{s}", "--ground-truth", "{g}"],
                   s=submission_text([GOOD_ENTRY]),
                   g=json.dumps({"annotations": {"P01": [entry]}})) == 1
        assert capsys.readouterr().err == f"error: {message}\n" * 2


class TestJsonNumbers:
    """Segments and scores must be JSON numbers, never coerced, cut or padded.

    A segment also needs start < end and a finite length: an overflowing
    length would make tIoU inf/inf = nan, which scores an exact hit as a miss.
    """

    @pytest.mark.parametrize("key, value", [
        ("segment", "12"), ("segment", [1.0, 2.0, 99.0]), ("segment", [1.0, "2"]),
        ("score", "0.5"), ("score", True),
        ("segment", [-1.7e308, 1.7e308]), ("segment", [2.0, 2.0]), ("segment", [3.0, 1.0]),
    ])
    def test_submission(self, tmp_path, capsys, key, value):
        entry = dict(GOOD_ENTRY, **{key: value})
        assert run(tmp_path, ["nms", "--input", "{s}"], s=submission_text([entry])) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("segment", [
        "12", [1.0, 2.0, 99.0], [True, 2.0], [-1.7e308, 1.7e308], [2.0, 2.0], [3.0, 1.0],
    ])
    def test_ground_truth(self, tmp_path, capsys, segment):
        gt = {"annotations": {"P01": [{"verb": 3, "noun": 5, "segment": segment}]}}
        code = run(tmp_path, ["eval", "--submission", "{s}", "--ground-truth", "{g}"],
                   s=submission_text([GOOD_ENTRY]), g=json.dumps(gt))
        assert code == 1
        assert "segment" in capsys.readouterr().err


class TestSubmissionHeader:
    """``version`` must be a JSON string and ``challenge`` the one challenge name."""

    @pytest.mark.parametrize("key, value", [
        ("version", None), ("version", 0.1), ("challenge", 7), ("challenge", "segmentation"),
    ])
    def test_rejected(self, tmp_path, capsys, key, value):
        payload = dict(json.loads(submission_text([GOOD_ENTRY])), **{key: value})
        assert run(tmp_path, ["nms", "--input", "{s}"], s=json.dumps(payload)) == 1
        assert key in capsys.readouterr().err


class TestConfigObjectsNameTheKey:
    @pytest.mark.parametrize("line, key", [
        ("stride_frames = 0", "stride_frames"),
        ("verb_count = 0", "verb_count"),
        ("max_per_video = 0", "max_per_video"),
        ("sim_seed = -1", "sim_seed"),
        ("top_k_nouns = 0", "top_k_nouns"),
        ("top_k_verbs = 0", "top_k_verbs"),
        ("epsilon = 0", "epsilon"),
        ("epsilon = -1", "epsilon"),
        # simulate reads epsilon under either fusion mode
        ("fusion_mode = mean\nepsilon = 0", "epsilon"),
        ("fusion_mode = median", "fusion_mode"),
        ("fusion_mode = DWF", "fusion_mode"),
        ("fps = 0", "fps"),
        ("eval_thresholds = ,", "eval_thresholds"),
        ("nms_preset = bogus", "nms_preset"),
        ("window_overlap = 1.5", "window_overlap"),
        # numbers are ASCII, without "_" digit groups; list items are never empty
        ("fps = 3_0", "fps"),
        ("stride_frames = \u0668", "stride_frames"),
        ("eval_thresholds = 0.1,0.2_5", "eval_thresholds"),
        ("eval_thresholds = 0.1,,0.5", "eval_thresholds"),
        ("eval_thresholds = 0.1,", "eval_thresholds"),
        ("eval_thresholds = ,0.1", "eval_thresholds"),
        ("eval_thresholds = 0.1, ,0.5", "eval_thresholds"),
        # from 2**33 s on, float spacing exceeds 1e-6 of the 1 s shortest segment
        ("sim_video_length = 8.6e9", "sim_video_length"),
    ])
    def test_invalid_value(self, tmp_path, capsys, line, key):
        code = run(tmp_path, ["windows", "--total-features", "10", "--config", "{c}"],
                   c=line + "\n")
        assert code == 1
        assert f"key {key!r}" in capsys.readouterr().err

    def test_zero_confidence_bounds(self, tmp_path, capsys):
        # both streams at confidence 0 leave DWF undefined
        text = "sim_confidence_lo = 0\nsim_confidence_hi = 0\nsim_segments = 50\n"
        assert run(tmp_path, ["simulate", "--config", "{c}"], c=text) == 1
        assert "sim_confidence_hi" in capsys.readouterr().err

    @pytest.mark.parametrize("command, text, key", [
        (["simulate"], "sim_confidence_lo = 0\nsim_confidence_hi = 0\nsim_segments = 50\n",
         "sim_confidence_hi"),
        (["windows", "--total-features", "10"], "stride_frames = 0\nfps = 30\n",
         "stride_frames"),
        (["simulate"], "sim_video_length = 1e16\nsim_seed = 0\n", "sim_video_length"),
    ])
    def test_only_the_key_at_fault_is_named(self, tmp_path, capsys, command, text, key):
        assert run(tmp_path, [*command, "--config", "{c}"], c=text) == 1
        assert f"(key {key!r})" in capsys.readouterr().err

    def test_keys_at_fault_together_are_named_together(self, tmp_path, capsys):
        text = "sim_sigma_min = 0.5\nsim_sigma_max = 0.3\nsim_segments = 50\n"
        assert run(tmp_path, ["simulate", "--config", "{c}"], c=text) == 1
        assert "(key 'sim_sigma_min, sim_sigma_max')" in capsys.readouterr().err


class TestFlagsAreConfigValues:
    """A value-setting flag is checked like the key it overrides, and its
    error names that key."""

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--seed", "-1"], "error: seed must be >= 0 (key 'sim_seed')"),
        (["windows", "--total-features", "10", "--overlap", "1.5"],
         "error: overlap must be in [0, 1), got 1.5 (key 'window_overlap')"),
        (["windows", "--total-features", "10", "--max-len", "0"],
         "error: max_len must be >= 1 and within the float range (key 'window_length')"),
    ], ids=["seed", "overlap", "max-len"])
    def test_invalid_flag_names_its_key(self, capsys, argv, message):
        assert main(argv) == 1
        assert capsys.readouterr().err == message + "\n"

    @pytest.mark.parametrize("command, text, key", [
        (["simulate", "--seed", "5"], "sim_seed = -1\n", "sim_seed"),
        (["windows", "--total-features", "10", "--overlap", "0.25"],
         "window_overlap = 1.5\n", "window_overlap"),
    ], ids=["seed", "overlap"])
    def test_flag_does_not_hide_an_invalid_file_value(self, tmp_path, capsys, command, text,
                                                      key):
        assert run(tmp_path, [*command, "--config", "{c}"], c=text) == 1
        assert f"(key {key!r})" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flags, text", [
        (["windows", "--total-features", "40"], ["--max-len", "16", "--overlap", "0.25"],
         "window_length = 16\nwindow_overlap = 0.25\n"),
        (["simulate"], ["--seed", "3"], "sim_seed = 3\n"),
    ], ids=["windows", "simulate"])
    def test_flag_acts_as_its_key(self, tmp_path, capsys, command, flags, text):
        # the file's other values stand beside the flag's
        base = "sim_segments = 50\n"
        assert run(tmp_path, [*command, *flags, "--config", "{c}"], c=base) == 0
        by_flag = capsys.readouterr().out
        assert run(tmp_path, [*command, "--config", "{c}"], c=base + text) == 0
        assert by_flag == capsys.readouterr().out
        assert run(tmp_path, [*command, "--config", "{c}"], c=base) == 0
        assert by_flag != capsys.readouterr().out


class TestNumberFlagGrammar:
    """A number flag is read by the configuration's number grammar: ASCII
    digits and no ``_`` digit groups, which ``int`` and ``float`` accept."""

    @pytest.mark.parametrize("argv, key", [
        (["simulate", "--seed", "1_0"], "sim_seed"),
        (["simulate", "--seed", "\u0663"], "sim_seed"),
        (["windows", "--total-features", "10", "--max-len", "1_000"], "window_length"),
        (["windows", "--total-features", "10", "--overlap", "0.5_0"], "window_overlap"),
        (["windows", "--total-features", "\u0664\u0666\u0660\u0668"], "total_features"),
    ], ids=["seed-digit-group", "seed-arabic-indic", "max-len", "overlap", "total-features"])
    def test_exits_1_naming_its_key(self, capsys, argv, key):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed ") and err.endswith(f"(key {key!r})\n")

    def test_flag_and_config_line_give_one_message(self, tmp_path, capsys):
        assert main(["simulate", "--seed", "1_0"]) == 1
        by_flag = capsys.readouterr().err
        assert run(tmp_path, ["simulate", "--config", "{c}"], c="sim_seed = 1_0\n") == 1
        assert by_flag == capsys.readouterr().err == "error: malformed int '1_0' (key 'sim_seed')\n"

    @pytest.mark.parametrize("argv, out", [
        (["windows", "--total-features", "10", "--max-len", "4", "--overlap", "0.5"],
         "0 4\n2 4\n4 4\n6 4\n"),
        (["windows", "--total-features", "+10", "--max-len", "04", "--overlap", "5e-1"],
         "0 4\n2 4\n4 4\n6 4\n"),
        (["simulate", "--seed", "10", "--config", "{c}"],
         "seed = 10\nnum_segments = 5\nmean_abs_err_dwf = 0.756622\n"
         "mean_abs_err_mean = 0.864136\nerror_gap = 0.107514\n"
         "confidence_error_correlation = -0.560323\np_value_dwf_less = 0.252192\n"),
    ], ids=["windows", "windows-signed-padded-exponent", "simulate"])
    def test_plain_values_keep_their_output(self, tmp_path, capsys, argv, out):
        assert run(tmp_path, argv, c="sim_segments = 5\n") == 0
        assert capsys.readouterr().out == out


class TestRepeatedConfigKey:
    def test_exits_1_naming_line_and_key(self, tmp_path, capsys):
        # a last-wins reading would silently run at fps 25
        code = run(tmp_path, ["windows", "--total-features", "10", "--config", "{c}"],
                   c="fps = 30\nfps = 25\n")
        assert code == 1
        assert "repeated configuration key (line 2, key 'fps')" in capsys.readouterr().err


class TestByteOrderMark:
    """A UTF-8 byte-order mark at the start of a file is not data."""

    def test_proposal_file_gives_the_same_submission(self, tmp_path):
        outputs = []
        for encoding in ("utf-8", "utf-8-sig"):
            proposals, out = tmp_path / f"{encoding}.txt", tmp_path / f"{encoding}.json"
            proposals.write_text(GOOD_PROPOSAL + "\n", encoding=encoding)
            assert main(["pipeline", "--proposals", str(proposals), "--output", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert b'"P01": [' in outputs[0]

    def test_config_file_reads_its_first_key(self, tmp_path, capsys):
        config = tmp_path / "c.cfg"
        config.write_text("window_length = 4\n", encoding="utf-8-sig")
        assert main(["windows", "--total-features", "6", "--config", str(config)]) == 0
        assert capsys.readouterr().out == "0 4\n2 4\n"

    def test_submission_json(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(submission_text([GOOD_ENTRY]), encoding="utf-8-sig")
        assert main(["nms", "--input", str(path)]) == 0
        assert '"P01": [' in capsys.readouterr().out


class TestGridPastFloatRange:
    @pytest.mark.parametrize("key", ["stride_frames", "offset_frames"])
    def test_pipeline_names_the_key(self, tmp_path, capsys, key):
        code = run(tmp_path, ["pipeline", "--proposals", "{p}", "--config", "{c}"],
                   p=GOOD_PROPOSAL + "\n", c=f"{key} = 1{'0' * 400}\n")
        assert code == 1
        assert f"(key {key!r})" in capsys.readouterr().err


class TestVocabularyCeiling:
    @pytest.mark.parametrize("key", ["noun_count", "verb_count"])
    def test_pipeline_names_the_key(self, tmp_path, capsys, key):
        code = run(tmp_path, ["pipeline", "--proposals", "{p}", "--config", "{c}"],
                   p=GOOD_PROPOSAL + "\n", c=f"{key} = 1{'0' * 30}\n")
        assert code == 1
        assert f"(key {key!r})" in capsys.readouterr().err


class TestWindowLengthPastFloatRange:
    def test_max_len_flag_is_named(self, tmp_path, capsys):
        code = main(["windows", "--total-features", f"1{'0' * 401}",
                     "--max-len", f"1{'0' * 400}", "--output", str(tmp_path / "out")])
        assert code == 1
        assert "max_len" in capsys.readouterr().err

    def test_window_length_key_is_named(self, tmp_path, capsys):
        code = run(tmp_path, ["windows", "--total-features", f"1{'0' * 401}", "--config", "{c}"],
                   c=f"window_length = 1{'0' * 400}\n")
        assert code == 1
        assert "(key 'window_length')" in capsys.readouterr().err


class TestWindowCountCeiling:
    # counted before any window is built, so neither run allocates them
    @pytest.mark.parametrize("total", [10**11, 10**400])
    def test_windows_names_the_flag(self, tmp_path, capsys, total):
        began = time.perf_counter()
        code = main(["windows", "--total-features", str(total),
                     "--output", str(tmp_path / "out")])
        assert time.perf_counter() - began < 1.0
        assert code == 1
        assert "total_features" in capsys.readouterr().err


class TestLowerBounds:
    def test_negative_window_start_names_the_line(self, tmp_path, capsys):
        code = run(tmp_path, ["pipeline", "--proposals", "{p}"],
                   p="P01 -3 1.0 5.0 5:0.9 1.5 5.5 3:0.8\n")
        assert code == 1
        assert "window start must be >= 0 (line 1)" in capsys.readouterr().err

    def test_malformed_boundary_is_named_before_the_window_start(self, tmp_path, capsys):
        code = run(tmp_path, ["pipeline", "--proposals", "{p}"],
                   p="P01 -3 abc 5.0 5:0.9 1.5 5.5 3:0.8\n")
        assert code == 1
        assert "malformed float 'abc' (line 1)" in capsys.readouterr().err

    def test_no_features_names_the_flag(self, capsys):
        assert main(["windows", "--total-features", "0"]) == 1
        assert "total_features must be >= 1" in capsys.readouterr().err


class TestRepeatedClassIndex:
    @pytest.mark.parametrize("line", ["P01 0 1.0 3.0 5:0.9,5:0.1 1.0 3.0 3:0.8",
                                      "P01 0 1.0 3.0 5:0.9 1.0 3.0 3:0.8,4:0.2,3:0.8"])
    def test_pipeline_names_the_line(self, tmp_path, capsys, line):
        out = tmp_path / "out.json"
        code = run(tmp_path, ["pipeline", "--proposals", "{p}", "--output", str(out)],
                   p=f"{GOOD_PROPOSAL}\n{line}\n")
        assert code == 1
        err = capsys.readouterr().err
        assert "line 2" in err and "repeated" in err
        assert ("index 5" if "5:0.1" in line else "index 3") in err
        assert not out.exists()


class TestRepeatedJsonKey:
    """``json`` keeps only the last value of a repeated key; the readers refuse it."""

    ENTRY = json.dumps(GOOD_ENTRY)
    SEGMENT = '{"verb": 3, "noun": 5, "segment": [1.0, 2.0]}'

    @pytest.mark.parametrize("results, key", [
        (f'{{"P01": [{ENTRY}], "P01": []}}', "P01"),
        (f'{{"P01": [{ENTRY[:-1]}, "score": 0.25}}]}}', "score"),
    ], ids=["video", "entry-field"])
    def test_submission(self, tmp_path, capsys, results, key):
        text = f'{{"version": "0.1", "challenge": "action_detection", "results": {results}}}'
        assert run(tmp_path, ["nms", "--input", "{s}"], s=text) == 1
        err = capsys.readouterr().err
        assert "repeated JSON object key" in err and f"key {key!r}" in err

    @pytest.mark.parametrize("payload, key", [
        (f'{{"annotations": {{"P01": [{SEGMENT}], "P01": []}}}}', "P01"),
        (f'{{"annotations": {{}}, "annotations": {{"P01": [{SEGMENT}]}}}}', "annotations"),
    ], ids=["video", "top-level"])
    def test_ground_truth(self, tmp_path, capsys, payload, key):
        code = run(tmp_path, ["eval", "--submission", "{s}", "--ground-truth", "{g}"],
                   s=submission_text([GOOD_ENTRY]), g=payload)
        assert code == 1
        err = capsys.readouterr().err
        assert "repeated JSON object key" in err and f"key {key!r}" in err

    def test_colons_inside_strings_are_not_repeated_keys(self, tmp_path, capsys):
        # more colons than keys sends the text through the per-object check
        text = json.dumps({"version": "0.1:a", "challenge": "action_detection",
                           "results": {"P01:1": [GOOD_ENTRY], "P01:2": []}})
        assert run(tmp_path, ["nms", "--input", "{s}"], s=text) == 0
        assert '"P01:1": [' in capsys.readouterr().out


class TestJsonPastDecoderLimits:
    """JSON nested past the recursion limit, or with an integer past the
    digit limit of integer conversion, is invalid JSON, not an internal error."""

    DEEP = "[" * 1000
    LONG_INT = "1" + "0" * 4300  # 4,301 digits: json.dumps cannot write it either

    @pytest.mark.parametrize("text, message", [
        (DEEP, "recursion depth"),
        (submission_text([GOOD_ENTRY]).replace('"verb": 3', f'"verb": {LONG_INT}'),
         "4300 digits"),
    ], ids=["nested", "long-int"])
    def test_submission(self, tmp_path, capsys, text, message):
        assert run(tmp_path, ["nms", "--input", "{s}"], s=text) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid JSON") and message in err

    @pytest.mark.parametrize("text, message", [
        (DEEP, "recursion depth"),
        (f'{{"annotations": {{"P01": [{{"verb": {LONG_INT}, "noun": 5, '
         '"segment": [1.0, 2.0]}]}}', "4300 digits"),
    ], ids=["nested", "long-int"])
    def test_ground_truth(self, tmp_path, capsys, text, message):
        code = run(tmp_path, ["eval", "--submission", "{s}", "--ground-truth", "{g}"],
                   s=submission_text([GOOD_ENTRY]), g=text)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid JSON") and message in err


class TestSegmentCountCeiling:
    # a run's memory bounds the count at 2**20, far below the 2**32 spawn keys;
    # no count at or below the bound is tried here, since it would be generated
    @pytest.mark.parametrize("count", [10**30, 2**32 + 1, 2**32, 2**20 + 1])
    def test_simulate_names_the_key(self, tmp_path, capsys, count):
        code = run(tmp_path, ["simulate", "--config", "{c}"], c=f"sim_segments = {count}\n")
        assert code == 1
        assert "(key 'sim_segments')" in capsys.readouterr().err


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["pipeline"],
        ["pipeline", "--proposals", "p.txt", "--no-such-flag"],
        ["windows", "--total-features", "abc"],
    ], ids=["missing-required-flag", "unknown-flag", "non-integer-value"])
    def test_exit_1(self, capsys, argv):
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_0(self, capsys, flag):
        assert main([flag]) == 0
        assert capsys.readouterr().out

    def test_process_exit_status(self):
        result = subprocess.run([sys.executable, "-m", "tadfusion", "pipeline"],
                                capture_output=True, text=True)
        assert result.returncode == 1
        assert "--proposals" in result.stderr


class TestRepeatedCalls:
    """``main`` builds its parser once per process, and a call leaves
    nothing behind for the next."""

    PROPOSALS = ("P01 0 10.0 20.0 5:0.9,6:0.3 14.0 24.0 3:0.8,4:0.4\n"
                 "P01 0 12.0 22.0 5:0.7 11.0 25.0 3:0.6,4:0.5\n"
                 "P02 0 1.0 9.0 2:0.6 3.0 8.0 1:0.9\n")
    # overlapping detections, which the noun and verb_action presets decay apart
    ENTRIES = [dict(GOOD_ENTRY, segment=[1.0, 2.0], score=0.9),
               dict(GOOD_ENTRY, noun=6, action="3,6", segment=[1.1, 2.1], score=0.8),
               dict(GOOD_ENTRY, verb=4, action="4,5", segment=[1.2, 2.0], score=0.7),
               dict(GOOD_ENTRY, segment=[1.05, 2.05], score=0.6)]

    def commands(self, tmp_path):
        files = {"p.txt": self.PROPOSALS, "s.json": submission_text(self.ENTRIES),
                 "g.json": json.dumps({"annotations": {"P01": [
                     {"verb": 3, "noun": 5, "segment": [1.0, 2.0]}]}})}
        for name, text in files.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        p, s, g = (str(tmp_path / name) for name in files)
        return {"pipeline": ["pipeline", "--proposals", p],
                "pipeline-mean": ["pipeline", "--proposals", p, "--fusion-mode", "mean"],
                "fuse": ["fuse", "--proposals", p],
                "nms": ["nms", "--input", s],
                "nms-noun": ["nms", "--input", s, "--nms-preset", "noun"],
                "eval": ["eval", "--submission", s, "--ground-truth", g],
                "simulate": ["simulate"],
                "simulate-seed": ["simulate", "--seed", "3"],
                "windows": ["windows", "--total-features", "10", "--max-len", "4"],
                "usage-error": ["pipeline", "--proposals", p, "--fusion-mode", "median"]}

    @staticmethod
    def call(capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_alternating_calls_match_lone_calls(self, tmp_path, capsys):
        commands = self.commands(tmp_path)
        names = ["pipeline-mean", "pipeline", "nms-noun", "nms", "simulate-seed", "simulate",
                 "usage-error"]
        alone = {}
        for name in names:
            build_parser.cache_clear()  # as in a fresh process
            alone[name] = self.call(capsys, commands[name])
        assert alone["usage-error"][0] == 1 and "error:" in alone["usage-error"][2]
        for flagged, plain in zip(names[0::2], names[1::2]):
            assert alone[flagged][0] == alone[plain][0] == 0
            assert alone[flagged][1] != alone[plain][1]
        for name in ["pipeline-mean", "pipeline", "usage-error", "pipeline-mean",
                     "nms-noun", "usage-error", "nms", "nms-noun",
                     "simulate-seed", "simulate", "usage-error", "simulate-seed",
                     "pipeline", "nms", "simulate"]:
            assert self.call(capsys, commands[name]) == alone[name], name

    def test_later_calls_build_no_parser(self, tmp_path, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        commands = self.commands(tmp_path)
        build_parser.cache_clear()
        assert main(commands["windows"]) == 0
        assert len(built) == 7  # the parser and its six subcommands
        built.clear()
        for name in ["pipeline", "fuse", "nms", "eval", "simulate", "windows", "usage-error"]:
            main(commands[name])
        assert built == []


class TestOptionSurface:
    """Each subcommand accepts exactly the options it reads."""

    OPTIONS = {
        "pipeline": {"proposals", "config", "fusion_mode", "nms_preset", "output"},
        "fuse": {"proposals", "config", "fusion_mode", "output"},
        "nms": {"input", "config", "nms_preset", "output"},
        "eval": {"submission", "ground_truth", "config", "output"},
        "simulate": {"config", "output", "sim_seed", "table"},
        "windows": {"total_features", "window_length", "window_overlap", "config", "output"},
    }

    def option_dests(self):
        sub = next(action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
        return {name: {action.dest for action in parser._actions
                       if action.option_strings and action.dest != "help"}
                for name, parser in sub.choices.items()}

    def test_option_dests_per_subcommand(self):
        assert self.option_dests() == self.OPTIONS

    def test_only_the_value_flags_are_read_as_settings(self):
        # main hands every parsed flag to parse_config, which reads those
        # named after a configuration key: no path, output or table flag
        keys = {f.name for f in dataclasses.fields(PipelineConfig)}
        dests = set().union(*self.option_dests().values())
        assert dests & keys == {"fusion_mode", "nms_preset", "sim_seed", "window_length",
                                "window_overlap"}

    @pytest.mark.parametrize("argv", [
        ["eval", "--submission", "s.json", "--ground-truth", "g.json", "--fusion-mode", "mean"],
        ["windows", "--total-features", "10", "--nms-preset", "noun"],
    ], ids=["eval-fusion-mode", "windows-nms-preset"])
    def test_an_option_a_subcommand_does_not_read_exits_1(self, capsys, argv):
        assert main(argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err


class TestReaderPaths:
    def test_integer_segment_and_score_match_the_float_spelling(self, tmp_path, capsys):
        # integers leave the fast path for the field-by-field check
        ints = submission_text([dict(GOOD_ENTRY, segment=[1, 2], score=1)])
        floats = submission_text([dict(GOOD_ENTRY, segment=[1.0, 2.0], score=1.0)])
        assert run(tmp_path, ["nms", "--input", "{s}"], s=ints) == 0
        got = capsys.readouterr().out
        assert run(tmp_path, ["nms", "--input", "{s}"], s=floats) == 0
        assert got == capsys.readouterr().out
        assert '"segment": [1.0000, 2.0000], "score": 1.0000' in got

    @pytest.mark.parametrize("results, message", [
        ({"P01": [{k: v for k, v in GOOD_ENTRY.items() if k != "score"}]},
         "malformed detection entry: 'score'"),
        ([GOOD_ENTRY], "results must map video ids"),
        ({"P01": GOOD_ENTRY}, "detections of video 'P01' must be a list"),
    ], ids=["no-score-key", "results-not-an-object", "detections-not-a-list"])
    def test_submission_schema(self, tmp_path, capsys, results, message):
        text = json.dumps({"version": "0.1", "challenge": "action_detection",
                           "results": results})
        assert run(tmp_path, ["nms", "--input", "{s}"], s=text) == 1
        assert message in capsys.readouterr().err

    def test_invalid_ground_truth_json(self, tmp_path, capsys):
        code = run(tmp_path, ["eval", "--submission", "{s}", "--ground-truth", "{g}"],
                   s=submission_text([GOOD_ENTRY]), g='{"annotations": {"P01": [}}\n')
        assert code == 1
        err = capsys.readouterr().err
        assert "invalid JSON" in err and "line 1" in err

    def test_non_numeric_sparse_score(self, tmp_path, capsys):
        code = run(tmp_path, ["pipeline", "--proposals", "{p}"],
                   p=f"{GOOD_PROPOSAL}\nP01 0 10.0 20.0 5:x 14.0 24.0 3:0.8\n")
        assert code == 1
        err = capsys.readouterr().err
        assert "malformed noun score entry '5:x'" in err and "line 2" in err

    def test_ground_truth_video_with_no_annotations_is_as_if_absent(self, tmp_path, capsys):
        annotations = {"P01": [{"verb": 3, "noun": 5, "segment": [1.0, 2.0]}]}
        outputs = []
        for extra in ({}, {"P00": [], "P02": []}):
            gt = json.dumps({"annotations": {**extra, **annotations}})
            code = run(tmp_path, ["eval", "--submission", "{s}", "--ground-truth", "{g}"],
                       s=submission_text([GOOD_ENTRY, dict(GOOD_ENTRY, verb=4, action="4,5")]),
                       g=gt)
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "action_map_avg = 1.0000" in outputs[0]


class TestSubmissionScoreRange:
    @pytest.mark.parametrize("score", [1.5, -0.25])
    def test_names_the_key(self, tmp_path, capsys, score):
        text = submission_text([dict(GOOD_ENTRY, score=score)])
        assert run(tmp_path, ["nms", "--input", "{s}"], s=text) == 1
        assert "(key 'score')" in capsys.readouterr().err


class TestNumberGrammar:
    """Proposal numbers are ASCII, with no ``_`` digit groups, though
    Python's ``int`` and ``float`` accept both."""

    @pytest.mark.parametrize("line", [
        "P01 1_0 1.0 5.0 5:0.9 1.5 5.5 3:0.8",
        "P01 0 1_0.5 20.0 5:0.9 14.0 24.0 3:0.8",
        "P01 \u0661 10.0 20.0 5:0.9 14.0 24.0 3:0.8",
        "P01 0 10.0 20.0 5:0_9 14.0 24.0 3:0.8",
        "P01 0 10.0 20.0 5:0.1_5 14.0 24.0 3:0.8",
        "P01 0 10.0 20.0 1_0:0.9 14.0 24.0 3:0.8",
        "P01 0 10.0 20.0 5:0.9 14.0 24.0 \u0663:0.8",
    ])
    @pytest.mark.parametrize("command", ["fuse", "pipeline"])
    def test_proposal_field_names_the_line(self, tmp_path, capsys, command, line):
        text = f"{GOOD_PROPOSAL}\n{line}\n"
        assert run(tmp_path, [command, "--proposals", "{p}"], p=text) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed ") and "(line 2)" in err


class TestUnreadableFiles:
    def test_non_utf8_proposal_file(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_bytes(b"P01 0 \xff\xfe 20.0\n")
        assert main(["pipeline", "--proposals", str(path)]) == 1

    def test_directory_as_input(self, tmp_path):
        assert main(["pipeline", "--proposals", str(tmp_path)]) == 1

    def test_empty_config_path_is_a_path(self, capsys):
        # only an absent --config means defaults; "" is a file that cannot open
        assert main(["windows", "--total-features", "10", "--config", ""]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: [Errno 2] No such file or directory: ''\n")


# -- fuzz: malformed input of every reader exits 0 or 1 -------------------------

numbers = st.one_of(
    st.integers(-(10**30), 10**30),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["nan", "inf", "1e999", "-0", "0x1", "1_0", "", "-", "\u0661", "3_0"]),
)
tokens = st.one_of(
    numbers.map(str),
    st.lists(st.tuples(numbers, numbers), max_size=3).map(
        lambda pairs: ",".join(f"{i}:{s}" for i, s in pairs)),
    st.text(max_size=8),
)
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), numbers, st.text(max_size=5)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=5), inner, max_size=3)),
    max_leaves=8,
)


def entries(keys):
    """Lists of annotation-like objects whose fields may be anything."""
    field = st.one_of(json_values, st.lists(numbers, max_size=3))
    entry = st.one_of(json_values, st.fixed_dictionaries({k: field for k in keys}))
    return st.one_of(json_values, st.lists(entry, max_size=3))


submissions = st.one_of(
    st.fixed_dictionaries({
        "version": json_values, "challenge": json_values,
        "results": st.one_of(st.dictionaries(
            st.text(max_size=4), entries(("verb", "noun", "action", "segment", "score")),
            min_size=1, max_size=2), json_values),
    }),
    json_values,
)
ground_truths = st.one_of(
    st.fixed_dictionaries({"annotations": st.one_of(st.dictionaries(
        st.text(max_size=4), entries(("verb", "noun", "segment")), min_size=1, max_size=2),
        json_values)}),
    json_values,
)
config_keys = st.sampled_from([
    "stride_frames", "offset_frames", "fps", "window_length", "window_overlap",
    "noun_count", "top_k_nouns", "epsilon", "fusion_mode", "nms_preset", "pre_nms_cap",
    "eval_thresholds", "sim_segments", "sim_video_length", "sim_confidence_lo",
    "sim_sigma_max", "sim_seed", "unknown_key",
])
config_lines = st.one_of(
    st.tuples(config_keys, st.one_of(tokens, st.lists(numbers, max_size=3).map(
        lambda xs: ",".join(map(str, xs))))).map(lambda kv: f"{kv[0]} = {kv[1]}"),
    st.text(max_size=10),
)
FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def dump(value):
    return json.dumps(value, allow_nan=True)


class TestNoInputReachesExit2:
    @FUZZ
    @given(st.lists(st.lists(tokens, max_size=9).map(" ".join), max_size=3))
    def test_proposal_file(self, lines):
        with tempfile.TemporaryDirectory() as tmp:
            text = "\n".join([GOOD_PROPOSAL, *lines]) + "\n"
            assert run(tmp, ["pipeline", "--proposals", "{p}"], p=text) in (0, 1)

    @FUZZ
    @given(submissions)
    def test_submission(self, payload):
        with tempfile.TemporaryDirectory() as tmp:
            assert run(tmp, ["nms", "--input", "{s}"], s=dump(payload)) in (0, 1)

    @FUZZ
    @given(ground_truths)
    def test_ground_truth(self, payload):
        with tempfile.TemporaryDirectory() as tmp:
            code = run(tmp, ["eval", "--submission", "{s}", "--ground-truth", "{g}"],
                       s=submission_text([GOOD_ENTRY]), g=dump(payload))
            assert code in (0, 1)

    @FUZZ
    @given(st.lists(config_lines, max_size=4))
    def test_config(self, lines):
        with tempfile.TemporaryDirectory() as tmp:
            code = run(tmp, ["windows", "--total-features", "50", "--config", "{c}"],
                       c="\n".join(lines) + "\n")
            assert code in (0, 1)


class TestSecondsOverflow:
    def test_huge_finite_boundary_exits_1_naming_the_record(self, tmp_path, capsys):
        text = "P01 0 1.0 1e308 5:0.9 14.0 1.7e308 3:0.8\n"
        out = tmp_path / "out.json"
        code = run(tmp_path, ["pipeline", "--proposals", "{p}", "--output", str(out)], p=text)
        assert code == 1
        err = capsys.readouterr().err
        assert "'P01'" in err and "window start 0" in err
        assert not out.exists()


class TestNoNumpyWarnings:
    @pytest.mark.parametrize("line", [
        "P01 0 1.0 1e308 5:0.9 14.0 1.7e308 3:0.8",
        "P01 0 1.0 1.7e308 5:0.9 14.0 1.7e308 3:0.8",
    ])
    def test_overflowing_boundary_writes_one_error_line(self, tmp_path, line):
        # in a fresh interpreter, where a NumPy warning would reach stderr
        proposals = tmp_path / "p.txt"
        proposals.write_text(line + "\n", encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-m", "tadfusion", "pipeline", "--proposals", str(proposals)],
            capture_output=True, text=True,
        )
        assert result.returncode == 1
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("error: ")


class TestFusedBoundaryEmpty:
    def test_fuse_names_the_record(self, tmp_path, capsys):
        # both score vectors "-": DWF fuses to (0.0, 0.0), which pipeline drops
        text = f"{GOOD_PROPOSAL}\nP02 7 10.0 20.0 - 14.0 24.0 -\n"
        assert run(tmp_path, ["fuse", "--proposals", "{p}"], p=text) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: fused boundary (0.0, 0.0)")
        assert "'P02'" in err and "window start 7" in err
        out = tmp_path / "out.json"
        assert run(tmp_path, ["pipeline", "--proposals", "{p}", "--output", str(out)],
                   p=text) == 0


class TestSimulatedFusedBoundaryEmpty:
    @pytest.mark.parametrize("text, index", [
        ("sim_confidence_lo = 0\nsim_confidence_hi = 5e-324\n", 0),
    ])
    def test_one_line_names_the_first_index(self, tmp_path, capsys, text, index):
        assert run(tmp_path, ["simulate", "--config", "{c}"], c=text) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: fused boundary at index {index} (")
        assert err.rstrip().endswith(") is empty or inverted")


class TestMeanFusionOverflow:
    def test_boundaries_near_float_max_fuse_to_a_finite_mean(self, tmp_path, capsys):
        text = "P01 0 1.0 1.7e308 5:0.9 14.0 1.7e308 3:0.8\n"
        code = run(tmp_path, ["fuse", "--proposals", "{p}", "--fusion-mode", "mean"], p=text)
        assert code == 0
        video, start, end = capsys.readouterr().out.splitlines()[1].split()
        assert (video, start) == ("P01", "7.5000")
        assert math.isfinite(float(end))


class TestInternalError:
    def test_message_names_the_exception_type(self, monkeypatch, capsys):
        def broken(args, cfg):
            raise KeyError("x")

        monkeypatch.setattr("tadfusion.cli.cmd_windows", broken)
        assert main(["windows", "--total-features", "10"]) == 2
        assert capsys.readouterr().err == "internal error: KeyError: 'x'\n"


class TestThresholdCount:
    """Scoring holds a hit list per threshold, so the count is bounded:
    10,000 thresholds over 10,000 hits ran out of memory (exit 2)."""

    @pytest.mark.parametrize("count, code", [(10_000, 1), (100, 0)])
    def test_under_one_gib_of_address_space(self, tmp_path, count, code):
        segments = [{"verb": i % 97, "noun": i // 97, "segment": [i, i + 0.5]}
                    for i in range(10_000)]
        entries = [dict(s, action=f"{s['verb']},{s['noun']}", score=0.5) for s in segments]
        files = {"s.json": submission_text(entries),
                 "g.json": json.dumps({"annotations": {"P01": segments}}),
                 "c.cfg": "eval_thresholds = "
                          + ",".join(repr((i + 1) / count) for i in range(count)) + "\n"}
        for name, text in files.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        result = run_under_one_gib("eval", "--submission", str(tmp_path / "s.json"),
                                   "--ground-truth", str(tmp_path / "g.json"),
                                   "--config", str(tmp_path / "c.cfg"))
        assert result.returncode == code, result.stderr
        if code:
            assert result.stderr.startswith("error: ") and "eval_thresholds" in result.stderr
        else:
            assert f"mAP@{1 / count}" in result.stdout


class TestEvalJoinMemory:
    """The eval join holds a bounded number of candidate pairs at once, and
    matches each run of them before it builds the next: 5,000 detections on
    5,000 ground-truth segments of one class and one video made 25 million
    pairs in one go, and 2,000 copies of one segment on 2,000 copies of it
    kept all 4 million matchable pairs until the last run; both ran out of
    memory (exit 2)."""

    def run_eval(self, tmp_path, segments):
        entries = [dict(s, action="3,5", score=0.5) for s in segments]
        files = {"s.json": submission_text(entries),
                 "g.json": json.dumps({"annotations": {"P01": segments}})}
        for name, text in files.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        result = run_under_one_gib("eval", "--submission", str(tmp_path / "s.json"),
                                   "--ground-truth", str(tmp_path / "g.json"))
        assert result.returncode == 0, result.stderr
        return [line for line in result.stdout.splitlines() if "_map_" in line]

    def test_under_one_gib_of_address_space(self, tmp_path):
        segments = [{"verb": 3, "noun": 5, "segment": [i, i + 1]} for i in range(5000)]
        metrics = self.run_eval(tmp_path, segments)
        # each detection is an exact copy of its segment and touches only
        # its neighbours: every metric of every task is 1
        assert len(metrics) == 18
        assert all(line.endswith(" = 1.0000") for line in metrics)

    def test_every_pair_matchable_under_one_gib(self, tmp_path):
        segments = [{"verb": 3, "noun": 5, "segment": [0.0, 1.0]} for _ in range(2000)]
        metrics = self.run_eval(tmp_path, segments)
        # every detection overlaps every segment fully: each takes its own
        assert len(metrics) == 18
        assert all(line.endswith(" = 1.0000") for line in metrics)


class TestProposalMemory:
    """A proposal's scores stay sparse from file to fusion: 3,000 lines of one
    entry per stream at the largest vocabulary took two dense 512 KiB score
    vectors each and ran out of memory (exit 2)."""

    def test_under_one_gib_of_address_space(self, tmp_path):
        lines = [f"P01 {i // 1000 * 2304} {i % 1000}.5 {i % 1000 + 3}.25 {i % 300}:0.9 "
                 f"{i % 1000 + 1}.0 {i % 1000 + 4}.0 {i % 97}:0.{i % 7 + 2}" for i in range(3000)]
        proposals, cfg = tmp_path / "p.txt", tmp_path / "c.cfg"
        proposals.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg.write_text("noun_count = 65536\nverb_count = 65536\n", encoding="utf-8")
        assert proposals.stat().st_size < 150_000
        result = run_under_one_gib("pipeline", "--proposals", str(proposals), "--config", str(cfg))
        assert result.returncode == 0, result.stderr
        # class indices below 300 and 97: the submission does not depend on
        # the vocabulary size, so the dense reference runs at the default
        default = PipelineConfig()
        records = proposal_records(read_proposal_file(proposals, default.vocab()), default.vocab())
        assert result.stdout == oracle_run_pipeline(records, default)
        assert result.stdout.count('"segment"') == 3000
