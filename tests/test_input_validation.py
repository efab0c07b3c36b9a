"""Every reader rejects malformed input with exit 1; none reaches exit 2."""

import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tadfusion.cli import main

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


class TestJsonNumbers:
    """Segments and scores must be JSON numbers, never coerced, cut or padded."""

    @pytest.mark.parametrize("key, value", [
        ("segment", "12"), ("segment", [1.0, 2.0, 99.0]), ("segment", [1.0, "2"]),
        ("score", "0.5"), ("score", True),
    ])
    def test_submission(self, tmp_path, capsys, key, value):
        entry = dict(GOOD_ENTRY, **{key: value})
        assert run(tmp_path, ["nms", "--input", "{s}"], s=submission_text([entry])) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("segment", ["12", [1.0, 2.0, 99.0], [True, 2.0]])
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
    ])
    def test_only_the_key_at_fault_is_named(self, tmp_path, capsys, command, text, key):
        assert run(tmp_path, [*command, "--config", "{c}"], c=text) == 1
        assert f"(key {key!r})" in capsys.readouterr().err

    def test_keys_at_fault_together_are_named_together(self, tmp_path, capsys):
        text = "sim_sigma_min = 0.5\nsim_sigma_max = 0.3\nsim_segments = 50\n"
        assert run(tmp_path, ["simulate", "--config", "{c}"], c=text) == 1
        assert "(key 'sim_sigma_min, sim_sigma_max')" in capsys.readouterr().err


class TestUnreadableFiles:
    def test_non_utf8_proposal_file(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_bytes(b"P01 0 \xff\xfe 20.0\n")
        assert main(["pipeline", "--proposals", str(path)]) == 1

    def test_directory_as_input(self, tmp_path):
        assert main(["pipeline", "--proposals", str(tmp_path)]) == 1


# -- fuzz: malformed input of every reader exits 0 or 1 -------------------------

numbers = st.one_of(
    st.integers(-(10**30), 10**30),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["nan", "inf", "1e999", "-0", "0x1", "1_0", "", "-"]),
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
        def broken(args):
            raise KeyError("x")

        monkeypatch.setattr("tadfusion.cli.cmd_windows", broken)
        assert main(["windows", "--total-features", "10"]) == 2
        assert capsys.readouterr().err == "internal error: KeyError: 'x'\n"
