import json
import math
import random
import subprocess
import sys

import numpy as np
import pytest

from oracles import (
    ProposalRecord,
    by_video,
    from_video,
    oracle_fuse,
    oracle_run_pipeline,
    proposal_columns,
    proposal_records,
)
import tadfusion.pipeline
from tadfusion.cli import main
from tadfusion.composition import VocabSpec, compose_actions
from tadfusion.config import PipelineConfig
from tadfusion.errors import ParseError
from tadfusion.evaluation import MeanApResult
from tadfusion.io import (
    parse_submission,
    read_proposal_file,
    read_submission,
    serialize_submission,
    write_proposal_file,
)
from tadfusion.pipeline import (
    evaluate_files,
    format_metrics_keyvalues,
    format_metrics_table,
    run_pipeline,
)
from tadfusion.suppression import GROUND_TRUTH

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
        doc = run_pipeline(proposal_columns([record()]), PipelineConfig())
        dets = by_video(doc)["P01_101"]
        assert len(dets) == 1
        d = dets[0]
        assert d.score == pytest.approx(math.sqrt(0.9 * 0.8), abs=1e-4)
        assert (d.verb, d.noun) == (3, 5)
        # dwf-fused boundary in feature coords, then seconds via the grid
        w_noun = 0.9 / (0.9 + 0.8 + 1e-6)
        w_verb = 0.8 / (0.9 + 0.8 + 1e-6)
        fused = (w_noun * 10 + w_verb * 14, w_noun * 20 + w_verb * 24)
        assert d.start == pytest.approx((fused[0] * 8 + 4) / 30, abs=1e-4)
        assert d.end == pytest.approx((fused[1] * 8 + 4) / 30, abs=1e-4)

    def test_mean_mode_uses_plain_average(self):
        cfg = PipelineConfig(fusion_mode="mean")
        doc = run_pipeline(proposal_columns([record()]), cfg)
        d = by_video(doc)["P01_101"][0]
        assert d.start == pytest.approx((12.0 * 8 + 4) / 30, abs=1e-4)
        assert d.end == pytest.approx((22.0 * 8 + 4) / 30, abs=1e-4)

    def test_window_start_shifts_seconds(self):
        doc = run_pipeline(proposal_columns([record(window_start=2304)]),
                           PipelineConfig(fusion_mode="mean"))
        d = by_video(doc)["P01_101"][0]
        # W0 = 2304 features * 8 frames, shifting everything by 614.4 s
        assert d.start == pytest.approx((12.0 * 8 + 2304 * 8 + 4) / 30, abs=1e-4)

    def test_deterministic_output(self):
        records = [record(), record(video="P01_102", noun_idx=7)]
        a = serialize_submission(run_pipeline(proposal_columns(records), PipelineConfig()))
        b = serialize_submission(run_pipeline(proposal_columns(records), PipelineConfig()))
        assert a == b

    def test_empty_input_warns_and_emits_empty(self, caplog):
        with caplog.at_level("WARNING"):
            doc = run_pipeline(proposal_columns([]), PipelineConfig())
        assert by_video(doc) == {}
        assert any("empty submission" in r.message for r in caplog.records)

    def test_duplicate_windows_suppressed_by_decay(self):
        # same action from two overlapping windows at tIoU 1.0: the copy
        # decays by exp(-2.5); with P = 0.01 each, S = 0.01 and the copy
        # falls below the 0.001 minimum score
        weak = [
            record(window_start=0, noun_p=0.01, verb_p=0.01),
            record(window_start=0, noun_p=0.01, verb_p=0.01),
        ]
        doc = run_pipeline(proposal_columns(weak), PipelineConfig())
        assert len(by_video(doc)["P01_101"]) == 1
        # with stronger scores the duplicate survives with a decayed score
        strong = [record(), record()]
        doc = run_pipeline(proposal_columns(strong), PipelineConfig())
        dets = by_video(doc)["P01_101"]
        assert len(dets) == 2
        expected = math.sqrt(0.72) * math.exp(-1.0 / 0.4)
        assert dets[1].score == pytest.approx(expected, abs=1e-4)

    def test_below_min_score_candidates_dropped(self):
        doc = run_pipeline(proposal_columns([record(noun_p=0.001, verb_p=0.0005)]),
                           PipelineConfig())
        # S = sqrt(5e-7) ~ 7e-4 < 0.001 under the verb_action preset
        assert len(by_video(doc)["P01_101"]) == 0

    def test_noun_preset_keeps_weaker_candidates_out(self):
        cfg = PipelineConfig(nms_preset="noun")
        doc = run_pipeline(proposal_columns([record(noun_p=0.003, verb_p=0.003)]), cfg)
        # S = 0.003 < noun preset minimum 0.005
        assert len(by_video(doc)["P01_101"]) == 0

    @pytest.mark.parametrize("order", [
        lambda shape: np.broadcast_to(np.arange(shape[1])[::-1], shape),
        lambda shape: np.argsort(np.random.default_rng(0).random(shape), axis=1),
    ], ids=["reversed", "shuffled"])
    def test_output_does_not_depend_on_each_pairs_candidate_order(self, order, monkeypatch):
        # two videos of records whose scores tie within and across records,
        # some with equal boundaries, and a pre-NMS cap that binds: 24
        # candidates per video against a cap of 10
        cfg = PipelineConfig(noun_count=4, verb_count=3, top_k_nouns=3, top_k_verbs=2,
                             pre_nms_cap=10)
        nouns, verbs = np.array([0.5, 0.5, 0.25, 0.0]), np.array([0.8, 0.8, 0.1])
        records = [ProposalRecord(video, 0, (10.0 + shift, 20.0), nouns.copy(),
                                  (14.0 + shift, 24.0), verbs.copy())
                   for shift in (0.0, 0.0, 3.0, 0.0) for video in ("b", "a")]
        doc = run_pipeline(proposal_columns(records), cfg)
        assert [len(dets) for dets in by_video(doc).values()] == [10, 10]

        def permuted(*args):
            per_pair = compose_actions(*args).reshape(len(records), -1)
            return np.take_along_axis(per_pair, order(per_pair.shape), 1).reshape(-1)

        monkeypatch.setattr(tadfusion.pipeline, "compose_actions", permuted)
        assert written(records, cfg) == serialize_submission(doc)

# scores that tie, sit exactly at or next to the 0.001 and 0.005 minimum
# scores (0.001 * 0.001 and 0.005 * 0.005 have square roots of exactly
# 0.001 and 0.005), or are 0
TIED_SCORES = [0.0, 0.001, 0.005, 0.0050000001, 0.25, 0.5, 1 / 3, 0.2, 1.0]


def random_proposal_set(rng):
    """A config and 1-12 records of 1-3 interleaved videos. Records mix
    tied and uniform scores, all-zero score vectors, boundaries that fuse
    inverted or collapse at the 0 clamp and windows that overlap; in 30%
    of the sets one record's window starts at 10**400."""
    nouns, verbs = rng.choice([(300, 97), (4, 3), (2, 1), (7, 5)])
    cfg = PipelineConfig(
        noun_count=nouns, verb_count=verbs,
        top_k_nouns=rng.choice([1, 2, 10, nouns, nouns + 3]),
        top_k_verbs=rng.choice([1, 3, 10, verbs, verbs + 2]),
        fusion_mode=rng.choice(["dwf", "mean"]), nms_preset=rng.choice(["noun", "verb_action"]),
        pre_nms_cap=rng.choice([1, 3, 20, 5000]), max_per_video=rng.choice([1, 2, 15, 3000]),
    )
    videos = rng.sample(["a", "b", "c"], rng.randint(1, 3))

    def scores(size):
        vec = np.zeros(size)
        if rng.random() < 0.15:
            return vec  # a "-" vector
        draw = (lambda: rng.choice(TIED_SCORES)) if rng.random() < 0.6 else rng.random
        for i in rng.sample(range(size), rng.randint(1, min(size, 6))):
            vec[i] = draw()
        return vec

    def boundary():
        kind = rng.random()
        if kind < 0.5:
            start = 0.5 * rng.randrange(-10, 40)
            return (start, start + rng.choice([0.5, 1.0, 3.0, 10.0]))
        if kind < 0.7:  # entirely below 0: collapses to a point at the clamp
            start = -rng.uniform(1.0, 20.0)
            return (start, start + rng.uniform(0.1, -start))
        start = rng.uniform(-5.0, 100.0)
        return (start, start + rng.uniform(1e-9, 30.0))

    records = [
        ProposalRecord(rng.choice(videos), rng.choice([0, 0, 576, 1152, rng.randrange(5000)]),
                       boundary(), scores(nouns), boundary(), scores(verbs))
        for _ in range(rng.randint(1, 12))
    ]
    if rng.random() < 0.3:
        i = rng.randrange(len(records))  # draws as rng.choice(records) does
        records[i] = records[i]._replace(window_start=10**400)
    return records, cfg


def written(records, cfg):
    """The submission text ``pipeline`` writes for ``records``."""
    return serialize_submission(run_pipeline(proposal_columns(records), cfg))


def pipeline_outcome(write, records, cfg):
    """The submission text ``write`` makes of ``records``, or the message of
    the ParseError raised."""
    try:
        return write(records, cfg)
    except ParseError as exc:
        return f"ParseError: {exc}"


class TestRunPipelineMatchesOracle:
    def test_byte_identical_on_240_proposal_sets(self):
        rng = random.Random(11)
        outcomes = []
        for _ in range(240):
            records, cfg = random_proposal_set(rng)
            expected = pipeline_outcome(oracle_run_pipeline, records, cfg)
            assert pipeline_outcome(written, records, cfg) == expected
            outcomes.append(expected)
        # the sets reach both outcomes, and detections on several videos
        errors = [o for o in outcomes if o.startswith("ParseError")]
        assert 20 <= len(errors) <= 60
        assert any(o.count('": [\n') >= 2 for o in outcomes)

    def test_huge_window_start_fails_only_with_a_surviving_candidate(self):
        cfg = PipelineConfig()
        survives = record(window_start=10**400)
        dropped = record(window_start=10**400, noun_p=0.001, verb_p=0.0005)
        for records in ([survives], [dropped], [record(), dropped], [dropped, survives]):
            expected = pipeline_outcome(oracle_run_pipeline, records, cfg)
            assert pipeline_outcome(written, records, cfg) == expected
        assert pipeline_outcome(written, [survives], cfg).startswith("ParseError")
        assert not pipeline_outcome(written, [dropped], cfg).startswith("ParseError")

    def test_first_unconvertible_record_in_the_file_is_named(self):
        records = [record(video="b"), record(video="a", window_start=10**400),
                   record(video="b", window_start=10**401)]
        with pytest.raises(ParseError, match=r"video 'a' at window start 10{400} "):
            run_pipeline(proposal_columns(records), PipelineConfig())

    def test_candidate_exactly_at_min_score_is_kept(self):
        assert math.sqrt(0.001 * 0.001) == 0.001
        doc = run_pipeline(proposal_columns([record(noun_p=0.001, verb_p=0.001)]),
                           PipelineConfig())
        assert [d.score for d in by_video(doc)["P01_101"]] == [0.001]


# score tokens of rows with no positive score, or with one beside zeros of
# both signs, by vocabulary size (None: 8 classes or more): explicit zeros,
# "-", and entries that cover the whole vocabulary
ZERO_TOKENS = {
    1: ["-", "0:0.0", "0:-0.0", "0:0.5"],
    2: ["-", "0:0.0", "1:-0.0", "0:-0.0,1:0.0", "1:0.0,0:-0.0", "1:-0.0,0:-0.0",
        "0:0.5,1:-0.0", "1:0.25"],
    None: ["-", "3:-0.0,4:0.0", "4:0.0,3:-0.0", "7:-0.0", "5:0.9,6:-0.0"],
}


class TestZeroScoreRows:
    """Rows whose streams hold only zero scores, explicit or not, against
    the dense references, through the file reader. ``fuse`` takes a row's
    confidence as +0.0 when it has no positive score; ``pipeline`` keeps
    no candidate of such a row, so its output does not depend on that."""

    @staticmethod
    def outcome(command, path, cfg_path, mode, capsys):
        """What ``command`` writes for the file at ``path``, or its error."""
        out = path.with_suffix(f".{command}.{mode}")
        code = main([command, "--proposals", str(path), "--config", str(cfg_path),
                     "--fusion-mode", mode, "--output", str(out)])
        if code:
            return "ParseError: " + capsys.readouterr().err.removeprefix("error: ").rstrip("\n")
        return out.read_text()

    @pytest.mark.parametrize("nouns, verbs", [(1, 2), (2, 1), (2, 2), (300, 97)])
    def test_pipeline_and_fuse_match_the_dense_references(self, tmp_path, capsys, nouns, verbs):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(f"noun_count = {nouns}\nverb_count = {verbs}\n")
        vocab = VocabSpec(nouns, verbs)
        lines = [f"b 0 {ns} {ne} {noun} {vs} {ve} {verb}"
                 for noun in ZERO_TOKENS.get(nouns, ZERO_TOKENS[None])
                 for verb in ZERO_TOKENS.get(verbs, ZERO_TOKENS[None])
                 for ns, ne, vs, ve in ((-2.0, 5.0, -3.0, 6.0), (1.0, 5.0, 2.0, 6.0))]
        for i, line in enumerate(lines):
            path = tmp_path / f"{i}.txt"
            path.write_text(line + "\n")
            records = proposal_records(read_proposal_file(path, vocab), vocab)
            for mode in ("dwf", "mean"):
                cfg = PipelineConfig(noun_count=nouns, verb_count=verbs, fusion_mode=mode)
                for command, reference in (("pipeline", oracle_run_pipeline),
                                           ("fuse", oracle_fuse)):
                    assert (self.outcome(command, path, cfg_path, mode, capsys)
                            == pipeline_outcome(reference, records, cfg)), (command, mode, line)


class TestEvaluateFiles:
    def test_submission_equal_to_ground_truth_scores_one(self):
        doc = run_pipeline(proposal_columns([record()]), PipelineConfig(fusion_mode="mean"))
        d = by_video(doc)["P01_101"][0]
        truth = from_video({"P01_101": [(d.start, d.end, 3, 5)]}, GROUND_TRUTH)
        results = evaluate_files(doc, truth)
        for task in ("verb", "noun", "action"):
            assert results[task].average == pytest.approx(1.0)

    def test_empty_results_score_zero(self):
        doc = run_pipeline(proposal_columns([]), PipelineConfig())
        truth = from_video({"P01_101": [(0.0, 1.0, 0, 0)]}, GROUND_TRUTH)
        results = evaluate_files(doc, truth)
        for task in ("verb", "noun", "action"):
            assert results[task].average == 0.0

    def test_table_and_keyvalue_formats(self):
        doc = run_pipeline(proposal_columns([record()]), PipelineConfig())
        truth = from_video({"P01_101": [(3.0, 6.0, 3, 5)]}, GROUND_TRUTH)
        results = evaluate_files(doc, truth)
        table = format_metrics_table(results)
        assert "mAP@0.1" in table and "action" in table
        kv = format_metrics_keyvalues(results)
        assert any(line.startswith("action_map_avg = ") for line in kv.splitlines())


class TestMetricLabels:
    def results(self, thresholds):
        return {task: MeanApResult({t: i / 8 + t / 10 for t in thresholds}, 0.25 * i)
                for i, task in enumerate(("verb", "noun", "action"))}

    def test_default_thresholds_print_as_before(self):
        results = self.results((0.1, 0.2, 0.3, 0.4, 0.5))
        assert format_metrics_table(results) == (
            "task      mAP@0.1  mAP@0.2  mAP@0.3  mAP@0.4  mAP@0.5     avg\n"
            "-------------------------------------------------------------\n"
            "verb       0.0100   0.0200   0.0300   0.0400   0.0500  0.0000\n"
            "noun       0.1350   0.1450   0.1550   0.1650   0.1750  0.2500\n"
            "action     0.2600   0.2700   0.2800   0.2900   0.3000  0.5000")
        assert format_metrics_keyvalues(results).splitlines()[:6] == [
            "verb_map_0.1 = 0.0100", "verb_map_0.2 = 0.0200", "verb_map_0.3 = 0.0300",
            "verb_map_0.4 = 0.0400", "verb_map_0.5 = 0.0500", "verb_map_avg = 0.0000"]

    def test_close_thresholds_get_distinct_labels_that_read_back(self, tmp_path):
        # at one decimal 0.72 and 0.74 both print as 0.7, and 0.75 as 0.8
        thresholds = (0.72, 0.74, 0.75)
        submission, gt_path, cfg = (tmp_path / name for name in ("s.json", "g.json", "e.cfg"))
        submission.write_text(json.dumps({"version": "0.1", "challenge": "action_detection",
                                          "results": {"P01": []}}))
        gt_path.write_text(json.dumps({"annotations": {
            "P01": [{"verb": 3, "noun": 5, "segment": [1.0, 2.0]}]}}))
        cfg.write_text("eval_thresholds = 0.72,0.74,0.75\n")
        result = run_cli("eval", "--submission", str(submission), "--ground-truth",
                         str(gt_path), "--config", str(cfg))
        assert result.returncode == 0, result.stderr
        table, keyvalues = result.stdout.split("\n\n")
        keys = [line.split(" = ")[0] for line in keyvalues.splitlines()]
        assert len(set(keys)) == len(keys) == 12
        for task in ("verb", "noun", "action"):
            labels = [key.removeprefix(f"{task}_map_") for key in keys if key.startswith(task)]
            assert tuple(float(label) for label in labels[:-1]) == thresholds
            assert labels[-1] == "avg"
        header = table.splitlines()[0].split()
        assert header == ["task", "mAP@0.72", "mAP@0.74", "mAP@0.75", "avg"]
        # every row lines up with the widened header
        assert len({len(line) for line in table.splitlines()}) == 1


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "tadfusion", *args],
        capture_output=True,
        text=True,
    )


class TestCli:
    def test_pipeline_roundtrip_and_determinism(self, tmp_path):
        proposals = tmp_path / "proposals.txt"
        write_proposal_file(proposals, proposal_columns([record()]))
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
        write_proposal_file(proposals, proposal_columns([record()]))
        result = run_cli("fuse", "--proposals", str(proposals), "--fusion-mode", "mean")
        assert result.returncode == 0
        assert "P01_101 12.0000 22.0000" in result.stdout

    def test_fuse_interleaved_videos_fuse_row_by_row(self, tmp_path):
        def fused(records, name):
            write_proposal_file(tmp_path / name, proposal_columns(records))
            out = tmp_path / f"{name}.out"
            assert main(["fuse", "--proposals", str(tmp_path / name), "--output", str(out)]) == 0
            return out.read_text().splitlines()

        records = [record("P01"), record("P02", noun_b=(2.0, 9.0), noun_p=0.4),
                   record("P01", window_start=5, verb_b=(30.0, 41.0), verb_p=0.3)]
        lines = fused(records, "all.txt")
        assert lines[0] == "# video_id fused_start fused_end"
        assert [line.split()[0] for line in lines[1:]] == ["P01", "P02", "P01"]
        # each line as the record alone fuses to
        assert lines[1:] == [fused([r], f"{i}.txt")[1] for i, r in enumerate(records)]

    def test_fuse_empty_file_prints_only_the_header(self, tmp_path):
        proposals = tmp_path / "proposals.txt"
        proposals.write_text("# no records\n\n", encoding="utf-8")
        out = tmp_path / "fused.txt"
        assert main(["fuse", "--proposals", str(proposals), "--output", str(out)]) == 0
        assert out.read_text() == "# video_id fused_start fused_end\n"

    def test_nms_subcommand(self, tmp_path):
        proposals = tmp_path / "proposals.txt"
        write_proposal_file(proposals, proposal_columns([record(), record()]))
        submission = tmp_path / "sub.json"
        run_cli("pipeline", "--proposals", str(proposals), "--output", str(submission))
        result = run_cli("nms", "--input", str(submission))
        assert result.returncode == 0
        assert json.loads(result.stdout)["challenge"] == "action_detection"

    def test_a_video_whose_proposals_all_drop_prints_an_empty_list(self, tmp_path):
        # P01_102's one candidate is below the minimum score; "P01_103" has none
        proposals, first, second = (tmp_path / name for name in ("p.txt", "a.json", "b.json"))
        write_proposal_file(proposals, proposal_columns([
            record(video="P01_102", noun_p=0.001, verb_p=0.0005), record(),
            record(video="P01_103", noun_p=0.0, verb_p=0.0)]))
        assert main(["pipeline", "--proposals", str(proposals), "--output", str(first)]) == 0
        assert main(["nms", "--input", str(first), "--output", str(second)]) == 0
        text = second.read_text()
        assert serialize_submission(parse_submission(text)) == text
        results = json.loads(text)["results"]
        assert list(results) == ["P01_101", "P01_102", "P01_103"]
        assert [len(dets) for dets in results.values()] == [1, 0, 0]
        assert '    "P01_102": [],\n    "P01_103": []\n' in text

    def test_eval_subcommand(self, tmp_path):
        proposals = tmp_path / "proposals.txt"
        write_proposal_file(proposals, proposal_columns([record()]))
        submission = tmp_path / "sub.json"
        run_cli("pipeline", "--proposals", str(proposals), "--output", str(submission))
        doc = read_submission(submission)
        d = by_video(doc)["P01_101"][0]
        gt_path = tmp_path / "gt.json"
        gt_path.write_text(json.dumps({"annotations": {
            "P01_101": [{"verb": 3, "noun": 5, "segment": [d.start, d.end]}]}}))
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

    def test_simulate_table_bytes(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("sim_segments = 6\n")
        table = tmp_path / "table.txt"
        result = run_cli(
            "simulate", "--config", str(cfg), "--seed", "5", "--table", str(table)
        )
        assert result.returncode == 0
        assert table.read_bytes() == (
            b"# segment err_dwf err_mean\n"
            b"0 1.098343 1.084430\n"
            b"1 0.479412 0.452391\n"
            b"2 0.360858 0.739594\n"
            b"3 0.805735 0.799369\n"
            b"4 0.644186 0.748134\n"
            b"5 0.878023 1.264236\n"
        )

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


# the table ``simulate --config <sim_segments = 6> --seed 5 --table`` writes
SIMULATE_TABLE_SEED_5 = (
    b"# segment err_dwf err_mean\n"
    b"0 1.098343 1.084430\n"
    b"1 0.479412 0.452391\n"
    b"2 0.360858 0.739594\n"
    b"3 0.805735 0.799369\n"
    b"4 0.644186 0.748134\n"
    b"5 0.878023 1.264236\n"
)


class TestMainIsTheOneWriter:
    """``main`` writes a command's text once, after the command succeeded,
    to ``--output`` or to stdout."""

    @staticmethod
    def commands(tmp_path):
        proposals, submission, truth, cfg = (tmp_path / name for name in
                                             ("p.txt", "s.json", "gt.json", "sim.cfg"))
        write_proposal_file(proposals, proposal_columns(
            [record(), record(window_start=2), record(video="P02", noun_idx=7, verb_idx=1)]))
        assert main(["pipeline", "--proposals", str(proposals), "--output", str(submission)]) == 0
        truth.write_text(json.dumps({"annotations": {
            "P01_101": [{"verb": 3, "noun": 5, "segment": [0.5, 1.5]}], "P02": []}}))
        cfg.write_text("sim_segments = 6\n")
        return {"pipeline": ["--proposals", str(proposals)],
                "fuse": ["--proposals", str(proposals)],
                "nms": ["--input", str(submission)],
                "eval": ["--submission", str(submission), "--ground-truth", str(truth)],
                "simulate": ["--config", str(cfg), "--seed", "5"],
                "windows": ["--total-features", "6000"]}

    def test_output_file_holds_the_stdout_bytes(self, tmp_path, capfdbinary):
        for command, args in self.commands(tmp_path).items():
            capfdbinary.readouterr()
            assert main([command, *args]) == 0
            stdout = capfdbinary.readouterr().out
            out = tmp_path / f"{command}.out"
            assert main([command, *args, "--output", str(out)]) == 0
            assert capfdbinary.readouterr().out == b""
            assert stdout and out.read_bytes() == stdout, command

    def test_a_failing_command_writes_nothing(self, tmp_path, capfdbinary):
        bad, out = tmp_path / "bad.txt", tmp_path / "out.json"
        bad.write_text(
            "P01 0 10.0 20.0 5:0.9 14.0 24.0 3:0.8\nP01 0 10.0 20.0 5:0.9 14.0 24.0\n")
        assert main(["pipeline", "--proposals", str(bad)]) == 1
        assert main(["pipeline", "--proposals", str(bad), "--output", str(out)]) == 1
        captured = capfdbinary.readouterr()
        assert captured.out == b"" and b"line 2" in captured.err
        assert not out.exists()

    def test_a_failing_simulate_writes_no_table(self, tmp_path, capfdbinary):
        args = self.commands(tmp_path)["simulate"]
        table, out = tmp_path / "table.txt", tmp_path / "missing" / "report.txt"
        assert main(["simulate", *args, "--table", str(table), "--output", str(out)]) == 1
        captured = capfdbinary.readouterr()
        assert captured.out == b"" and b"No such file or directory" in captured.err
        assert not table.exists()

    def test_simulate_writes_the_table_and_the_report(self, tmp_path, capfdbinary):
        args = self.commands(tmp_path)["simulate"]
        assert main(["simulate", *args]) == 0
        report = capfdbinary.readouterr().out
        table, out = tmp_path / "table.txt", tmp_path / "report.txt"
        assert main(["simulate", *args, "--table", str(table), "--output", str(out)]) == 0
        assert table.read_bytes() == SIMULATE_TABLE_SEED_5
        assert out.read_bytes() == report
