"""File formats: aligned proposals, submission JSON, ground truth.

The proposal file is line-oriented, one aligned noun-verb proposal pair
per line, with sparse score vectors (``index:score`` pairs) because
dense 300- and 97-way rows would be mostly zeros. The submission is the
challenge-style JSON dictionary; it is serialized with a fixed key order
and fixed 4-decimal formatting so identical runs produce byte-identical
files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .composition import VocabSpec, encode_action_id
from .errors import ParseError, SchemaMismatch, VocabularyMismatch
from .evaluation import GroundTruthInstance
from .suppression import ActionDetection, by_rank

SUBMISSION_VERSION = "0.1"
SUBMISSION_CHALLENGE = "action_detection"


def require_finite(value: float, *, line=None, key=None) -> float:
    """``value`` itself if finite; otherwise a ParseError naming the line or key."""
    if not math.isfinite(value):
        raise ParseError(f"non-finite value {value!r}", line=line, key=key)
    return value


@dataclass(eq=False)
class ProposalRecord:
    """One aligned proposal pair as stored in the proposal file.

    Boundaries are window-local feature coordinates; ``window_start``
    is the window origin in feature units. Score vectors are dense
    (reconstructed from the sparse file form with zeros).
    """

    video_id: str
    window_start: int
    noun_boundary: tuple[float, float]
    noun_scores: np.ndarray
    verb_boundary: tuple[float, float]
    verb_scores: np.ndarray


def _parse_sparse_scores(token: str, size: int, lineno: int, stream: str) -> np.ndarray:
    scores = np.zeros(size)
    if token == "-":
        return scores
    for pair in token.split(","):
        index_str, _, score_str = pair.partition(":")
        try:
            index = int(index_str)
            score = float(score_str)
        except ValueError:
            raise ParseError(
                f"malformed {stream} score entry {pair!r}", line=lineno
            ) from None
        if not 0 <= index < size:
            raise VocabularyMismatch(
                f"{stream} class index {index} outside vocabulary of {size}",
                line=lineno,
            )
        if not 0.0 <= score <= 1.0:
            raise ParseError(
                f"{stream} score {score} outside [0, 1]", line=lineno
            )
        scores[index] = score
    return scores


def _format_sparse_scores(scores: np.ndarray) -> str:
    # repr round-trips exactly, so write -> read -> write is stable
    entries = [f"{i}:{float(scores[i])!r}" for i in np.flatnonzero(scores)]
    return ",".join(entries) if entries else "-"


def parse_proposal_line(line: str, lineno: int, vocab: VocabSpec) -> ProposalRecord:
    tokens = line.split()
    if len(tokens) != 8:
        raise ParseError(
            f"expected 8 whitespace-separated fields, got {len(tokens)}", line=lineno
        )
    video_id, window_start_str = tokens[0], tokens[1]
    try:
        window_start = int(window_start_str)
        noun_boundary = (float(tokens[2]), float(tokens[3]))
        verb_boundary = (float(tokens[5]), float(tokens[6]))
    except ValueError as exc:
        raise ParseError(f"malformed numeric field: {exc}", line=lineno) from None
    if window_start < 0:
        raise ParseError("window start must be >= 0", line=lineno)
    for value in (*noun_boundary, *verb_boundary):
        require_finite(value, line=lineno)
    if noun_boundary[0] >= noun_boundary[1]:
        raise ParseError("noun boundary start must precede end", line=lineno)
    if verb_boundary[0] >= verb_boundary[1]:
        raise ParseError("verb boundary start must precede end", line=lineno)
    return ProposalRecord(
        video_id=video_id,
        window_start=window_start,
        noun_boundary=noun_boundary,
        noun_scores=_parse_sparse_scores(tokens[4], vocab.noun_count, lineno, "noun"),
        verb_boundary=verb_boundary,
        verb_scores=_parse_sparse_scores(tokens[7], vocab.verb_count, lineno, "verb"),
    )


def read_proposal_file(path, vocab: VocabSpec = VocabSpec()) -> list[ProposalRecord]:
    """Parse a proposal file; ``#`` comments and blank lines are skipped."""
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            records.append(parse_proposal_line(stripped, lineno, vocab))
    return records


def format_proposal_record(record: ProposalRecord) -> str:
    return " ".join(
        [
            record.video_id,
            str(record.window_start),
            repr(float(record.noun_boundary[0])),
            repr(float(record.noun_boundary[1])),
            _format_sparse_scores(record.noun_scores),
            repr(float(record.verb_boundary[0])),
            repr(float(record.verb_boundary[1])),
            _format_sparse_scores(record.verb_scores),
        ]
    )


def write_proposal_file(path, records: list[ProposalRecord]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("# video_id window_start ns ne noun_scores vs ve verb_scores\n")
        for record in records:
            handle.write(format_proposal_record(record) + "\n")


@dataclass
class SubmissionDocument:
    """Challenge-style JSON dictionary of per-video detections."""

    version: str = SUBMISSION_VERSION
    challenge: str = SUBMISSION_CHALLENGE
    results: dict[str, list[ActionDetection]] = field(default_factory=dict)


def build_submission(
    detections_by_video: dict[str, list[ActionDetection]], version: str = SUBMISSION_VERSION
) -> SubmissionDocument:
    """Assemble a submission with quantized times/scores and sorted order.

    Times and scores are rounded to 4 decimals (well below any matching
    tolerance that matters) so that serialization round-trips exactly.
    """
    results = {}
    for video_id in sorted(detections_by_video):
        dets = []
        for d in detections_by_video[video_id]:
            start = round(d.start, 4)
            end = round(d.end, 4)
            if start >= end:
                continue  # quantization collapsed a sub-0.1ms interval
            dets.append(
                ActionDetection(
                    video_id=d.video_id,
                    start=start,
                    end=end,
                    verb_index=d.verb_index,
                    noun_index=d.noun_index,
                    action_id=d.action_id,
                    score=round(d.score, 4),
                )
            )
        results[video_id] = by_rank(dets)
    return SubmissionDocument(version=version, results=results)


def serialize_submission(doc: SubmissionDocument) -> str:
    """Deterministic JSON text: fixed key order, fixed 4-decimal floats."""
    lines = ["{"]
    lines.append(f'  "version": {json.dumps(doc.version)},')
    lines.append(f'  "challenge": {json.dumps(doc.challenge)},')
    lines.append('  "results": {')
    video_ids = sorted(doc.results)
    for vi, video_id in enumerate(video_ids):
        entries = []
        for d in doc.results[video_id]:
            entries.append(
                "      {"
                + f'"verb": {d.verb_index}, "noun": {d.noun_index}, '
                + f'"action": "{d.verb_index},{d.noun_index}", '
                + f'"segment": [{d.start:.4f}, {d.end:.4f}], "score": {d.score:.4f}'
                + "}"
            )
        body = ",\n".join(entries)
        suffix = "," if vi < len(video_ids) - 1 else ""
        if entries:
            lines.append(f"    {json.dumps(video_id)}: [")
            lines.append(body)
            lines.append(f"    ]{suffix}")
        else:
            lines.append(f"    {json.dumps(video_id)}: []{suffix}")
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_submission(path, doc: SubmissionDocument) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(serialize_submission(doc))


def parse_submission(text: str, vocab: VocabSpec = VocabSpec()) -> SubmissionDocument:
    """Parse submission JSON back into a document.

    Raises:
        SchemaMismatch: when required fields are missing or ill-typed,
            or an action string disagrees with its verb/noun fields.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", line=exc.lineno) from None
    if not isinstance(payload, dict):
        raise SchemaMismatch("submission must be a JSON object")
    for key in ("version", "challenge", "results"):
        if key not in payload:
            raise SchemaMismatch(f"submission missing {key!r}")
    if not isinstance(payload["results"], dict):
        raise SchemaMismatch("results must map video ids to detection lists")

    results = {}
    for video_id, entries in payload["results"].items():
        if not isinstance(entries, list):
            raise SchemaMismatch(f"detections of video {video_id!r} must be a list")
        dets = []
        for entry in entries:
            try:
                verb = int(entry["verb"])
                noun = int(entry["noun"])
                start = require_finite(float(entry["segment"][0]), key="segment")
                end = require_finite(float(entry["segment"][1]), key="segment")
                score = require_finite(float(entry["score"]), key="score")
                action = entry["action"]
            except (KeyError, IndexError, OverflowError, TypeError, ValueError) as exc:
                raise SchemaMismatch(f"malformed detection entry: {exc}") from None
            if action != f"{verb},{noun}":
                raise SchemaMismatch(
                    f"action string {action!r} does not match verb={verb}, noun={noun}"
                )
            dets.append(
                ActionDetection(
                    video_id=video_id,
                    start=start,
                    end=end,
                    verb_index=verb,
                    noun_index=noun,
                    action_id=encode_action_id(noun, verb, vocab),
                    score=score,
                )
            )
        results[video_id] = dets
    return SubmissionDocument(
        version=str(payload["version"]), challenge=str(payload["challenge"]), results=results
    )


def read_submission(path, vocab: VocabSpec = VocabSpec()) -> SubmissionDocument:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_submission(handle.read(), vocab)


def submission_detections(doc: SubmissionDocument) -> list[ActionDetection]:
    """Flatten a submission's results map into one detection list."""
    dets = []
    for video_id in sorted(doc.results):
        dets.extend(doc.results[video_id])
    return dets


def write_ground_truth(path, instances: list[GroundTruthInstance]) -> None:
    """Ground-truth JSON: {"annotations": {video_id: [segment records]}}."""
    by_video: dict[str, list[GroundTruthInstance]] = {}
    for inst in instances:
        by_video.setdefault(inst.video_id, []).append(inst)
    payload = {
        "annotations": {
            video_id: [
                {
                    "verb": inst.verb_index,
                    "noun": inst.noun_index,
                    "segment": [inst.start, inst.end],
                }
                for inst in by_video[video_id]
            ]
            for video_id in sorted(by_video)
        }
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def read_ground_truth(path) -> list[GroundTruthInstance]:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}", line=exc.lineno) from None
    if not isinstance(payload, dict) or not isinstance(payload.get("annotations"), dict):
        raise SchemaMismatch("ground truth must contain an 'annotations' map")
    instances = []
    for video_id, entries in payload["annotations"].items():
        if not isinstance(entries, list):
            raise SchemaMismatch(f"annotations of video {video_id!r} must be a list")
        for entry in entries:
            try:
                instances.append(
                    GroundTruthInstance(
                        video_id=video_id,
                        start=require_finite(float(entry["segment"][0]), key="segment"),
                        end=require_finite(float(entry["segment"][1]), key="segment"),
                        verb_index=int(entry["verb"]),
                        noun_index=int(entry["noun"]),
                    )
                )
            except (KeyError, IndexError, OverflowError, TypeError, ValueError) as exc:
                raise SchemaMismatch(f"malformed annotation: {exc}") from None
    return instances
