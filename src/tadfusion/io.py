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
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .composition import ENTRY, VocabSpec
from .errors import ParseError, SchemaMismatch, VocabularyMismatch
from .evaluation import GROUND_TRUTH
from .fusion import empty
from .suppression import DETECTION, rank_order

SUBMISSION_VERSION = "0.1"
SUBMISSION_CHALLENGE = "action_detection"


def open_text(path):
    """``path`` opened to read as UTF-8 text; a leading byte-order mark is not data."""
    return open(path, "r", encoding="utf-8-sig")


def data_lines(lines):
    """``(lineno, text)`` of each line of ``lines`` that holds data, numbered
    from 1: the text before any ``#``, stripped; blank lines are skipped."""
    for lineno, line in enumerate(lines, start=1):
        if text := line.split("#", 1)[0].strip():
            yield lineno, text


def require_finite(value: float, *, line=None, key=None) -> float:
    """``value`` itself if finite; otherwise a ParseError naming the line or key."""
    if not math.isfinite(value):
        raise ParseError(f"non-finite value {value!r}", line=line, key=key)
    return value


def _plain(token: str) -> bool:
    """The number grammar beyond ``int`` and ``float``: ASCII, no ``_`` groups."""
    return token.isascii() and "_" not in token


def parse_number(kind: str, token: str, *, line=None, key=None):
    """``token`` as a text reader's number: an ``"int"`` (``[+-]?[0-9]+``) or
    a finite ``"float"`` (an ASCII decimal or exponent literal). Anything
    else is a ParseError naming the line or key."""
    try:
        if _plain(token):
            return (int(token) if kind == "int"
                    else require_finite(float(token), line=line, key=key))
    except ValueError:
        pass
    raise ParseError(f"malformed {kind} {token!r}", line=line, key=key)


def require_class_index(value, count: int, *, key: str) -> int:
    """``value`` itself if it is a JSON integer in ``[0, count)``.

    A bool, float or string is a SchemaMismatch, not an index to coerce;
    an integer outside the vocabulary is a VocabularyMismatch naming ``key``.
    """
    if type(value) is not int:
        raise SchemaMismatch(f"{key} must be an integer class index, got {value!r}")
    if not 0 <= value < count:
        raise VocabularyMismatch(
            f"{key} class index {value} outside vocabulary of {count}", key=key
        )
    return value


def require_number(value, *, key: str) -> float:
    """``value`` as a float if it is a finite JSON number (int or float).

    A bool, string or any other JSON value is a SchemaMismatch naming
    ``key``, not a number to coerce.
    """
    if type(value) not in (int, float):
        raise SchemaMismatch(f"{key} must be a JSON number, got {value!r}")
    return require_finite(float(value), key=key)


def require_segment(value) -> tuple[float, float]:
    """A JSON ``segment``: a list of exactly two finite numbers, start before
    end, whose length ``end - start`` is finite too."""
    if type(value) is not list or len(value) != 2:
        raise SchemaMismatch(f"segment must be a list of two numbers, got {value!r}")
    start, end = require_number(value[0], key="segment"), require_number(value[1], key="segment")
    if not 0.0 < end - start < math.inf:
        raise SchemaMismatch(f"segment {value!r} must have start < end and a finite length")
    return start, end


@dataclass(eq=False)
class Proposals:
    """Aligned proposal pairs as columns, a row per pair in file order: window
    origins are exact ints in feature units, boundaries window-local, and each
    stream's scores a sparse ``composition.ENTRY`` array in row order."""

    video_ids: list[str]
    window_starts: list[int]
    noun_boundary: tuple[np.ndarray, np.ndarray]
    verb_boundary: tuple[np.ndarray, np.ndarray]
    noun_entries: np.ndarray
    verb_entries: np.ndarray

    def __len__(self) -> int:
        return len(self.video_ids)


def _parse_entries(token: str, size: int, lineno: int, stream: str, row: int,
                   entries: tuple) -> None:
    """Append a sparse score token's rows, classes and scores to ``entries``."""
    if token == "-":
        return
    if not _plain(token):  # one check for the whole token, not one per entry
        raise ParseError(f"malformed {stream} scores {token!r}", line=lineno)
    rows, classes, scores = entries
    seen = set()
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
        if index in seen:
            raise ParseError(f"repeated {stream} class index {index}", line=lineno)
        seen.add(index)
        rows.append(row)
        classes.append(index)
        scores.append(score)


def parse_proposals(lines, vocab: VocabSpec = VocabSpec()) -> Proposals:
    """Proposal columns of ``(lineno, text)`` data lines, in their order."""
    video_ids, window_starts, boundaries = [], [], []
    noun_entries, verb_entries = ([], [], []), ([], [], [])
    for row, (lineno, line) in enumerate(lines):
        tokens = line.split()
        if len(tokens) != 8:
            raise ParseError(f"expected 8 whitespace-separated fields, got {len(tokens)}",
                             line=lineno)
        window_start = parse_number("int", tokens[1], line=lineno)
        boundary = [parse_number("float", tokens[i], line=lineno) for i in (2, 3, 5, 6)]
        if window_start < 0:
            raise ParseError("window start must be >= 0", line=lineno)
        _parse_entries(tokens[4], vocab.noun_count, lineno, "noun", row, noun_entries)
        _parse_entries(tokens[7], vocab.verb_count, lineno, "verb", row, verb_entries)
        for stream, start, end in (("noun", *boundary[:2]), ("verb", *boundary[2:])):
            if not start < end:
                raise ParseError(f"{stream} boundary start must precede end", line=lineno)
        video_ids.append(tokens[0])
        window_starts.append(window_start)
        boundaries.append(boundary)
    noun_start, noun_end, verb_start, verb_end = np.array(boundaries, float).reshape(-1, 4).T
    return Proposals(video_ids, window_starts, (noun_start, noun_end), (verb_start, verb_end),
                     np.rec.fromarrays(noun_entries, dtype=ENTRY),
                     np.rec.fromarrays(verb_entries, dtype=ENTRY))


def read_proposal_file(path, vocab: VocabSpec = VocabSpec()) -> Proposals:
    """Parse a proposal file; ``#`` comments and blank lines are skipped."""
    with open_text(path) as handle:
        return parse_proposals(data_lines(handle), vocab)


def _format_entries(entries: np.ndarray, rows: int) -> list[str]:
    """Each row's ``index:score`` entries as the file writes them, or ``-``."""
    # repr round-trips exactly, so write -> read -> write is stable
    pairs = [f"{i}:{score!r}" for i, score in zip(entries["class"].tolist(),
                                                  entries["score"].tolist())]
    bounds = np.searchsorted(entries["row"], np.arange(rows + 1)).tolist()
    return [",".join(pairs[lo:hi]) or "-" for lo, hi in zip(bounds, bounds[1:])]


def write_proposal_file(path, proposals: Proposals) -> None:
    columns = [proposals.video_ids, map(str, proposals.window_starts),
               *(map(repr, coord.tolist()) for coord in proposals.noun_boundary),
               _format_entries(proposals.noun_entries, len(proposals)),
               *(map(repr, coord.tolist()) for coord in proposals.verb_boundary),
               _format_entries(proposals.verb_entries, len(proposals))]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("# video_id window_start ns ne noun_scores vs ve verb_scores\n")
        handle.writelines(" ".join(fields) + "\n" for fields in zip(*columns))


@dataclass
class SubmissionDocument:
    """Challenge-style JSON dictionary: each video's detections as a
    ``suppression.DETECTION`` record array, in rank order."""

    version: str = SUBMISSION_VERSION
    results: dict[str, np.recarray] = field(default_factory=dict)


# From 2**39 on, floats are spaced more than 1e-4 apart, so round(v, 4) == v.
_ROUND4_LIMIT = 2.0**39


def _round4(x: np.ndarray) -> np.ndarray:
    """``round(v, 4)`` of every value of ``x``, bit for bit.

    ``k = rint(x * 1e4)`` is the exact product rounded half-even unless
    the float product is a half-integer that the exact one is not; there
    the product's exact error (Dekker's split of ``x``; 1e4 needs none)
    picks the side. ``k / 1e4`` is correctly rounded, as ``round``'s
    decimal-to-float step is. Values from 2**39 on, inf and nan come back
    as they are; -0.0 stays -0.0.
    """
    small = np.abs(x) < _ROUND4_LIMIT  # False for inf and nan
    v = np.where(small, x, 0.0)  # no overflow in the products below
    p = v * 1e4
    k = np.rint(p)
    tie = np.nonzero(np.abs(p - k) == 0.5)
    v, p = v[tie], p[tie]
    c = v * 134217729.0  # 2**27 + 1
    hi = c - (c - v)
    err = (hi * 1e4 - p) + (v - hi) * 1e4  # v * 1e4 - p, exactly
    # where the error is 0 rint's half-even choice stands, -0.0 included
    k[tie] = np.where(err > 0.0, np.ceil(p), np.where(err < 0.0, np.floor(p), k[tie]))
    return np.where(small, k / 1e4, x)


def build_submission(
    detections_by_video: dict[str, np.recarray], version: str = SUBMISSION_VERSION
) -> SubmissionDocument:
    """Assemble a submission of quantized detections, in rank order.

    Times and scores are rounded to 4 decimals (well below any matching
    tolerance that matters) so that serialization round-trips exactly.
    The rounding is Python's ``round(v, 4)``, bit for bit: half-even on
    the exact binary value, so 510.37455 (a float just below the decimal)
    becomes 510.3745. ``np.round(x, 4)`` is not the same: it rounds
    ``x * 1e4`` after that product is itself rounded, and gives 510.3746.
    """
    results = {}
    for video_id in sorted(detections_by_video):
        dets = detections_by_video[video_id]
        start, end, score = _round4(np.array([dets.start, dets.end, dets.score]))
        kept = np.flatnonzero(~empty(start, end))  # quantization collapses sub-0.1ms intervals
        kept = kept[rank_order(score[kept], start[kept], dets.action[kept])]
        quantized = dets.take(kept)
        quantized.start, quantized.end, quantized.score = start[kept], end[kept], score[kept]
        results[video_id] = quantized
    return SubmissionDocument(version=version, results=results)


def serialize_submission(doc: SubmissionDocument) -> str:
    """Deterministic JSON text: fixed key order, fixed 4-decimal floats."""
    lines = ["{"]
    lines.append(f'  "version": {json.dumps(doc.version)},')
    lines.append(f'  "challenge": {json.dumps(SUBMISSION_CHALLENGE)},')
    lines.append('  "results": {')
    video_ids = sorted(doc.results)
    for vi, video_id in enumerate(video_ids):
        dets = doc.results[video_id]
        entries = [
            f'      {{"verb": {verb}, "noun": {noun}, "action": "{verb},{noun}", '
            f'"segment": [{start:.4f}, {end:.4f}], "score": {score:.4f}}}'
            for verb, noun, start, end, score in zip(
                dets.verb.tolist(), dets.noun.tolist(), dets.start.tolist(),
                dets.end.tolist(), dets.score.tolist())
        ]
        suffix = "," if vi < len(video_ids) - 1 else ""
        if entries:
            lines.append(f"    {json.dumps(video_id)}: [")
            lines.append(",\n".join(entries))
            lines.append(f"    ]{suffix}")
        else:
            lines.append(f"    {json.dumps(video_id)}: []{suffix}")
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _checked_entry(entry, vocab: VocabSpec) -> tuple:
    """One submission entry as a ``DETECTION`` row with action id 0, each
    field checked in turn; the first at fault raises, naming its key."""
    try:
        verb = require_class_index(entry["verb"], vocab.verb_count, key="verb")
        noun = require_class_index(entry["noun"], vocab.noun_count, key="noun")
        start, end = require_segment(entry["segment"])
        score = require_number(entry["score"], key="score")
        if not 0.0 <= score <= 1.0:
            raise ParseError(f"score {score} outside [0, 1]", key="score")
        action = entry["action"]
    except (KeyError, IndexError, OverflowError, TypeError, ValueError) as exc:
        raise SchemaMismatch(f"malformed detection entry: {exc}") from None
    if action != f"{verb},{noun}":
        raise SchemaMismatch(
            f"action string {action!r} does not match verb={verb}, noun={noun}"
        )
    return start, end, verb, noun, 0, score


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; a repeated key is a ParseError naming it."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise ParseError("repeated JSON object key", key=key)
    return obj


def _load_json(text: str, **hooks):
    """``json.loads``, with invalid JSON a ParseError naming the line, and
    JSON nested too deep or with an integer too long to convert a ParseError."""
    try:
        return json.loads(text, **hooks)
    except (RecursionError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise ParseError(f"invalid JSON: {exc}", line=getattr(exc, "lineno", None)) from None


def _reject_repeated_keys(text: str, keys: int) -> None:
    """Raise a ParseError naming a key repeated within one JSON object of
    ``text``, whose parsed objects were counted to hold ``keys`` keys or
    more; ``json`` would let the last value of such a key win.

    Every object member takes one ``:`` outside strings, so once ``keys``
    reaches the number of colons, no key repeats. Only otherwise is the
    text parsed again, checking every object.
    """
    if keys < text.count(":"):
        _load_json(text, object_pairs_hook=_unique_keys)


def parse_submission(text: str, vocab: VocabSpec = VocabSpec()) -> SubmissionDocument:
    """Parse submission JSON back into a document.

    An entry of JSON integers in the vocabulary, a segment of two floats
    with start < end and a finite length, a float score in [0, 1] and the
    matching action string is taken as it is; any other entry is checked
    field by field, and the first field at fault raises.

    Raises:
        ParseError: on invalid JSON or a key repeated within one object.
        SchemaMismatch: when required fields are missing or ill-typed,
            or an action string disagrees with its verb/noun fields.
    """
    payload = _load_json(text)
    if not isinstance(payload, dict):
        raise SchemaMismatch("submission must be a JSON object")
    for key in ("version", "challenge", "results"):
        if key not in payload:
            raise SchemaMismatch(f"submission missing {key!r}")
    if type(payload["version"]) is not str:
        raise SchemaMismatch(f"version must be a JSON string, got {payload['version']!r}")
    if payload["challenge"] != SUBMISSION_CHALLENGE:
        raise SchemaMismatch(f"challenge must be {SUBMISSION_CHALLENGE!r}")
    if not isinstance(payload["results"], dict):
        raise SchemaMismatch("results must map video ids to detection lists")

    verb_count, noun_count = vocab.verb_count, vocab.noun_count
    results = {}
    keys = len(payload) + len(payload["results"])  # for _reject_repeated_keys
    for video_id, entries in payload["results"].items():
        if not isinstance(entries, list):
            raise SchemaMismatch(f"detections of video {video_id!r} must be a list")
        rows = []
        for entry in entries:
            if (type(entry) is dict
                    and type(verb := entry.get("verb")) is int and 0 <= verb < verb_count
                    and type(noun := entry.get("noun")) is int and 0 <= noun < noun_count
                    and type(segment := entry.get("segment")) is list and len(segment) == 2
                    and type(start := segment[0]) is float and type(end := segment[1]) is float
                    and 0.0 < end - start < math.inf  # false if either is not finite
                    and type(score := entry.get("score")) is float and 0.0 <= score <= 1.0
                    and entry.get("action") == f"{verb},{noun}"):
                rows.append((start, end, verb, noun, 0, score))
            else:
                rows.append(_checked_entry(entry, vocab))
        keys += sum(map(len, entries))  # all dicts: any other entry raised
        # fields by index: a recarray's attribute access costs more
        dets = np.array(rows, dtype=DETECTION)
        dets["action"] = vocab.action_id(dets["noun"], dets["verb"])
        results[video_id] = dets.view(np.recarray)
    _reject_repeated_keys(text, keys)
    return SubmissionDocument(version=payload["version"], results=results)


def read_submission(path, vocab: VocabSpec = VocabSpec()) -> SubmissionDocument:
    with open_text(path) as handle:
        return parse_submission(handle.read(), vocab)


def read_ground_truth(path, vocab: VocabSpec = VocabSpec()) -> dict[str, np.recarray]:
    """Ground truth as ``GROUND_TRUTH`` record arrays by video id, in file
    order. A key repeated within one JSON object is a ParseError."""
    with open_text(path) as handle:
        text = handle.read()
    payload = _load_json(text)
    if not isinstance(payload, dict) or not isinstance(payload.get("annotations"), dict):
        raise SchemaMismatch("ground truth must contain an 'annotations' map")
    truth = {}
    keys = len(payload) + len(payload["annotations"])  # for _reject_repeated_keys
    for video_id, entries in payload["annotations"].items():
        if not isinstance(entries, list):
            raise SchemaMismatch(f"annotations of video {video_id!r} must be a list")
        rows = []
        for entry in entries:
            try:
                rows.append((*require_segment(entry["segment"]),
                             require_class_index(entry["verb"], vocab.verb_count, key="verb"),
                             require_class_index(entry["noun"], vocab.noun_count, key="noun")))
            except (KeyError, IndexError, OverflowError, TypeError, ValueError) as exc:
                raise SchemaMismatch(f"malformed annotation: {exc}") from None
        keys += sum(map(len, entries))  # all dicts: any other entry raised
        truth[video_id] = np.array(rows, dtype=GROUND_TRUTH).view(np.recarray)
    _reject_repeated_keys(text, keys)
    return truth
