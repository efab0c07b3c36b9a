"""File formats: aligned proposals, submission JSON, ground truth.

The proposal file is line-oriented, one aligned noun-verb proposal pair
per line, with sparse score vectors (``index:score`` pairs) because
dense 300- and 97-way rows would be mostly zeros. The submission is the
challenge-style JSON dictionary; it is serialized with a fixed key order
and fixed 4-decimal formatting so identical runs produce byte-identical
files. Detections and ground truth are each read into one table of all
videos, with a video code column into the sorted video ids.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .composition import ENTRY, VocabSpec
from .errors import ParseError
from .fusion import empty
from .suppression import DETECTION, GROUND_TRUTH, lex_order, rank_order, video_codes

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

    A bool, float or string is a ParseError, not an index to coerce, and
    an integer outside the vocabulary is a ParseError naming ``key``.
    """
    if type(value) is not int:
        raise ParseError(f"{key} must be an integer class index, got {value!r}")
    if not 0 <= value < count:
        raise ParseError(f"{key} class index {value} outside vocabulary of {count}", key=key)
    return value


def require_number(value, *, key: str) -> float:
    """``value`` as a float if it is a finite JSON number (int or float).

    A bool, string or any other JSON value is a ParseError naming
    ``key``, not a number to coerce.
    """
    if type(value) not in (int, float):
        raise ParseError(f"{key} must be a JSON number, got {value!r}")
    return require_finite(float(value), key=key)


def require_segment(value) -> tuple[float, float]:
    """A JSON ``segment``: a list of exactly two finite numbers, start before
    end, whose length ``end - start`` is finite too."""
    if type(value) is not list or len(value) != 2:
        raise ParseError(f"segment must be a list of two numbers, got {value!r}")
    start, end = require_number(value[0], key="segment"), require_number(value[1], key="segment")
    if not 0.0 < end - start < math.inf:
        raise ParseError(f"segment {value!r} must have start < end and a finite length")
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
            raise ParseError(f"malformed {stream} score entry {pair!r}", line=lineno) from None
        if not 0 <= index < size:
            raise ParseError(f"{stream} class index {index} outside vocabulary of {size}",
                             line=lineno)
        if not 0.0 <= score <= 1.0:
            raise ParseError(f"{stream} score {score} outside [0, 1]", line=lineno)
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


@dataclass(eq=False)
class VideoTable:
    """Rows of every video as one record array, grouped by their ``video``
    code, ascending: the index of the row's video id in ``video_ids``.
    The ids are sorted and may hold videos without rows."""

    video_ids: list[str]
    rows: np.recarray

    def __len__(self) -> int:
        return len(self.rows)


@dataclass(eq=False)
class SubmissionDocument(VideoTable):
    """Challenge-style JSON dictionary: ``suppression.DETECTION`` rows,
    each video's in rank order."""

    version: str = SUBMISSION_VERSION


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


def build_submission(video_ids: list[str], dets: np.recarray,
                     version: str = SUBMISSION_VERSION) -> SubmissionDocument:
    """Assemble a submission of quantized detections of the sorted
    ``video_ids``, by video and in rank order within each.

    Times and scores are rounded to 4 decimals (well below any matching
    tolerance that matters) so that serialization round-trips exactly.
    The rounding is Python's ``round(v, 4)``, bit for bit: half-even on
    the exact binary value, so 510.37455 (a float just below the decimal)
    becomes 510.3745. ``np.round(x, 4)`` is not the same: it rounds
    ``x * 1e4`` after that product is itself rounded, and gives 510.3746.
    """
    start, end, score = _round4(np.array([dets.start, dets.end, dets.score]))
    kept = np.flatnonzero(~empty(start, end))  # quantization collapses sub-0.1ms intervals
    kept = kept[rank_order(score[kept], start[kept], dets.action[kept], dets.video[kept])]
    quantized = dets.take(kept)
    quantized.start, quantized.end, quantized.score = start[kept], end[kept], score[kept]
    return SubmissionDocument(video_ids, quantized, version)


def serialize_submission(doc: SubmissionDocument) -> str:
    """Deterministic JSON text: fixed key order, fixed 4-decimal floats."""
    dets = doc.rows
    entries = [
        f'      {{"verb": {verb}, "noun": {noun}, "action": "{verb},{noun}", '
        f'"segment": [{start:.4f}, {end:.4f}], "score": {score:.4f}}}'
        for verb, noun, start, end, score in zip(
            dets.verb.tolist(), dets.noun.tolist(), dets.start.tolist(),
            dets.end.tolist(), dets.score.tolist())
    ]
    lines = ["{", f'  "version": {json.dumps(doc.version)},',
             f'  "challenge": {json.dumps(SUBMISSION_CHALLENGE)},', '  "results": {']
    # each video's run of rows: entries[bounds[code]:bounds[code + 1]]
    bounds = np.searchsorted(dets.video, np.arange(len(doc.video_ids) + 1)).tolist()
    for code, (video_id, lo, hi) in enumerate(zip(doc.video_ids, bounds, bounds[1:])):
        suffix = "," if code < len(doc.video_ids) - 1 else ""
        if lo < hi:  # the rows as one line: joined once, not copied again
            lines += [f"    {json.dumps(video_id)}: [", ",\n".join(entries[lo:hi]),
                      f"    ]{suffix}"]
        else:
            lines.append(f"    {json.dumps(video_id)}: []{suffix}")
    lines += ["  }", "}", ""]  # "" for the final newline, without a copy of the text
    return "\n".join(lines)


def _checked_entry(entry, vocab: VocabSpec) -> tuple:
    """One submission entry as the fields of a ``DETECTION`` row after its
    video, with action id 0, each field checked in turn; the first at
    fault raises, naming its key."""
    try:
        verb = require_class_index(entry["verb"], vocab.verb_count, key="verb")
        noun = require_class_index(entry["noun"], vocab.noun_count, key="noun")
        start, end = require_segment(entry["segment"])
        score = require_number(entry["score"], key="score")
        if not 0.0 <= score <= 1.0:
            raise ParseError(f"score {score} outside [0, 1]", key="score")
        action = entry["action"]
    except (KeyError, IndexError, OverflowError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed detection entry: {exc}") from None
    if action != f"{verb},{noun}":
        raise ParseError(f"action string {action!r} does not match verb={verb}, noun={noun}")
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


def _video_table(text: str, payload: dict, key: str, what: str, add_rows,
                 dtype: np.dtype, vocab: VocabSpec) -> VideoTable:
    """The JSON map ``payload[key]`` of video ids to entry lists, parsed
    from ``text``, as one table of ``dtype`` rows grouped by the code of the
    sorted ids, each video's in file order; the one walk of a video map.
    ``add_rows(code, entries, rows)`` appends the rows of one video's
    entries, led by its code, with action id 0 for ``vocab.action_id`` to
    fill, and raises on any entry that is not a JSON object. A value that
    is not a list is a ParseError naming ``what``, and a key repeated
    within one JSON object (``json`` lets its last value win) a ParseError
    naming it: every object member takes one ``:`` outside strings, so once
    the counted keys reach the number of colons, no key repeats, and only
    otherwise is ``text`` parsed again."""
    video_ids, codes = video_codes(payload[key])
    rows = []
    keys = len(payload) + len(payload[key])
    for code, (video_id, entries) in zip(codes.tolist(), payload[key].items()):
        if not isinstance(entries, list):
            raise ParseError(f"{what} of video {video_id!r} must be a list")
        add_rows(code, entries, rows)
        keys += sum(map(len, entries))  # all dicts: any other entry raised
    if keys < text.count(":"):
        _load_json(text, object_pairs_hook=_unique_keys)
    table = np.array(rows, dtype=dtype)
    table["action"] = vocab.action_id(table["noun"], table["verb"])
    return VideoTable(video_ids, table[lex_order(table["video"])].view(np.recarray))


def parse_submission(text: str, vocab: VocabSpec = VocabSpec()) -> SubmissionDocument:
    """Parse submission JSON back into a document.

    An entry of JSON integers in the vocabulary, a segment of two floats
    with start < end and a finite length, a float score in [0, 1] and the
    matching action string is taken as it is; any other entry is checked
    field by field, and the first field at fault raises.

    Raises:
        ParseError: on invalid JSON, a key repeated within one object,
            required fields missing or ill-typed, or an action string
            that disagrees with its verb/noun fields.
    """
    payload = _load_json(text)
    if not isinstance(payload, dict):
        raise ParseError("submission must be a JSON object")
    for key in ("version", "challenge", "results"):
        if key not in payload:
            raise ParseError(f"submission missing {key!r}")
    if type(payload["version"]) is not str:
        raise ParseError(f"version must be a JSON string, got {payload['version']!r}")
    if payload["challenge"] != SUBMISSION_CHALLENGE:
        raise ParseError(f"challenge must be {SUBMISSION_CHALLENGE!r}")
    if not isinstance(payload["results"], dict):
        raise ParseError("results must map video ids to detection lists")

    verb_count, noun_count = vocab.verb_count, vocab.noun_count

    def add_rows(code, entries, rows):
        for entry in entries:
            if (type(entry) is dict
                    and type(verb := entry.get("verb")) is int and 0 <= verb < verb_count
                    and type(noun := entry.get("noun")) is int and 0 <= noun < noun_count
                    and type(segment := entry.get("segment")) is list and len(segment) == 2
                    and type(start := segment[0]) is float and type(end := segment[1]) is float
                    and 0.0 < end - start < math.inf  # false if either is not finite
                    and type(score := entry.get("score")) is float and 0.0 <= score <= 1.0
                    and entry.get("action") == f"{verb},{noun}"):
                rows.append((code, start, end, verb, noun, 0, score))
            else:
                rows.append((code, *_checked_entry(entry, vocab)))

    table = _video_table(text, payload, "results", "detections", add_rows, DETECTION, vocab)
    return SubmissionDocument(table.video_ids, table.rows, payload["version"])


def read_submission(path, vocab: VocabSpec = VocabSpec()) -> SubmissionDocument:
    with open_text(path) as handle:
        return parse_submission(handle.read(), vocab)


def read_ground_truth(path, vocab: VocabSpec = VocabSpec()) -> VideoTable:
    """Ground truth as one table of ``suppression.GROUND_TRUTH`` rows with
    ``vocab``'s action ids, each video's in file order. A key repeated
    within one JSON object is a ParseError."""
    with open_text(path) as handle:
        text = handle.read()
    payload = _load_json(text)
    if not isinstance(payload, dict) or not isinstance(payload.get("annotations"), dict):
        raise ParseError("ground truth must contain an 'annotations' map")

    def add_rows(code, entries, rows):
        for entry in entries:
            try:
                rows.append((code, *require_segment(entry["segment"]),
                             require_class_index(entry["verb"], vocab.verb_count, key="verb"),
                             require_class_index(entry["noun"], vocab.noun_count, key="noun"), 0))
            except (KeyError, IndexError, OverflowError, TypeError, ValueError) as exc:
                raise ParseError(f"malformed annotation: {exc}") from None

    return _video_table(text, payload, "annotations", "annotations", add_rows, GROUND_TRUTH,
                        vocab)
