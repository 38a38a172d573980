"""Readers/writers for the pipeline's external record files.

All inputs and outputs are JSON Lines: one object per line, UTF-8, numbers
as decimal text.  Loading is order-independent (collections come back
canonically sorted).  Field names are fixed and documented in the README.

Each of the six loaders reads its file through one rule table (`Table`):
its fields with their readers (`{name: _get_*}`; the six cuboid fields
are one such table, `CUBOID_FIELDS`), its ordered rules (`geometry.Rule`:
a predicate over `{field name: column}` plus the message for a record
that breaks it; the cuboid rules are `geometry.CUBOID_RULES`) and a build
step.  `_read_table` is the one reader: it opens the file and takes
`RECORD_BLOCK` lines at a time.  A block whose lines are all JSON objects
holding every typed field with exactly its reader's type
(`_block_columns`) has each rule applied once to its columns, and its
records are built with `tuple.__new__`; the score table builds no records
but one item of arrays per block, and `load_scores` returns the file as
three aligned columns (ids, a score matrix, refinement pairs) in id order,
whatever the order of its lines.  Any other block, or one a rule
refuses, is read again record by record through `_parse_lines`: the field
readers (which convert an int where a float goes), then the same rules on
one-element columns in table order, raising the first broken rule's
message as `path:line:`.  So a record's fault order is its field order,
then its table's rule order.  A field only rules check (`class_scores`,
`parent_id`) is read as parsed, except that a score's int 0 or 1 becomes a
float.

Every output file is written through `replacing` (to `<name>.tmp`, then
renamed over the target): every text file through `write_lines`, which
can hash the bytes as it writes them, and the binary column mirror beside
the proposal file and the final-detections file through `write_mirror`,
one codec driven by the file's table.  A mirror's one SHA-256 goes on from
the record file's bytes, hashed as `write_lines` wrote them, over the
mirror's own body; `read_mirror` gives the mirror's records, built by the
table's `build`, only while that digest holds over the file on disk, and
the loader reads the JSONL otherwise.  Proposals, training labels and
final detections are encoded from their table by one generated line
function each (`line_encoder`): a `%` template behind an exact-type guard,
with the JSON encoder as fallback, the same bytes either way.  Proposals
and final detections also keep each box's text for one write call, looked
up only once the guard has passed and never kept for a box holding a
zero, since `-0.0 == 0.0` but the two are written differently.  An
indented JSON document (the `score` report, a saved config) is written by
`indented_json`, which gives `json.dumps(value, indent=2, sort_keys=True)`
without the standard library's pure-Python encoder.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import itertools
import json
import math
import operator
import os
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from collections import namedtuple
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np
import orjson

from .geometry import CUBOID_RULES, Cuboid, Rule, check_record

# The 12 action labels of the target label set, index 1..12 in this order;
# index 0 is reserved for the non-action class.
DEFAULT_ACTION_CLASSES = (
    "vehicle_u_turn",
    "vehicle_left_turn",
    "vehicle_right_turn",
    "closing_trunk",
    "opening_trunk",
    "loading",
    "unloading",
    "transport_heavy_carry",
    "open",
    "close",
    "enter",
    "exit",
)

# Detector classes kept for clustering; every action involves people or vehicles.
DEFAULT_OBJECT_CLASSES = ("person", "vehicle")

PROB_SUM_TOL = 1e-6
MAX_INT = 2**53  # larger integers lose exactness in float64 (and may not convert at all)

# Deepest nesting a line may have and still reach orjson.  orjson 3.8
# recurses once per level with no limit (a valid line a million "[" deep
# crashes the interpreter), and `json` gives up near Python's recursion
# limit.  A valid line nests at most half its length deep, so only longer
# lines have their brackets counted.
ORJSON_MAX_DEPTH = 256

# Lines a loader parses and checks at once (`_read_table`); only one block's
# parsed objects are held at a time.  In the stage benchmark (`weak-multilabel`,
# 2-vCPU x86-64 VM) 4096 lines were no faster, and raised peak RSS over the
# per-record reader by 3.1 MB, against 2.0 MB at 1024.
RECORD_BLOCK = 1024

# One encoder for every output record; `json.dumps(obj, sort_keys=True)`
# builds an identical one per call.
_encode = json.JSONEncoder(sort_keys=True).encode


class ValidationError(ValueError):
    """Raised when an input record or configuration value is invalid."""


@dataclass(frozen=True)
class GroundTruthAction:
    """Annotated action instance: class label plus spatio-temporal cuboid."""

    video_id: str
    action_class: str
    cuboid: Cuboid


class ScoreRecord(NamedTuple):
    """Classifier output for one proposal: class probabilities + temporal refinement.

    A plain named tuple, the record `write_scores` writes; `load_scores`
    checks a score file and reads it back as columns.  Being a tuple, it
    also equals a plain tuple of the same values, iterates over them, and
    `json` would encode it as a list; nothing in the package, its tests or
    its benchmark relies on that.
    """

    proposal_id: str
    class_scores: tuple[float, ...]  # index 0 = non-action
    refinement: tuple[float, float]  # normalized (start, end) corrections

    @property
    def argmax_class(self) -> int:
        # ties resolve to the lowest index, as in `finalize`; the benchmark's workloads count candidates with it
        return self.class_scores.index(max(self.class_scores))


@dataclass(frozen=True)
class VideoMeta:
    video_id: str
    num_frames: int
    frame_rate: float
    width: float
    height: float

    def __post_init__(self):
        # `jitter_proposals` builds windows unchecked, so frames clamped to the video must come out as ints
        if isinstance(self.num_frames, bool) or not isinstance(self.num_frames, int):
            raise ValidationError(f"num_frames must be an integer, got {self.num_frames!r}")

    @property
    def minutes(self) -> float:
        return self.num_frames / self.frame_rate / 60.0


def _orjson_may_parse(raw: bytes) -> bool:
    """True when `raw` cannot nest deeper than `ORJSON_MAX_DEPTH`, so orjson may parse it."""
    return len(raw) <= 2 * ORJSON_MAX_DEPTH or raw.count(b"[") + raw.count(b"{") <= ORJSON_MAX_DEPTH


def _read_records(path, parse: Callable[[dict], object]) -> Iterator:
    """Yield `parse(obj)` for the JSON object on each non-blank line of `path`.

    This is the one place that knows where an input error sits: a line that
    is not UTF-8 or not a JSON object, and any `ValueError` that `parse`
    raises (a `ValidationError` or a record type's own check), becomes a
    `ValidationError` prefixed with `path:line: `.  Records are parsed
    lazily, so `parse` may check a record against the ones already yielded.

    orjson parses each line that cannot nest deeper than `ORJSON_MAX_DEPTH`.
    Any other line, and one orjson rejects (blank, NaN, a lone surrogate
    escape, padding that is not JSON whitespace, or an error), is stripped
    and parsed by `json`, so the standard library still decides what is
    accepted and words every error.  The one difference: an integer
    outside [-2**63, 2**64) comes back as the nearest float, not an int.
    """
    with open(path, "rb") as fh:
        yield from _parse_lines(path, enumerate(fh, start=1), parse)


def _parse_lines(path, numbered_lines: Iterable[tuple[int, bytes]], parse: Callable[[dict], object]) -> Iterator:
    """`_read_records` over `(line number, raw line)` pairs already read from `path`."""
    for lineno, raw in numbered_lines:
        try:
            obj = None
            if _orjson_may_parse(raw):
                try:
                    obj = orjson.loads(raw)
                except orjson.JSONDecodeError:
                    pass
            if obj is None:  # orjson rejected or skipped the line, or read `null`
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                obj = json.loads(line)
            if not isinstance(obj, dict):
                raise ValidationError("record is not an object")
            record = parse(obj)
        except (ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deeply
            malformed = isinstance(exc, (json.JSONDecodeError, UnicodeDecodeError, RecursionError))
            message = f"malformed record: {exc}" if malformed else exc
            raise ValidationError(f"{path}:{lineno}: {message}") from exc
        yield record


def _block_columns(lines: list[bytes], typed: dict[str, type], rows_of: Callable, raw: list[str]) -> dict | None:
    """One block's `{name: column}`, or None when the block must go line by line.

    Each line must be a JSON object that orjson parses (`ORJSON_MAX_DEPTH`),
    holding every `typed` field with exactly its type: no empty string,
    floats finite, ints at most 2**53 in magnitude.  A `raw` field is taken
    as parsed, None when absent.
    """
    if max(map(len, lines)) > 2 * ORJSON_MAX_DEPTH and not all(map(_orjson_may_parse, lines)):
        return None
    try:
        objects = list(map(orjson.loads, lines))
    except orjson.JSONDecodeError:
        return None
    if set(map(type, objects)) != {dict}:
        return None
    try:
        columns = dict(zip(typed, zip(*map(rows_of, objects))))
    except KeyError:
        return None
    if not all(set(map(type, column)) == {kind} for column, kind in zip(columns.values(), typed.values())):
        return None
    if not _typed_values_hold(columns, typed):
        return None
    columns.update({name: [obj.get(name) for obj in objects] for name in raw})
    return columns


def _typed_values_hold(columns: dict, typed: dict[str, type]) -> bool:
    """For columns of exactly their `typed` types: no string empty, no int past 2**53 in magnitude, floats finite."""
    for name, kind in typed.items():
        column = columns[name]
        if kind is str:
            if "" in column:
                return False
        elif kind is int:
            if min(column) < -MAX_INT or max(column) > MAX_INT:
                return False
        elif not math.isfinite(sum(column)):  # orjson reads no NaN or infinity; finite values may overflow
            return False
    return True


# A loader's `{name: _get_*}` fields, its ordered rules, and `build(columns)`, which makes the records of
# columns the rules hold over (the score table: one item of arrays for them all).  Two parts are optional:
# `unique`, the `(name, seen)` of a `_unique` rule, to whose set `_read_table` adds field `name` of every
# block or record it accepts; and `reader_rules`, the rules that depend on what the loader was given (the
# final-detection table's action classes) and not on the records alone, which `read_mirror` applies again.
Table = namedtuple("Table", "fields rules build unique reader_rules", defaults=(None, ()))


def _typed_fields(table: Table) -> dict[str, type]:
    """`{name: type}` of the table's fields that a typed reader (`_READ_TYPES`) reads; the rest are read as parsed."""
    return {name: _READ_TYPES[read] for name, read in table.fields.items() if read in _READ_TYPES}


def readable_as_is(table: Table, columns: dict) -> bool:
    """True when `_read_table` would take a block of records holding exactly these `columns` as they are.

    The caller knows that every typed column holds exactly its reader's
    type, as a writer learns from its `line_encoder`'s `encoded`.  Then the
    values must hold (`_typed_values_hold`) and so must every rule of
    `table`, and the block is read as columns and built from these very
    values, with no error.  A writer that checks its records here knows
    what reading its file gives back.
    """
    return _typed_values_hold(columns, _typed_fields(table)) and all(rule.holds(columns) for rule in table.rules)


def _read_table(path, table: Table) -> Iterator:
    """The records of `path`, read `RECORD_BLOCK` lines at a time, raising the first broken rule's message.

    A block is first read as columns (`_block_columns`), and each rule is
    applied once over them before `table.build` makes the records.  A block
    that the column read or a rule refuses is read again line by line
    through `_parse_lines`: each record's fields through the table's
    readers, then the rules on one-element columns.  The ids of a block or
    record the rules hold over go into the table's `unique` set before the
    next block or record is read, so a rule may check a record against
    earlier ones (a repeated id), and a block sent line by line has added
    none.  Blocks are read as the caller takes records, so the records a
    loader drops are freed a block at a time: reading every block first
    raised the peak RSS of `propose` by 1.2-2.3 MB on the stage benchmark's
    two workloads.
    """
    typed = _typed_fields(table)
    raw = [name for name, read in table.fields.items() if read not in _READ_TYPES]
    rows_of = operator.itemgetter(*typed)  # every table has at least two typed fields, so this gives a tuple

    def accept(columns: dict) -> None:
        if table.unique is not None:
            name, seen = table.unique
            seen.update(columns[name])

    def record(obj: dict):
        columns = {name: (get(obj, name),) for name, get in table.fields.items()}
        check_record(table.rules, columns, ValidationError)
        accept(columns)
        return table.build(columns)[0]

    def blocks():
        with open(path, "rb") as fh:
            for start in itertools.count(1, RECORD_BLOCK):
                lines = list(itertools.islice(fh, RECORD_BLOCK))
                if not lines:
                    return
                columns = _block_columns(lines, typed, rows_of, raw)
                if columns is not None and all(rule.holds(columns) for rule in table.rules):
                    accept(columns)
                    yield table.build(columns)
                else:
                    yield list(_parse_lines(path, zip(itertools.count(start), lines), record))

    return itertools.chain.from_iterable(blocks())


def _is_number(value) -> bool:
    """True for an int or a float, never a bool: what a JSON number parses to."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """True for a JSON number (not a bool) with a finite float value."""
    try:
        return _is_number(value) and math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def check_numbers(params, *names: str) -> None:
    """Raise ValidationError naming the first of `params`' fields `names` that is not an int or a float.

    A bool or a string is refused here, before any range check compares it.
    """
    for name in names:
        value = getattr(params, name)
        if not _is_number(value):
            raise ValidationError(f"{name} must be a number, got {value!r}")


def check_fractions(params, *names: str) -> None:
    """`check_numbers`, then raise ValidationError naming the first of the fields `names` outside [0, 1]."""
    check_numbers(params, *names)
    for name in names:
        value = getattr(params, name)
        if not 0.0 <= value <= 1.0:
            raise ValidationError(f"{name} must be in [0, 1], got {value}")


def _get(obj: dict, name: str):
    if name not in obj:
        raise ValidationError(f"missing field {name!r}")
    return obj[name]


def _get_number(obj: dict, name: str) -> float:
    value = _get(obj, name)
    if not _is_finite(value):
        raise ValidationError(f"field {name!r} must be a finite number, got {value!r}")
    return float(value)


def _get_int(obj: dict, name: str) -> int:
    value = _get(obj, name)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"field {name!r} must be an integer, got {value!r}")
    if abs(value) > MAX_INT:
        raise ValidationError(f"field {name!r} must be at most 2**53 in magnitude")
    return value


def _get_str(obj: dict, name: str) -> str:
    value = _get(obj, name)
    if not isinstance(value, str) or not value:
        raise ValidationError(f"field {name!r} must be a nonempty string")
    return value


def _get_scores(obj: dict, name: str):
    """Scores as parsed, or `_ABSENT`, for rules to check; an int 0 or 1 as a float, as `_get_number` would give it."""
    value = obj.get(name, _ABSENT)
    if type(value) is list:
        return [float(v) if type(v) is int and v in (0, 1) else v for v in value]
    return value


_ABSENT = object()  # what `_get_scores` reads for an absent field

# A string field that may be null or absent (None), read as parsed for its table's rules to check.
_get_nullable = dict.get

# What each typed field reader returns; `_read_table` and `line_encoder` take exactly these types.
_READ_TYPES = {_get_str: str, _get_int: int, _get_number: float}


# The cuboid fields of a record with their readers, in `Cuboid` field order:
# four finite pixel bounds, two inclusive frame indices.
CUBOID_FIELDS = {
    "x_min": _get_number, "y_min": _get_number, "x_max": _get_number, "y_max": _get_number,
    "f_start": _get_int, "f_end": _get_int,
}


def _cuboids(columns: dict) -> list[Cuboid]:
    """The `Cuboid`s of cuboid columns that `CUBOID_RULES` hold over, built without checking them again."""
    return list(map(tuple.__new__, itertools.repeat(Cuboid), zip(*map(columns.__getitem__, CUBOID_FIELDS))))


# A detection record's fields with their readers.  A record is the tuple of
# its values in this order, which is also its canonical sort order.
DETECTION_FIELDS = {
    "video_id": _get_str, "frame": _get_int, "object_class": _get_str,
    "x_min": _get_number, "y_min": _get_number, "x_max": _get_number, "y_max": _get_number,
    "confidence": _get_number,
}
_DETECTION_ROW = operator.itemgetter(1, 3, 4, 5, 6)  # frame, x_min, y_min, x_max, y_max
_VIDEO_ID = operator.itemgetter(0)

# The other input record types' fields with their readers, in `VideoMeta`
# and `GroundTruthAction` field order; a score record's `class_scores`, a
# list, only rules check.
VIDEO_FIELDS = {"video_id": _get_str, "num_frames": _get_int, "frame_rate": _get_number, "width": _get_number,
                "height": _get_number}
GROUND_TRUTH_FIELDS = {"video_id": _get_str, "action_class": _get_str, **CUBOID_FIELDS}
SCORE_FIELDS = {"proposal_id": _get_str, "refine_start": _get_number, "refine_end": _get_number,
                "class_scores": _get_scores}

# Rules that several tables share.
CONFIDENCE_RULE = Rule(lambda c: 0.0 <= min(c["confidence"]) and max(c["confidence"]) <= 1.0,
                       lambda r: f"confidence {r['confidence']} outside [0, 1]")


def _unique(name: str, seen: set) -> Rule:
    """No value of field `name` repeats another of the block or one in `seen`, those already accepted."""
    return Rule(lambda c: len(set(c[name])) == len(c[name]) and seen.isdisjoint(c[name]),
                lambda r: f"duplicate {name} {r[name]!r}")


def _known_class(classes: tuple[str, ...]) -> Rule:
    known = frozenset(classes)
    return Rule(lambda c: known.issuperset(c["action_class"]),
                lambda r: f"unknown action_class {r['action_class']!r}; allowed: {', '.join(classes)}")


def _known_video(videos: dict[str, VideoMeta]) -> Rule:
    return Rule(lambda c: videos.keys() >= set(c["video_id"]), lambda r: f"unknown video_id {r['video_id']!r}")


def _at_most(values, limit: dict[str, float], video_ids) -> bool:
    """Each value is at most its video's `limit`: all at most the least of the block's videos', or each checked."""
    return (max(values) <= min(map(limit.__getitem__, set(video_ids)))
            or all(map(operator.le, values, map(limit.__getitem__, video_ids))))


def _inside_video(videos: dict[str, VideoMeta]) -> Rule:
    """Each box lies within its video's frame; its video must be known."""
    width = {video_id: meta.width for video_id, meta in videos.items()}
    height = {video_id: meta.height for video_id, meta in videos.items()}
    return Rule(lambda c: min(c["x_min"]) >= 0 and min(c["y_min"]) >= 0
                and _at_most(c["x_max"], width, c["video_id"]) and _at_most(c["y_max"], height, c["video_id"]),
                lambda r: f"box outside video bounds of {r['video_id']!r}")


def _ground_truth_key(g: GroundTruthAction) -> tuple:
    return (g.video_id, g.cuboid.f_start, g.cuboid.f_end, g.action_class, g.cuboid.x_min, g.cuboid.y_min)


def _video_table() -> Table:
    seen: set[str] = set()
    return Table(VIDEO_FIELDS, [
        Rule(lambda c: all(min(c[name]) > 0 for name in ("num_frames", "frame_rate", "width", "height")),
             lambda r: "video dimensions, frames and rate must be positive"),
        Rule(lambda c: all(math.isfinite(VideoMeta(*row).minutes) for row in zip(*c.values())),  # a subnormal rate
             lambda r: f"video length num_frames / frame_rate / 60 = {VideoMeta(**r).minutes!r} minutes is not finite"),
        _unique("video_id", seen),
    ], lambda c: list(map(VideoMeta, *c.values())), unique=("video_id", seen))


def load_video_meta(path) -> dict[str, VideoMeta]:
    """Load video metadata keyed by video_id."""
    return dict(sorted((meta.video_id, meta) for meta in _read_table(path, _video_table())))


def _detection_table(videos: dict[str, VideoMeta]) -> Table:
    last_frames = {video_id: meta.num_frames - 1 for video_id, meta in videos.items()}
    return Table(DETECTION_FIELDS, [
        Rule(lambda c: all(map(operator.lt, c["x_min"], c["x_max"])) and all(map(operator.lt, c["y_min"], c["y_max"])),
             lambda r: "box must have positive width and height"),
        CONFIDENCE_RULE,
        Rule(lambda c: min(c["frame"]) >= 0, lambda r: f"negative frame index {r['frame']}"),
        _known_video(videos),
        Rule(lambda c: _at_most(c["frame"], last_frames, c["video_id"]),
             lambda r: f"frame {r['frame']} outside video {r['video_id']!r} "
                       f"with {videos[r['video_id']].num_frames} frames"),
        _inside_video(videos),
    ], lambda c: list(zip(*c.values())))


def load_detections(
    path,
    videos: dict[str, VideoMeta],
    min_confidence: float = 0.5,
    object_classes: Iterable[str] | None = DEFAULT_OBJECT_CLASSES,
) -> dict[str, np.ndarray]:
    """Load per-frame detections as one (n, 5) float64 array per video_id.

    Each row is `frame, x_min, y_min, x_max, y_max`.  Records failing
    validation raise, a box reaching outside its video's frame included;
    records below `min_confidence` or with an object class outside
    `object_classes` (None = keep all) are dropped after validation.  Rows
    keep the canonical order of their full records (`DETECTION_FIELDS`), so
    the result does not depend on input line order.
    """
    keep = None if object_classes is None else frozenset(object_classes)
    kept = [r for r in _read_table(path, _detection_table(videos))
            if r[7] >= min_confidence and (keep is None or r[2] in keep)]
    grouped: dict[str, list[tuple]] = {}
    for video_id, records in itertools.groupby(kept, key=_VIDEO_ID):  # a run per video in a sorted file
        grouped.setdefault(video_id, []).extend(records)
    arrays = {}
    for video_id, records in sorted(grouped.items()):
        records.sort()
        flat = itertools.chain.from_iterable(map(_DETECTION_ROW, records))  # as `np.array(rows)`, bit for bit
        arrays[video_id] = np.fromiter(flat, dtype=np.float64, count=5 * len(records)).reshape(len(records), 5)
    return arrays


def _ground_truth_table(videos: dict[str, VideoMeta], action_classes: tuple[str, ...]) -> Table:
    last_frames = {video_id: meta.num_frames - 1 for video_id, meta in videos.items()}
    return Table(GROUND_TRUTH_FIELDS, [
        _known_class(action_classes),
        *CUBOID_RULES,
        _known_video(videos),
        Rule(lambda c: min(c["f_start"]) >= 0 and _at_most(c["f_end"], last_frames, c["video_id"]),
             lambda r: f"frame span outside video {r['video_id']!r}"),
        _inside_video(videos),
    ], lambda c: list(map(GroundTruthAction, c["video_id"], c["action_class"], _cuboids(c))))


def load_ground_truth(
    path,
    videos: dict[str, VideoMeta],
    action_classes: Iterable[str] = DEFAULT_ACTION_CLASSES,
) -> dict[str, list[GroundTruthAction]]:
    """Load ground-truth action annotations grouped by video_id."""
    grouped: dict[str, list[GroundTruthAction]] = {}
    for gt in _read_table(path, _ground_truth_table(videos, tuple(action_classes))):
        grouped.setdefault(gt.video_id, []).append(gt)
    for gts in grouped.values():
        gts.sort(key=_ground_truth_key)
    return dict(sorted(grouped.items()))


def _probability_matrix(rows: list[list]) -> np.ndarray | None:
    """The float64 matrix of equally long `rows`, or None unless every value is a float in [0, 1].

    NumPy's min and max return a NaN they meet, so a NaN gives None too.
    """
    values = list(itertools.chain.from_iterable(rows))
    if set(map(type, values)) != {float}:
        return None
    matrix = np.fromiter(values, np.float64, len(values)).reshape(len(rows), -1)  # as `np.array(rows)`, bit for bit
    return matrix if 0.0 <= matrix.min() and matrix.max() <= 1.0 else None


def _score_table(num_classes: int) -> Table:
    seen: set[str] = set()
    checked = [None, None]  # the class_scores column the range rule passed last, and its matrix

    def in_range(c: dict) -> bool:
        checked[:] = c["class_scores"], _probability_matrix(c["class_scores"])
        return checked[1] is not None

    def build(c: dict) -> list[tuple]:
        # one item for the whole block: its ids, (n, num_classes + 1) scores and (n, 2) refinements; the rules
        # hold, so the range rule has just made the scores of this very column
        scores = checked[1] if checked[0] is c["class_scores"] else _probability_matrix(c["class_scores"])
        return [(list(c["proposal_id"]), scores, np.column_stack([c["refine_start"], c["refine_end"]]))]

    return Table(SCORE_FIELDS, [
        _unique("proposal_id", seen),
        Rule(lambda c: _ABSENT not in c["class_scores"], lambda r: "missing field 'class_scores'"),
        Rule(lambda c: set(map(type, c["class_scores"])) == {list}
             and set(map(len, c["class_scores"])) == {num_classes + 1},
             lambda r: f"class_scores must hold {num_classes + 1} values"),
        Rule(in_range,
             lambda r: next(f"class_scores[{i}] = {value!r} outside [0, 1]"
                            for i, value in enumerate(r["class_scores"]) if _probability_matrix([[value]]) is None)),
        # each row's own `sum`, so that the tolerance decides bit for bit
        Rule(lambda c: bool((np.abs(np.fromiter(map(sum, c["class_scores"]), np.float64) - 1.0) <= PROB_SUM_TOL).all()),
             lambda r: f"class_scores sum to {sum(r['class_scores'])}, expected 1"),
    ], build, unique=("proposal_id", seen))


def load_scores(path, num_classes: int = 12) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Load classifier scores as three aligned columns: `(proposal_ids, class_scores, refinements)`.

    Each record needs num_classes + 1 probabilities (index 0 = non-action)
    summing to 1 within 1e-6, plus the two refinement outputs.  Row i holds
    `proposal_ids[i]`, its probabilities and its `(refine_start,
    refine_end)`, both float64, rows in ascending id order, so the result
    does not depend on the order of the lines.  `_read_table` gives one
    item of columns per block (per record, for a block read record by
    record), and the items are joined once.
    """
    empty = ([], np.empty((0, num_classes + 1)), np.empty((0, 2)))
    ids, scores, refinements = zip(empty, *_read_table(path, _score_table(num_classes)))
    ids = list(itertools.chain.from_iterable(ids))
    order = sorted(range(len(ids)), key=ids.__getitem__)
    return [ids[i] for i in order], np.concatenate(scores)[order], np.concatenate(refinements)[order]


@contextlib.contextmanager
def replacing(path) -> Iterator:
    """A binary file to write in place of `path`, moved over it only once the `with` block ends without error.

    The file is `<name>.tmp` beside `path`, which `os.replace` then moves
    into place.  If the block raises, or writing fails, the temporary file
    is removed and a previous file at `path` is left untouched.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_lines(path, lines: Iterable[str], digest=None) -> None:
    """Write each line plus a newline as UTF-8 through `replacing`.

    Lines are joined and encoded `RECORD_BLOCK` at a time.  A `hashlib`
    object given as `digest` is updated with each chunk as it is written,
    so hashing the file costs no second read and no copy of it.
    """
    lines = iter(lines)
    with replacing(path) as fh:
        while chunk := list(itertools.islice(lines, RECORD_BLOCK)):
            chunk.append("")  # so that the last line ends with a newline too
            data = "\n".join(chunk).encode("utf-8")
            if digest is not None:
                digest.update(data)
            fh.write(data)


# The column mirror of a record file (`write_mirror`), all numbers little-endian: `MIRROR_MAGIC`; three int64
# (the version, the record count n, the byte length t of the text); the SHA-256 of the record file's bytes
# followed by this mirror's counts, number columns and text; the table's float and int fields in table order
# as (fields, n) float64 columns; and t bytes of UTF-8 text: the values of its str fields, then of its
# nullable string fields (`_get_nullable`, null as ""), field after field, joined by newlines.
MIRROR_MAGIC = b"APPCOLS\n"
MIRROR_VERSION = 2
_MIRROR_HEADER = len(MIRROR_MAGIC) + 3 * 8 + 32  # magic; version, record count, text length; digest
_HASH_CHUNK = 1 << 20  # bytes of the record file hashed per read


def mirror_path(path) -> Path:
    """Where the column mirror of the record file `path` goes: beside it, as `<name>.cols`."""
    path = Path(path)
    return path.with_name(path.name + ".cols")


def _mirror_fields(table: Table) -> tuple[list[str], list[str], list[str]]:
    """The table's number fields, its string fields (str, then nullable) and its nullable fields, in table order."""
    numbers = [name for name, read in table.fields.items() if _READ_TYPES.get(read) in (float, int)]
    nullable = [name for name, read in table.fields.items() if read is _get_nullable]
    return numbers, [name for name, read in table.fields.items() if read is _get_str] + nullable, nullable


def write_mirror(path, table: Table, columns: dict | None, digest) -> None:
    """Write the column mirror of `path`, the file `write_lines` has just written with `digest`, or remove it.

    `columns` holds the file's records as `{field name: column}` over
    `table.fields`, or is None for records not all of exactly their
    fields' types (a writer knows from its `line_encoder`'s `encoded`).  A
    mirror is written, through `replacing`, only of records that
    `_read_table` would take as they are (`readable_as_is`) and whose
    strings hold no newline and encode as strict UTF-8 (hold no surrogate),
    so that `read_mirror` gives equal records of equal types; for no
    records, or any other records, an old mirror is removed.  The SHA-256
    goes on from `digest`, the record file's bytes as written, over the
    mirror's body.  The bytes depend only on the records, so identical
    writes give identical mirrors.
    """
    numbers, strings, nullable = _mirror_fields(table)
    n = 0 if columns is None else len(columns[strings[0]])
    data = _mirror_text(columns, strings, nullable) if n and readable_as_is(table, columns) else None
    if data is None:
        mirror_path(path).unlink(missing_ok=True)
        return
    values = np.concatenate([np.fromiter(columns[name], "<f8", n) for name in numbers])
    counts = np.array([MIRROR_VERSION, n, len(data)], "<i8")
    for part in (counts, values, data):
        digest.update(part)
    with replacing(mirror_path(path)) as fh:
        for part in (MIRROR_MAGIC, counts, digest.digest(), values, data):
            fh.write(part)


def _mirror_text(columns: dict, strings: list[str], nullable: list[str]) -> bytes | None:
    """The mirror's UTF-8 text of the `strings` columns, or None when a string holds a newline or a surrogate."""
    text = "\n".join(itertools.chain.from_iterable(
        [value or "" for value in columns[name]] if name in nullable else columns[name] for name in strings))
    if text.count("\n") != len(strings) * len(columns[strings[0]]) - 1:
        return None
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError:
        return None


def read_mirror(path, table: Table) -> list | None:
    """`table.build` of the mirror of `path`, or None when it is absent, damaged or not that file's; never raises.

    The mirror must parse, have the current version and lengths that agree,
    and its digest must hold over `path` as it is on disk plus the mirror's
    body; then the rules that the writer could not check for this reader
    (`table.reader_rules`) must hold.  The mirror is read with one call;
    the record file is hashed in chunks.
    """
    numbers, strings, nullable = _mirror_fields(table)
    try:
        buf = mirror_path(path).read_bytes()
        if buf[:len(MIRROR_MAGIC)] != MIRROR_MAGIC:
            return None
        version, n, t = np.frombuffer(buf, "<i8", 3, len(MIRROR_MAGIC)).tolist()
        size = 8 * len(numbers) * n
        if version != MIRROR_VERSION or n < 1 or t < 0 or len(buf) != _MIRROR_HEADER + size + t:
            return None
        view = memoryview(buf)
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            while chunk := fh.read(_HASH_CHUNK):
                digest.update(chunk)
        digest.update(view[len(MIRROR_MAGIC):_MIRROR_HEADER - 32])
        digest.update(view[_MIRROR_HEADER:])
        if digest.digest() != buf[_MIRROR_HEADER - 32:_MIRROR_HEADER]:
            return None
        text = buf[_MIRROR_HEADER + size:].decode("utf-8").split("\n")
        if len(text) != len(strings) * n:
            return None
        columns = {name: text[i * n:(i + 1) * n] for i, name in enumerate(strings)}
        for name in nullable:
            columns[name] = [value or None for value in columns[name]]
        rows = np.frombuffer(buf, "<f8", len(numbers) * n, _MIRROR_HEADER).reshape(len(numbers), n)
        for name, row in zip(numbers, rows):
            columns[name] = (row.astype(np.int64) if table.fields[name] is _get_int else row).tolist()
        if not all(rule.holds(columns) for rule in table.reader_rules):
            return None
        return table.build(columns)
    except (OSError, ValueError):  # no mirror, or one that NumPy or `decode` refuses
        return None


def write_records(path, records: Iterable[dict]) -> None:
    """Write one JSON object per line, keys sorted, through `write_lines`."""
    write_lines(path, map(_encode, records))


def _finite_numbers(values: list) -> bool:
    """True when every value is exactly a `float` or an `int` (never a bool) and their sum is finite."""
    try:
        return set(map(type, values)) <= {float, int} and math.isfinite(sum(values))
    except OverflowError:  # an int too large for a float
        return False


def indented_json(value, indent: str = "") -> str:
    """`json.dumps(value, indent=2, sort_keys=True)` for a tree of dicts with string keys, lists and scalars.

    With `indent` set, `json` runs its pure-Python encoder, which builds a
    closure cycle per call and took ~40 ms for a 400 KB `score` report
    against ~9 ms for the C encoder without indentation.  Here the tree is
    walked in Python and each leaf is written by the C encoder (`_encode`).
    A list of number pairs, such as a curve's points, is filled into one
    `%r` template per list when every value is exactly a `float` or an
    `int` and their sum is finite; a `repr` is what the encoder writes for
    those types.  Any other list is walked item by item, so the text is the
    same either way.  A non-finite float raises `ValidationError`: strict
    JSON has no NaN or Infinity.  `indent` is the current line's indent.
    """
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = (f"{inner}{_encode(key)}: {indented_json(item, inner)}" for key, item in sorted(value.items()))
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if set(map(type, value)) <= {list, tuple} and set(map(len, value)) == {2}:
            flat = list(itertools.chain.from_iterable(value))
            if _finite_numbers(flat):
                pair = f"{inner}[\n{inner}  %r,\n{inner}  %r\n{inner}]"
                return "[\n" + ",\n".join([pair] * len(value)) % tuple(flat) + "\n" + indent + "]"
        return "[\n" + ",\n".join(inner + indented_json(item, inner) for item in value) + "\n" + indent + "]"
    if isinstance(value, float) and not math.isfinite(value):
        raise ValidationError(f"cannot write the non-finite number {value!r} as JSON")
    return _encode(value)


def line_encoder(
    fields: dict[str, Callable], nullable: Iterable[str] = (), memo: Iterable[str] = (),
) -> Callable[..., str]:
    """A function `line(*values)` giving `_encode(dict(zip(fields, values)))`, the output line of one record.

    `fields` is a `{name: _get_*}` table, as in a `Table`; a name in
    `nullable` may also hold None.  When every value has exactly its
    reader's type (`str`, `int` or `float`: a bool, a numpy scalar or a
    subclass never passes) or is an allowed None, and every float is
    finite, the line comes from one `%` template with the keys in sorted
    order: a string as `_encode` writes it (through
    `encode_basestring_ascii`, the C function `_encode` returns for an
    exact `str`, without `_encode`'s Python frame), an int or a float as
    its `repr` (what the encoder writes for those exact types), None as
    `null`.  Any other record is encoded as a dict, so the line is the same
    bytes either way.

    `memo` names float fields, not nullable, whose keys sort after every
    other key (a cuboid's box: `x_max`, `x_min`, `y_max`, `y_min`).  Their
    text is then a suffix of the line, which `line` keeps in a dict keyed by
    their values, so a box that many records share has its `repr`s built
    once.  The dict is read only after the guard above has passed, so it
    holds exact, finite floats only, whose equal values have equal
    `repr`s, with one exception: `-0.0 == 0.0`, so a box holding a zero of
    either sign is never stored.  Each `line` has a memo of its own, and
    `line.fresh()` gives a new `line` with an empty one; each writer takes
    one per call, so no memo outlives the file it writes.  `line.encoded`
    is a list that gains one item for each record that went to the encoder,
    so while it is empty every record has had exactly its fields' types.

    `line` is generated as straight-line code, as `dataclasses` generates
    `__init__`.  A closure looping over the fields gave the same lines but
    took ~6.1 µs per proposal line against ~4.6 µs for this code (best of
    25 over 3,000 lines, one core of a 2-core x86-64 VM).
    """
    nullable = frozenset(nullable)
    params = [f"v{i}" for i in range(len(fields))]
    guard, finite, slots, args = [], [], [], []
    for name, v in sorted(zip(fields, params)):
        kind = _READ_TYPES[fields[name]]
        exact = f"type({v}) is {kind.__name__}"
        text = f"_encode_str({v})" if kind is str else f"repr({v})"
        if name in nullable:
            if kind is float:
                exact = f"{exact} and _isfinite({v})"
            guard.append(f"({v} is None or {exact})")
            slots.append("%s")
            args.append(f"'null' if {v} is None else {text}")
        else:
            guard.append(exact)
            if kind is float:
                finite.append(v)
            slots.append("%s" if kind is str else "%r")
            args.append(text if kind is str else v)
    if finite:  # a NaN or an infinity makes the sum non-finite
        guard.append(f"_isfinite({' + '.join(finite)})")
    keys = (_encode(name).replace("%", "%%") for name in sorted(fields))
    items = [f"{key}: {slot}" for key, slot in zip(keys, slots)]
    memo = sorted(memo)
    head = len(fields) - len(memo)  # the sorted keys before the memoized suffix
    if memo != sorted(fields)[head:] or not head or nullable.intersection(memo) \
            or any(fields[name] is not _get_number for name in memo):
        raise ValueError(f"memo fields {memo} must be non-nullable float fields whose keys sort last")
    box = ", ".join(params[list(fields).index(name)] for name in memo)
    fill = (
        f"            return TEMPLATE % ({', '.join(args)},)\n" if not memo else
        f"            key = ({box},)\n"
        f"            text = memo_get(key)\n"
        f"            if text is None:\n"
        f"                text = SUFFIX % key\n"
        f"                if {box.replace(', ', ' and ')}:  # no zero of either sign\n"
        f"                    memo[key] = text\n"
        f"            return TEMPLATE % ({', '.join(args[:head])},) + text\n"
    )
    source = (
        f"def fresh():\n"
        f"    memo = {{}}\n"
        f"    memo_get = memo.get\n"
        f"    encoded = []\n"
        f"    def line({', '.join(params)}):\n"
        f"        if {' and '.join(guard)}:\n"
        f"{fill}"
        f"        encoded.append(None)\n"
        f"        return _encode(dict(zip(NAMES, ({', '.join(params)},))))\n"
        f"    line.fresh = fresh\n"
        f"    line.encoded = encoded\n"
        f"    return line\n"
    )
    namespace = {
        "TEMPLATE": "{" + ", ".join(items[:head]) + ("" if memo else "}"),
        "SUFFIX": "".join(f", {item}" for item in items[head:]) + "}",
        "NAMES": tuple(fields), "_encode": _encode, "_encode_str": encode_basestring_ascii, "_isfinite": math.isfinite,
    }
    exec(source, namespace)  # the source holds only the names above, `v0`, `v1`, ... and `memo`, `encoded`, ...
    return namespace["fresh"]()


def write_video_meta(path, videos: Iterable[VideoMeta]) -> None:
    write_records(path, (dataclasses.asdict(m) for m in sorted(videos, key=lambda m: m.video_id)))


def write_detections(path, detections: Iterable[tuple]) -> None:
    """Write detection records, tuples of `DETECTION_FIELDS` values, in canonical order."""
    write_records(path, (dict(zip(DETECTION_FIELDS, d)) for d in sorted(detections)))


def write_ground_truth(path, actions: Iterable[GroundTruthAction]) -> None:
    write_records(path, (
        dict(zip(GROUND_TRUTH_FIELDS, (gt.video_id, gt.action_class, *gt.cuboid)))
        for gt in sorted(actions, key=_ground_truth_key)
    ))


def write_scores(path, records: Iterable[ScoreRecord]) -> None:
    write_records(path, (
        dict(zip(SCORE_FIELDS, (rec.proposal_id, *rec.refinement, list(rec.class_scores))))
        for rec in sorted(records, key=lambda r: r.proposal_id)
    ))


def class_index(label: str, action_classes: Iterable[str] = DEFAULT_ACTION_CLASSES) -> int:
    """1-based index of an action label; 0 is the non-action class."""
    classes = tuple(action_classes)
    check_record([_known_class(classes)], {"action_class": (label,)}, ValidationError)
    return classes.index(label) + 1


def ensure_path(path) -> Path:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"input file not found: {p}")
    return p
