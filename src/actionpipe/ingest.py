"""Readers/writers for the pipeline's external record files.

All inputs and outputs are JSON Lines: one object per line, UTF-8, numbers
as decimal text.  Loading is order-independent (collections come back
canonically sorted).  Field names are fixed and documented in the README.
Each record type states its fields once, as a `{name: _get_*}` table; the
six cuboid fields are one such table (`CUBOID_FIELDS`), which every record
type with a cuboid includes.

Every loader has one `parse` function, which reads one record: all of
its table fields in one call (`field_reader`), which returns their values
in table order or raises the error of the first field its reader rejects,
then the loader's own rules.  So of several faults in one record, a
field's comes first, then the rules' in the loader's order.  `parse` run
line by line, with its errors located as `path:line:` (`_read_records`),
defines what a valid file is.  The four large files (detections,
proposals, scores, final detections) are read by `_read_blocks`,
`RECORD_BLOCK` lines at a time: a block is checked as columns, each
field's type once and then the loader's rules over whole columns, and its
records are built without checking each one again.  A block that fails
any check is read again line by line through `parse`, which accepts and
converts what the column check refuses (an int where a float goes, a
blank line) or words the first error.  A block check may only be
stricter than `parse`, and gives the records `parse` would.  Every output
file goes through `write_lines`.  Proposals, training labels and final
detections are encoded from their table by one generated line function
each (`line_encoder`): a `%` template behind an exact-type guard, with the
JSON encoder as fallback, the same bytes either way.  Proposals and final
detections also keep each box's text for one write call, looked up only
once the guard has passed and never kept for a box holding a zero, since
`-0.0 == 0.0` but the two are written differently.  An indented JSON
document (the `score` report, a saved config) is written by
`indented_json`, which gives `json.dumps(value, indent=2, sort_keys=True)`
without the standard library's pure-Python encoder.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import operator
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np
import orjson

from .geometry import Cuboid

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

# Lines a loader parses and checks at once (`_read_blocks`); only one block's
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

    A plain named tuple; `load_scores` does the checking.  Being a tuple,
    it also equals a plain tuple of the same values, iterates over them, and
    `json` would encode it as a list; nothing in the package, its tests or
    its benchmark relies on that.
    """

    proposal_id: str
    class_scores: tuple[float, ...]  # index 0 = non-action
    refinement: tuple[float, float]  # normalized (start, end) corrections

    @property
    def argmax_class(self) -> int:
        # ties resolve to the lowest index, deterministically
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


def _read_blocks(
    path,
    fields: dict[str, Callable],
    check: Callable[[list[dict], list[tuple], list[tuple]], list | None],
    parse: Callable[[dict], object],
) -> Iterator[list]:
    """Yield the records of `path` as one list per block of up to `RECORD_BLOCK` lines.

    A block is first checked as columns (`_block_records`): each line must
    be a JSON object that orjson parses under the `ORJSON_MAX_DEPTH` rule
    and that holds every field of the `{name: _get_*}` table `fields`, each
    of exactly its reader's type, with no empty string, every float finite
    and every int at most 2**53 in magnitude.  Then `check(objects, rows,
    columns)` applies the loader's own rules to the block's parsed objects,
    their table values (one tuple per record, in table order) and the same
    values transposed (one tuple per field).  It returns the block's
    records, built without a second check, or None when a rule fails.

    A block refused at any step is read again line by line through
    `_read_records`' path with `parse`, which accepts and converts what the
    column check refuses (an int where a float goes, a blank line, ...)
    or raises the first error as `path:line:`.  So `parse` alone defines a
    valid file: `check` must return the records `parse` would, and accept
    no block that `parse` refuses.  Each record must come from `parse` or
    `check` before the next block is read, so both may check a record
    against the earlier ones (a repeated id).  Lines are split as file
    iteration splits them, and only one block's parsed objects are held at
    a time.
    """
    rows_of = operator.itemgetter(*fields)  # every table has at least two fields, so this gives a tuple
    kinds = [_READ_TYPES[read] for read in fields.values()]
    with open(path, "rb") as fh:
        for start in itertools.count(1, RECORD_BLOCK):
            lines = list(itertools.islice(fh, RECORD_BLOCK))
            if not lines:
                return
            records = _block_records(lines, rows_of, kinds, check)
            if records is None:
                records = list(_parse_lines(path, zip(itertools.count(start), lines), parse))
            yield records


def _block_records(lines: list[bytes], rows_of: Callable, kinds: list[type], check: Callable) -> list | None:
    """`check`'s records for one block of lines, or None when the block must go line by line."""
    if max(map(len, lines)) > 2 * ORJSON_MAX_DEPTH and not all(map(_orjson_may_parse, lines)):
        return None
    try:
        objects = list(map(orjson.loads, lines))
    except orjson.JSONDecodeError:
        return None
    if set(map(type, objects)) != {dict}:
        return None
    try:
        rows = list(map(rows_of, objects))
    except KeyError:
        return None
    columns = list(zip(*rows))
    for column, kind in zip(columns, kinds):
        if set(map(type, column)) != {kind}:
            return None
        if kind is str:
            if "" in column:
                return None
        elif kind is int:
            if min(column) < -MAX_INT or max(column) > MAX_INT:
                return None
        elif not math.isfinite(sum(column)):  # orjson reads no NaN or infinity; finite values may overflow
            return None
    return check(objects, rows, columns)


def _is_finite(value) -> bool:
    """True for a JSON number (not a bool) with a finite float value."""
    try:
        return not isinstance(value, bool) and isinstance(value, (int, float)) and math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


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


# What each field reader returns; `_read_blocks` and `line_encoder` take exactly these types.
_READ_TYPES = {_get_str: str, _get_int: int, _get_number: float}


def field_reader(fields: dict[str, Callable]) -> Callable[[dict], tuple]:
    """A function reading every field of a `{name: _get_*}` table from a record in one call.

    It returns the values in table order, each what its reader returns, or
    raises the `ValidationError` of the first field, in table order, that
    its reader rejects.
    """
    readers = tuple(fields.items())

    def read(obj: dict) -> tuple:
        return tuple(get(obj, name) for name, get in readers)

    return read


# The cuboid fields of a record with their readers, in `Cuboid` field order:
# four finite pixel bounds, two inclusive frame indices.
CUBOID_FIELDS = {
    "x_min": _get_number, "y_min": _get_number, "x_max": _get_number, "y_max": _get_number,
    "f_start": _get_int, "f_end": _get_int,
}
BOX_FIELDS = ("x_min", "y_min", "x_max", "y_max")  # the spatial box, which jittered windows share with their parent


# A detection record's fields with their readers.  A record is the tuple of
# its values in this order, which is also its canonical sort order.
DETECTION_FIELDS = {
    "video_id": _get_str, "frame": _get_int, "object_class": _get_str,
    "x_min": _get_number, "y_min": _get_number, "x_max": _get_number, "y_max": _get_number,
    "confidence": _get_number,
}
_read_detection_fields = field_reader(DETECTION_FIELDS)
_DETECTION_ROW = operator.itemgetter(1, 3, 4, 5, 6)  # frame, x_min, y_min, x_max, y_max
_VIDEO_ID = operator.itemgetter(0)

# The other input record types' fields with their readers, in `VideoMeta`
# and `GroundTruthAction` field order; a score record's `class_scores`, a
# list, is read on its own.
_read_video_fields = field_reader({
    "video_id": _get_str, "num_frames": _get_int, "frame_rate": _get_number, "width": _get_number,
    "height": _get_number,
})
GROUND_TRUTH_FIELDS = {"video_id": _get_str, "action_class": _get_str, **CUBOID_FIELDS}
_read_ground_truth_fields = field_reader(GROUND_TRUTH_FIELDS)
SCORE_FIELDS = {"proposal_id": _get_str, "refine_start": _get_number, "refine_end": _get_number}
_read_score_fields = field_reader(SCORE_FIELDS)
_CLASS_SCORES = operator.itemgetter("class_scores")
_PROPOSAL_ID = operator.itemgetter(0)


def _ground_truth_key(g: GroundTruthAction) -> tuple:
    return (g.video_id, g.cuboid.f_start, g.cuboid.f_end, g.action_class, g.cuboid.x_min, g.cuboid.y_min)


def load_video_meta(path) -> dict[str, VideoMeta]:
    """Load video metadata keyed by video_id."""
    videos: dict[str, VideoMeta] = {}

    def parse(obj: dict) -> VideoMeta:
        meta = VideoMeta(*_read_video_fields(obj))
        if meta.num_frames <= 0 or meta.frame_rate <= 0 or meta.width <= 0 or meta.height <= 0:
            raise ValidationError("video dimensions, frames and rate must be positive")
        if not math.isfinite(meta.minutes):  # a subnormal frame rate
            raise ValidationError(f"video length num_frames / frame_rate / 60 = {meta.minutes!r} minutes is not finite")
        if meta.video_id in videos:
            raise ValidationError(f"duplicate video_id {meta.video_id!r}")
        return meta

    for meta in _read_records(path, parse):
        videos[meta.video_id] = meta
    return dict(sorted(videos.items()))


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

    def parse(obj: dict) -> tuple:
        record = _read_detection_fields(obj)
        video_id, frame, _, x_min, y_min, x_max, y_max, confidence = record
        if x_min >= x_max or y_min >= y_max:
            raise ValidationError("box must have positive width and height")
        if not 0.0 <= confidence <= 1.0:
            raise ValidationError(f"confidence {confidence} outside [0, 1]")
        if frame < 0:
            raise ValidationError(f"negative frame index {frame}")
        if video_id not in videos:
            raise ValidationError(f"unknown video_id {video_id!r}")
        meta = videos[video_id]
        if frame >= meta.num_frames:
            raise ValidationError(f"frame {frame} outside video {video_id!r} with {meta.num_frames} frames")
        if x_min < 0 or y_min < 0 or x_max > meta.width or y_max > meta.height:
            raise ValidationError(f"box outside video bounds of {video_id!r}")
        return record

    limits = {video_id: (meta.num_frames, meta.width, meta.height) for video_id, meta in videos.items()}

    def check(objects: list[dict], rows: list[tuple], columns: list[tuple]) -> list[tuple] | None:
        video_ids, frames, _, x_min, y_min, x_max, y_max, confidence = columns
        if not limits.keys() >= set(video_ids):
            return None
        num_frames, width, height = zip(*map(limits.__getitem__, video_ids))
        valid = (
            all(map(operator.lt, x_min, x_max)) and all(map(operator.lt, y_min, y_max))
            and min(confidence) >= 0.0 and max(confidence) <= 1.0
            and min(frames) >= 0 and all(map(operator.lt, frames, num_frames))
            and min(x_min) >= 0 and min(y_min) >= 0
            and all(map(operator.le, x_max, width)) and all(map(operator.le, y_max, height))
        )
        return rows if valid else None

    keep = None if object_classes is None else frozenset(object_classes)
    grouped: dict[str, list[tuple]] = {}
    for block in _read_blocks(path, DETECTION_FIELDS, check, parse):
        kept = [r for r in block if r[7] >= min_confidence and (keep is None or r[2] in keep)]
        for video_id, records in itertools.groupby(kept, key=_VIDEO_ID):  # a run per video in a sorted file
            grouped.setdefault(video_id, []).extend(records)
    arrays = {}
    for video_id, records in sorted(grouped.items()):
        records.sort()
        flat = itertools.chain.from_iterable(map(_DETECTION_ROW, records))  # as `np.array(rows)`, bit for bit
        arrays[video_id] = np.fromiter(flat, dtype=np.float64, count=5 * len(records)).reshape(len(records), 5)
    return arrays


def load_ground_truth(
    path,
    videos: dict[str, VideoMeta],
    action_classes: Iterable[str] = DEFAULT_ACTION_CLASSES,
) -> dict[str, list[GroundTruthAction]]:
    """Load ground-truth action annotations grouped by video_id."""
    allowed = tuple(action_classes)

    def parse(obj: dict) -> GroundTruthAction:
        video_id, label, *box = _read_ground_truth_fields(obj)
        class_index(label, allowed)
        cuboid = Cuboid(*box)
        if video_id not in videos:
            raise ValidationError(f"unknown video_id {video_id!r}")
        meta = videos[video_id]
        if cuboid.f_start < 0 or cuboid.f_end >= meta.num_frames:
            raise ValidationError(f"frame span outside video {video_id!r}")
        if cuboid.x_min < 0 or cuboid.y_min < 0 or cuboid.x_max > meta.width or cuboid.y_max > meta.height:
            raise ValidationError(f"box outside video bounds of {video_id!r}")
        return GroundTruthAction(video_id, label, cuboid)

    grouped: dict[str, list[GroundTruthAction]] = {}
    for gt in _read_records(path, parse):
        grouped.setdefault(gt.video_id, []).append(gt)
    for gts in grouped.values():
        gts.sort(key=_ground_truth_key)
    return dict(sorted(grouped.items()))


def load_scores(path, num_classes: int = 12) -> dict[str, ScoreRecord]:
    """Load classifier score records keyed by proposal_id.

    Each record needs num_classes + 1 probabilities (index 0 = non-action)
    summing to 1 within 1e-6, plus the two refinement outputs.
    """
    seen: set[str] = set()

    def parse(obj: dict) -> ScoreRecord:
        pid, refine_start, refine_end = _read_score_fields(obj)
        if pid in seen:
            raise ValidationError(f"duplicate proposal_id {pid!r}")
        seen.add(pid)
        raw = _get(obj, "class_scores")
        if not isinstance(raw, list) or len(raw) != num_classes + 1:
            raise ValidationError(f"class_scores must hold {num_classes + 1} values")
        scores = []
        for i, value in enumerate(raw):
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
                raise ValidationError(f"class_scores[{i}] = {value!r} outside [0, 1]")
            scores.append(float(value))
        if abs(sum(scores) - 1.0) > PROB_SUM_TOL:
            raise ValidationError(f"class_scores sum to {sum(scores)}, expected 1")
        return ScoreRecord(pid, tuple(scores), (refine_start, refine_end))

    def check(objects: list[dict], rows: list[tuple], columns: list[tuple]) -> list[ScoreRecord] | None:
        ids, refine_starts, refine_ends = columns
        fresh = set(ids)
        if len(fresh) < len(ids) or not seen.isdisjoint(fresh):
            return None
        try:
            score_lists = list(map(_CLASS_SCORES, objects))
        except KeyError:
            return None
        if set(map(type, score_lists)) != {list} or set(map(len, score_lists)) != {num_classes + 1}:
            return None
        for column in zip(*score_lists):
            if set(map(type, column)) != {float} or min(column) < 0.0 or max(column) > 1.0:
                return None
        # `sum` of each row, as `parse` takes it, so the tolerance decides bit for bit; a NaN or an
        # infinity makes a sum non-finite, which fails the tolerance, so min and max may step past it
        if not (np.abs(np.array(list(map(sum, score_lists))) - 1.0) <= PROB_SUM_TOL).all():
            return None
        seen.update(fresh)
        return list(map(tuple.__new__, itertools.repeat(ScoreRecord),
                        zip(ids, map(tuple, score_lists), zip(refine_starts, refine_ends))))

    records: dict[str, ScoreRecord] = {}
    for block in _read_blocks(path, SCORE_FIELDS, check, parse):
        records.update(zip(map(_PROPOSAL_ID, block), block))
    return dict(sorted(records.items()))


def write_lines(path, lines: Iterable[str]) -> None:
    """Write each line plus a newline, replacing `path` only once all are written.

    Lines go to `<name>.tmp` beside `path`, which `os.replace` then moves
    into place.  If `lines` raises, or writing fails, the temporary file is
    removed and a previous file at `path` is left untouched.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line + "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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

    `fields` is a `{name: _get_*}` table, as for `field_reader`; a name in
    `nullable` may also hold None.  When every value has exactly its
    reader's type (`str`, `int` or `float`: a bool, a numpy scalar or a
    subclass never passes) or is an allowed None, and every float is
    finite, the line comes from one `%` template with the keys in sorted
    order: a string as `_encode` writes it, an int or a float as its
    `repr` (what the encoder writes for those exact types), None as
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
    one per call, so no memo outlives the file it writes.

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
        text = f"_encode({v})" if kind is str else f"repr({v})"
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
        f"    def line({', '.join(params)}):\n"
        f"        if {' and '.join(guard)}:\n"
        f"{fill}"
        f"        return _encode(dict(zip(NAMES, ({', '.join(params)},))))\n"
        f"    line.fresh = fresh\n"
        f"    return line\n"
    )
    namespace = {
        "TEMPLATE": "{" + ", ".join(items[:head]) + ("" if memo else "}"),
        "SUFFIX": "".join(f", {item}" for item in items[head:]) + "}",
        "NAMES": tuple(fields), "_encode": _encode, "_isfinite": math.isfinite,
    }
    exec(source, namespace)  # the source holds only the names above, `v0`, `v1`, ... and `memo`, `key`, `text`
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
        {
            "proposal_id": rec.proposal_id,
            "class_scores": list(rec.class_scores),
            "refine_start": rec.refinement[0],
            "refine_end": rec.refinement[1],
        }
        for rec in sorted(records, key=lambda r: r.proposal_id)
    ))


def class_index(label: str, action_classes: Iterable[str] = DEFAULT_ACTION_CLASSES) -> int:
    """1-based index of an action label; 0 is the non-action class."""
    classes = tuple(action_classes)
    try:
        return classes.index(label) + 1
    except ValueError:
        raise ValidationError(f"unknown action_class {label!r}; allowed: {', '.join(classes)}") from None


def ensure_path(path) -> Path:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"input file not found: {p}")
    return p
