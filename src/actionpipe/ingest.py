"""Readers/writers for the pipeline's external record files.

All inputs and outputs are JSON Lines: one object per line, UTF-8, numbers
as decimal text.  Loading is order-independent (collections come back
canonically sorted) and every record is validated by one `parse` function
per file, which `_read_records` runs and whose errors it locates as
`path:line:`.  Field names are fixed and documented in the README.  The six
cuboid fields have one reader (`read_cuboid`) and one writer
(`cuboid_record`), and every output file goes through `write_lines`.

The loaders of the per-detection and per-proposal files first read all of
a record's fields in one call (`field_reader`); only a record that call
does not accept goes through the field-by-field parse, which alone words
errors.
"""

from __future__ import annotations

import dataclasses
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

    @property
    def minutes(self) -> float:
        return self.num_frames / self.frame_rate / 60.0


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
        for lineno, raw in enumerate(fh, start=1):
            try:
                obj = None
                if len(raw) <= 2 * ORJSON_MAX_DEPTH or raw.count(b"[") + raw.count(b"{") <= ORJSON_MAX_DEPTH:
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


# What each field reader returns; `field_reader` accepts exactly these types.
_READ_TYPES = {_get_str: str, _get_int: int, _get_number: float}


def _tuple_getter(keys: list) -> Callable:
    """`operator.itemgetter(*keys)`, but giving a tuple for one key or none too."""
    if len(keys) > 1:
        return operator.itemgetter(*keys)
    return lambda values: tuple(values[key] for key in keys)


def field_reader(fields: dict[str, Callable]) -> Callable[[dict], tuple | None]:
    """A function reading every field of a `{name: _get_*}` table from a record in one call.

    It returns the values in table order, each what its reader would
    return, but only when every value has exactly its reader's type (`str`,
    `int` or `float`: a bool never passes, nor an int where a float goes),
    no string is empty, every int is at most 2**53 in magnitude and the
    floats sum to a finite value.  Otherwise, a field missing included, it
    returns None and the caller runs its field-by-field parse, which
    converts such a value or words the error.
    """
    read_all = _tuple_getter(list(fields))
    types = tuple(_READ_TYPES[read] for read in fields.values())
    read_floats = _tuple_getter([i for i, t in enumerate(types) if t is float])
    ints = [i for i, t in enumerate(types) if t is int]

    def read(obj: dict) -> tuple | None:
        try:
            values = read_all(obj)
        except KeyError:
            return None
        # with the types exact, only a string can equal ""
        if tuple(map(type, values)) != types or "" in values or not math.isfinite(sum(read_floats(values))):
            return None
        for i in ints:
            if not -MAX_INT <= values[i] <= MAX_INT:
                return None
        return values

    return read


CUBOID_FIELDS = {
    "x_min": _get_number, "y_min": _get_number, "x_max": _get_number, "y_max": _get_number,
    "f_start": _get_int, "f_end": _get_int,
}
_read_cuboid_fields = field_reader(CUBOID_FIELDS)


def read_cuboid(obj: dict) -> Cuboid:
    """The cuboid fields of one record: four finite pixel bounds, two inclusive frame indices."""
    values = _read_cuboid_fields(obj)
    if values is not None:
        return Cuboid(*values)
    return Cuboid(
        _get_number(obj, "x_min"),
        _get_number(obj, "y_min"),
        _get_number(obj, "x_max"),
        _get_number(obj, "y_max"),
        _get_int(obj, "f_start"),
        _get_int(obj, "f_end"),
    )


def cuboid_record(c: Cuboid) -> dict:
    """The cuboid fields of one output record; `read_cuboid` reads them back."""
    return {
        "x_min": c.x_min, "y_min": c.y_min, "x_max": c.x_max, "y_max": c.y_max,
        "f_start": c.f_start, "f_end": c.f_end,
    }


# A detection record's fields with their readers.  A record is the tuple of
# its values in this order, which is also its canonical sort order.
DETECTION_FIELDS = {
    "video_id": _get_str, "frame": _get_int, "object_class": _get_str,
    "x_min": _get_number, "y_min": _get_number, "x_max": _get_number, "y_max": _get_number,
    "confidence": _get_number,
}
_read_detection_fields = field_reader(DETECTION_FIELDS)
_DETECTION_ROW = operator.itemgetter(1, 3, 4, 5, 6)  # frame, x_min, y_min, x_max, y_max


def _ground_truth_key(g: GroundTruthAction) -> tuple:
    return (g.video_id, g.cuboid.f_start, g.cuboid.f_end, g.action_class, g.cuboid.x_min, g.cuboid.y_min)


def load_video_meta(path) -> dict[str, VideoMeta]:
    """Load video metadata keyed by video_id."""
    videos: dict[str, VideoMeta] = {}

    def parse(obj: dict) -> VideoMeta:
        meta = VideoMeta(
            video_id=_get_str(obj, "video_id"),
            num_frames=_get_int(obj, "num_frames"),
            frame_rate=_get_number(obj, "frame_rate"),
            width=_get_number(obj, "width"),
            height=_get_number(obj, "height"),
        )
        if meta.num_frames <= 0 or meta.frame_rate <= 0 or meta.width <= 0 or meta.height <= 0:
            raise ValidationError("video dimensions, frames and rate must be positive")
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
    validation raise; records below `min_confidence` or with an object class
    outside `object_classes` (None = keep all) are dropped after validation.
    Rows keep the canonical order of their full records (`DETECTION_FIELDS`),
    so the result does not depend on input line order.
    """

    def parse(obj: dict) -> tuple:
        record = _read_detection_fields(obj)
        if record is None:
            record = tuple(get(obj, name) for name, get in DETECTION_FIELDS.items())
        video_id, frame, _, x_min, y_min, x_max, y_max, confidence = record
        if x_min >= x_max or y_min >= y_max:
            raise ValidationError("box must have positive width and height")
        if not 0.0 <= confidence <= 1.0:
            raise ValidationError(f"confidence {confidence} outside [0, 1]")
        if frame < 0:
            raise ValidationError(f"negative frame index {frame}")
        if video_id not in videos:
            raise ValidationError(f"unknown video_id {video_id!r}")
        if frame >= videos[video_id].num_frames:
            raise ValidationError(f"frame {frame} outside video {video_id!r} with {videos[video_id].num_frames} frames")
        return record

    keep = None if object_classes is None else frozenset(object_classes)
    grouped: dict[str, list[tuple]] = {}
    for record in _read_records(path, parse):
        video_id, _, object_class, *_, confidence = record
        if confidence >= min_confidence and (keep is None or object_class in keep):
            grouped.setdefault(video_id, []).append(record)
    return {
        video_id: np.array([_DETECTION_ROW(r) for r in sorted(records)], dtype=np.float64)
        for video_id, records in sorted(grouped.items())
    }


def load_ground_truth(
    path,
    videos: dict[str, VideoMeta],
    action_classes: Iterable[str] = DEFAULT_ACTION_CLASSES,
) -> dict[str, list[GroundTruthAction]]:
    """Load ground-truth action annotations grouped by video_id."""
    allowed = tuple(action_classes)

    def parse(obj: dict) -> GroundTruthAction:
        video_id = _get_str(obj, "video_id")
        label = _get_str(obj, "action_class")
        class_index(label, allowed)
        cuboid = read_cuboid(obj)
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


_read_score_fields = field_reader({"proposal_id": _get_str, "refine_start": _get_number, "refine_end": _get_number})


def load_scores(path, num_classes: int = 12) -> dict[str, ScoreRecord]:
    """Load classifier score records keyed by proposal_id.

    Each record needs num_classes + 1 probabilities (index 0 = non-action)
    summing to 1 within 1e-6, plus the two refinement outputs.
    """
    records: dict[str, ScoreRecord] = {}
    float_types = (float,) * (num_classes + 1)

    def parse(obj: dict) -> ScoreRecord:
        fields = _read_score_fields(obj)
        raw = obj.get("class_scores")
        # a repeated id, or scores other than floats, go to `parse_checked`, which converts or words them
        if fields is None or fields[0] in records or type(raw) is not list or tuple(map(type, raw)) != float_types:
            return parse_checked(obj)
        # a NaN score makes the sum NaN and fails the first test; min and max may step past it
        if not (abs(sum(raw) - 1.0) <= PROB_SUM_TOL and min(raw) >= 0.0 and max(raw) <= 1.0):
            return parse_checked(obj)
        pid, refine_start, refine_end = fields
        return ScoreRecord(pid, tuple(raw), (refine_start, refine_end))

    def parse_checked(obj: dict) -> ScoreRecord:
        pid = _get_str(obj, "proposal_id")
        if pid in records:
            raise ValidationError(f"duplicate proposal_id {pid!r}")
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
        refinement = (_get_number(obj, "refine_start"), _get_number(obj, "refine_end"))
        return ScoreRecord(pid, tuple(scores), refinement)

    for rec in _read_records(path, parse):
        records[rec.proposal_id] = rec
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


def write_video_meta(path, videos: Iterable[VideoMeta]) -> None:
    write_records(path, (dataclasses.asdict(m) for m in sorted(videos, key=lambda m: m.video_id)))


def write_detections(path, detections: Iterable[tuple]) -> None:
    """Write detection records, tuples of `DETECTION_FIELDS` values, in canonical order."""
    write_records(path, (dict(zip(DETECTION_FIELDS, d)) for d in sorted(detections)))


def write_ground_truth(path, actions: Iterable[GroundTruthAction]) -> None:
    write_records(path, (
        {"video_id": gt.video_id, "action_class": gt.action_class, **cuboid_record(gt.cuboid)}
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
