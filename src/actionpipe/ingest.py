"""Readers/writers for the pipeline's external record files.

All inputs and outputs are JSON Lines: one object per line, UTF-8, numbers
as decimal text.  Loading is order-independent (collections come back
canonically sorted) and every record is validated with its line number in
the error message.  Field names are fixed and documented in the README.
The six cuboid fields have one reader (`read_cuboid`) and one writer
(`cuboid_record`), and every output file goes through `write_records`.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

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


class ValidationError(ValueError):
    """Raised when an input record or configuration value is invalid."""


@dataclass(frozen=True)
class Detection:
    """One detector hit on one frame."""

    video_id: str
    frame: int
    object_class: str
    x_min: float
    y_min: float
    x_max: float
    y_max: float
    confidence: float

    @property
    def center_x(self) -> float:
        return (self.x_min + self.x_max) / 2.0

    @property
    def center_y(self) -> float:
        return (self.y_min + self.y_max) / 2.0


@dataclass(frozen=True)
class GroundTruthAction:
    """Annotated action instance: class label plus spatio-temporal cuboid."""

    video_id: str
    action_class: str
    cuboid: Cuboid


@dataclass(frozen=True)
class ScoreRecord:
    """Classifier output for one proposal: class probabilities + temporal refinement."""

    proposal_id: str
    class_scores: tuple[float, ...]  # index 0 = non-action
    refinement: tuple[float, float]  # normalized (start, end) corrections

    @property
    def argmax_class(self) -> int:
        # ties resolve to the lowest index, deterministically
        return max(range(len(self.class_scores)), key=lambda i: (self.class_scores[i], -i))


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


def _read_records(path) -> Iterator[tuple[int, dict]]:
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{path}:{lineno}: malformed record: {exc}") from exc
            if not isinstance(obj, dict):
                raise ValidationError(f"{path}:{lineno}: record is not an object")
            yield lineno, obj


def _get(obj: dict, name: str, where: str):
    if name not in obj:
        raise ValidationError(f"{where}: missing field {name!r}")
    return obj[name]


def _get_number(obj: dict, name: str, where: str) -> float:
    value = _get(obj, name, where)
    try:
        finite = not isinstance(value, bool) and isinstance(value, (int, float)) and math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        finite = False
    if not finite:
        raise ValidationError(f"{where}: field {name!r} must be a finite number, got {value!r}")
    return float(value)


def _get_int(obj: dict, name: str, where: str) -> int:
    value = _get(obj, name, where)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{where}: field {name!r} must be an integer, got {value!r}")
    if abs(value) > MAX_INT:
        raise ValidationError(f"{where}: field {name!r} must be at most 2**53 in magnitude")
    return value


def _get_str(obj: dict, name: str, where: str) -> str:
    value = _get(obj, name, where)
    if not isinstance(value, str) or not value:
        raise ValidationError(f"{where}: field {name!r} must be a nonempty string")
    return value


def read_cuboid(obj: dict, where: str) -> Cuboid:
    """The cuboid fields of one record: four finite pixel bounds, two inclusive frame indices."""
    bounds = (
        _get_number(obj, "x_min", where),
        _get_number(obj, "y_min", where),
        _get_number(obj, "x_max", where),
        _get_number(obj, "y_max", where),
        _get_int(obj, "f_start", where),
        _get_int(obj, "f_end", where),
    )
    try:
        return Cuboid(*bounds)
    except ValueError as exc:  # empty extent or inverted span
        raise ValidationError(f"{where}: {exc}") from exc


def cuboid_record(c: Cuboid) -> dict:
    """The cuboid fields of one output record; `read_cuboid` reads them back."""
    return {
        "x_min": c.x_min, "y_min": c.y_min, "x_max": c.x_max, "y_max": c.y_max,
        "f_start": c.f_start, "f_end": c.f_end,
    }


def _detection_key(d: Detection) -> tuple:
    return (d.video_id, d.frame, d.object_class, d.x_min, d.y_min, d.x_max, d.y_max, d.confidence)


def _ground_truth_key(g: GroundTruthAction) -> tuple:
    return (g.video_id, g.cuboid.f_start, g.cuboid.f_end, g.action_class, g.cuboid.x_min, g.cuboid.y_min)


def load_video_meta(path) -> dict[str, VideoMeta]:
    """Load video metadata keyed by video_id."""
    videos: dict[str, VideoMeta] = {}
    for lineno, obj in _read_records(path):
        where = f"{path}:{lineno}"
        meta = VideoMeta(
            video_id=_get_str(obj, "video_id", where),
            num_frames=_get_int(obj, "num_frames", where),
            frame_rate=_get_number(obj, "frame_rate", where),
            width=_get_number(obj, "width", where),
            height=_get_number(obj, "height", where),
        )
        if meta.num_frames <= 0 or meta.frame_rate <= 0 or meta.width <= 0 or meta.height <= 0:
            raise ValidationError(f"{where}: video dimensions, frames and rate must be positive")
        if meta.video_id in videos:
            raise ValidationError(f"{where}: duplicate video_id {meta.video_id!r}")
        videos[meta.video_id] = meta
    return dict(sorted(videos.items()))


def load_detections(
    path,
    videos: dict[str, VideoMeta] | None = None,
    min_confidence: float = 0.5,
    object_classes: Iterable[str] | None = DEFAULT_OBJECT_CLASSES,
) -> dict[str, list[Detection]]:
    """Load per-frame detections grouped by video_id.

    Records failing validation raise; records below `min_confidence` or with
    an object class outside `object_classes` (None = keep all) are dropped
    after validation.  Output groups are sorted canonically so the result
    does not depend on input line order.
    """
    keep = None if object_classes is None else frozenset(object_classes)
    grouped: dict[str, list[Detection]] = {}
    for lineno, obj in _read_records(path):
        where = f"{path}:{lineno}"
        det = Detection(
            video_id=_get_str(obj, "video_id", where),
            frame=_get_int(obj, "frame", where),
            object_class=_get_str(obj, "object_class", where),
            x_min=_get_number(obj, "x_min", where),
            y_min=_get_number(obj, "y_min", where),
            x_max=_get_number(obj, "x_max", where),
            y_max=_get_number(obj, "y_max", where),
            confidence=_get_number(obj, "confidence", where),
        )
        if det.x_min >= det.x_max or det.y_min >= det.y_max:
            raise ValidationError(f"{where}: box must have positive width and height")
        if not 0.0 <= det.confidence <= 1.0:
            raise ValidationError(f"{where}: confidence {det.confidence} outside [0, 1]")
        if det.frame < 0:
            raise ValidationError(f"{where}: negative frame index {det.frame}")
        if videos is not None:
            if det.video_id not in videos:
                raise ValidationError(f"{where}: unknown video_id {det.video_id!r}")
            if det.frame >= videos[det.video_id].num_frames:
                raise ValidationError(
                    f"{where}: frame {det.frame} outside video "
                    f"{det.video_id!r} with {videos[det.video_id].num_frames} frames"
                )
        if det.confidence < min_confidence:
            continue
        if keep is not None and det.object_class not in keep:
            continue
        grouped.setdefault(det.video_id, []).append(det)
    for dets in grouped.values():
        dets.sort(key=_detection_key)
    return dict(sorted(grouped.items()))


def load_ground_truth(
    path,
    videos: dict[str, VideoMeta] | None = None,
    action_classes: Iterable[str] = DEFAULT_ACTION_CLASSES,
) -> dict[str, list[GroundTruthAction]]:
    """Load ground-truth action annotations grouped by video_id."""
    allowed = tuple(action_classes)
    allowed_set = frozenset(allowed)
    grouped: dict[str, list[GroundTruthAction]] = {}
    for lineno, obj in _read_records(path):
        where = f"{path}:{lineno}"
        video_id = _get_str(obj, "video_id", where)
        label = _get_str(obj, "action_class", where)
        if label not in allowed_set:
            raise ValidationError(f"{where}: unknown action_class {label!r}; allowed: {', '.join(allowed)}")
        cuboid = read_cuboid(obj, where)
        if videos is not None:
            if video_id not in videos:
                raise ValidationError(f"{where}: unknown video_id {video_id!r}")
            meta = videos[video_id]
            if cuboid.f_start < 0 or cuboid.f_end >= meta.num_frames:
                raise ValidationError(f"{where}: frame span outside video {video_id!r}")
            if cuboid.x_min < 0 or cuboid.y_min < 0 or cuboid.x_max > meta.width or cuboid.y_max > meta.height:
                raise ValidationError(f"{where}: box outside video bounds of {video_id!r}")
        grouped.setdefault(video_id, []).append(GroundTruthAction(video_id, label, cuboid))
    for gts in grouped.values():
        gts.sort(key=_ground_truth_key)
    return dict(sorted(grouped.items()))


def load_scores(path, num_classes: int = 12) -> dict[str, ScoreRecord]:
    """Load classifier score records keyed by proposal_id.

    Each record needs num_classes + 1 probabilities (index 0 = non-action)
    summing to 1 within 1e-6, plus the two refinement outputs.
    """
    records: dict[str, ScoreRecord] = {}
    for lineno, obj in _read_records(path):
        where = f"{path}:{lineno}"
        pid = _get_str(obj, "proposal_id", where)
        if pid in records:
            raise ValidationError(f"{where}: duplicate proposal_id {pid!r}")
        raw = _get(obj, "class_scores", where)
        if not isinstance(raw, list) or len(raw) != num_classes + 1:
            raise ValidationError(f"{where}: class_scores must hold {num_classes + 1} values")
        scores = []
        for i, value in enumerate(raw):
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
                raise ValidationError(f"{where}: class_scores[{i}] = {value!r} outside [0, 1]")
            scores.append(float(value))
        if abs(sum(scores) - 1.0) > PROB_SUM_TOL:
            raise ValidationError(f"{where}: class_scores sum to {sum(scores)}, expected 1")
        refinement = (
            _get_number(obj, "refine_start", where),
            _get_number(obj, "refine_end", where),
        )
        records[pid] = ScoreRecord(pid, tuple(scores), refinement)
    return dict(sorted(records.items()))


def write_records(path, records: Iterable[dict]) -> None:
    """Write one JSON object per line, keys sorted, replacing `path` only once all are written.

    Lines go to `<name>.tmp` beside `path`, which `os.replace` then moves
    into place.  If `records` raises, the temporary file is removed and a
    previous file at `path` is left untouched.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_video_meta(path, videos: Iterable[VideoMeta]) -> None:
    write_records(path, (dataclasses.asdict(m) for m in sorted(videos, key=lambda m: m.video_id)))


def write_detections(path, detections: Iterable[Detection]) -> None:
    write_records(path, (dataclasses.asdict(d) for d in sorted(detections, key=_detection_key)))


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
