"""Class-wise greedy 3D non-maximum suppression over scored detections."""

from __future__ import annotations

import itertools
from collections import namedtuple
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .geometry import Cuboid, cuboid_array, cuboids_from_columns, pairwise_iou
from .ingest import (
    BOX_FIELDS,
    CUBOID_FIELDS,
    ValidationError,
    _get_number,
    _get_str,
    _read_blocks,
    check_numbers,
    class_index,
    field_reader,
    line_encoder,
    write_lines,
)

NMS_BLOCK = 64  # rows per overlap block in nms_3d


class ScoredDetection(namedtuple("ScoredDetection", "video_id proposal_id action_class confidence cuboid")):
    """Classified, temporally refined cuboid entering NMS and scoring.

    `action_class` is the 1-based action index; non-action proposals never
    reach here.  A validated tuple: construction rejects an action class
    below 1 and a confidence outside [0, 1].  Being a tuple, it also equals
    a plain tuple of the same values, iterates over them, and `json` would
    encode it as a list; nothing in the package, its tests or its benchmark
    relies on that.  `load_final_detections` checks the same rules over a
    block of records at once and then builds them with `tuple.__new__`.
    """

    __slots__ = ()

    def __new__(cls, video_id, proposal_id, action_class, confidence, cuboid):
        if action_class < 1:
            raise ValidationError("action_class must be >= 1")
        if not 0.0 <= confidence <= 1.0:
            raise ValidationError(f"confidence {confidence} outside [0, 1]")
        return tuple.__new__(cls, (video_id, proposal_id, action_class, confidence, cuboid))

    @classmethod
    def _make(cls, iterable):  # `_replace` builds through here; keep it validated
        return cls(*iterable)


@dataclass(frozen=True)
class NmsParams:
    temporal_iou: float = 0.2
    spatial_iou: float = 0.05

    def __post_init__(self):
        check_numbers(self, "temporal_iou", "spatial_iou")
        for name in ("temporal_iou", "spatial_iou"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name} must be in [0, 1], got {v}")


def nms_3d(dets: Sequence[ScoredDetection], params: NmsParams = NmsParams()) -> list[ScoredDetection]:
    """Greedy per-class suppression of overlapping cuboids.

    A detection is suppressed only when BOTH its temporal and its spatial
    IoU with an already-kept same-class detection exceed their thresholds.
    Output is ordered by class, then confidence descending (ties by
    proposal_id).  Detections from different videos never interact; run
    per video.  Overlaps come NMS_BLOCK rows at a time against the rest of
    the class, so memory stays O(NMS_BLOCK x class size).
    """
    by_class: dict[int, list[ScoredDetection]] = {}
    for det in dets:
        by_class.setdefault(det.action_class, []).append(det)
    survivors: list[ScoredDetection] = []
    for cls in sorted(by_class):
        pending = sorted(by_class[cls], key=lambda d: (-d.confidence, d.proposal_id))
        boxes = cuboid_array(d.cuboid for d in pending)
        suppressed = np.zeros(len(pending), dtype=bool)
        for start in range(0, len(pending), NMS_BLOCK):
            # rows an earlier block already suppressed need no overlaps
            rows = start + np.flatnonzero(~suppressed[start:start + NMS_BLOCK])
            spatial, temporal = pairwise_iou(boxes[rows], boxes[start:])
            overlaps = (temporal > params.temporal_iou) & (spatial > params.spatial_iou)
            for row, det_overlaps in zip(rows.tolist(), overlaps):
                if not suppressed[row]:
                    survivors.append(pending[row])
                    suppressed[start:] |= det_overlaps
    return survivors


# A final detection record's fields with their readers; `action_class` holds the label.
FINAL_DETECTION_FIELDS = {
    "action_class": _get_str, "confidence": _get_number, "video_id": _get_str, "proposal_id": _get_str,
    **CUBOID_FIELDS,
}
_read_final_fields = field_reader(FINAL_DETECTION_FIELDS)
_final_line = line_encoder(FINAL_DETECTION_FIELDS, memo=BOX_FIELDS)


def write_final_detections(path, dets: Iterable[ScoredDetection], action_classes: Sequence[str]) -> None:
    """Final-detections file: the system's deliverable and scoring input."""
    line = _final_line.fresh()  # a detection keeps its proposal's box, whose text this call builds once
    write_lines(path, (
        line(action_classes[det.action_class - 1], det.confidence, det.video_id, det.proposal_id, *det.cuboid)
        for det in dets
    ))


def load_final_detections(path, action_classes: Sequence[str]) -> list[ScoredDetection]:
    index_of = {label: i for i, label in enumerate(action_classes, start=1)}  # class_index of each known label

    def parse(obj: dict) -> ScoredDetection:
        label, confidence, video_id, proposal_id, *box = _read_final_fields(obj)
        cuboid = Cuboid(*box)  # checked before the label
        cls = index_of.get(label) or class_index(label, action_classes)  # an unknown label raises there
        return ScoredDetection(video_id, proposal_id, cls, confidence, cuboid)

    def check(objects: list[dict], rows: list[tuple], columns: list[tuple]) -> list[ScoredDetection] | None:
        labels, confidences, video_ids, proposal_ids, *box = columns
        if not index_of.keys() >= set(labels) or min(confidences) < 0.0 or max(confidences) > 1.0:
            return None
        cuboids = cuboids_from_columns(*box)
        if cuboids is None:
            return None
        classes = map(index_of.__getitem__, labels)
        return list(map(tuple.__new__, itertools.repeat(ScoredDetection),
                        zip(video_ids, proposal_ids, classes, confidences, cuboids)))

    return list(itertools.chain.from_iterable(_read_blocks(path, FINAL_DETECTION_FIELDS, check, parse)))
