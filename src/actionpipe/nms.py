"""Class-wise greedy 3D non-maximum suppression over scored detections."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .geometry import Cuboid, cuboid_array, pairwise_iou
from .ingest import (
    ValidationError,
    _get_number,
    _get_str,
    _read_records,
    class_index,
    cuboid_record,
    read_cuboid,
    write_records,
)

NMS_BLOCK = 64  # rows per overlap block in nms_3d


@dataclass(frozen=True)
class ScoredDetection:
    """Classified, temporally refined cuboid entering NMS and scoring."""

    video_id: str
    proposal_id: str
    action_class: int  # 1-based action index; non-action proposals never reach here
    confidence: float
    cuboid: Cuboid

    def __post_init__(self):
        if self.action_class < 1:
            raise ValidationError("action_class must be >= 1")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValidationError(f"confidence {self.confidence} outside [0, 1]")


@dataclass(frozen=True)
class NmsParams:
    temporal_iou: float = 0.2
    spatial_iou: float = 0.05

    def __post_init__(self):
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


def write_final_detections(path, dets: Iterable[ScoredDetection], action_classes: Sequence[str]) -> None:
    """Final-detections file: the system's deliverable and scoring input."""
    write_records(path, (
        {
            "video_id": det.video_id,
            "proposal_id": det.proposal_id,
            "action_class": action_classes[det.action_class - 1],
            "confidence": det.confidence,
            **cuboid_record(det.cuboid),
        }
        for det in dets
    ))


def load_final_detections(path, action_classes: Sequence[str]) -> list[ScoredDetection]:
    def parse(obj: dict) -> ScoredDetection:
        label = _get_str(obj, "action_class")
        confidence = _get_number(obj, "confidence")
        cuboid = read_cuboid(obj)
        return ScoredDetection(
            video_id=_get_str(obj, "video_id"),
            proposal_id=_get_str(obj, "proposal_id"),
            action_class=class_index(label, action_classes),
            confidence=confidence,
            cuboid=cuboid,
        )

    return list(_read_records(path, parse))
