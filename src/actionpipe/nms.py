"""Class-wise greedy 3D non-maximum suppression over scored detections.

A detection can suppress another only when their temporal IoU is above
`temporal_iou`, a threshold in [0, 1], so only pairs that share a frame
can matter: a pair whose spans do not meet has temporal IoU 0.0, which is
never above any such threshold.  `nms_3d` therefore reads IoUs only on
the pairs of a class group that `geometry.span_pairs` lists, in blocks of
consecutive rows whose summed overlap counts (the rows each shares a
frame with, itself included) stay within `NMS_PAIRS`; a row over the
budget is a block alone.  Memory is O(NMS_PAIRS + class size), and work
grows with the pairs that share a frame.  The worst case is a class whose
detections all share every frame and none suppresses: the join then lists
every pair, as many as a dense matrix holds, at a few times the cost of
each dense entry (4,000 such rows take ~1 s).
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import operator
from collections import namedtuple
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .geometry import BOX_FIELDS, CUBOID_RULES, box_spatial_iou, check_record, cuboid_array, span_iou, span_pairs
from .ingest import (
    CONFIDENCE_RULE,
    CUBOID_FIELDS,
    Table,
    ValidationError,
    _cuboids,
    _get_number,
    _get_str,
    _known_class,
    _read_table,
    check_fractions,
    line_encoder,
    read_mirror,
    write_lines,
    write_mirror,
)

NMS_PAIRS = 2**18  # pair budget of one nms_3d block: the summed overlap counts of its rows


class ScoredDetection(namedtuple("ScoredDetection", "video_id proposal_id action_class confidence cuboid")):
    """Classified, temporally refined cuboid entering NMS and scoring.

    `action_class` is the 1-based action index; non-action proposals never
    reach here.  A validated tuple: construction rejects an action class
    below 1 and a confidence outside [0, 1] (`ingest.CONFIDENCE_RULE`,
    which the detection loaders also apply).  Being a tuple, it also equals
    a plain tuple of the same values, iterates over them, and `json` would
    encode it as a list; nothing in the package, its tests or its benchmark
    relies on that.
    """

    __slots__ = ()

    def __new__(cls, video_id, proposal_id, action_class, confidence, cuboid):
        if action_class < 1:
            raise ValidationError("action_class must be >= 1")
        check_record([CONFIDENCE_RULE], {"confidence": (confidence,)}, ValidationError)
        return tuple.__new__(cls, (video_id, proposal_id, action_class, confidence, cuboid))

    @classmethod
    def _make(cls, iterable):  # `_replace` builds through here; keep it validated
        return cls(*iterable)


@dataclass(frozen=True)
class NmsParams:
    temporal_iou: float = 0.2
    spatial_iou: float = 0.05

    def __post_init__(self):
        check_fractions(self, "temporal_iou", "spatial_iou")


def nms_3d(dets: Sequence[ScoredDetection], params: NmsParams = NmsParams()) -> list[ScoredDetection]:
    """Greedy per-class suppression of overlapping cuboids.

    A detection is suppressed only when BOTH its temporal and its spatial
    IoU with an already-kept same-class detection exceed their thresholds.
    Output is ordered by class, then confidence descending (ties by
    proposal_id).  Detections from different videos never interact; run
    per video.  Only pairs that share a frame are read (see the module).
    """
    # one priority order: class, then confidence descending, then proposal_id (stable sorts, last key first)
    pending = sorted(dets, key=operator.attrgetter("proposal_id"))
    pending.sort(key=operator.attrgetter("confidence"), reverse=True)
    pending.sort(key=operator.attrgetter("action_class"))
    classes = [d.action_class for d in pending]
    # (6, n) columns: a gather over pairs reads each coordinate in one run
    columns = cuboid_array(d.cuboid for d in pending).T.copy()
    survivors: list[ScoredDetection] = []
    start = 0
    while start < len(pending):
        end = bisect.bisect_right(classes, classes[start], start)
        group = pending[start:end]
        survivors.extend(map(group.__getitem__, _kept_rows(columns[:, start:end], params)))
        start = end
    return survivors


def _kept_rows(columns: np.ndarray, params: NmsParams) -> list[int]:
    """The rows of one class group, boxes given as (6, n) columns in priority order, that greedy suppression keeps."""
    suppressed = bytearray(columns.shape[1])
    live = np.frombuffer(suppressed, dtype=np.uint8)  # a view: the walk's marks show through
    kept: list[int] = []
    for lo, hi in _blocks(columns[4], columns[5]):
        rows = lo + np.flatnonzero(live[lo:hi] == 0)  # rows an earlier block suppressed are skipped
        if not len(rows):
            continue
        block = columns.take(rows, axis=1)
        hits = [_hits(rows, block, rows, block, *span_pairs(block.T), params)]
        later = hi + np.flatnonzero(live[hi:] == 0)
        if len(later):
            after = columns.take(later, axis=1)
            hits.append(_hits(rows, block, later, after, *span_pairs(block.T, after.T), params))
        first, second = np.concatenate([h[0] for h in hits]), np.concatenate([h[1] for h in hits])
        order = np.argsort(first, kind="stable")  # each row's hits, by its higher-priority row
        first, second = first[order], second[order].tolist()
        bounds = np.searchsorted(first, rows).tolist() + [len(second)]
        for row, a, b in zip(rows.tolist(), bounds, bounds[1:]):
            if not suppressed[row]:
                kept.append(row)
                for other in second[a:b]:
                    suppressed[other] = 1
    return kept


def _blocks(starts: np.ndarray, ends: np.ndarray):
    """(lo, hi) of each block: consecutive rows whose summed overlap counts stay within NMS_PAIRS."""
    size = len(starts)
    if size * size <= NMS_PAIRS:  # no row meets more than all `size` rows: one block, counts unread
        yield 0, size
        return
    # a row's overlap count: rows that start by its end, less rows that end before its start
    counts = np.searchsorted(np.sort(starts), ends, "right") - np.searchsorted(np.sort(ends), starts, "left")
    reach = np.cumsum(counts)
    lo = 0
    while lo < size:
        hi = max(lo + 1, int(np.searchsorted(reach, (reach[lo - 1] if lo else 0) + NMS_PAIRS, "right")))
        yield lo, hi
        lo = hi


def _hits(a_rows, a, b_rows, b, i, j, params: NmsParams) -> tuple[np.ndarray, np.ndarray]:
    """(higher, lower) priority rows of the pairs (a_rows[i], b_rows[j]) whose IoUs both exceed their thresholds.

    `a` and `b` hold the rows' boxes as (6, n) columns; the temporal gate
    runs first, so spatial IoU is read only on the pairs that pass it.
    """
    temporal = span_iou(a[4].take(i), a[5].take(i), b[4].take(j), b[5].take(j))
    near = temporal > params.temporal_iou
    i, j = i[near], j[near]
    spatial = box_spatial_iou(a[:4].take(i, axis=1).T, b[:4].take(j, axis=1).T)
    near = spatial > params.spatial_iou
    i, j = a_rows.take(i[near]), b_rows.take(j[near])
    return np.minimum(i, j), np.maximum(i, j)


# A final detection record's fields with their readers; `action_class` holds the label.
FINAL_DETECTION_FIELDS = {
    "action_class": _get_str, "confidence": _get_number, "video_id": _get_str, "proposal_id": _get_str,
    **CUBOID_FIELDS,
}
_final_line = line_encoder(FINAL_DETECTION_FIELDS, memo=BOX_FIELDS)


def write_final_detections(path, dets: Iterable[ScoredDetection], action_classes: Sequence[str]) -> None:
    """Final-detections file, the system's deliverable and scoring input, then its column mirror.

    Both go through `ingest.replacing`; the mirror (`ingest.write_mirror`)
    holds the (7, n) confidence and cuboid columns, then every label, video
    id and proposal id.
    """
    dets = list(dets)
    columns = dict.fromkeys(FINAL_DETECTION_FIELDS, ())
    if dets:
        video_ids, proposal_ids, classes, confidences, cuboids = zip(*dets)
        columns = {"action_class": [action_classes[cls - 1] for cls in classes], "confidence": confidences,
                   "video_id": video_ids, "proposal_id": proposal_ids, **dict(zip(CUBOID_FIELDS, zip(*cuboids)))}
    line = _final_line.fresh()  # a detection keeps its proposal's box, whose text this call builds once
    digest = hashlib.sha256()
    write_lines(path, map(line, *map(columns.__getitem__, FINAL_DETECTION_FIELDS)), digest)
    write_mirror(path, _final_detection_table(action_classes), None if line.encoded else columns, digest)


def _final_detection_table(action_classes: Sequence[str]) -> Table:
    index_of = {label: i for i, label in enumerate(action_classes, start=1)}  # class_index of each known label
    known_class = _known_class(tuple(action_classes))
    # a mirror written under other classes is read only when this reader knows every label
    return Table(FINAL_DETECTION_FIELDS, [*CUBOID_RULES, known_class, CONFIDENCE_RULE],
                 lambda c: list(map(tuple.__new__, itertools.repeat(ScoredDetection), zip(
                     c["video_id"], c["proposal_id"], map(index_of.__getitem__, c["action_class"]), c["confidence"],
                     _cuboids(c)))), reader_rules=[known_class])


def load_final_detections(path, action_classes: Sequence[str]) -> list[ScoredDetection]:
    """Load a final-detections file, preserving file order: from its column mirror when that matches, else the JSONL."""
    table = _final_detection_table(action_classes)
    dets = read_mirror(path, table)
    if dets is None:
        dets = list(_read_table(path, table))
    return dets
