"""Independent brute-force oracles shared by the unit and acceptance tests.

Everything here is deliberately naive: voxel counting for 3-D IoU, a
re-simulated greedy pass for NMS, exhaustive assignment search and SciPy's
`linear_sum_assignment` for the matcher, one assignment solve per threshold
for DET curves, one `pmiss_at` lookup per curve and rate for their
aggregate, one `np.array` call for cuboid arrays, pair-by-pair scalar IoUs
for designation, a merge-by-merge
replay over explicit member lists for Ward trees and their cuts, one object per
detection record for the detection loader, the standard library's
`json` alone for the record reader, the record types as the frozen
dataclasses they were before they became validated tuples, and a
field-by-field loader for each record file: every field read by its getter
in table order, then the loader's rules, and the jittered windows and
`finalize`'s candidates built one by one through the validating record
constructors.  `typed` turns a record into its values and their types, so
that an equality also checks what `tuple.__new__` built.  None of it
reuses the code paths under test beyond the plain spatial/temporal IoU
predicates, the record types, the stepwise `pmiss_at` lookup, jitter's
`anchors` frame list, and the located line reader and field getters of
`ingest`.
`run_python` runs a check in a fresh interpreter, for tests of what a
stage imports or leaves behind.
"""

from __future__ import annotations

import json
import math
import operator
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np
from scipy.optimize import linear_sum_assignment

import actionpipe
from actionpipe.geometry import Cuboid, spatial_iou, temporal_iou
from actionpipe.ingest import (
    DEFAULT_ACTION_CLASSES,
    DEFAULT_OBJECT_CLASSES,
    MAX_INT,
    PROB_SUM_TOL,
    GroundTruthAction,
    ValidationError,
    VideoMeta,
    _get,
    _get_int,
    _get_number,
    _get_str,
    _read_records,
    class_index,
)
from actionpipe.labeling import (
    DESIGNATIONS,
    DISCARDED,
    EASY_NEGATIVE,
    HARD_NEGATIVE,
    POSITIVE,
    LabeledProposal,
    LabelingThresholds,
    regression_target,
)
from actionpipe.jitter import JitterParams, anchors
from actionpipe.nms import NmsParams, ScoredDetection
from actionpipe.proposals import PROVENANCE_JITTERING, PROVENANCES, Proposal
from actionpipe.scoring import DetCurve, MatchParams, pmiss_at


def random_cuboid(rng: np.random.Generator, grid: int = 4, max_frame: int = 60) -> Cuboid:
    """Random cuboid with spatial coordinates on a 1/grid pixel lattice."""
    x0 = rng.integers(0, 30 * grid) / grid
    y0 = rng.integers(0, 30 * grid) / grid
    w = rng.integers(8 * grid, 24 * grid) / grid
    h = rng.integers(8 * grid, 24 * grid) / grid
    f0 = int(rng.integers(0, max_frame))
    length = int(rng.integers(1, 40))
    return Cuboid(x0, y0, x0 + w, y0 + h, f0, f0 + length - 1)


def voxel_iou(a: Cuboid, b: Cuboid, resolution: int = 4) -> float:
    """3-D IoU by counting unit-grid voxels at `resolution` cells per pixel.

    A voxel belongs to a cuboid when its spatial cell center falls inside the
    rectangle and its frame lies in the span.
    """
    step = 1.0 / resolution
    lo_x = min(a.x_min, b.x_min)
    hi_x = max(a.x_max, b.x_max)
    lo_y = min(a.y_min, b.y_min)
    hi_y = max(a.y_max, b.y_max)
    xs = np.arange(lo_x + step / 2, hi_x, step)
    ys = np.arange(lo_y + step / 2, hi_y, step)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")

    def cells(c: Cuboid) -> np.ndarray:
        return (gx >= c.x_min) & (gx < c.x_max) & (gy >= c.y_min) & (gy < c.y_max)

    in_a, in_b = cells(a), cells(b)
    frames_a = a.num_frames
    frames_b = b.num_frames
    frames_inter = max(0, min(a.f_end, b.f_end) - max(a.f_start, b.f_start) + 1)
    vol_a = int(in_a.sum()) * frames_a
    vol_b = int(in_b.sum()) * frames_b
    vol_inter = int((in_a & in_b).sum()) * frames_inter
    union = vol_a + vol_b - vol_inter
    return vol_inter / union if union else 0.0


def reference_nms(dets, params: NmsParams):
    """Greedy per-class suppression, re-simulated without pre-sorting."""
    out = []
    for cls in sorted({d.action_class for d in dets}):
        pool = [d for d in dets if d.action_class == cls]
        while pool:
            best = min(pool, key=lambda d: (-d.confidence, d.proposal_id))
            out.append(best)
            pool = [
                d for d in pool
                if d is not best and not (
                    temporal_iou(d.cuboid, best.cuboid) > params.temporal_iou
                    and spatial_iou(d.cuboid, best.cuboid) > params.spatial_iou
                )
            ]
    return out


def reference_designate(p, gts, thresholds: LabelingThresholds = LabelingThresholds()) -> LabeledProposal:
    """Scalar designation of one proposal, one GT at a time."""
    overlaps = [(spatial_iou(p.cuboid, g.cuboid), temporal_iou(p.cuboid, g.cuboid)) for g in gts]
    gated = [(ti, si, -i) for i, (si, ti) in enumerate(overlaps) if si > thresholds.spatial_positive]
    if gated:
        ti, si, neg_i = max(gated)
        if ti > thresholds.temporal_positive:
            gt = gts[-neg_i]
            return LabeledProposal(p, POSITIVE, gt.action_class, gt, regression_target(p.cuboid, gt.cuboid))
    if all(ti < thresholds.temporal_negative for _, ti in overlaps):
        hard = any(
            si > thresholds.spatial_positive
            and thresholds.hard_temporal_low < ti < thresholds.temporal_negative
            for si, ti in overlaps
        )
        return LabeledProposal(p, HARD_NEGATIVE if hard else EASY_NEGATIVE)
    return LabeledProposal(p, DISCARDED)


def _reference_match_count(dets, gts, params: MatchParams, classes) -> int:
    """Maximum-cardinality matching size, from one SciPy assignment solve."""
    return scipy_assignment(len(dets), len(gts), congruent_pairs(dets, gts, params, classes))[0]


def reference_det_curve(dets, gts, video_minutes: float, params: MatchParams = MatchParams(),
                        classes=DEFAULT_ACTION_CLASSES, class_label: str = "aggregate") -> DetCurve:
    """DET curve with a fresh maximum matching at every distinct confidence."""
    if not dets:
        return DetCurve(class_label, ((0.0, 1.0),))
    points: dict[float, float] = {}
    for threshold in sorted({d.confidence for d in dets}, reverse=True):
        surviving = [d for d in dets if d.confidence >= threshold]
        matched = _reference_match_count(surviving, gts, params, classes)
        p_miss = (len(gts) - matched) / len(gts)
        rate_fa = (len(surviving) - matched) / video_minutes
        points[rate_fa] = min(points.get(rate_fa, 1.0), p_miss)
    return DetCurve(class_label, tuple(sorted(points.items())))


def reference_aggregate_det_curve(curves) -> DetCurve:
    """Macro-average on the union rate grid: one `pmiss_at` lookup per curve and rate, summed with `sum`."""
    curves = list(curves)
    grid = sorted({rate for c in curves for rate, _ in c.points}) or [0.0]
    return DetCurve("aggregate", tuple((rate, sum(pmiss_at(c, rate) for c in curves) / len(curves))
                                       for rate in grid))


def reference_cuboid_array(rows) -> np.ndarray:
    """(n, 6) float64 array of cuboid rows, converted by one `np.array` call."""
    rows = list(rows)
    return np.array(rows, dtype=np.float64).reshape(len(rows), 6)


def exhaustive_assignment(num_dets: int, num_gts: int, allowed: dict) -> tuple[int, float]:
    """Best (cardinality, temporal-IoU sum) over all one-to-one assignments.

    `allowed` maps (det index, gt index) to the pair's temporal IoU.
    """
    best = (0, 0.0)

    def recurse(i: int, used: set, card: int, total: float):
        nonlocal best
        if i == num_dets:
            best = max(best, (card, total))
            return
        recurse(i + 1, used, card, total)
        for j in range(num_gts):
            if j not in used and (i, j) in allowed:
                used.add(j)
                recurse(i + 1, used, card + 1, total + allowed[(i, j)])
                used.remove(j)

    recurse(0, set(), 0, 0.0)
    return best


def congruent_pairs(dets, gts, params: MatchParams = MatchParams(), classes=DEFAULT_ACTION_CLASSES) -> dict:
    """Temporal IoU of every congruent (det index, gt index) pair, from the scalar predicates."""
    allowed = {}
    for i, det in enumerate(dets):
        for j, gt in enumerate(gts):
            t = temporal_iou(det.cuboid, gt.cuboid)
            if ((det.video_id, det.action_class) == (gt.video_id, class_index(gt.action_class, classes))
                    and t >= params.temporal_iou and spatial_iou(det.cuboid, gt.cuboid) >= params.spatial_iou):
                allowed[(i, j)] = t
    return allowed


def scipy_assignment(num_dets: int, num_gts: int, allowed: dict) -> tuple[int, float]:
    """Best (cardinality, temporal-IoU sum) from SciPy's `linear_sum_assignment`.

    Reward K + temporal IoU on allowed pairs and 0 elsewhere; K beats any
    IoU sum, so cardinality dominates.
    """
    big = float(num_dets + num_gts + 1)
    reward = np.zeros((num_dets, num_gts))
    for (i, j), t in allowed.items():
        reward[i, j] = big + t
    rows, cols = linear_sum_assignment(reward, maximize=True)
    kept = [(int(i), int(j)) for i, j in zip(rows, cols) if reward[i, j] > 0.0]
    return len(kept), sum(allowed[pair] for pair in kept)


def random_match_instance(rng: np.random.Generator, max_side: int = 6):
    """Random detections and ground truth spanning two videos and two classes."""
    labels = DEFAULT_ACTION_CLASSES[:2]
    videos = ("va", "vb")
    dets = []
    for i in range(int(rng.integers(0, max_side + 1))):
        dets.append(ScoredDetection(
            video_id=videos[int(rng.integers(0, 2))],
            proposal_id=f"d{i:02d}",
            action_class=int(rng.integers(1, 3)),
            confidence=float(rng.uniform(0.1, 1.0)),
            cuboid=random_cuboid(rng),
        ))
    gts = [
        GroundTruthAction(
            video_id=videos[int(rng.integers(0, 2))],
            action_class=labels[int(rng.integers(0, 2))],
            cuboid=random_cuboid(rng),
        )
        for _ in range(int(rng.integers(0, max_side + 1)))
    ]
    return dets, gts


def reference_cut_tree(merges, k: int) -> list[list[int]]:
    """`clustering.cut_tree` by replaying the first n - k merges over explicit member lists."""
    if k < 1:
        raise ValidationError("k must be >= 1")
    n = len(merges) + 1
    k_eff = min(k, n)
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    for i in range(n - k_eff):
        a = int(merges[i, 0])
        b = int(merges[i, 1])
        members[n + i] = members.pop(a) + members.pop(b)
    clusters = [sorted(m) for m in members.values()]
    clusters.sort(key=lambda c: c[0])
    return clusters


def is_ward_hierarchy(points, merges, rtol: float = 1e-9) -> bool:
    """True when `merges` (SciPy linkage layout) is a Ward tree of `points`.

    Replays the merges in order, keeping each active cluster's member list.
    Every merge must join two distinct active clusters at a height equal to
    their Ward distance, `sqrt(2 s_a s_b / (s_a + s_b)) * |c_a - c_b|`, with
    no active cluster closer to either of them than that (the two are
    mutually nearest), into the summed size; heights never decrease.  A
    cluster's centroid is the mean of its member points.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    if np.shape(merges) != (n - 1, 4):
        return False
    tol = rtol * max(1.0, float(np.abs(pts).max()))
    members = {i: [i] for i in range(n)}
    centroid = {i: pts[i] for i in range(n)}
    previous = 0.0
    for i, (a, b, h, size) in enumerate(np.asarray(merges, dtype=np.float64)):
        a, b = int(a), int(b)
        if a == b or a not in members or b not in members or h < previous - tol:
            return False
        ids = list(members)
        cent = np.array([centroid[c] for c in ids])
        sizes = np.array([len(members[c]) for c in ids], dtype=np.float64)
        for x, y in ((a, b), (b, a)):
            ix = ids.index(x)
            ward = np.sqrt(2.0 * sizes[ix] * sizes / (sizes[ix] + sizes)) * np.linalg.norm(cent - cent[ix], axis=1)
            ward[ix] = np.inf
            if abs(ward[ids.index(y)] - h) > tol or ward.min() < h - tol:
                return False
        members[n + i] = members.pop(a) + members.pop(b)
        centroid[n + i] = pts[members[n + i]].mean(axis=0)
        if len(members[n + i]) != size:
            return False
        previous = h
    return True


@dataclass(frozen=True)
class ReferenceDetection:
    """One detector hit on one frame, as one object per record."""

    video_id: str
    frame: int
    object_class: str
    x_min: float
    y_min: float
    x_max: float
    y_max: float
    confidence: float


def reference_load_detections(path, videos, min_confidence=0.5, object_classes=DEFAULT_OBJECT_CLASSES):
    """Per-video lists of `ReferenceDetection`, validated and sorted record by record."""

    def parse(obj: dict) -> ReferenceDetection:
        det = ReferenceDetection(
            video_id=_get_str(obj, "video_id"),
            frame=_get_int(obj, "frame"),
            object_class=_get_str(obj, "object_class"),
            x_min=_get_number(obj, "x_min"),
            y_min=_get_number(obj, "y_min"),
            x_max=_get_number(obj, "x_max"),
            y_max=_get_number(obj, "y_max"),
            confidence=_get_number(obj, "confidence"),
        )
        if det.x_min >= det.x_max or det.y_min >= det.y_max:
            raise ValidationError("box must have positive width and height")
        if not 0.0 <= det.confidence <= 1.0:
            raise ValidationError(f"confidence {det.confidence} outside [0, 1]")
        if det.frame < 0:
            raise ValidationError(f"negative frame index {det.frame}")
        if det.video_id not in videos:
            raise ValidationError(f"unknown video_id {det.video_id!r}")
        meta = videos[det.video_id]
        if det.frame >= meta.num_frames:
            raise ValidationError(f"frame {det.frame} outside video {det.video_id!r} with {meta.num_frames} frames")
        if det.x_min < 0 or det.y_min < 0 or det.x_max > meta.width or det.y_max > meta.height:
            raise ValidationError(f"box outside video bounds of {det.video_id!r}")
        return det

    keep = None if object_classes is None else frozenset(object_classes)
    grouped: dict[str, list[ReferenceDetection]] = {}
    for det in _read_records(path, parse):
        if det.confidence >= min_confidence and (keep is None or det.object_class in keep):
            grouped.setdefault(det.video_id, []).append(det)
    for dets in grouped.values():
        dets.sort(key=lambda d: (d.video_id, d.frame, d.object_class, d.x_min, d.y_min, d.x_max, d.y_max,
                                 d.confidence))
    return dict(sorted(grouped.items()))


def reference_read_records(path, parse: Callable[[dict], object]) -> Iterator:
    """`ingest._read_records` with every line parsed by the standard library's `json` alone."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
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


def reference_envelope(rows) -> Cuboid:
    """Bounding cuboid of detection rows (frame, x_min, y_min, x_max, y_max) by Python min/max."""
    return Cuboid(
        x_min=min(r[1] for r in rows),
        y_min=min(r[2] for r in rows),
        x_max=max(r[3] for r in rows),
        y_max=max(r[4] for r in rows),
        f_start=min(r[0] for r in rows),
        f_end=max(r[0] for r in rows),
    )


@dataclass(frozen=True)
class ReferenceCuboid:
    """`geometry.Cuboid` as a frozen dataclass, checks in `__post_init__`."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float
    f_start: int
    f_end: int

    def __post_init__(self):
        object.__setattr__(self, "x_min", float(self.x_min))
        object.__setattr__(self, "y_min", float(self.y_min))
        object.__setattr__(self, "x_max", float(self.x_max))
        object.__setattr__(self, "y_max", float(self.y_max))
        # operator.index accepts any integer type but rejects floats
        object.__setattr__(self, "f_start", operator.index(self.f_start))
        object.__setattr__(self, "f_end", operator.index(self.f_end))
        for name in ("x_min", "y_min", "x_max", "y_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"non-finite coordinate {name}={getattr(self, name)!r}")
        if not self.x_min < self.x_max:
            raise ValueError(f"empty x extent [{self.x_min}, {self.x_max}]")
        if not self.y_min < self.y_max:
            raise ValueError(f"empty y extent [{self.y_min}, {self.y_max}]")
        if self.f_start > self.f_end:
            raise ValueError(f"inverted frame span [{self.f_start}, {self.f_end}]")


@dataclass(frozen=True)
class ReferenceProposal:
    """`proposals.Proposal` as a frozen dataclass."""

    proposal_id: str
    video_id: str
    cuboid: Cuboid
    provenance: str
    parent_id: str | None = None

    def __post_init__(self):
        if self.provenance not in PROVENANCES:
            raise ValidationError(f"unknown provenance {self.provenance!r}")


@dataclass(frozen=True)
class ReferenceLabeledProposal:
    """`labeling.LabeledProposal` as a frozen dataclass."""

    proposal: ReferenceProposal
    designation: str
    action_class: str | None = None
    matched_gt: GroundTruthAction | None = None
    regression_target: tuple[float, float] | None = None

    def __post_init__(self):
        if self.designation not in DESIGNATIONS:
            raise ValidationError(f"unknown designation {self.designation!r}")
        if (self.designation == POSITIVE) != (self.regression_target is not None):
            raise ValidationError("regression_target must be present exactly for positives")


@dataclass(frozen=True)
class ReferenceScoreRecord:
    """`ingest.ScoreRecord` as a frozen dataclass."""

    proposal_id: str
    class_scores: tuple[float, ...]  # index 0 = non-action
    refinement: tuple[float, float]  # normalized (start, end) corrections

    @property
    def argmax_class(self) -> int:
        # ties resolve to the lowest index, deterministically
        return self.class_scores.index(max(self.class_scores))


@dataclass(frozen=True)
class ReferenceScoredDetection:
    """`nms.ScoredDetection` as a frozen dataclass."""

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


def reference_cuboid_values(obj: dict) -> tuple:
    """The six cuboid fields of one record, read field by field in `Cuboid` order."""
    return (
        _get_number(obj, "x_min"),
        _get_number(obj, "y_min"),
        _get_number(obj, "x_max"),
        _get_number(obj, "y_max"),
        _get_int(obj, "f_start"),
        _get_int(obj, "f_end"),
    )


def reference_load_video_meta(path) -> dict[str, VideoMeta]:
    """`ingest.load_video_meta`, every field read by its getter, then the rules."""
    videos: dict[str, VideoMeta] = {}

    def parse(obj: dict) -> VideoMeta:
        video_id = _get_str(obj, "video_id")
        num_frames = _get_int(obj, "num_frames")
        frame_rate = _get_number(obj, "frame_rate")
        width = _get_number(obj, "width")
        height = _get_number(obj, "height")
        if num_frames <= 0 or frame_rate <= 0 or width <= 0 or height <= 0:
            raise ValidationError("video dimensions, frames and rate must be positive")
        minutes = num_frames / frame_rate / 60.0
        if not math.isfinite(minutes):
            raise ValidationError(f"video length num_frames / frame_rate / 60 = {minutes!r} minutes is not finite")
        if video_id in videos:
            raise ValidationError(f"duplicate video_id {video_id!r}")
        return VideoMeta(video_id, num_frames, frame_rate, width, height)

    for meta in _read_records(path, parse):
        videos[meta.video_id] = meta
    return dict(sorted(videos.items()))


def reference_load_ground_truth(path, videos, action_classes=DEFAULT_ACTION_CLASSES):
    """`ingest.load_ground_truth`, every field read by its getter, then the rules (cuboids are `ReferenceCuboid`)."""

    def parse(obj: dict) -> GroundTruthAction:
        video_id = _get_str(obj, "video_id")
        label = _get_str(obj, "action_class")
        values = reference_cuboid_values(obj)
        class_index(label, action_classes)
        cuboid = ReferenceCuboid(*values)
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
        gts.sort(key=lambda g: (g.video_id, g.cuboid.f_start, g.cuboid.f_end, g.action_class, g.cuboid.x_min,
                                g.cuboid.y_min))
    return dict(sorted(grouped.items()))


def reference_load_proposals(path) -> list[ReferenceProposal]:
    """`proposals.load_proposals`, every field read by its getter, then the rules."""
    seen: set[str] = set()

    def parse(obj: dict) -> ReferenceProposal:
        pid = _get_str(obj, "proposal_id")
        video_id = _get_str(obj, "video_id")
        provenance = _get_str(obj, "provenance")
        values = reference_cuboid_values(obj)
        if pid in seen:
            raise ValidationError(f"duplicate proposal_id {pid!r}")
        seen.add(pid)
        parent = obj.get("parent_id")
        if parent is not None and (not isinstance(parent, str) or not parent):
            raise ValidationError("parent_id must be null or a nonempty string")
        return ReferenceProposal(pid, video_id, ReferenceCuboid(*values), provenance, parent)

    return list(_read_records(path, parse))


def reference_load_scores(path, num_classes: int = 12) -> dict[str, ReferenceScoreRecord]:
    """`ingest.load_scores`, every field read by its getter, then the rules, every score checked one by one."""
    records: dict[str, ReferenceScoreRecord] = {}

    def parse(obj: dict) -> ReferenceScoreRecord:
        pid = _get_str(obj, "proposal_id")
        refinement = (_get_number(obj, "refine_start"), _get_number(obj, "refine_end"))
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
        return ReferenceScoreRecord(pid, tuple(scores), refinement)

    for rec in _read_records(path, parse):
        records[rec.proposal_id] = rec
    return dict(sorted(records.items()))


def reference_load_final_detections(path, action_classes) -> list[ReferenceScoredDetection]:
    """`nms.load_final_detections`, every field read by its getter, then the rules (cuboids are `ReferenceCuboid`)."""

    def parse(obj: dict) -> ReferenceScoredDetection:
        label = _get_str(obj, "action_class")
        confidence = _get_number(obj, "confidence")
        video_id = _get_str(obj, "video_id")
        proposal_id = _get_str(obj, "proposal_id")
        values = reference_cuboid_values(obj)
        cuboid = ReferenceCuboid(*values)
        return ReferenceScoredDetection(
            video_id=video_id,
            proposal_id=proposal_id,
            action_class=class_index(label, action_classes),
            confidence=confidence,
            cuboid=cuboid,
        )

    return list(_read_records(path, parse))


def reference_jitter_proposals(proposals, params: JitterParams, video_meta: VideoMeta) -> list[Proposal]:
    """`jitter.jitter_proposals` with every window built through the validating constructors."""
    out = list(proposals)
    seen = {p.cuboid for p in proposals}
    last_frame = video_meta.num_frames - 1
    for parent in proposals:
        c = parent.cuboid
        for f_a in anchors(c.f_start, c.f_end, params.stride, params.include_end):
            for w in params.half_windows:
                f_lo, f_hi = f_a - w, f_a + w
                if params.clamp_to_video:
                    f_lo, f_hi = max(0, f_lo), min(last_frame, f_hi)
                if f_hi - f_lo + 1 < params.min_span:
                    continue
                window = Cuboid(c.x_min, c.y_min, c.x_max, c.y_max, f_lo, f_hi)
                if window in seen:
                    continue
                seen.add(window)
                out.append(Proposal(
                    proposal_id=f"{parent.proposal_id}_a{f_a}w{w}",
                    video_id=parent.video_id,
                    cuboid=window,
                    provenance=PROVENANCE_JITTERING,
                    parent_id=parent.proposal_id,
                ))
    return out


def reference_apply_refinement(c: Cuboid, refinement: tuple[float, float], num_frames: int) -> tuple[Cuboid, bool]:
    """`refine.apply_refinement` through `Cuboid`'s properties, `max`/`min` and its validating constructor."""
    mid, half = c.mid_frame, c.num_frames / 2.0
    start, end = mid + refinement[0] * half, mid + refinement[1] * half
    if not (abs(start) <= MAX_INT and abs(end) <= MAX_INT):  # false for inf too
        return c, False
    new_start, new_end = max(round(start), 0), min(round(end), num_frames - 1)
    if new_start >= new_end:
        return c, False
    return Cuboid(c.x_min, c.y_min, c.x_max, c.y_max, new_start, new_end), True


def reference_finalize_candidates(proposals, scores, videos, multi_label: bool, min_class_score: float) -> dict:
    """`finalize`'s NMS candidates per video, by the per-class loop with validated constructors.

    One `reference_apply_refinement` and one validating `ScoredDetection`
    per candidate, as `cli.cmd_finalize` built them through `_to_detection`.
    """

    def to_detection(prop, record, cls: int, num_frames: int) -> ScoredDetection:
        refined, _ = reference_apply_refinement(prop.cuboid, record.refinement, num_frames)
        return ScoredDetection(
            video_id=prop.video_id,
            proposal_id=prop.proposal_id,
            action_class=cls,
            confidence=record.class_scores[cls],
            cuboid=refined,
        )

    by_video: dict[str, list[ScoredDetection]] = {}
    for prop in proposals:
        meta = videos.get(prop.video_id)
        if meta is None:
            raise ValidationError(f"proposal {prop.proposal_id!r} has unknown video_id {prop.video_id!r}")
        record = scores.get(prop.proposal_id)
        if record is None:
            raise ValidationError(f"no score record for proposal {prop.proposal_id!r}")
        if multi_label:
            for cls in range(1, len(record.class_scores)):
                if record.class_scores[cls] >= min_class_score:
                    by_video.setdefault(prop.video_id, []).append(to_detection(prop, record, cls, meta.num_frames))
        else:
            cls = record.argmax_class
            if cls == 0:
                continue
            by_video.setdefault(prop.video_id, []).append(to_detection(prop, record, cls, meta.num_frames))
    return by_video


def typed(value):
    """`value` with the type of every leaf and of every tuple beside it, for an equality that also checks types.

    Floats compare by `repr`, so -0.0 and 0.0 differ.
    """
    if isinstance(value, tuple):
        return type(value), tuple(map(typed, value))
    if isinstance(value, list):
        return list, [typed(item) for item in value]
    if isinstance(value, dict):
        return dict, {key: typed(item) for key, item in value.items()}
    return type(value), repr(value)


def run_python(code: str, *args: str, env: dict[str, str | None] | None = None) -> str:
    """Run `code` in a fresh interpreter that imports this checkout's package; return its stdout.

    `env` sets variables in the child's copy of this environment; a None
    value removes the variable.
    """
    child_env = dict(os.environ, PYTHONPATH=str(Path(actionpipe.__file__).parents[1]))
    for name, value in (env or {}).items():
        if value is None:
            child_env.pop(name, None)
        else:
            child_env[name] = value
    done = subprocess.run([sys.executable, "-c", code, *args], env=child_env, timeout=120, capture_output=True,
                          text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout
