"""Evaluation: one-to-one matching, miss-rate/false-alarm curves, recall curves.

Detections are paired with ground truth one-to-one, maximizing match count
first and total temporal IoU second (`hungarian_match` returns the pairs).
It solves one dense assignment over the detections and GTs that have a
congruent pair, with cost 1 - temporal IoU, by shortest augmenting paths
with row and column potentials (Jonker & Volgenant 1987; Crouse 2016), in
NumPy, so scoring needs no SciPy.  Sweeping the detection confidence
threshold traces an operating curve of miss probability against false
alarms per minute; per-class curves are macro-averaged into the aggregate.

A curve needs only the match count at each threshold, and every maximum
matching has the same count whatever the IoU tie-break.  `det_curve`
therefore adds detections in descending confidence and grows one maximum
matching by augmenting paths (Kuhn 1955) instead of solving an assignment
per threshold.  Matching, the sweep and recall read their overlaps from the
shared `geometry.pairwise_iou` kernel.
"""

from __future__ import annotations

import bisect
import itertools
import logging
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .geometry import cuboid_array, pairwise_iou, pairwise_iou_3d
from .ingest import DEFAULT_ACTION_CLASSES, GroundTruthAction, ValidationError, class_index
from .nms import ScoredDetection
from .proposals import Proposal

log = logging.getLogger(__name__)

# Default operating rates (false alarms per minute) for report summaries.
DEFAULT_RATE_GRID = (0.01, 0.03, 0.1, 0.15, 0.2, 1.0)

IOU_MODES = ("volume", "product")


@dataclass(frozen=True)
class MatchParams:
    """Congruence rule deciding whether a detection may match a GT instance."""

    temporal_iou: float = 0.2
    spatial_iou: float = 0.0  # 0 disables the spatial gate

    def __post_init__(self):
        for name in ("temporal_iou", "spatial_iou"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name} must be in [0, 1], got {v}")


@dataclass(frozen=True)
class DetCurve:
    """Operating points (rate_fa, p_miss), rate ascending, p_miss non-increasing."""

    class_label: str
    points: tuple[tuple[float, float], ...]


def _congruence(
    dets: Sequence[ScoredDetection],
    gts: Sequence[GroundTruthAction],
    params: MatchParams,
    classes: Sequence[str],
) -> tuple[np.ndarray, np.ndarray]:
    """(congruent, temporal IoU) for every (detection, GT) pair, shape (len(dets), len(gts)).

    A pair is congruent when video and class agree, the temporal IoU reaches
    the gate and the spatial IoU reaches the optional spatial gate.
    """
    groups: dict[tuple[str, int], int] = {}
    det_group = np.array([groups.setdefault((d.video_id, d.action_class), len(groups)) for d in dets])
    gt_group = np.array([
        groups.setdefault((g.video_id, class_index(g.action_class, classes)), len(groups)) for g in gts
    ])
    spatial, temporal = pairwise_iou(cuboid_array(d.cuboid for d in dets), cuboid_array(g.cuboid for g in gts))
    congruent = (
        (det_group[:, None] == gt_group[None, :])
        & (temporal >= params.temporal_iou)
        & (spatial >= params.spatial_iou)
    )
    return congruent, temporal


def hungarian_match(
    dets: Sequence[ScoredDetection],
    gts: Sequence[GroundTruthAction],
    params: MatchParams = MatchParams(),
    classes: Sequence[str] | None = None,
) -> list[tuple[int, int]]:
    """One-to-one assignment of detections to ground truth.

    Only congruent pairs (same video and class, temporal IoU above the gate,
    optional spatial gate) may match; among feasible assignments the match
    count is maximized first and the summed temporal IoU second.  Returns
    (detection index, gt index) pairs in ascending detection index.
    """
    if classes is None:
        classes = DEFAULT_ACTION_CLASSES
    if not dets or not gts:
        return []
    congruent, temporal = _congruence(dets, gts, params, classes)
    det_rows = np.flatnonzero(congruent.any(axis=1))
    if not len(det_rows):
        return []
    gt_cols = np.flatnonzero(congruent.any(axis=0))
    cut = np.ix_(det_rows, gt_cols)
    congruent = congruent[cut]
    # A least-cost assignment minimizes summed (1 - tIoU).  A non-congruent pair
    # costs more than any sum of congruent costs, so the count of congruent
    # pairs comes first; those pairs are dropped from the result.
    cost = np.where(congruent, 1.0 - temporal[cut], max(congruent.shape) + 1.0)
    if cost.shape[0] <= cost.shape[1]:
        gt_of = _min_cost_assignment(cost)
    else:
        gt_of = np.full(cost.shape[0], -1)
        gt_of[_min_cost_assignment(cost.T)] = np.arange(cost.shape[1])
    return [(int(det_rows[i]), int(gt_cols[j])) for i, j in enumerate(gt_of.tolist()) if j >= 0 and congruent[i, j]]


def _min_cost_assignment(cost: np.ndarray) -> np.ndarray:
    """Column assigned to each row by a least-cost assignment, for rows <= columns.

    Shortest augmenting paths with row and column potentials u and v, one
    row at a time (Jonker & Volgenant 1987; Crouse 2016, the method behind
    SciPy's `linear_sum_assignment`).  Each row runs Dijkstra over reduced
    costs `cost - u - v`, which the potentials keep non-negative, settling
    one column per step (a free column first on ties) until it settles a
    free column; then the potentials of the rows and columns it reached
    move and the path flips.  Every step is one pass over a cost row.
    """
    num_rows, num_cols = cost.shape
    u, v = np.zeros(num_rows), np.zeros(num_cols)
    col_of = np.full(num_rows, -1)
    row_of = np.full(num_cols, -1)
    for root in range(num_rows):
        dist = np.full(num_cols, np.inf)  # shortest path length found to each column
        via = np.empty(num_cols, dtype=np.intp)  # the row before each column on that path
        todo = np.ones(num_cols, dtype=bool)  # columns not yet settled
        reached: list[int] = []  # matched rows, entered from their settled columns
        i, low = root, 0.0
        while True:
            reach = cost[i] + (low - u[i]) - v
            better = todo & (reach < dist)
            dist[better] = reach[better]
            via[better] = i
            low = dist[todo].min()
            ties = np.flatnonzero(todo & (dist == low))
            free = ties[row_of[ties] < 0]
            j = free[0] if len(free) else ties[0]
            todo[j] = False
            if row_of[j] < 0:
                break
            i = row_of[j]
            reached.append(i)
        u[root] += low
        u[reached] += low - dist[col_of[reached]]
        v[~todo] -= low - dist[~todo]
        while True:  # flip the path: each column on it goes to the row before it
            i = via[j]
            row_of[j] = i
            col_of[i], j = j, col_of[i]
            if i == root:
                break
    return col_of


def _augment(root: int, edges: list[list[int]], owner: list[int]) -> bool:
    """Grow the matching by one augmenting path from unmatched detection `root` (Kuhn 1955).

    `edges[d]` lists the GT indices congruent with detection d; `owner[g]`
    is the detection matched to GT g, or -1.  Returns whether a path was
    found (and flipped).  Iterative depth-first search, so long paths do not
    hit the recursion limit.
    """
    seen: set[int] = set()
    path = [(root, iter(edges[root]))]  # detections along the current path, each with its untried edges
    taken: list[int] = []  # taken[k]: the GT that path[k] would take
    while path:
        for g in path[-1][1]:
            if g in seen:
                continue
            seen.add(g)
            taken.append(g)
            if owner[g] < 0:
                for (det, _), gt in zip(path, taken):
                    owner[gt] = det
                return True
            path.append((owner[g], iter(edges[owner[g]])))
            break
        else:
            path.pop()
            if taken:
                taken.pop()
    return False


def det_curve(
    dets: Sequence[ScoredDetection],
    gts: Sequence[GroundTruthAction],
    video_minutes: float,
    params: MatchParams = MatchParams(),
    classes: Sequence[str] | None = None,
    class_label: str = "aggregate",
) -> DetCurve:
    """Sweep the confidence threshold and record one operating point each.

    At a threshold, detections at or above it are matched; p_miss is the
    unmatched GT fraction and rate_fa the unmatched detections per minute.
    Duplicate rates keep their lowest p_miss (lower envelope).

    Only the size of a maximum matching reaches the curve, and that size
    does not depend on how IoU ties are broken.  So one sweep adds the
    detections in descending confidence and grows a maximum matching by one
    augmenting-path search per detection, recording a point after the last
    detection of each distinct confidence.  The matching can never outgrow
    the `hungarian_match` assignment over all detections; once it reaches
    that size, every later detection is a false alarm and is not searched.
    """
    if classes is None:
        classes = DEFAULT_ACTION_CLASSES
    if video_minutes <= 0:
        raise ValidationError("video_minutes must be positive")
    if not gts:
        raise ValidationError("det_curve needs at least one ground-truth instance")
    if not dets:
        return DetCurve(class_label, ((0.0, 1.0),))
    congruent, _ = _congruence(dets, gts, params, classes)
    edges: list[list[int]] = [[] for _ in dets]
    rows, cols = np.nonzero(congruent)
    for i, j in zip(rows.tolist(), cols.tolist()):
        edges[i].append(j)
    owner = [-1] * len(gts)
    final = len(hungarian_match(dets, gts, params, classes))
    order = sorted(range(len(dets)), key=lambda i: dets[i].confidence, reverse=True)
    points: dict[float, float] = {}
    surviving = matched = 0
    for _, group in itertools.groupby(order, key=lambda i: dets[i].confidence):
        for i in group:
            surviving += 1
            if matched < final:
                matched += _augment(i, edges, owner)
        p_miss = (len(gts) - matched) / len(gts)
        rate_fa = (surviving - matched) / video_minutes
        points[rate_fa] = min(points.get(rate_fa, 1.0), p_miss)
    return DetCurve(class_label, tuple(sorted(points.items())))


def pmiss_at(curve: DetCurve, rate: float) -> float:
    """Miss probability at a requested rate: conservative stepwise lookup.

    Uses the point with the largest operating rate not exceeding the request
    and 1.0 when the curve never operates that low.
    """
    if rate < 0:
        raise ValidationError("rate must be >= 0")
    if math.isnan(rate):  # no point operates at or below NaN; bisection would land past every point
        return 1.0
    below = bisect.bisect_right(curve.points, rate, key=operator.itemgetter(0))
    return curve.points[below - 1][1] if below else 1.0


def mean_pmiss_at(curve: DetCurve, rates: Sequence[float] = DEFAULT_RATE_GRID) -> list[float]:
    return [pmiss_at(curve, r) for r in rates]


def per_class_det_curves(
    dets: Sequence[ScoredDetection],
    gts: Sequence[GroundTruthAction],
    video_minutes: float,
    params: MatchParams = MatchParams(),
    classes: Sequence[str] | None = None,
) -> dict[str, DetCurve]:
    """One curve per action class that has ground truth.

    Classes without any GT instance are skipped with a warning; classes
    without detections still get a curve (pinned at p_miss 1).
    """
    if classes is None:
        classes = DEFAULT_ACTION_CLASSES
    gt_labels = {gt.action_class for gt in gts}
    det_labels = {classes[d.action_class - 1] for d in dets}
    for label in sorted(det_labels - gt_labels):
        log.warning("class %r has detections but no ground truth; omitted from the aggregate", label)
    curves: dict[str, DetCurve] = {}
    for label in [c for c in classes if c in gt_labels]:
        idx = class_index(label, classes)
        curves[label] = det_curve(
            [d for d in dets if d.action_class == idx],
            [g for g in gts if g.action_class == label],
            video_minutes,
            params,
            classes,
            class_label=label,
        )
    return curves


def aggregate_det_curve(curves: Iterable[DetCurve]) -> DetCurve:
    """Unweighted mean of per-class miss probabilities on the union rate grid."""
    curves = list(curves)
    if not curves:
        raise ValidationError("aggregate needs at least one per-class curve")
    grid = sorted({rate for c in curves for rate, _ in c.points})
    if not grid:
        grid = [0.0]
    points = tuple((rate, sum(pmiss_at(c, rate) for c in curves) / len(curves)) for rate in grid)
    return DetCurve("aggregate", points)


def recall_curve(
    proposals: Sequence[Proposal],
    gts: Sequence[GroundTruthAction],
    thresholds: Sequence[float],
    iou_mode: str = "volume",
) -> list[float]:
    """Class-agnostic proposal recall at each IoU threshold.

    A GT counts as covered at threshold t when some proposal of the same
    video reaches IoU >= t; "volume" uses 3-D IoU, "product" multiplies the
    spatial and temporal IoUs.
    """
    if not gts:
        raise ValidationError("recall_curve needs at least one ground-truth instance")
    if iou_mode not in IOU_MODES:
        raise ValidationError(f"iou_mode must be one of {IOU_MODES}, got {iou_mode!r}")
    by_video: dict[str, list[Proposal]] = {}
    for prop in proposals:
        by_video.setdefault(prop.video_id, []).append(prop)
    gts_by_video: dict[str, list[int]] = {}
    for i, gt in enumerate(gts):
        gts_by_video.setdefault(gt.video_id, []).append(i)
    best = [0.0] * len(gts)
    for vid, rows in gts_by_video.items():
        candidates = cuboid_array(p.cuboid for p in by_video.get(vid, []))
        targets = cuboid_array(gts[i].cuboid for i in rows)
        if iou_mode == "volume":
            ious = pairwise_iou_3d(targets, candidates)
        else:
            spatial, temporal = pairwise_iou(targets, candidates)
            ious = spatial * temporal
        for i, b in zip(rows, ious.max(axis=1, initial=0.0).tolist()):
            best[i] = b
    return [sum(b >= t for b in best) / len(best) for t in thresholds]
