"""Evaluation: one-to-one matching, miss-rate/false-alarm curves, recall curves.

Detections are paired with ground truth one-to-one, maximizing match count
first and total temporal IoU second (`hungarian_match` returns the pairs).
No pair crosses a (video, class) block, so it solves one small assignment
per block over the detections and GTs that have a congruent pair, with
cost 1 - temporal IoU, by shortest augmenting paths with row and column
potentials (Jonker & Volgenant 1987; Crouse 2016), in NumPy, so scoring
needs no SciPy.  Sweeping the detection confidence threshold traces an
operating curve of miss probability against false alarms per minute;
per-class curves are macro-averaged into the aggregate.

A curve needs only the match count at each threshold, and every maximum
matching has the same count whatever the IoU tie-break.  The sweep
(`_gains`) therefore adds detections in descending confidence and grows
one maximum matching by augmenting paths (Kuhn 1955) instead of solving an
assignment per threshold, and stops at the size of the `hungarian_match`
assignment over the congruent detections only (those with a congruent GT,
the only ones that can match); only the path searches run in Python, and the
order, the threshold groups, the rates and the lower envelope are NumPy
arrays (`_curve`).  `per_class_det_curves` runs one sweep over every class
and reads each class's curve from its own detections.
`aggregate_det_curve` looks every class curve up on the union rate grid
with one `np.searchsorted` each.  Matching, the sweep and recall read their
overlaps from the shared `geometry.box_iou` kernel, only on the pairs that
share a frame (`geometry.span_pairs`); one join (`_congruent_pairs`) lists
the candidate pairs of every (video, class) block at once.
"""

from __future__ import annotations

import bisect
import logging
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .geometry import box_iou, box_iou_3d, cuboid_array, span_pairs
from .ingest import DEFAULT_ACTION_CLASSES, GroundTruthAction, ValidationError, check_fractions, class_index
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
        check_fractions(self, "temporal_iou", "spatial_iou")


@dataclass(frozen=True)
class DetCurve:
    """Operating points (rate_fa, p_miss), rate ascending, p_miss non-increasing."""

    class_label: str
    points: tuple[tuple[float, float], ...]


def _congruent_pairs(
    dets: Sequence[ScoredDetection],
    gts: Sequence[GroundTruthAction],
    params: MatchParams,
    classes: Sequence[str],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(detection rows, GT rows, temporal IoUs, block starts) of the congruent pairs.

    A pair is congruent when video and class agree, the temporal IoU reaches
    the gate and the spatial IoU reaches the optional spatial gate.  The
    pairs come grouped by (video, class) block, ascending by detection and
    GT row within it; `block starts` are the indices where a new block
    begins, as `np.split` takes them.  One `span_pairs` join lists every
    block's candidates: each frame becomes its rank among all frames, and
    each row's ranks move by its block id times (2 * rows + 1), so spans of
    two blocks never meet.  At a temporal gate of 0 every pair of a block
    is a candidate, so each row spans just its block id instead.
    """
    blocks: dict[tuple[str, int], int] = {}
    block = np.array([blocks.setdefault((d.video_id, d.action_class), len(blocks)) for d in dets]
                     + [blocks.setdefault((g.video_id, class_index(g.action_class, classes)), len(blocks))
                        for g in gts], dtype=np.int64)
    det_boxes, gt_boxes = cuboid_array(d.cuboid for d in dets), cuboid_array(g.cuboid for g in gts)
    keyed = np.concatenate([det_boxes, gt_boxes])
    if params.temporal_iou > 0:
        ranks = np.unique(keyed[:, 4:], return_inverse=True)[1].reshape(-1, 2)
        keyed[:, 4:] = ranks + (block * (2 * len(keyed) + 1))[:, None]
    else:
        keyed[:, 4:] = block[:, None]
    rows, cols = span_pairs(keyed[:len(dets)], keyed[len(dets):])
    order = np.lexsort((cols, rows, block[rows]))
    rows, cols = rows[order], cols[order]
    spatial, temporal = box_iou(det_boxes[rows], gt_boxes[cols])
    keep = (temporal >= params.temporal_iou) & (spatial >= params.spatial_iou)
    rows, cols, temporal = rows[keep], cols[keep], temporal[keep]
    pair_block = block[rows]
    return rows, cols, temporal, np.flatnonzero(pair_block[1:] != pair_block[:-1]) + 1


def hungarian_match(
    dets: Sequence[ScoredDetection],
    gts: Sequence[GroundTruthAction],
    params: MatchParams = MatchParams(),
    classes: Sequence[str] | None = None,
) -> list[tuple[int, int]]:
    """One-to-one assignment of detections to ground truth.

    Only congruent pairs (same video and class, temporal IoU at least the
    gate, optional spatial gate) may match; among feasible assignments the
    match count is maximized first and the summed temporal IoU second.
    Returns (detection index, gt index) pairs in ascending detection index.
    No pair crosses a (video, class) block, so both maxima are sums over
    blocks, and each block is solved alone.
    """
    if classes is None:
        classes = DEFAULT_ACTION_CLASSES
    if not dets or not gts:
        return []
    rows, cols, temporal, starts = _congruent_pairs(dets, gts, params, classes)
    pairs: list[tuple[int, int]] = []
    for block_rows, block_cols, block_iou in zip(*(np.split(a, starts) for a in (rows, cols, temporal))):
        det_rows, i = np.unique(block_rows, return_inverse=True)
        gt_cols, j = np.unique(block_cols, return_inverse=True)
        # A least-cost assignment minimizes summed (1 - tIoU).  A non-congruent pair
        # costs more than any sum of congruent costs, so the count of congruent
        # pairs comes first; those pairs are dropped from the result.
        congruent = np.zeros((len(det_rows), len(gt_cols)), dtype=bool)
        congruent[i, j] = True
        cost = np.full(congruent.shape, max(congruent.shape) + 1.0)
        cost[i, j] = 1.0 - block_iou
        if cost.shape[0] <= cost.shape[1]:
            gt_of = _min_cost_assignment(cost)
        else:
            gt_of = np.full(cost.shape[0], -1)
            gt_of[_min_cost_assignment(cost.T)] = np.arange(cost.shape[1])
        pairs += [(int(det_rows[a]), int(gt_cols[b])) for a, b in enumerate(gt_of.tolist())
                  if b >= 0 and congruent[a, b]]
    return sorted(pairs)


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


def _gains(
    dets: Sequence[ScoredDetection],
    gts: Sequence[GroundTruthAction],
    order: np.ndarray,
    params: MatchParams,
    classes: Sequence[str],
) -> np.ndarray:
    """gained[k]: 1 when the k-th detection of the sweep `order` grows the maximum matching, else 0.

    The sweep grows one maximum matching by one augmenting-path search per
    detection that has a congruent GT; one with none can never augment.  The
    matching can never outgrow a maximum one, whose size `hungarian_match`
    gives over the congruent detections only (no other detection can be
    matched); once it reaches that size, no later detection is searched.
    An augmenting path never leaves its (video, class) block, so a
    detection's gain depends only on the detections of its block swept
    before it.
    """
    rows, cols, _, _ = _congruent_pairs(dets, gts, params, classes)
    edges: list[list[int]] = [[] for _ in dets]
    for i, j in zip(rows.tolist(), cols.tolist()):
        edges[i].append(j)
    owner = [-1] * len(gts)
    congruent = np.unique(rows)
    final = len(hungarian_match([dets[i] for i in congruent.tolist()], gts, params, classes))
    gained = np.zeros(len(dets), dtype=np.intp)
    searched = np.flatnonzero(np.isin(order, congruent))  # sweep positions of the detections with an edge
    matched = 0
    for k, i in zip(searched.tolist(), order[searched].tolist()):
        if matched == final:
            break
        if _augment(i, edges, owner):
            gained[k] = 1
            matched += 1
    return gained


def _curve(swept: np.ndarray, gained: np.ndarray, num_gts: int, video_minutes: float, class_label: str) -> DetCurve:
    """The curve of detections with confidences `swept`, in sweep order, and their `_gains` marks.

    A point after the last detection of each distinct confidence, then the
    last point of each run of equal rates.  The false-alarm count never
    falls along the sweep, so equal rates are contiguous, and p_miss never
    rises, so a run's last point has its lowest p_miss.
    """
    if video_minutes <= 0:
        raise ValidationError("video_minutes must be positive")
    if not len(swept):
        return DetCurve(class_label, ((0.0, 1.0),))
    ends = np.flatnonzero(np.append(swept[1:] != swept[:-1], True))  # the last detection of each confidence
    matched_at = np.cumsum(gained)[ends]
    p_miss = (num_gts - matched_at) / num_gts
    with np.errstate(over="ignore"):  # a rate past the float range is inf, as in Python; `score` refuses to write it
        rate_fa = (ends + 1 - matched_at) / video_minutes
    envelope = np.append(rate_fa[1:] != rate_fa[:-1], True)
    return DetCurve(class_label, tuple(zip(rate_fa[envelope].tolist(), p_miss[envelope].tolist())))


def _sweep_order(dets: Sequence[ScoredDetection]) -> tuple[np.ndarray, np.ndarray]:
    """(order, swept confidences): descending confidence, stable, so equal confidences keep their input order."""
    confidence = np.fromiter((d.confidence for d in dets), dtype=np.float64, count=len(dets))
    order = np.argsort(-confidence, kind="stable")
    return order, confidence[order]


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
    does not depend on how IoU ties are broken.  So one sweep (`_gains`)
    adds the detections in descending confidence and marks each one that
    grows the matching; the curve (`_curve`) is arrays over those marks.
    """
    if classes is None:
        classes = DEFAULT_ACTION_CLASSES
    if not gts:
        raise ValidationError("det_curve needs at least one ground-truth instance")
    order, swept = _sweep_order(dets)
    return _curve(swept, _gains(dets, gts, order, params, classes), len(gts), video_minutes, class_label)


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
    without detections still get a curve (pinned at p_miss 1).  One sweep
    runs over all classes at once: no pair crosses a class, and a class's
    detections keep their per-class order within the stable sweep, so each
    class's marks are those of its own `det_curve` sweep.
    """
    if classes is None:
        classes = DEFAULT_ACTION_CLASSES
    gts_of: dict[str, list[GroundTruthAction]] = {}
    for g in gts:
        gts_of.setdefault(g.action_class, []).append(g)
    det_class = np.fromiter((d.action_class for d in dets), dtype=np.intp, count=len(dets))
    for label in sorted({classes[idx - 1] for idx in np.unique(det_class).tolist()} - set(gts_of)):
        log.warning("class %r has detections but no ground truth; omitted from the aggregate", label)
    labelled = [(idx, label) for idx, label in enumerate(classes, start=1) if label in gts_of]
    order, swept = _sweep_order(dets)
    gained = _gains(dets, [g for _, label in labelled for g in gts_of[label]], order, params, classes)
    swept_class = det_class[order]
    curves = {}
    for idx, label in labelled:
        of = swept_class == idx
        curves[label] = _curve(swept[of], gained[of], len(gts_of[label]), video_minutes, label)
    return curves


def aggregate_det_curve(curves: Iterable[DetCurve]) -> DetCurve:
    """Unweighted mean of per-class miss probabilities on the union rate grid.

    Each curve is looked up at every grid rate by one `np.searchsorted`, as
    `pmiss_at` would (1.0 below its first point), and the curves are summed
    one at a time in their order, so every mean equals `sum(...) / n` over
    the curves bit for bit.
    """
    curves = list(curves)
    if not curves:
        raise ValidationError("aggregate needs at least one per-class curve")
    grid = np.unique(np.array([rate for c in curves for rate, _ in c.points] or [0.0], dtype=np.float64))
    total = np.zeros(len(grid))
    for c in curves:
        rates = np.array([rate for rate, _ in c.points], dtype=np.float64)
        p_miss = np.array([1.0] + [p for _, p in c.points], dtype=np.float64)
        total += p_miss[np.searchsorted(rates, grid, side="right")]
    return DetCurve("aggregate", tuple(zip(grid.tolist(), (total / len(curves)).tolist())))


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
        gt_rows, cols = span_pairs(targets, candidates)  # an unlisted pair has IoU 0.0 in either mode
        if iou_mode == "volume":
            ious = box_iou_3d(targets[gt_rows], candidates[cols])
        else:
            spatial, temporal = box_iou(targets[gt_rows], candidates[cols])
            ious = spatial * temporal
        best_of_video = np.zeros(len(rows))
        np.maximum.at(best_of_video, gt_rows, ious)
        for i, b in zip(rows, best_of_video.tolist()):
            best[i] = b
    return [sum(b >= t for b in best) / len(best) for t in thresholds]
