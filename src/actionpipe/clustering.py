"""Spatio-temporal clustering of per-frame detections into cuboid proposals.

A video's detections are the rows `frame, x_min, y_min, x_max, y_max` that
`ingest.load_detections` returns.  Each becomes a 3-D feature (center x,
center y, scaled frame).  A Ward linkage tree over those features is cut
into k clusters, k growing with video length, and every sufficiently large
cluster is bounded into one proposal cuboid.

Ward linkage keeps only cluster centroids and sizes, so its memory is O(n)
in the detections of a video.  Ward is reducible (Murtagh 1983): merging
two clusters never brings a third one closer than the nearer of the two
was.  So every pair of reciprocal nearest neighbours can merge at once, and
the build runs in rounds, each merging all such pairs.  Only the new
clusters, and the clusters whose nearest neighbour just merged, need a new
nearest neighbour in the next round.  One k-d tree over the active centroids
answers those queries; a round with only a few scores them against every
active cluster instead (Mullner, arXiv:1109.2378, surveys this family).  The
tree is built by sliding-midpoint splits (SciPy's `balanced_tree=False`;
Maneewongvatana and Mount 1999), which measured faster than SciPy's default
median splits on these rounds.  A round whose queries are all
single points, such as a video's first, asks it for `WARD_K_POINT` = 4
Euclidean-nearest first, and any other round for `WARD_K` = 8; a row asks
four times more while its answer is not provably exact.  The bound that
proves it holds for any exact k-nearest set, so neither the tree's shape
nor k changes an answer or its tie rule.
For points in general position the tree equals SciPy's Ward tree.  With
exact distance ties no Ward tree is unique, and the output is one valid Ward
tree: when a cluster's nearest neighbour is computed, it is the one at the
least Ward distance, and among equals the one whose slot has the least
hashed priority (`_priority`).  An answer is kept while its neighbour stays
unmerged, even when a cluster merged later ties it, so the rule does not
pin down which of the valid trees comes out.  Exact duplicate features are
merged first, at height 0.  Inputs on which a round finds only a few
reciprocal pairs, such as a noise-free track whose speed changes steadily,
take about n/2 rounds of O(n) work each: quadratic time, still O(n) memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.spatial import cKDTree

from .geometry import Cuboid
from .ingest import ValidationError, VideoMeta, check_numbers
from .proposals import PROVENANCE_CLUSTERING, Proposal

LINKAGE_METHODS = ("ward",)  # the field stays so that every saved config loads
WARD_K = 8  # neighbours a k-d tree query asks for first; 4x more while the answer is not yet exact
WARD_K_POINT = 4  # the same when every row is a single point, whose bound is its exact Ward factor to any point
WARD_BLOCK = 1 << 18  # candidate pairs scored at once, so the work arrays stay bounded
WARD_ALL_PAIRS = 1 << 14  # below this many (query, active cluster) pairs, score them all: cheaper than a tree
WARD_BOUND_SLACK = 1e-9  # relative margin for rounding between the tree's distances and ours


@dataclass(frozen=True)
class ClusterParams:
    linkage: str = "ward"
    temporal_scale: float = 1.0  # multiplier on the frame axis before distances
    clusters_per_frame: float = 0.028  # ~250 clusters for a 5-minute 30-fps video
    min_cluster_size: int = 1

    def __post_init__(self):
        if self.linkage not in LINKAGE_METHODS:
            raise ValidationError(f"linkage must be one of {LINKAGE_METHODS}, got {self.linkage!r}")
        check_numbers(self, "temporal_scale", "clusters_per_frame")
        if not 0 < self.temporal_scale < math.inf:
            raise ValidationError(f"temporal_scale must be positive and finite, got {self.temporal_scale}")
        if not 0 < self.clusters_per_frame < math.inf:
            raise ValidationError(f"clusters_per_frame must be positive and finite, got {self.clusters_per_frame}")
        if isinstance(self.min_cluster_size, bool) or not isinstance(self.min_cluster_size, int):
            raise ValidationError(f"min_cluster_size must be an integer, got {self.min_cluster_size!r}")
        if self.min_cluster_size < 1:
            raise ValidationError("min_cluster_size must be >= 1")


def detection_features(detections: np.ndarray) -> np.ndarray:
    """(n, 3) float64 rows of box center x, box center y and frame index."""
    d = np.asarray(detections, dtype=np.float64)
    return np.column_stack([(d[:, 1] + d[:, 3]) / 2.0, (d[:, 2] + d[:, 4]) / 2.0, d[:, 0]])


def build_linkage(points: np.ndarray, params: ClusterParams) -> np.ndarray:
    """Ward merge matrix over (x, y, scale*f) with Euclidean distance.

    `points` are `detection_features` rows.  The result has SciPy's linkage
    layout: row i merges clusters `[i, 0]` and `[i, 1]` (leaves are 0..n-1,
    the cluster made by row i is n+i) at height `[i, 2]` into `[i, 3]`
    points, rows in non-decreasing height.
    """
    if len(points) == 0:
        raise ValidationError("cannot cluster an empty point set")
    if len(points) == 1:
        return np.empty((0, 4))
    feats = np.array(points, dtype=np.float64)
    feats[:, 2] *= params.temporal_scale
    # A squared Ward distance is at most n/2 * (sum of squared axis spans), a
    # weighted centroid sum at most n * max|x|, and an axis span at most twice
    # its largest |x|: where this bound is finite, neither overflows.
    with np.errstate(over="ignore", invalid="ignore"):
        bound = 2.0 * len(feats) * np.sum(np.abs(feats).max(axis=0) ** 2)
    if not np.isfinite(bound):
        raise ValidationError("detection features too large for Ward linkage: its distances would overflow a float")
    return _ward(feats)


def _priority(slots: np.ndarray) -> np.ndarray:
    """Tie-break rank of each slot: a multiplicative hash, one-to-one on 32 bits.

    A hash rather than the slot index, so that equally spaced points (a
    static track) pair up all along the track in one round instead of one
    pair per round from its end.
    """
    return (slots.astype(np.uint64) * np.uint64(2654435761)) & np.uint64(0xFFFFFFFF)


def _ward_nearest(rows, cand, centroids, sizes, prio):
    """Each row's nearest candidate slot and its squared Ward distance.

    `cand[r]` are candidate slots for `rows[r]`; a row never picks itself.
    The squared Ward distance of clusters i, j is
    `2 s_i s_j / (s_i + s_j) * |c_i - c_j|^2` (for two points, the squared
    Euclidean distance); every factor is symmetric in i and j bit for bit,
    so two clusters agree on the distance between them.
    """
    diff = centroids[cand] - centroids[rows][:, None, :]
    sq = diff[..., 0] ** 2 + diff[..., 1] ** 2 + diff[..., 2] ** 2
    si = sizes[rows][:, None]
    sj = sizes[cand]
    d2 = 2.0 * si * sj / (si + sj) * sq
    d2[cand == rows[:, None]] = np.inf
    best = d2.min(axis=1)
    rank = np.where(d2 == best[:, None], prio[cand], np.iinfo(np.uint64).max)
    col = rank.argmin(axis=1)
    return cand[np.arange(len(rows)), col], best


def _ward_neighbours(rows, active, centroids, sizes, prio):
    """Exact nearest active cluster (slot, squared Ward distance) of each row slot."""
    m = len(active)
    if len(rows) * m <= WARD_ALL_PAIRS:
        return _ward_nearest(rows, np.broadcast_to(active, (len(rows), m)), centroids, sizes, prio)
    nn = np.empty(len(rows), dtype=np.int64)
    d2 = np.empty(len(rows))
    tree = cKDTree(centroids[active], balanced_tree=False)
    # No cluster outside a row's k Euclidean-nearest is closer in Ward distance
    # than 2s/(s+1) * (k-th distance)^2, s the row's size (the factor at a
    # singleton): an answer below that bound is exact.
    floor = 2.0 * sizes[rows] / (sizes[rows] + 1.0) * (1.0 - WARD_BOUND_SLACK)
    todo = np.arange(len(rows))
    k = WARD_K_POINT if (sizes[rows] == 1).all() else WARD_K
    while True:
        k = min(k, m)  # at k = m every active cluster is a candidate: exact
        step = max(1, WARD_BLOCK // k)
        retry = []
        for lo in range(0, len(todo), step):
            part = todo[lo:lo + step]
            dist, pos = tree.query(centroids[rows[part]], k=k)
            nn[part], d2[part] = _ward_nearest(rows[part], active[pos], centroids, sizes, prio)
            retry.append(part[d2[part] >= floor[part] * dist[:, -1] ** 2])
        todo = np.concatenate(retry)
        if k == m or not len(todo):
            return nn, d2
        k *= 4


def _ward(feats: np.ndarray) -> np.ndarray:
    """Exact Ward linkage in O(n) memory by reciprocal-nearest-neighbour rounds.

    Slot i starts as point i.  A merge of the clusters in slots a and b
    leaves the merged cluster in slot max(a, b), and a run of duplicate
    points is held by its largest index, so each active cluster sits in the
    slot of its largest point index.  Merges are recorded as child node ids
    (leaves 0..n-1, merge j is node n+j in the order made), then sorted
    stably by height and renumbered into SciPy's layout.
    """
    n = len(feats)
    prio = _priority(np.arange(n))
    slot_node = np.arange(n)  # node id of the cluster in each slot
    slot_height = np.zeros(n)  # height of the merge that made the cluster in each slot
    sizes = np.zeros(n)
    centroids = feats.copy()

    # Exact duplicate rows chain into one cluster by zero-height merges: in
    # sorted order, a row equal to the one before it joins that row's cluster.
    order = np.lexsort(feats.T[::-1])  # stable, so equal rows keep ascending point order
    sorted_feats = feats[order]
    dup = np.zeros(n, dtype=bool)
    dup[1:] = (sorted_feats[1:] == sorted_feats[:-1]).all(axis=1)
    at = np.flatnonzero(dup)
    made = n + np.arange(len(at))
    run_start = np.maximum.accumulate(np.where(dup, 0, np.arange(n)))
    left = [np.where(dup[at - 1], made - 1, order[at - 1])]
    right = [order[at]]
    heights = [np.zeros(len(at))]
    counts = [(at - run_start[at] + 1).astype(np.float64)]
    slot_node[order[at]] = made
    last = np.flatnonzero(np.append(~dup[1:], True))  # the last row of a run holds its cluster
    active = np.sort(order[last])
    sizes[order[last]] = last - run_start[last] + 1

    nn = np.empty(n, dtype=np.int64)
    nd2 = np.empty(n)
    made_so_far = n + len(at)
    need = active
    while len(active) > 1:
        nn[need], nd2[need] = _ward_neighbours(need, active, centroids, sizes, prio)
        a = active[nn[nn[active]] == active]
        a = a[a < nn[a]]
        if not len(a):
            # Reducibility keeps every kept answer nearest, ties included, in
            # exact arithmetic; only rounding in a new centroid could make one
            # stale.  With every answer fresh the tie rule admits no cycle of
            # nearest neighbours, so some pair is reciprocal.
            if len(need) == len(active):
                raise RuntimeError("Ward rounds found no reciprocal nearest neighbours")
            need = active
            continue
        b = nn[a]
        sa, sb = sizes[a], sizes[b]
        h = np.maximum(np.sqrt(nd2[a]), np.maximum(slot_height[a], slot_height[b]))
        made = made_so_far + np.arange(len(a))
        made_so_far += len(a)
        left.append(slot_node[a])
        right.append(slot_node[b])
        heights.append(h)
        counts.append(sa + sb)
        centroids[b] = (sa[:, None] * centroids[a] + sb[:, None] * centroids[b]) / (sa + sb)[:, None]
        sizes[b] += sa
        slot_node[b] = made
        slot_height[b] = h
        merged = np.zeros(n, dtype=bool)
        merged[a] = True
        active = active[~merged[active]]
        merged[b] = True
        need = active[merged[nn[active]]]

    left, right = np.concatenate(left), np.concatenate(right)
    heights = np.concatenate(heights)
    rank = np.empty(n - 1, dtype=np.int64)
    order = np.argsort(heights, kind="stable")
    rank[order] = np.arange(n - 1)
    renumber = np.concatenate([np.arange(n), n + rank])
    lo, hi = renumber[left[order]], renumber[right[order]]
    return np.column_stack([np.minimum(lo, hi), np.maximum(lo, hi), heights[order], np.concatenate(counts)[order]])


def cut_tree(merges: np.ndarray, k: int) -> list[list[int]]:
    """Partition the leaves of a `build_linkage` merge matrix into min(k, n) clusters.

    The clusters are those left after the first n - k merges, so the cut at
    k+1 always refines the cut at k.  Each merge becomes the parent of its
    two children, and every leaf finds its root by pointer jumping, which
    halves the remaining depth per step.  Clusters come back sorted by their
    smallest member index, members ascending.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    n = len(merges) + 1
    cuts = n - min(k, n)
    root = np.arange(n + cuts)
    children = np.asarray(merges)[:cuts, :2].astype(np.int64)
    root[children[:, 0]] = root[children[:, 1]] = np.arange(n, n + cuts)
    while True:
        jumped = root[root]
        if np.array_equal(jumped, root):
            break
        root = jumped
    leaves = np.argsort(root[:n], kind="stable")  # grouped by root, ascending within a group
    groups = np.split(leaves, np.flatnonzero(np.diff(root[leaves])) + 1)
    groups.sort(key=lambda g: g[0])
    return [g.tolist() for g in groups]


def num_clusters(num_frames: int, params: ClusterParams) -> int:
    """Cluster count proportional to video length, at least 1."""
    return max(1, math.ceil(params.clusters_per_frame * num_frames))


def clusters_to_proposals(
    partition: Sequence[Sequence[int]],
    detections: np.ndarray,
    video_meta: VideoMeta,
    params: ClusterParams,
) -> list[Proposal]:
    """One proposal per cluster of size >= min_cluster_size.

    The cuboid is the envelope of the member detection boxes over the member
    frames; smaller clusters are dropped.  Each bound is the first least (or
    greatest) member value in cluster order, the one Python's `min` and
    `max` pick; that matters only between `-0.0` and `0.0`.
    """
    rows = np.asarray(detections, dtype=np.float64)
    out: list[Proposal] = []
    for cluster in partition:
        if len(cluster) < params.min_cluster_size:
            continue
        members = rows[cluster]
        lo = members[members.argmin(axis=0), range(5)].tolist()
        hi = members[members.argmax(axis=0), range(5)].tolist()
        out.append(Proposal(
            proposal_id=f"{video_meta.video_id}_c{len(out):04d}",
            video_id=video_meta.video_id,
            cuboid=Cuboid(lo[1], lo[2], hi[3], hi[4], int(lo[0]), int(hi[0])),
            provenance=PROVENANCE_CLUSTERING,
        ))
    return out


def propose_video(detections: np.ndarray, video_meta: VideoMeta, params: ClusterParams) -> list[Proposal]:
    """Cluster one video's detection rows and bound each cluster into a proposal."""
    if not len(detections):
        return []
    points = detection_features(detections)
    merges = build_linkage(points, params)
    partition = cut_tree(merges, num_clusters(video_meta.num_frames, params))
    return clusters_to_proposals(partition, detections, video_meta, params)
