"""Training designations and temporal regression targets for proposals.

A proposal is positive when it overlaps a ground-truth action well enough
in both space and time, negative when it barely overlaps anything in time
(hard if it still sits on an action spatially), and discarded when it falls
in the ambiguous band between those regimes.

`designate_all` compares each proposal only with the GTs of its video whose
frame spans it shares (`geometry.span_pairs`), so a long video costs the
overlapping pairs, not proposals x GTs.  Every other pair has temporal IoU
0.0, which only the negative rule can see: such a pair passes it exactly
when `temporal_negative` > 0.  The best match of each proposal comes from
one `np.lexsort` over its gated pairs, and the records are built with
`tuple.__new__`, because the rule gives each a valid designation and a
target exactly when it is positive.  `designate` goes through the same code
for one proposal.
"""

from __future__ import annotations

import itertools
import operator
from collections import namedtuple
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .geometry import Cuboid, box_iou, cuboid_array, span_pairs
from .ingest import (
    GroundTruthAction,
    ValidationError,
    _get_number,
    _get_str,
    check_fractions,
    line_encoder,
    write_lines,
)
from .proposals import PROVENANCE_CLUSTERING, Proposal

POSITIVE = "positive"
EASY_NEGATIVE = "easy_negative"
HARD_NEGATIVE = "hard_negative"
DISCARDED = "discarded"
DESIGNATIONS = (POSITIVE, EASY_NEGATIVE, HARD_NEGATIVE, DISCARDED)


@dataclass(frozen=True)
class LabelingThresholds:
    spatial_positive: float = 0.35  # spatial IoU gate for positives and hard negatives
    temporal_positive: float = 0.5
    temporal_negative: float = 0.2  # below this (vs every GT) a proposal is negative
    hard_temporal_low: float = 0.01  # hard band is (low, temporal_negative), open ends

    def __post_init__(self):
        check_fractions(self, "spatial_positive", "temporal_positive", "temporal_negative", "hard_temporal_low")


class LabeledProposal(namedtuple("LabeledProposal", "proposal designation action_class matched_gt regression_target")):
    """A proposal with its designation, plus class, match and target for positives.

    A validated tuple: construction rejects an unknown designation, and a
    regression target on anything but a positive (or none on a positive).
    Being a tuple, it also equals a plain tuple of the same values, iterates
    over them, and `json` would encode it as a list; nothing in the package,
    its tests or its benchmark relies on that.
    """

    __slots__ = ()

    def __new__(cls, proposal, designation, action_class=None, matched_gt=None, regression_target=None):
        if designation not in DESIGNATIONS:
            raise ValidationError(f"unknown designation {designation!r}")
        if (designation == POSITIVE) != (regression_target is not None):
            raise ValidationError("regression_target must be present exactly for positives")
        return tuple.__new__(cls, (proposal, designation, action_class, matched_gt, regression_target))

    @classmethod
    def _make(cls, iterable):  # `_replace` builds through here; keep it validated
        return cls(*iterable)


def regression_target(p: Cuboid, gt: Cuboid) -> tuple[float, float]:
    """Ground-truth frame bounds normalized by the proposal's mid-frame and half-length."""
    mid, half = p.mid_frame, p.num_frames / 2.0
    return (gt.f_start - mid) / half, (gt.f_end - mid) / half


def designate(
    p: Proposal,
    gts: Sequence[GroundTruthAction],
    thresholds: LabelingThresholds = LabelingThresholds(),
) -> LabeledProposal:
    """Assign one designation against the given ground truth of the same video.

    Best match = highest temporal IoU among GTs passing the spatial gate,
    ties broken by higher spatial IoU then lower GT index.  Positive needs
    that match to clear the temporal gate too; a proposal whose temporal IoU
    stays below the negative ceiling against every GT is a negative (hard if
    it passes the spatial gate inside the hard band); everything else is
    discarded and excluded from training.
    """
    return designate_all([p], {p.video_id: list(gts)}, thresholds)[0]


def designate_all(
    proposals: Iterable[Proposal],
    gts_by_video: dict[str, list[GroundTruthAction]],
    thresholds: LabelingThresholds = LabelingThresholds(),
) -> list[LabeledProposal]:
    """`designate` for every proposal, one video at a time; input order kept.

    The records are built with `tuple.__new__`: each designation is a known
    one, and only a positive gets a target.
    """
    proposals = list(proposals)
    boxes = cuboid_array(map(operator.attrgetter("cuboid"), proposals))
    video_ids = list(map(operator.attrgetter("video_id"), proposals))
    videos = {vid: k for k, vid in enumerate(dict.fromkeys(video_ids))}
    codes = np.fromiter(map(videos.__getitem__, video_ids), dtype=np.intp, count=len(video_ids))
    by_video = np.split(np.argsort(codes, kind="stable"), np.cumsum(np.bincount(codes))[:-1])
    designations = np.empty(len(proposals), dtype=np.intp)
    matches = []  # (proposal index, matched GT) of each positive
    for vid, rows in zip(videos, by_video):
        gts = gts_by_video.get(vid, [])
        designations[rows], matched, cols = _designate_rows(boxes[rows], gts, thresholds)
        matches.extend(zip(rows[matched].tolist(), map(gts.__getitem__, cols.tolist())))
    new, none = tuple.__new__, itertools.repeat(None)
    out = list(map(new, itertools.repeat(LabeledProposal),
                   zip(proposals, map(DESIGNATIONS.__getitem__, designations.tolist()), none, none, none)))
    for i, gt in matches:
        p = proposals[i]
        out[i] = new(LabeledProposal, (p, POSITIVE, gt.action_class, gt, regression_target(p.cuboid, gt.cuboid)))
    return out


def _designate_rows(
    boxes: np.ndarray,
    gts: Sequence[GroundTruthAction],
    thresholds: LabelingThresholds,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(DESIGNATIONS index of each box row, positive rows, their matched GT indices).

    The rule reads only the pairs that share a frame (`span_pairs`).  An
    unlisted pair has temporal IoU 0.0: it can be neither a positive's match
    (that needs temporal IoU above temporal_positive >= 0) nor hard (the band
    is open above hard_temporal_low >= 0), and it passes the negative rule
    `temporal < temporal_negative` exactly when temporal_negative > 0.
    """
    gt_boxes = cuboid_array(g.cuboid for g in gts)
    rows, cols = span_pairs(boxes, gt_boxes)
    spatial, temporal = box_iou(boxes[rows], gt_boxes[cols])
    gated = spatial > thresholds.spatial_positive
    # A positive's match is its best gated pair: highest temporal IoU, then
    # highest spatial IoU, then lowest GT index; it must clear temporal_positive.
    matches = np.flatnonzero(gated & (temporal > thresholds.temporal_positive))
    matches = matches[np.lexsort((cols[matches], -spatial[matches], -temporal[matches], rows[matches]))]
    first = np.ones(len(matches), dtype=bool)
    first[1:] = rows[matches[1:]] != rows[matches[:-1]]
    matches = matches[first]
    # Without ground truth a proposal has no pair, so it is negative whatever temporal_negative is.
    unlisted_pass = thresholds.temporal_negative > 0.0 or not gts
    blocked = np.bincount(rows[temporal >= thresholds.temporal_negative], minlength=len(boxes)) > 0
    in_band = gated & (temporal > thresholds.hard_temporal_low) & (temporal < thresholds.temporal_negative)
    hard = np.bincount(rows[in_band], minlength=len(boxes)) > 0
    designations = np.where(unlisted_pass & ~blocked, np.where(hard, 2, 1), 3)  # easy, hard or discarded
    designations[rows[matches]] = 0  # positive
    return designations, rows[matches], cols[matches]


def select_training_set(labeled: Iterable[LabeledProposal]) -> list[LabeledProposal]:
    """Positives and hard negatives regardless of provenance; easy negatives
    only when they came from clustering; discarded never."""
    out = []
    for lp in labeled:
        if lp.designation in (POSITIVE, HARD_NEGATIVE):
            out.append(lp)
        elif lp.designation == EASY_NEGATIVE and lp.proposal.provenance == PROVENANCE_CLUSTERING:
            out.append(lp)
    return out


def balance_classes(training: Sequence[LabeledProposal]) -> list[LabeledProposal]:
    """Duplicate positives so every action class reaches the max class count.

    Duplicates cycle through each class's instances in order and are
    appended after the input; negatives pass through untouched.
    """
    by_class: dict[str, list[LabeledProposal]] = {}
    for lp in training:
        if lp.designation == POSITIVE:
            by_class.setdefault(lp.action_class, []).append(lp)
    if not by_class:
        return list(training)
    target = max(len(v) for v in by_class.values())
    out = list(training)
    for label in sorted(by_class):
        instances = by_class[label]
        out.extend(instances[i % len(instances)] for i in range(target - len(instances)))
    return out


def designation_counts(labeled: Iterable[LabeledProposal]) -> dict[str, int]:
    counts = {d: 0 for d in DESIGNATIONS}
    for lp in labeled:
        counts[lp.designation] += 1
    return counts


# A training manifest record's fields; the last three are null but for positives.
LABEL_FIELDS = {
    "proposal_id": _get_str, "designation": _get_str,
    "action_class": _get_str, "target_start": _get_number, "target_end": _get_number,
}
_label_line = line_encoder(LABEL_FIELDS, nullable=("action_class", "target_start", "target_end"))


def write_training_manifest(path, training: Iterable[LabeledProposal]) -> None:
    """Training manifest consumed by external classifier trainers."""

    def line(lp: LabeledProposal) -> str:
        target_start, target_end = lp.regression_target or (None, None)
        return _label_line(lp.proposal.proposal_id, lp.designation, lp.action_class, target_start, target_end)

    write_lines(path, map(line, training))
