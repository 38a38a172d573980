"""Training designations and temporal regression targets for proposals.

A proposal is positive when it overlaps a ground-truth action well enough
in both space and time, negative when it barely overlaps anything in time
(hard if it still sits on an action spatially), and discarded when it falls
in the ambiguous band between those regimes.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .geometry import Cuboid, cuboid_array, pairwise_iou
from .ingest import GroundTruthAction, ValidationError, write_records
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
        for name in ("spatial_positive", "temporal_positive", "temporal_negative", "hard_temporal_low"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name} must be in [0, 1], got {v}")


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
    return _designate_rows([p], gts, thresholds)[0]


def designate_all(
    proposals: Iterable[Proposal],
    gts_by_video: dict[str, list[GroundTruthAction]],
    thresholds: LabelingThresholds = LabelingThresholds(),
) -> list[LabeledProposal]:
    """`designate` for every proposal, one proposals x GT overlap matrix per video; input order kept."""
    proposals = list(proposals)
    rows_by_video: dict[str, list[int]] = {}
    for i, p in enumerate(proposals):
        rows_by_video.setdefault(p.video_id, []).append(i)
    out: list[LabeledProposal] = [None] * len(proposals)
    for vid, rows in rows_by_video.items():
        labeled = _designate_rows([proposals[i] for i in rows], gts_by_video.get(vid, []), thresholds)
        for i, lp in zip(rows, labeled):
            out[i] = lp
    return out


def _designate_rows(
    props: Sequence[Proposal],
    gts: Sequence[GroundTruthAction],
    thresholds: LabelingThresholds,
) -> list[LabeledProposal]:
    """The designation rule of `designate`, applied to each row of the proposals x GT overlaps."""
    spatial, temporal = pairwise_iou(cuboid_array(p.cuboid for p in props), cuboid_array(g.cuboid for g in gts))
    gated = spatial > thresholds.spatial_positive
    # best gated match: highest temporal IoU, then highest spatial IoU, then lowest GT index
    best_t = np.where(gated, temporal, -1.0).max(axis=1, initial=-1.0)
    ties = gated & (temporal == best_t[:, None])
    best_s = np.where(ties, spatial, -1.0).max(axis=1, initial=-1.0)
    best = np.argmax(ties & (spatial == best_s[:, None]), axis=1) if gts else np.zeros(len(props), dtype=int)
    positive = best_t > thresholds.temporal_positive
    negative = (temporal < thresholds.temporal_negative).all(axis=1)
    hard = (gated & (temporal > thresholds.hard_temporal_low) & (temporal < thresholds.temporal_negative)).any(axis=1)
    out = []
    for p, is_pos, j, is_neg, is_hard in zip(props, positive.tolist(), best.tolist(), negative.tolist(), hard.tolist()):
        if is_pos:
            gt = gts[j]
            out.append(LabeledProposal(
                proposal=p,
                designation=POSITIVE,
                action_class=gt.action_class,
                matched_gt=gt,
                regression_target=regression_target(p.cuboid, gt.cuboid),
            ))
        elif is_neg:
            out.append(LabeledProposal(p, HARD_NEGATIVE if is_hard else EASY_NEGATIVE))
        else:
            out.append(LabeledProposal(p, DISCARDED))
    return out


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


def write_training_manifest(path, training: Iterable[LabeledProposal]) -> None:
    """Training manifest consumed by external classifier trainers."""

    def record(lp: LabeledProposal) -> dict:
        target_start, target_end = lp.regression_target or (None, None)
        return {
            "proposal_id": lp.proposal.proposal_id,
            "designation": lp.designation,
            "action_class": lp.action_class,
            "target_start": target_start,
            "target_end": target_end,
        }

    write_records(path, map(record, training))
