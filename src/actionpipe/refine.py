"""Classifier-side math as checkable pure functions.

Covers the multi-class cross-entropy, the smooth-L1 temporal localization
loss and their weighted combination, and the application of predicted
temporal refinements back onto cuboids.  External trainers can validate
their implementations against these via the CLI's loss-oracle subcommand.
A refined cuboid is built without `Cuboid`'s checks, which its parent's box
and the span check before it already guarantee.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

from .geometry import Cuboid
from .ingest import MAX_INT, ValidationError, check_numbers

LOG_EPS = 1e-12  # clamp for log of a zero probability


@dataclass(frozen=True)
class LossParams:
    loc_weight: float = 0.25  # weight of the localization term for action classes
    num_classes: int = 12  # read by nothing; kept because every saved config carries it

    def __post_init__(self):
        check_numbers(self, "loc_weight")
        if not 0 <= self.loc_weight < math.inf:
            raise ValidationError(f"loc_weight must be non-negative and finite, got {self.loc_weight}")
        if self.num_classes < 1:
            raise ValidationError("num_classes must be >= 1")


def cross_entropy(probs: Sequence[float], true_class: int, eps: float = LOG_EPS) -> float:
    """-log of the probability assigned to the true class, eps-clamped."""
    if not 0 <= true_class < len(probs):
        raise ValidationError(f"true_class {true_class} outside 0..{len(probs) - 1}")
    return -math.log(max(probs[true_class], eps))


def smooth_l1(x: float) -> float:
    ax = abs(x)
    if ax < 1.0:
        return 0.5 * x * x
    return ax - 0.5


def localization_loss(predicted: tuple[float, float], target: tuple[float, float]) -> float:
    """Smooth-L1 on the start error plus smooth-L1 on the end error."""
    return smooth_l1(target[0] - predicted[0]) + smooth_l1(target[1] - predicted[1])


def full_loss(
    probs: Sequence[float],
    true_class: int,
    predicted: tuple[float, float] | None,
    target: tuple[float, float] | None,
    params: LossParams = LossParams(),
) -> float:
    """Classification loss, plus the weighted localization loss for action classes.

    For the non-action class (0) the localization term contributes nothing
    and the result equals cross_entropy exactly.
    """
    cls = cross_entropy(probs, true_class)
    if true_class == 0:
        return cls
    if predicted is None or target is None:
        raise ValidationError("action classes need both predicted and target refinement pairs")
    return cls + params.loc_weight * localization_loss(predicted, target)


def apply_refinement(c: Cuboid, refinement: tuple[float, float], num_frames: int) -> tuple[Cuboid, bool]:
    """Move the temporal bounds by the normalized refinement pair, inside the video.

    New bounds are mid + r*half rounded to the nearest frame, then clamped
    to the video's frames [0, num_frames - 1].  If a bound is not finite or
    exceeds 2**53 in magnitude, or rounding or clamping inverts or collapses
    the span, the cuboid is returned unrefined; the second element reports
    whether refinement was applied.

    The refined `Cuboid` is built with `tuple.__new__`, without its
    constructor's checks: the box is `c`'s valid box, both bounds are ints
    (`round` of a float gives an int, and `num_frames` goes through
    `operator.index`, so a float one raises `TypeError`) and
    `new_start < new_end` has just been checked.
    """
    last = operator.index(num_frames) - 1  # an int, as the refined frames must be
    x_min, y_min, x_max, y_max, f_start, f_end = c
    mid, half = (f_start + f_end) / 2.0, (f_end - f_start + 1) / 2.0  # `c.mid_frame`, `c.num_frames / 2.0`
    start, end = mid + refinement[0] * half, mid + refinement[1] * half
    if not (abs(start) <= MAX_INT and abs(end) <= MAX_INT):  # false for inf too
        return c, False
    new_start, new_end = round(start), round(end)
    if new_start < 0:  # `max(new_start, 0)` and `min(new_end, last)`, without two calls
        new_start = 0
    if new_end > last:
        new_end = last
    if new_start >= new_end:
        return c, False
    return tuple.__new__(Cuboid, (x_min, y_min, x_max, y_max, new_start, new_end)), True
