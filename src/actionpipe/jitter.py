"""Temporal jittering: densify proposals with fixed-length windows.

Anchor frames are taken at a fixed stride along each parent proposal; every
anchor spawns one window per configured half-extent, keeping the parent's
spatial box.  The originals are always retained, so the jittered set is a
superset of its input and recall can only go up.  Windows are built
without their record types' checks, which the parent's checked box,
integer-only `JitterParams` and `VideoMeta` already guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import Cuboid
from .ingest import ValidationError, VideoMeta
from .proposals import PROVENANCE_JITTERING, Proposal


@dataclass(frozen=True)
class JitterParams:
    stride: int = 15
    half_windows: tuple[int, ...] = (16, 32, 64, 128)
    clamp_to_video: bool = True
    min_span: int = 2
    include_end: bool = False  # force the last frame in as an anchor

    def __post_init__(self):
        object.__setattr__(self, "half_windows", tuple(self.half_windows))
        # `jitter_proposals` builds windows unchecked, so their frames must come out as ints
        named = [("stride", self.stride), *(("half_windows entry", w) for w in self.half_windows),
                 ("min_span", self.min_span)]
        for name, value in named:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        if self.stride < 1:
            raise ValidationError("stride must be >= 1")
        if not self.half_windows:
            raise ValidationError("half_windows must be nonempty")
        if any(w < 1 for w in self.half_windows):
            raise ValidationError("half_windows must be positive")
        if any(a >= b for a, b in zip(self.half_windows, self.half_windows[1:])):
            raise ValidationError("half_windows must be strictly increasing")
        if self.min_span < 1:
            raise ValidationError("min_span must be >= 1")


def anchors(f_start: int, f_end: int, stride: int, include_end: bool = False) -> list[int]:
    """Anchor frames f_start, f_start+stride, ... within [f_start, f_end].

    The end frame appears only when aligned with the stride, unless
    include_end forces it in.
    """
    if f_start > f_end:
        raise ValidationError(f"inverted span [{f_start}, {f_end}]")
    if stride < 1:
        raise ValidationError("stride must be >= 1")
    frames = list(range(f_start, f_end + 1, stride))
    if include_end and frames[-1] != f_end:
        frames.append(f_end)
    return frames


def jitter_proposals(
    proposals: list[Proposal],
    params: JitterParams,
    video_meta: VideoMeta,
) -> list[Proposal]:
    """Original proposals plus one window per (anchor, half-extent) pair.

    Windows are clamped to the video span when clamp_to_video is set; spans
    shorter than min_span after clamping are dropped, and generated windows
    duplicating earlier bounds (originals included) are deduplicated.

    Each window's `Cuboid` and `Proposal` are built with `tuple.__new__`,
    without their constructors' checks, which hold already: the box is the
    parent's valid box, the frames are ints (`JitterParams` takes integers
    only) and `f_hi - f_lo + 1 >= min_span >= 1` orders them, and the
    provenance is a known one.
    """
    out = list(proposals)
    seen = {p.cuboid for p in proposals}
    last_frame = video_meta.num_frames - 1  # an int: `VideoMeta` takes integer frame counts only
    clamp, min_span = params.clamp_to_video, params.min_span
    for parent in proposals:
        c = parent.cuboid
        box, pid = c[:4], parent.proposal_id
        for f_a in anchors(c.f_start, c.f_end, params.stride, params.include_end):
            for w in params.half_windows:
                f_lo, f_hi = f_a - w, f_a + w
                if clamp:
                    f_lo, f_hi = max(0, f_lo), min(last_frame, f_hi)
                if f_hi - f_lo + 1 < min_span:
                    continue
                window = tuple.__new__(Cuboid, (*box, f_lo, f_hi))
                if window in seen:
                    continue
                seen.add(window)
                out.append(tuple.__new__(Proposal, (
                    f"{pid}_a{f_a}w{w}", parent.video_id, window, PROVENANCE_JITTERING, pid,
                )))
    return out
