"""Temporal jittering: densify proposals with fixed-length windows.

Anchor frames are taken at a fixed stride along each parent proposal; every
anchor spawns one window per configured half-extent, keeping the parent's
spatial box.  The originals are always retained, so the jittered set is a
superset of its input and recall can only go up.
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
    """
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
