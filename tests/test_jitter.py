import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actionpipe.geometry import Cuboid
from actionpipe.ingest import ValidationError, VideoMeta
from actionpipe.jitter import JitterParams, anchors, jitter_proposals
from actionpipe.proposals import PROVENANCE_CLUSTERING, PROVENANCE_JITTERING, Proposal
from oracles import reference_jitter_proposals, typed

LONG_META = VideoMeta("v1", 100000, 30.0, 640, 480)


def prop(pid, f_start, f_end, x0=0.0, y0=0.0, x1=10.0, y1=10.0):
    return Proposal(pid, "v1", Cuboid(x0, y0, x1, y1, f_start, f_end), PROVENANCE_CLUSTERING)


class TestAnchors:
    def test_aligned_span(self):
        assert anchors(0, 30, 15) == [0, 15, 30]

    def test_overrun_excluded(self):
        assert anchors(0, 20, 15) == [0, 15]

    def test_single_frame(self):
        assert anchors(5, 5, 15) == [5]

    def test_include_end(self):
        assert anchors(0, 20, 15, include_end=True) == [0, 15, 20]
        assert anchors(0, 30, 15, include_end=True) == [0, 15, 30]

    def test_invalid(self):
        with pytest.raises(ValidationError):
            anchors(5, 4, 15)
        with pytest.raises(ValidationError):
            anchors(0, 10, 0)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValidationError):
            JitterParams(stride=0)
        with pytest.raises(ValidationError):
            JitterParams(half_windows=())
        with pytest.raises(ValidationError):
            JitterParams(half_windows=(16, 16))
        with pytest.raises(ValidationError):
            JitterParams(half_windows=(32, 16))
        with pytest.raises(ValidationError):
            JitterParams(min_span=0)

    # windows are built without `Cuboid`'s checks, so their frames must come out as ints
    @pytest.mark.parametrize("kwargs,message", [
        ({"stride": 2.5}, "stride must be an integer, got 2.5"),
        ({"stride": True}, "stride must be an integer, got True"),
        ({"half_windows": (16.5,)}, "half_windows entry must be an integer, got 16.5"),
        ({"half_windows": (True,)}, "half_windows entry must be an integer, got True"),
        ({"half_windows": (16, np.int64(32))}, "half_windows entry must be an integer, got np.int64(32)"),
        ({"min_span": 1.5}, "min_span must be an integer, got 1.5"),
        ({"min_span": True}, "min_span must be an integer, got True"),
    ])
    def test_non_integers_rejected(self, kwargs, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            JitterParams(**kwargs)


class TestJitterProposals:
    def test_empty_input(self):
        assert jitter_proposals([], JitterParams(), LONG_META) == []

    def test_dense_enumeration_with_start_clamp(self):
        # parent [0, 30], stride 15, windows 16/32/64/128: 1 original + 12 windows
        out = jitter_proposals([prop("p", 0, 30)], JitterParams(), LONG_META)
        spans = [(p.cuboid.f_start, p.cuboid.f_end) for p in out]
        assert spans == [
            (0, 30),
            (0, 16), (0, 32), (0, 64), (0, 128),
            (0, 31), (0, 47), (0, 79), (0, 143),
            (14, 46), (0, 62), (0, 94), (0, 158),
        ]
        assert out[0].provenance == PROVENANCE_CLUSTERING
        assert all(p.provenance == PROVENANCE_JITTERING for p in out[1:])
        assert all(p.parent_id == "p" for p in out[1:])

    def test_end_clamp(self):
        meta = VideoMeta("v1", 50, 30.0, 640, 480)
        out = jitter_proposals([prop("p", 40, 45)], JitterParams(half_windows=(16,)), meta)
        assert [(p.cuboid.f_start, p.cuboid.f_end) for p in out] == [(40, 45), (24, 49)]

    def test_no_clamp_keeps_negative_frames(self):
        out = jitter_proposals([prop("p", 0, 0)], JitterParams(half_windows=(16,), clamp_to_video=False), LONG_META)
        assert (out[1].cuboid.f_start, out[1].cuboid.f_end) == (-16, 16)

    # clamped windows are built without `Cuboid`'s checks, so the frame count must be an int, clamped or not
    @pytest.mark.parametrize("num_frames", [1000.0, 12.0, True, np.int64(50)])
    def test_video_meta_takes_integer_frame_counts_only(self, num_frames):
        message = f"num_frames must be an integer, got {num_frames!r}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            VideoMeta("v1", num_frames, 30.0, 640, 480)

    def test_min_span_drops_short_windows(self):
        # anchor 0 in a 1-frame video: clamped window [0, 0] is below min_span
        meta = VideoMeta("v1", 1, 30.0, 640, 480)
        out = jitter_proposals([prop("p", 0, 0)], JitterParams(half_windows=(16,)), meta)
        assert len(out) == 1  # only the original survives

    def test_duplicate_bounds_deduplicated(self):
        parents = [prop("a", 0, 30), prop("b", 0, 30, x0=50.0, x1=60.0)]
        out = jitter_proposals(parents, JitterParams(), LONG_META)
        keys = [(p.cuboid.x_min, p.cuboid.f_start, p.cuboid.f_end) for p in out]
        assert len(keys) == len(set(keys))
        # both parents generate, neither is starved by the other's dedup
        assert sum(p.parent_id == "a" for p in out) == 12
        assert sum(p.parent_id == "b" for p in out) == 12

    def test_generated_duplicate_of_original_dropped(self):
        # a window landing exactly on the parent bounds adds nothing
        out = jitter_proposals([prop("p", 0, 32)], JitterParams(half_windows=(16,)), LONG_META)
        spans = [(p.cuboid.f_start, p.cuboid.f_end) for p in out]
        assert spans.count((0, 32)) == 1

    def test_superset_and_spatial_equality(self):
        rng = np.random.default_rng(11)
        parents = []
        for i in range(10):
            f0 = int(rng.integers(0, 500))
            parents.append(prop(f"p{i}", f0, f0 + int(rng.integers(0, 120)),
                                x0=float(rng.uniform(0, 100)), x1=float(rng.uniform(200, 300))))
        out = jitter_proposals(parents, JitterParams(), LONG_META)
        assert out[:len(parents)] == parents
        by_id = {p.proposal_id: p for p in parents}
        for p in out[len(parents):]:
            parent = by_id[p.parent_id]
            c, pc = p.cuboid, parent.cuboid
            assert (c.x_min, c.y_min, c.x_max, c.y_max) == (pc.x_min, pc.y_min, pc.x_max, pc.y_max)
            assert c.num_frames >= JitterParams().min_span

    def test_unclamped_span_is_2w_plus_1(self):
        out = jitter_proposals([prop("p", 500, 530)], JitterParams(), LONG_META)
        for p in out[1:]:
            w = int(p.proposal_id.rsplit("w", 1)[1])
            assert p.cuboid.num_frames == 2 * w + 1


# Parents in a short video, so windows clamp at both ends and fall below
# `min_span`; two boxes only, so parents repeat each other's windows.
PARENT = st.tuples(st.integers(0, 10**4), st.integers(0, 200), st.sampled_from([(0.0, 10.0), (2.5, 640.0)]))


@settings(max_examples=300, deadline=None)
@given(
    num_frames=st.integers(1, 400),
    parents=st.lists(PARENT, max_size=6),
    stride=st.integers(1, 60),
    half_windows=st.lists(st.integers(1, 300), min_size=1, max_size=4, unique=True).map(sorted),
    clamp_to_video=st.booleans(),
    min_span=st.integers(1, 80),
    include_end=st.booleans(),
)
def test_windows_equal_validated_reference(num_frames, parents, stride, half_windows, clamp_to_video, min_span,
                                           include_end):
    proposals = []
    for i, (start, length, (lo, hi)) in enumerate(parents):
        start %= num_frames
        cuboid = Cuboid(lo, lo, hi, hi, start, min(start + length, num_frames - 1))
        proposals.append(Proposal(f"p{i}", "v1", cuboid, PROVENANCE_CLUSTERING))
    params = JitterParams(stride, tuple(half_windows), clamp_to_video, min_span, include_end)
    meta = VideoMeta("v1", num_frames, 30.0, 640, 480)
    out = jitter_proposals(proposals, params, meta)
    assert typed(out) == typed(reference_jitter_proposals(proposals, params, meta))
    assert all(type(p) is Proposal and type(p.cuboid) is Cuboid for p in out)
