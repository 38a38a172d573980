import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from actionpipe import nms
from actionpipe.geometry import Cuboid
from actionpipe.ingest import DEFAULT_ACTION_CLASSES, ValidationError
from actionpipe.nms import (
    NmsParams,
    ScoredDetection,
    load_final_detections,
    nms_3d,
    write_final_detections,
)
from oracles import random_cuboid, reference_nms


def sdet(pid, cuboid, cls=1, conf=0.9, video="v1"):
    return ScoredDetection(video, pid, cls, conf, cuboid)


BOX = Cuboid(0, 0, 10, 10, 0, 63)


class TestScoredDetection:
    def test_rejects_non_action_class(self):
        with pytest.raises(ValidationError):
            sdet("p", BOX, cls=0)

    def test_rejects_bad_confidence(self):
        with pytest.raises(ValidationError):
            sdet("p", BOX, conf=1.5)


class TestNmsParams:
    def test_bounds(self):
        with pytest.raises(ValidationError):
            NmsParams(temporal_iou=-0.1)
        with pytest.raises(ValidationError):
            NmsParams(spatial_iou=1.2)

    @pytest.mark.parametrize("field", ["temporal_iou", "spatial_iou"])
    @pytest.mark.parametrize("value", [True, False, "0.5", None])
    def test_fields_take_numbers_only(self, field, value):
        with pytest.raises(ValidationError, match=f"^{field} must be a number"):
            NmsParams(**{field: value})


class TestNms3d:
    def test_empty(self):
        assert nms_3d([]) == []

    def test_duplicate_cuboids_keep_top_score(self):
        out = nms_3d([sdet("a", BOX, conf=0.9), sdet("b", BOX, conf=0.8)])
        assert [d.proposal_id for d in out] == ["a"]

    def test_different_classes_never_suppress(self):
        out = nms_3d([sdet("a", BOX, cls=1, conf=0.9), sdet("b", BOX, cls=2, conf=0.8)])
        assert [d.proposal_id for d in out] == ["a", "b"]

    def test_suppression_needs_both_overlaps(self):
        # same box, disjoint frames: temporal IoU 0, spatial IoU 1 -> kept
        temporal_miss = sdet("b", Cuboid(0, 0, 10, 10, 200, 263), conf=0.5)
        # disjoint boxes, same frames: spatial IoU 0 -> kept
        spatial_miss = sdet("c", Cuboid(100, 100, 110, 110, 0, 63), conf=0.4)
        # heavy overlap in both -> suppressed
        both = sdet("d", Cuboid(0, 0, 10, 10, 5, 68), conf=0.3)
        out = nms_3d([sdet("a", BOX, conf=0.9), temporal_miss, spatial_miss, both])
        assert [d.proposal_id for d in out] == ["a", "b", "c"]

    def test_single_threshold_straddle(self):
        params = NmsParams(temporal_iou=0.2, spatial_iou=0.05)
        # temporal IoU just below the gate with full spatial overlap survives
        below_t = sdet("b", Cuboid(0, 0, 10, 10, 54, 117), conf=0.5)  # 10/118 < 0.2
        assert [d.proposal_id for d in nms_3d([sdet("a", BOX, conf=0.9), below_t], params)] == ["a", "b"]
        # temporal IoU above the gate with full spatial overlap is suppressed
        above_t = sdet("b", Cuboid(0, 0, 10, 10, 32, 95), conf=0.5)  # 32/96 > 0.2
        assert [d.proposal_id for d in nms_3d([sdet("a", BOX, conf=0.9), above_t], params)] == ["a"]
        # spatial IoU just below the gate with full temporal overlap survives
        below_s = sdet("c", Cuboid(9.6, 9.6, 19.6, 19.6, 0, 63), conf=0.5)  # 0.16/199.84
        assert [d.proposal_id for d in nms_3d([sdet("a", BOX, conf=0.9), below_s], params)] == ["a", "c"]

    def test_confidence_tie_breaks_on_id(self):
        out = nms_3d([sdet("z", BOX, conf=0.7), sdet("a", BOX, conf=0.7)])
        assert [d.proposal_id for d in out] == ["a"]

    def test_output_ordering(self):
        far = Cuboid(300, 300, 320, 320, 0, 63)
        out = nms_3d([
            sdet("p1", BOX, cls=2, conf=0.5),
            sdet("p2", far, cls=1, conf=0.3),
            sdet("p3", Cuboid(600, 0, 620, 20, 0, 63), cls=1, conf=0.8),
        ])
        assert [(d.action_class, d.proposal_id) for d in out] == [(1, "p3"), (1, "p2"), (2, "p1")]

    def test_idempotent_and_subset_randomized(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            dets = [
                sdet(f"p{i:02d}", random_cuboid(rng), cls=int(rng.integers(1, 4)),
                     conf=float(rng.uniform(0, 1)))
                for i in range(int(rng.integers(0, 12)))
            ]
            once = nms_3d(dets)
            assert nms_3d(once) == once
            ids = {d.proposal_id for d in dets}
            assert {d.proposal_id for d in once} <= ids
            # the top detection of every class always survives
            for cls in {d.action_class for d in dets}:
                best = min((d for d in dets if d.action_class == cls),
                           key=lambda d: (-d.confidence, d.proposal_id))
                assert best in once

    def test_matches_reference_oracle(self):
        rng = np.random.default_rng(23)
        params = NmsParams()
        for _ in range(100):
            dets = [
                sdet(f"p{i:02d}", random_cuboid(rng), cls=int(rng.integers(1, 3)),
                     conf=float(rng.choice([0.2, 0.4, 0.4, 0.8, 0.9])))
                for i in range(int(rng.integers(0, 9)))
            ]
            assert nms_3d(dets, params) == reference_nms(dets, params)

    def test_matches_reference_across_blocks(self, monkeypatch):
        # one class group spanning several overlap blocks, plus a second class
        monkeypatch.setattr(nms, "NMS_PAIRS", 256)  # ~40 overlap counts a row: blocks of a few rows
        rng = np.random.default_rng(29)
        size = 3 * 64 + 17
        dets = [
            sdet(f"p{i:04d}", random_cuboid(rng, max_frame=400), cls=1 if i < size else 2,
                 conf=float(rng.choice([0.2, 0.4, 0.6, 0.8, 0.9])))
            for i in range(size + 40)
        ]
        params = NmsParams()
        got = nms_3d(dets, params)
        assert got == reference_nms(dets, params)
        assert 64 < len(got) < size  # survivors land in several blocks and some rows are suppressed

    def test_scales(self):
        rng = np.random.default_rng(31)
        dets = [sdet(f"p{i:04d}", random_cuboid(rng, max_frame=3000), conf=float(rng.uniform(0, 1)))
                for i in range(4000)]
        started = time.perf_counter()
        nms_3d(dets)
        assert time.perf_counter() - started < 2.0


# Few classes, tie-heavy confidences, ids that repeat across classes or differ
# only by a trailing NUL, cuboids on a small lattice (identical ones are
# common) and spans that often meet at exactly one frame.
_nms_dets = st.lists(
    st.builds(
        lambda pid, cls, conf, x0, y0, w, h, f0, length: sdet(pid, Cuboid(x0, y0, x0 + w, y0 + h, f0, f0 + length),
                                                              cls=cls, conf=conf),
        st.sampled_from(["a", "a\x00", "a\x00\x00", "b", "", "\x00"]),
        st.integers(1, 3),
        st.sampled_from([0.0, 0.5, 0.5, 0.75, 1.0]),
        st.sampled_from([0.0, 1.0, 2.0]), st.sampled_from([0.0, 1.0]),
        st.sampled_from([1.0, 2.0, 3.0]), st.sampled_from([1.0, 2.0]),
        st.integers(0, 8), st.sampled_from([0, 1, 2, 4]),
    ),
    max_size=40,
)
# 1/3 and 1/2 are IoUs of lattice pairs (frames [0, 1] and [1, 2]; boxes 2 wide, offset 1)
_thresholds = st.sampled_from([0.0, 1 / 3, 0.5, 1.0])


class TestNmsMatchesOracle:
    @settings(max_examples=400, deadline=None)
    @given(_nms_dets, _thresholds, _thresholds, st.sampled_from([1, 2, 3, 5, 8, 30, 2**18]))
    @example([sdet("a", BOX), sdet("a", BOX)], 0.0, 0.0, 1)
    @example([sdet("a", Cuboid(0, 0, 2, 1, 0, 1), conf=0.5), sdet("a\x00", Cuboid(1, 0, 3, 1, 1, 2), conf=0.5)],
             0.0, 0.0, 1)
    def test_equals_reference_nms(self, dets, temporal, spatial, budget):
        params = NmsParams(temporal_iou=temporal, spatial_iou=spatial)
        with pytest.MonkeyPatch.context() as patch:  # one-row, multi-row and cross-block pairs by budget
            patch.setattr(nms, "NMS_PAIRS", budget)
            got = nms_3d(dets, params)
        want = reference_nms(dets, params)
        assert list(map(id, got)) == list(map(id, want))  # the same input objects, in the same order


def _one_class_scaling(dets):
    """(seconds, tracemalloc peak in MiB, survivors) of one nms_3d call over `dets`."""
    tracemalloc.start()
    try:
        started = time.perf_counter()
        kept = nms_3d(dets)
        seconds = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    return seconds, peak, kept


class TestNmsScalingGuards:
    """One class in one 9,000-frame video; a dense class x class overlap would take ~100 MiB and ~5 s."""

    def test_random_windows(self):
        rng = np.random.default_rng(41)
        dets = []
        for i in range(20_000):
            length, w, h = int(rng.integers(32, 257)), float(rng.uniform(16, 64)), float(rng.uniform(16, 64))
            f0 = int(rng.integers(0, 9_000 - length + 1))
            x0, y0 = float(rng.uniform(0, 1280 - w)), float(rng.uniform(0, 720 - h))
            dets.append(sdet(f"p{i:05d}", Cuboid(x0, y0, x0 + w, y0 + h, f0, f0 + length - 1),
                             conf=float(rng.uniform(0, 1))))
        seconds, peak, kept = _one_class_scaling(dets)
        assert 0 < len(kept) < len(dets)
        assert peak < 64 and seconds < 3.0

    def test_every_pair_shares_every_frame_and_none_suppresses(self):
        # the worst case: the join lists every pair, yet no box meets another
        dets = [sdet(f"p{i:04d}", Cuboid(3.0 * i, 0, 3.0 * i + 2, 2, 0, 8_999), conf=(i % 97) / 97)
                for i in range(4_000)]
        seconds, peak, kept = _one_class_scaling(dets)
        assert len(kept) == len(dets)
        assert peak < 64 and seconds < 3.0


class TestFinalDetectionsFile:
    def test_round_trip(self, tmp_path):
        dets = [
            sdet("p1", BOX, cls=3, conf=0.75),
            sdet("p2", Cuboid(5, 5, 25, 30, 10, 80), cls=12, conf=0.5, video="v2"),
        ]
        path = tmp_path / "final.jsonl"
        write_final_detections(path, dets, DEFAULT_ACTION_CLASSES)
        assert load_final_detections(path, DEFAULT_ACTION_CLASSES) == dets

    def test_unknown_label_rejected(self, tmp_path):
        path = tmp_path / "final.jsonl"
        write_final_detections(path, [sdet("p1", BOX, cls=1)], DEFAULT_ACTION_CLASSES)
        with pytest.raises(ValidationError):
            load_final_detections(path, ("other",))
