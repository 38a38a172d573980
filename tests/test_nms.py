import time

import numpy as np
import pytest

from actionpipe.geometry import Cuboid
from actionpipe.ingest import DEFAULT_ACTION_CLASSES, ValidationError
from actionpipe.nms import (
    NMS_BLOCK,
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

    def test_matches_reference_across_blocks(self):
        # one class group spanning several overlap blocks, plus a second class
        rng = np.random.default_rng(29)
        size = 3 * NMS_BLOCK + 17
        dets = [
            sdet(f"p{i:04d}", random_cuboid(rng, max_frame=400), cls=1 if i < size else 2,
                 conf=float(rng.choice([0.2, 0.4, 0.6, 0.8, 0.9])))
            for i in range(size + 40)
        ]
        params = NmsParams()
        got = nms_3d(dets, params)
        assert got == reference_nms(dets, params)
        assert NMS_BLOCK < len(got) < size  # survivors land in several blocks and some rows are suppressed

    def test_scales(self):
        rng = np.random.default_rng(31)
        dets = [sdet(f"p{i:04d}", random_cuboid(rng, max_frame=3000), conf=float(rng.uniform(0, 1)))
                for i in range(4000)]
        started = time.perf_counter()
        nms_3d(dets)
        assert time.perf_counter() - started < 2.0


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
