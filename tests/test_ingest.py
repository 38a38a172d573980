import json

import pytest

from actionpipe.geometry import Cuboid
from actionpipe.ingest import (
    DEFAULT_ACTION_CLASSES,
    Detection,
    GroundTruthAction,
    ScoreRecord,
    ValidationError,
    VideoMeta,
    class_index,
    load_detections,
    load_ground_truth,
    load_scores,
    load_video_meta,
    write_detections,
    write_ground_truth,
    write_scores,
    write_video_meta,
)


def write_lines(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


def det_record(**overrides):
    rec = {
        "video_id": "v1", "frame": 3, "object_class": "person",
        "x_min": 10.0, "y_min": 20.0, "x_max": 30.0, "y_max": 60.0,
        "confidence": 0.9,
    }
    rec.update(overrides)
    return rec


def gt_record(**overrides):
    rec = {
        "video_id": "v1", "action_class": "loading",
        "x_min": 0.0, "y_min": 0.0, "x_max": 50.0, "y_max": 40.0,
        "f_start": 10, "f_end": 40,
    }
    rec.update(overrides)
    return rec


def score_record(pid="p1", hot=1, conf=0.9, **overrides):
    scores = [(1 - conf) / 12] * 13
    scores[hot] = conf
    rec = {"proposal_id": pid, "class_scores": scores, "refine_start": -0.5, "refine_end": 0.5}
    rec.update(overrides)
    return rec


VIDEOS = {"v1": VideoMeta("v1", 100, 30.0, 640, 480), "v2": VideoMeta("v2", 200, 30.0, 640, 480)}


class TestLoadDetections:
    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text("", encoding="utf-8")
        assert load_detections(p, VIDEOS) == {}

    def test_groups_and_sorts(self, tmp_path):
        p = tmp_path / "d.jsonl"
        write_lines(p, [
            det_record(video_id="v2", frame=7),
            det_record(video_id="v1", frame=9),
            det_record(video_id="v1", frame=2, object_class="vehicle"),
        ])
        got = load_detections(p, VIDEOS)
        assert list(got) == ["v1", "v2"]
        assert [d.frame for d in got["v1"]] == [2, 9]

    def test_input_order_irrelevant(self, tmp_path):
        records = [det_record(frame=f, x_min=float(x), x_max=float(x + 5))
                   for f, x in [(5, 1), (2, 9), (2, 3), (8, 0)]]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_lines(a, records)
        write_lines(b, records[::-1])
        assert load_detections(a, VIDEOS) == load_detections(b, VIDEOS)

    def test_malformed_line_reports_number(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text(json.dumps(det_record()) + "\n{oops\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=":2:"):
            load_detections(p, VIDEOS)

    def test_confidence_bound(self, tmp_path):
        p = tmp_path / "d.jsonl"
        write_lines(p, [det_record(confidence=1.5)])
        with pytest.raises(ValidationError, match="confidence"):
            load_detections(p, VIDEOS)

    def test_degenerate_box(self, tmp_path):
        p = tmp_path / "d.jsonl"
        write_lines(p, [det_record(x_max=10.0)])
        with pytest.raises(ValidationError, match="positive width"):
            load_detections(p, VIDEOS)

    def test_frame_out_of_bounds(self, tmp_path):
        p = tmp_path / "d.jsonl"
        write_lines(p, [det_record(frame=100)])
        with pytest.raises(ValidationError, match="frame 100"):
            load_detections(p, VIDEOS)

    def test_unknown_video(self, tmp_path):
        p = tmp_path / "d.jsonl"
        write_lines(p, [det_record(video_id="ghost")])
        with pytest.raises(ValidationError, match="unknown video_id"):
            load_detections(p, VIDEOS)

    def test_confidence_floor_drops(self, tmp_path):
        p = tmp_path / "d.jsonl"
        write_lines(p, [det_record(confidence=0.4), det_record(confidence=0.6)])
        got = load_detections(p, VIDEOS, min_confidence=0.5)
        assert len(got["v1"]) == 1 and got["v1"][0].confidence == 0.6

    def test_object_class_filter(self, tmp_path):
        p = tmp_path / "d.jsonl"
        write_lines(p, [det_record(object_class="bicycle"), det_record(object_class="vehicle")])
        got = load_detections(p, VIDEOS)
        assert [d.object_class for d in got["v1"]] == ["vehicle"]
        both = load_detections(p, VIDEOS, object_classes=None)
        assert len(both["v1"]) == 2

    def test_missing_field(self, tmp_path):
        p = tmp_path / "d.jsonl"
        rec = det_record()
        del rec["frame"]
        write_lines(p, [rec])
        with pytest.raises(ValidationError, match="frame"):
            load_detections(p, VIDEOS)


class TestLoadGroundTruth:
    def test_empty(self, tmp_path):
        p = tmp_path / "g.jsonl"
        p.write_text("", encoding="utf-8")
        assert load_ground_truth(p, VIDEOS) == {}

    def test_single_record(self, tmp_path):
        p = tmp_path / "g.jsonl"
        write_lines(p, [gt_record()])
        got = load_ground_truth(p, VIDEOS)
        assert got["v1"][0].cuboid == Cuboid(0, 0, 50, 40, 10, 40)

    def test_unknown_label_lists_allowed(self, tmp_path):
        p = tmp_path / "g.jsonl"
        write_lines(p, [gt_record(action_class="Parkour")])
        with pytest.raises(ValidationError) as err:
            load_ground_truth(p, VIDEOS)
        assert "Parkour" in str(err.value) and "vehicle_u_turn" in str(err.value)

    def test_span_outside_video(self, tmp_path):
        p = tmp_path / "g.jsonl"
        write_lines(p, [gt_record(f_end=150)])
        with pytest.raises(ValidationError, match="outside video"):
            load_ground_truth(p, VIDEOS)

    def test_box_outside_video(self, tmp_path):
        p = tmp_path / "g.jsonl"
        write_lines(p, [gt_record(x_max=900.0)])
        with pytest.raises(ValidationError, match="outside video bounds"):
            load_ground_truth(p, VIDEOS)


class TestLoadScores:
    def test_empty(self, tmp_path):
        p = tmp_path / "s.jsonl"
        p.write_text("", encoding="utf-8")
        assert load_scores(p) == {}

    def test_valid_record(self, tmp_path):
        p = tmp_path / "s.jsonl"
        write_lines(p, [score_record()])
        got = load_scores(p)
        assert got["p1"].argmax_class == 1
        assert got["p1"].refinement == (-0.5, 0.5)

    def test_arity_error(self, tmp_path):
        p = tmp_path / "s.jsonl"
        write_lines(p, [score_record(class_scores=[1.0 / 12] * 12)])
        with pytest.raises(ValidationError, match="13 values"):
            load_scores(p)

    def test_duplicate_id(self, tmp_path):
        p = tmp_path / "s.jsonl"
        write_lines(p, [score_record(), score_record()])
        with pytest.raises(ValidationError, match="duplicate proposal_id"):
            load_scores(p)

    def test_sum_enforced(self, tmp_path):
        p = tmp_path / "s.jsonl"
        rec = score_record()
        rec["class_scores"] = [0.5] + [0.1] * 12
        write_lines(p, [rec])
        with pytest.raises(ValidationError, match="sum"):
            load_scores(p)

    def test_probability_bounds(self, tmp_path):
        p = tmp_path / "s.jsonl"
        rec = score_record()
        rec["class_scores"] = [1.2, -0.2] + [0.0] * 11
        write_lines(p, [rec])
        with pytest.raises(ValidationError, match="outside"):
            load_scores(p)

    def test_argmax_tie_goes_low(self):
        rec = ScoreRecord("p", (0.4, 0.4) + (0.2 / 11,) * 11, (0.0, 0.0))
        assert rec.argmax_class == 0


class TestVideoMeta:
    def test_load(self, tmp_path):
        p = tmp_path / "v.jsonl"
        write_lines(p, [
            {"video_id": "b", "num_frames": 100, "frame_rate": 30.0, "width": 640, "height": 480},
            {"video_id": "a", "num_frames": 900, "frame_rate": 30.0, "width": 640, "height": 480},
        ])
        got = load_video_meta(p)
        assert list(got) == ["a", "b"]
        assert got["a"].minutes == pytest.approx(0.5)

    def test_duplicate(self, tmp_path):
        p = tmp_path / "v.jsonl"
        rec = {"video_id": "a", "num_frames": 100, "frame_rate": 30.0, "width": 640, "height": 480}
        write_lines(p, [rec, rec])
        with pytest.raises(ValidationError, match="duplicate"):
            load_video_meta(p)

    def test_positivity(self, tmp_path):
        p = tmp_path / "v.jsonl"
        write_lines(p, [{"video_id": "a", "num_frames": 0, "frame_rate": 30.0, "width": 640, "height": 480}])
        with pytest.raises(ValidationError, match="positive"):
            load_video_meta(p)


class TestRoundTrips:
    def test_detections(self, tmp_path):
        dets = [
            Detection("v1", 3, "person", 1.0, 2.0, 3.0, 4.0, 0.75),
            Detection("v1", 5, "vehicle", 1.5, 2.5, 9.0, 7.0, 0.6),
            Detection("v2", 0, "person", 0.0, 0.0, 5.0, 5.0, 1.0),
        ]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_detections(a, dets)
        loaded = load_detections(a, VIDEOS, min_confidence=0.0)
        write_detections(b, [d for group in loaded.values() for d in group])
        assert a.read_bytes() == b.read_bytes()
        assert load_detections(b, VIDEOS, min_confidence=0.0) == loaded

    def test_ground_truth(self, tmp_path):
        gts = [
            GroundTruthAction("v1", "enter", Cuboid(0, 0, 10, 10, 0, 5)),
            GroundTruthAction("v1", "exit", Cuboid(5, 5, 15, 25, 50, 90)),
        ]
        a = tmp_path / "a.jsonl"
        write_ground_truth(a, gts)
        loaded = load_ground_truth(a, VIDEOS)
        assert [g for group in loaded.values() for g in group] == gts

    def test_scores(self, tmp_path):
        recs = [ScoreRecord(f"p{i}", tuple(score_record(hot=i % 13)["class_scores"]), (0.1, -0.25))
                for i in range(3)]
        a = tmp_path / "a.jsonl"
        write_scores(a, recs)
        assert list(load_scores(a).values()) == recs

    def test_video_meta(self, tmp_path):
        metas = [VideoMeta("a", 900, 30.0, 640.0, 480.0), VideoMeta("b", 100, 25.0, 1920.0, 1080.0)]
        a = tmp_path / "a.jsonl"
        write_video_meta(a, metas)
        assert list(load_video_meta(a).values()) == metas


def test_class_index():
    assert class_index("vehicle_u_turn") == 1
    assert class_index("exit") == 12
    assert class_index("loading", DEFAULT_ACTION_CLASSES) == 6
    with pytest.raises(ValidationError):
        class_index("nope")
