import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from actionpipe import ingest
from actionpipe.cli import _candidates
from actionpipe.geometry import Cuboid
from actionpipe.ingest import (
    DEFAULT_ACTION_CLASSES,
    GroundTruthAction,
    ScoreRecord,
    ValidationError,
    VideoMeta,
    class_index,
    indented_json,
    load_detections,
    load_ground_truth,
    load_scores,
    load_video_meta,
    write_detections,
    write_ground_truth,
    write_scores,
    write_video_meta,
)
from actionpipe.proposals import Proposal
from oracles import reference_load_detections, score_records


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
        assert got["v1"].tolist() == [[2, 10, 20, 30, 60], [9, 10, 20, 30, 60]]

    def test_input_order_irrelevant(self, tmp_path):
        records = [det_record(frame=f, x_min=float(x), x_max=float(x + 5))
                   for f, x in [(5, 1), (2, 9), (2, 3), (8, 0)]]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_lines(a, records)
        write_lines(b, records[::-1])
        (rows_a,), (rows_b,) = load_detections(a, VIDEOS).values(), load_detections(b, VIDEOS).values()
        assert rows_a.tolist() == rows_b.tolist()
        assert rows_a[:, :2].tolist() == [[2, 3], [2, 9], [5, 1], [8, 0]]

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

    def test_box_outside_frame(self, tmp_path):
        p = tmp_path / "d.jsonl"
        write_lines(p, [det_record(), det_record(x_max=1e6)])
        with pytest.raises(ValidationError) as err:
            load_detections(p, VIDEOS)
        assert str(err.value) == f"{p}:2: box outside video bounds of 'v1'"

    def test_unknown_video(self, tmp_path):
        p = tmp_path / "d.jsonl"
        write_lines(p, [det_record(video_id="ghost")])
        with pytest.raises(ValidationError, match="unknown video_id"):
            load_detections(p, VIDEOS)

    def test_confidence_floor_drops(self, tmp_path):
        p = tmp_path / "d.jsonl"
        write_lines(p, [det_record(frame=4, confidence=0.4), det_record(frame=6, confidence=0.6)])
        got = load_detections(p, VIDEOS, min_confidence=0.5)
        assert got["v1"][:, 0].tolist() == [6]

    def test_object_class_filter(self, tmp_path):
        p = tmp_path / "d.jsonl"
        write_lines(p, [det_record(frame=4, object_class="bicycle"), det_record(frame=6, object_class="vehicle")])
        got = load_detections(p, VIDEOS)
        assert got["v1"][:, 0].tolist() == [6]
        both = load_detections(p, VIDEOS, object_classes=None)
        assert len(both["v1"]) == 2

    def test_missing_field(self, tmp_path):
        p = tmp_path / "d.jsonl"
        rec = det_record()
        del rec["frame"]
        write_lines(p, [rec])
        with pytest.raises(ValidationError, match="frame"):
            load_detections(p, VIDEOS)


# Box bounds with exact ties and both signed zeros.
SIGNED_ZERO_COORDS = (-1.0, -0.0, 0.0, 1.0, 2.5)
BOUNDS = tuple((lo, hi) for lo in SIGNED_ZERO_COORDS for hi in SIGNED_ZERO_COORDS if lo < hi)
EMPTY_BOUNDS = tuple((lo, hi) for lo in SIGNED_ZERO_COORDS for hi in SIGNED_ZERO_COORDS if lo >= hi)
WRONG_TYPES = (None, "a", True, 1.5, 2**53 + 1)


@st.composite
def detection_files(draw) -> list[str]:
    """Lines of detection records from a small domain, so that records tie.

    In half of the files any field may break its rule, several in one
    record, so the first error depends on the order of the checks.
    """
    faulty = draw(st.booleans())

    def pick(valid, invalid=()):
        return draw(st.sampled_from(valid + invalid if faulty else valid))

    def line() -> str:
        (x_min, x_max), (y_min, y_max) = pick(BOUNDS, EMPTY_BOUNDS), pick(BOUNDS, EMPTY_BOUNDS)
        record = {
            "video_id": pick(("v1", "v2"), ("ghost",)),
            "frame": pick((0, 1, 2, 3), (-1, 100)),
            "object_class": pick(("person", "vehicle", "bicycle")),
            "x_min": x_min, "y_min": y_min, "x_max": x_max, "y_max": y_max,
            "confidence": pick((0.0, 0.5, 0.9, 1.0), (-0.5, 1.5)),
        }
        if faulty and draw(st.booleans()):
            record[draw(st.sampled_from(sorted(record)))] = draw(st.sampled_from(WRONG_TYPES))
        return json.dumps(record)

    return [line() for _ in range(draw(st.integers(0, 30)))]


@settings(max_examples=200, deadline=None)
@given(
    lines=detection_files(),
    min_confidence=st.sampled_from([0.0, 0.5, 0.9]),
    object_classes=st.sampled_from([None, ("person", "vehicle"), ("bicycle",)]),
)
def test_loader_equals_per_record_reference(tmp_path_factory, lines, min_confidence, object_classes):
    path = tmp_path_factory.mktemp("detections") / "d.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")

    def outcome(load):
        try:
            return load(path, VIDEOS, min_confidence, object_classes), None
        except ValidationError as exc:
            return None, str(exc)

    got, got_error = outcome(load_detections)
    want, want_error = outcome(reference_load_detections)
    assert got_error == want_error
    if want is not None:
        assert list(got) == list(want)
        for video, dets in want.items():
            rows = np.array([(d.frame, d.x_min, d.y_min, d.x_max, d.y_max) for d in dets], dtype=np.float64)
            # bytes, not values: -0.0 and 0.0 must come out where the reference puts them
            assert got[video].shape == rows.shape and got[video].tobytes() == rows.tobytes()


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


def argmax_selection(scores) -> int:
    """The class `finalize`'s argmax mode picks for one proposal scored `scores`, or 0 when it picks none."""
    proposal = Proposal("p", "v", Cuboid(0.0, 0.0, 5.0, 5.0, 0, 9), "clustering")
    columns = (["p"], np.array([scores], dtype=np.float64), np.zeros((1, 2)))
    got = _candidates([proposal], columns, {"v": VideoMeta("v", 10, 30.0, 640.0, 480.0)}, False, 0.0)
    return got["v"][0].action_class if got else 0


class TestLoadScores:
    def test_empty(self, tmp_path):
        p = tmp_path / "s.jsonl"
        p.write_text("", encoding="utf-8")
        ids, scores, refinements = load_scores(p)
        assert ids == [] and scores.shape == (0, 13) and refinements.shape == (0, 2)

    def test_valid_record(self, tmp_path):
        p = tmp_path / "s.jsonl"
        write_lines(p, [score_record()])
        ids, scores, refinements = load_scores(p)
        assert ids == ["p1"]
        assert scores.dtype == refinements.dtype == np.float64
        assert scores.tolist() == [score_record()["class_scores"]]
        assert argmax_selection(scores[0].tolist()) == 1
        assert refinements.tolist() == [[-0.5, 0.5]]

    def test_rows_do_not_depend_on_line_order_or_path(self, tmp_path, monkeypatch):
        # four lines a block: the block holding the int scores is read record by record, the others as columns
        monkeypatch.setattr(ingest, "RECORD_BLOCK", 4)
        records = [score_record(pid=f"p{i}", hot=i % 13, refine_end=0.25 * i) for i in range(12)]
        records[5]["class_scores"] = [1.0] + [0.0] * 12
        ints = [dict(r) for r in records]
        ints[5]["class_scores"] = [1] + [0] * 12
        contents = {"fast": records, "reversed": records[::-1], "ints": ints, "ints_reversed": ints[::-1]}
        files = {name: tmp_path / f"{name}.jsonl" for name in contents}
        for name, lines in contents.items():
            write_lines(files[name], lines)
        read_line_by_line = []
        parse_lines = ingest._parse_lines
        monkeypatch.setattr(ingest, "_parse_lines", lambda *args: read_line_by_line.append(args) or parse_lines(*args))
        ids, scores, refinements = load_scores(files["fast"])
        assert not read_line_by_line
        by_id = sorted(records, key=lambda r: r["proposal_id"])
        assert ids == [r["proposal_id"] for r in by_id]
        assert scores.tolist() == [r["class_scores"] for r in by_id]
        assert refinements.tolist() == [[r["refine_start"], r["refine_end"]] for r in by_id]
        for name in ("reversed", "ints", "ints_reversed"):
            got_ids, got_scores, got_refinements = load_scores(files[name])
            assert len(read_line_by_line) == name.startswith("ints")
            read_line_by_line.clear()
            assert got_ids == ids
            assert got_scores.tobytes() == scores.tobytes() and got_refinements.tobytes() == refinements.tobytes()

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
        scores = (0.4, 0.4) + (0.2 / 11,) * 11
        assert ScoreRecord("p", scores, (0.0, 0.0)).argmax_class == 0
        assert argmax_selection(scores) == 0  # the tie goes to the non-action class: no candidate
        assert argmax_selection((0.2 / 11,) + (0.4, 0.4) + (0.2 / 11,) * 10) == 1

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([0.0, -0.0, 0.25, 1.0]) | st.floats(0.0, 1.0), min_size=1, max_size=14))
    def test_argmax_is_highest_score_lowest_index(self, scores):
        # exact ties, -0.0 against 0.0 included, go to the lowest index, in `ScoreRecord` and in `finalize`
        want = max(range(len(scores)), key=lambda i: (scores[i], -i))
        assert ScoreRecord("p", tuple(scores), (0.0, 0.0)).argmax_class == want
        assert argmax_selection(scores) == want


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
            ("v2", 0, "person", 0.0, 0.0, 5.0, 5.0, 1.0),
            ("v1", 5, "vehicle", 1.5, 2.5, 9.0, 7.0, 0.6),
            ("v1", 3, "person", 1.0, 2.0, 3.0, 4.0, 0.75),
        ]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_detections(a, dets)
        write_detections(b, dets[::-1])
        assert a.read_bytes() == b.read_bytes()
        assert [json.loads(line) for line in a.read_text().splitlines()][0] == det_record(
            video_id="v1", x_min=1.0, y_min=2.0, x_max=3.0, y_max=4.0, confidence=0.75)
        loaded = load_detections(a, VIDEOS, min_confidence=0.0)
        assert {video: rows.tolist() for video, rows in loaded.items()} == {
            "v1": [[3, 1.0, 2.0, 3.0, 4.0], [5, 1.5, 2.5, 9.0, 7.0]],
            "v2": [[0, 0.0, 0.0, 5.0, 5.0]],
        }
        assert all(rows.dtype == np.float64 for rows in loaded.values())

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
        assert score_records(load_scores(a)) == recs

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


# Numbers of every magnitude: -0.0, subnormals, 1e308, and ints beyond 64 bits, where a sum of pairs overflows.
NUMBER = st.floats(allow_nan=False, allow_infinity=False) | st.integers() | st.sampled_from((-0.0, 5e-324, 1e308))
PAIRS = st.lists(st.lists(NUMBER, min_size=2, max_size=2) | st.tuples(NUMBER, NUMBER), max_size=4)
SUMMARY = st.lists(NUMBER, max_size=4)
LABEL = st.text() | st.sampled_from(('q"uote', "back\\slash", "caf\u00e9", "\u2603", "tab\tnl\n\x00\x1f", ""))
# the shape of a `score` report
REPORTS = st.fixed_dictionaries({
    "video_minutes": NUMBER,
    "num_ground_truth": st.integers(0, 10**6),
    "num_detections": st.integers(0, 10**6),
    "rate_grid": SUMMARY,
    "aggregate": st.fixed_dictionaries({"mean_p_miss": SUMMARY, "points": PAIRS}),
    "classes": st.dictionaries(LABEL, st.fixed_dictionaries({"p_miss": SUMMARY, "points": PAIRS}), max_size=4),
})
# any JSON tree with string keys and finite numbers
TREES = st.recursive(
    st.none() | st.booleans() | NUMBER | LABEL,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(LABEL, inner, max_size=4) | PAIRS,
    max_leaves=20,
)


class TestIndentedJson:
    @settings(max_examples=300, deadline=None)
    @given(REPORTS)
    @example({"video_minutes": 1.5, "num_ground_truth": 0, "num_detections": 0, "rate_grid": [1, 0.1],
              "aggregate": {"mean_p_miss": [], "points": [[0.0, 1.0]]}, "classes": {}})  # no classes, int rates
    @example({"video_minutes": 1e-310, "num_ground_truth": 1, "num_detections": 2, "rate_grid": [-0.0],
              "aggregate": {"mean_p_miss": [1.0], "points": [[1e308, 1e308], [2**70, 1.0]]},
              "classes": {'a"\\\u00e9\x07': {"p_miss": [1.0], "points": [[5e-324, 0.5]]}}})
    def test_report_equals_json_dumps(self, report):
        assert indented_json(report) == json.dumps(report, indent=2, sort_keys=True)

    def test_point_lists_skip_the_encoder(self, monkeypatch):
        # a drifted guard would still write the same text, by the encoder, so only this test would see it
        encode, encoded = ingest._encode, []
        monkeypatch.setattr(ingest, "_encode", lambda value: encoded.append(value) or encode(value))
        points = [(i / 7, 1 - i / 1000) for i in range(1000)]
        report = {"aggregate": {"points": points}, "classes": {"a": {"points": [list(p) for p in points]}}}
        assert indented_json(report) == json.dumps(report, indent=2, sort_keys=True)
        assert encoded == ["aggregate", "points", "classes", "a", "points"]

    @settings(max_examples=300, deadline=None)
    @given(TREES)
    def test_tree_equals_json_dumps(self, tree):
        assert indented_json(tree) == json.dumps(tree, indent=2, sort_keys=True)

    @pytest.mark.parametrize("value", [
        float("inf"), [float("nan")], {"points": [[0.0, float("inf")]]}, {"points": [[1.0, 2.0], [float("-inf"), 0.0]]},
        {"a": {"b": [1, float("nan")]}},
    ])
    def test_non_finite_number_raises(self, value):
        with pytest.raises(ValidationError, match="non-finite"):
            indented_json(value)
