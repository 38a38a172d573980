"""The record codec: one located reader for every input file, one cuboid field dict, one writer."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actionpipe.cli import cmd_loss_oracle
from actionpipe.geometry import Cuboid
from actionpipe.ingest import (
    DEFAULT_ACTION_CLASSES,
    GroundTruthAction,
    ValidationError,
    VideoMeta,
    load_detections,
    load_ground_truth,
    load_scores,
    load_video_meta,
    write_ground_truth,
    write_records,
)
from actionpipe.nms import ScoredDetection, load_final_detections, write_final_detections
from actionpipe.proposals import PROVENANCES, Proposal, load_proposals, write_proposals

CUBOID = {"x_min": 0.0, "y_min": 0.0, "x_max": 50.0, "y_max": 40.0, "f_start": 10, "f_end": 40}
VIDEOS = {"v1": VideoMeta("v1", 100, 30.0, 640.0, 480.0)}
SCORES = [0.05] + [0.95 / 12] * 12

# reader, one valid record of its file
LOADERS = {
    "video_meta": (
        load_video_meta,
        {"video_id": "v1", "num_frames": 100, "frame_rate": 30.0, "width": 640, "height": 480},
    ),
    "detections": (
        lambda path: load_detections(path, VIDEOS),
        {"video_id": "v1", "frame": 3, "object_class": "person", "confidence": 0.9,
         "x_min": 10.0, "y_min": 20.0, "x_max": 30.0, "y_max": 60.0},
    ),
    "ground_truth": (
        lambda path: load_ground_truth(path, VIDEOS),
        {"video_id": "v1", "action_class": "loading", **CUBOID},
    ),
    "scores": (
        load_scores,
        {"proposal_id": "v1_c0000", "class_scores": SCORES, "refine_start": -0.5, "refine_end": 0.5},
    ),
    "proposals": (
        load_proposals,
        {"proposal_id": "v1_c0000", "video_id": "v1", "parent_id": None, "provenance": "clustering", **CUBOID},
    ),
    "final_detections": (
        lambda path: load_final_detections(path, DEFAULT_ACTION_CLASSES),
        {"video_id": "v1", "proposal_id": "v1_c0000", "action_class": "loading", "confidence": 0.9, **CUBOID},
    ),
    "loss_queries": (
        lambda path: cmd_loss_oracle(path, path.with_name("answers.jsonl"), 0.25),
        {"class_scores": SCORES, "true_class": 1, "predicted": [0.0, 0.0], "target": [0.5, 2.0]},
    ),
}
CUBOID_LOADERS = {kind: LOADERS[kind] for kind in ("ground_truth", "proposals", "final_detections")}

# fault -> (how it breaks a valid record, what the message must say)
BAD_FIELDS = {
    "missing": (lambda rec: rec.pop("y_max"), "missing field 'y_max'"),
    "string": (lambda rec: rec.update(x_min="a"), "field 'x_min' must be a finite number, got 'a'"),
    "float_frame": (lambda rec: rec.update(f_end=40.5), "field 'f_end' must be an integer, got 40.5"),
    "inverted_span": (lambda rec: rec.update(f_start=41), "inverted frame span [41, 40]"),
    "oversized_frame": (lambda rec: rec.update(f_end=2**53 + 1), "field 'f_end' must be at most 2**53 in magnitude"),
}


@pytest.mark.parametrize("fault", sorted(BAD_FIELDS))
@pytest.mark.parametrize("kind", sorted(CUBOID_LOADERS))
def test_cuboid_error_names_location_once(tmp_path, kind, fault):
    load, good = CUBOID_LOADERS[kind]
    break_record, expected = BAD_FIELDS[fault]
    record = dict(good)
    break_record(record)
    path = tmp_path / f"{kind}.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        load(path)
    assert str(err.value) == f"{path}:1: {expected}"


# Any JSON value a damaged field may hold, NaN, infinities and integers past 2**53 included.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from([2**53 + 1, -(10**400)]) | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=8,
)


@st.composite
def damaged_lines(draw, record: dict) -> bytes:
    """One line of a record file: the record with one field replaced or dropped, or arbitrary bytes."""
    damage = draw(st.sampled_from(("replace", "drop", "bytes")))
    if damage == "bytes":
        return draw(st.binary(max_size=64)).replace(b"\n", b" ")
    record = dict(record)
    name = draw(st.sampled_from(sorted(record)))
    if damage == "drop":
        del record[name]
    else:
        record[name] = draw(JSON_VALUES)
    return json.dumps(record).encode("utf-8")


@pytest.mark.parametrize("kind", sorted(LOADERS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_damaged_record_loads_or_is_located_once(tmp_path_factory, kind, data):
    load, good = LOADERS[kind]
    path = tmp_path_factory.mktemp(kind) / f"{kind}.jsonl"
    path.write_bytes(data.draw(damaged_lines(good)) + b"\n")
    try:
        load(path)
    except ValidationError as exc:
        message = str(exc)
        assert message.startswith(f"{path}:1: ") and message.count(f"{path}:") == 1, message


@pytest.mark.parametrize("kind,line,expected", [
    ("detections", b"\xff", "malformed record: 'utf-8' codec can't decode byte 0xff"),
    ("proposals", b"[" * 100_000, "malformed record: maximum recursion depth exceeded"),
    ("final_detections", json.dumps({**LOADERS["final_detections"][1], "action_class": "Parkour"}).encode(),
     "unknown action_class 'Parkour'; allowed: vehicle_u_turn"),
], ids=["not_utf8", "nested_too_deep", "unknown_label"])
def test_bad_line_is_located(tmp_path, kind, line, expected):
    load, _ = LOADERS[kind]
    path = tmp_path / f"{kind}.jsonl"
    path.write_bytes(b"\n" + line + b"\n")
    with pytest.raises(ValidationError) as err:
        load(path)
    assert str(err.value).startswith(f"{path}:2: {expected}")


class TestWriteRecords:
    def test_sorted_keys_one_per_line(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_records(path, [{"b": 1, "a": None}, {"c": [1.5]}])
        assert path.read_text(encoding="utf-8") == '{"a": null, "b": 1}\n{"c": [1.5]}\n'

    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "proposals.jsonl"
        write_proposals(path, [Proposal("v1_c0000", "v1", Cuboid(0, 0, 5, 5, 0, 9), "clustering")])
        before = path.read_bytes()

        def failing():
            yield Proposal("v1_c0001", "v1", Cuboid(1, 1, 6, 6, 2, 4), "clustering")
            raise RuntimeError("classifier crashed")

        with pytest.raises(RuntimeError):
            write_proposals(path, failing())
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["proposals.jsonl"]


# Byte round trips: write -> load -> write gives the same file.

COORD = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)
FRAME = st.integers(0, 10**6)
IDENT = st.text(st.characters(min_codepoint=33, max_codepoint=0x2FF), min_size=1, max_size=8)


@st.composite
def cuboids(draw, coord=COORD):
    x = sorted({draw(coord), draw(coord)})
    y = sorted({draw(coord), draw(coord)})
    f = sorted([draw(FRAME), draw(FRAME)])
    if len(x) < 2 or len(y) < 2:
        x, y = [0.0, 1.0], [0.0, 1.0]
    return Cuboid(x[0], y[0], x[1], y[1], f[0], f[1])


def assert_byte_round_trip(tmp_path, write, load, items):
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    write(first, items)
    write(second, load(first))
    assert first.read_bytes() == second.read_bytes()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(IDENT, cuboids(), st.sampled_from(PROVENANCES), st.none() | IDENT), max_size=8))
def test_proposals_byte_round_trip(tmp_path_factory, rows):
    proposals = [Proposal(f"p{i}", video, c, prov, parent) for i, (video, c, prov, parent) in enumerate(rows)]
    assert_byte_round_trip(tmp_path_factory.mktemp("proposals"), write_proposals, load_proposals, proposals)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(IDENT, IDENT, st.integers(1, 12), st.floats(0.0, 1.0), cuboids()), max_size=8))
def test_final_detections_byte_round_trip(tmp_path_factory, rows):
    dets = [ScoredDetection(*row) for row in rows]
    assert_byte_round_trip(
        tmp_path_factory.mktemp("final"),
        lambda path, items: write_final_detections(path, items, DEFAULT_ACTION_CLASSES),
        lambda path: load_final_detections(path, DEFAULT_ACTION_CLASSES),
        dets,
    )


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(IDENT, st.sampled_from(DEFAULT_ACTION_CLASSES), cuboids(st.floats(0.0, 1e4))), max_size=8))
def test_ground_truth_byte_round_trip(tmp_path_factory, rows):
    actions = [GroundTruthAction(*row) for row in rows]
    # every action lies inside its video
    videos = {video: VideoMeta(video, 10**6 + 1, 30.0, 1e4, 1e4) for video, _, _ in rows}
    assert_byte_round_trip(
        tmp_path_factory.mktemp("gt"),
        write_ground_truth,
        lambda path: [g for group in load_ground_truth(path, videos).values() for g in group],
        actions,
    )
