"""The record codec shared by every cuboid file: one reader, one field dict, one writer."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actionpipe.geometry import Cuboid
from actionpipe.ingest import (
    DEFAULT_ACTION_CLASSES,
    GroundTruthAction,
    ValidationError,
    load_ground_truth,
    write_ground_truth,
    write_records,
)
from actionpipe.nms import ScoredDetection, load_final_detections, write_final_detections
from actionpipe.proposals import PROVENANCES, Proposal, load_proposals, write_proposals

CUBOID = {"x_min": 0.0, "y_min": 0.0, "x_max": 50.0, "y_max": 40.0, "f_start": 10, "f_end": 40}

# loader, one valid record of its file
CUBOID_LOADERS = {
    "ground_truth": (load_ground_truth, {"video_id": "v1", "action_class": "loading", **CUBOID}),
    "proposals": (
        load_proposals,
        {"proposal_id": "v1_c0000", "video_id": "v1", "parent_id": None, "provenance": "clustering", **CUBOID},
    ),
    "final_detections": (
        lambda path: load_final_detections(path, DEFAULT_ACTION_CLASSES),
        {"video_id": "v1", "proposal_id": "v1_c0000", "action_class": "loading", "confidence": 0.9, **CUBOID},
    ),
}

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
def cuboids(draw):
    x = sorted({draw(COORD), draw(COORD)})
    y = sorted({draw(COORD), draw(COORD)})
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
@given(st.lists(st.tuples(IDENT, st.sampled_from(DEFAULT_ACTION_CLASSES), cuboids()), max_size=8))
def test_ground_truth_byte_round_trip(tmp_path_factory, rows):
    actions = [GroundTruthAction(*row) for row in rows]
    assert_byte_round_trip(
        tmp_path_factory.mktemp("gt"),
        write_ground_truth,
        lambda path: [g for group in load_ground_truth(path).values() for g in group],
        actions,
    )
