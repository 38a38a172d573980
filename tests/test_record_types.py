"""The record types and loaders against what they replaced.

`Cuboid`, `Proposal`, `LabeledProposal`, `ScoreRecord` and
`ScoredDetection` are validated named tuples, and each of the six loaders
reads its file through its rule table (`ingest.Table`) with one reader,
`ingest._read_table`: a block of lines is checked as columns, each rule
once, and its records are built without a per-record path, which reads
only a block the column check refuses: a record's fields through the
table's readers, giving the values in table order or the error of the
first field its reader rejects, then the same rules in table order.
`tests/oracles.py` keeps the frozen dataclasses and a field-by-field
loader per record file, which reads every field with its getter before
the same rules; for any arguments, and for any record file, both must give
the same fields (types and float bits included) or the same error.
"""

import dataclasses
import functools
import json
import math
import pickle
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actionpipe import ingest
from actionpipe import nms as nms_module
from actionpipe import proposals as proposals_module
from actionpipe.geometry import Cuboid
from actionpipe.ingest import (
    DEFAULT_ACTION_CLASSES,
    MAX_INT,
    ScoreRecord,
    ValidationError,
    VideoMeta,
    _get_int,
    _get_number,
    _get_str,
    load_detections,
    load_ground_truth,
    load_scores,
    load_video_meta,
)
from actionpipe.labeling import DESIGNATIONS, LabeledProposal
from actionpipe.nms import ScoredDetection, load_final_detections
from actionpipe.proposals import PROVENANCES, Proposal, load_proposals
from oracles import (
    ReferenceCuboid,
    ReferenceLabeledProposal,
    ReferenceProposal,
    ReferenceScoredDetection,
    ReferenceScoreRecord,
    reference_load_detections,
    reference_load_final_detections,
    reference_load_ground_truth,
    reference_load_proposals,
    reference_load_scores,
    reference_load_video_meta,
)


def record_fields(record):
    """A record's field values as nested plain tuples, whether it is a dataclass or a named tuple."""
    if dataclasses.is_dataclass(record):
        values = [getattr(record, f.name) for f in dataclasses.fields(record)]
    elif isinstance(record, tuple) and hasattr(record, "_fields"):
        values = list(record)
    else:
        return record
    return (type(record).__name__.removeprefix("Reference"), *map(record_fields, values))


def assert_identical(got, want):
    """`==`, with identical types all the way down and floats equal bit for bit (NaN and -0.0 too)."""
    assert type(got) is type(want), (got, want)
    if isinstance(want, float):
        assert struct.pack("<d", got) == struct.pack("<d", want), (got, want)
    elif isinstance(want, (tuple, list)):
        assert len(got) == len(want), (got, want)
        for g, w in zip(got, want):
            assert_identical(g, w)
    else:
        assert got == want, (got, want)


def outcome(make, *args, **kwargs):
    """(fields, None) for the built record, or (None, (exception type, message))."""
    try:
        return record_fields(make(*args, **kwargs)), None
    except Exception as exc:  # the type and the message are what is compared
        return None, (type(exc), str(exc))


def assert_same_outcome(new, old, *args, **kwargs):
    got, got_error = outcome(new, *args, **kwargs)
    want, want_error = outcome(old, *args, **kwargs)
    assert got_error == want_error
    assert_identical(got, want)


# Constructor arguments: signed zeros, NaN, infinities, bools, numpy scalars,
# integers at and past 64 bits, numeric and other strings, None.
ODD_ARGS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 1e308, 2.0**53 + 2]),
    st.booleans(),
    st.sampled_from([2**53 + 1, 2**63, -(2**63), 2**64, 10**400]),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(-5, 5).map(np.int32),
    st.floats().map(np.float64),
    st.sampled_from(["", "1.5", "nan", "-inf", " 2 ", "x"]),
    st.text(max_size=3),
    st.none(),
)
# Ordinary small values, so that most draws reach the checks past the coercions.
PLAIN_ARGS = st.sampled_from([-1, 0, 1, 2, 5, -0.0, 0.0, 0.5, 1.0, 2.5])
ARGS = PLAIN_ARGS | ODD_ARGS
OMITTED = object()  # an argument left to its default


@settings(max_examples=500, deadline=None)
@given(st.lists(ARGS, min_size=6, max_size=6), st.booleans())
def test_cuboid_equals_dataclass(args, by_keyword):
    if by_keyword:
        kwargs = dict(zip(("x_min", "y_min", "x_max", "y_max", "f_start", "f_end"), args))
        assert_same_outcome(Cuboid, ReferenceCuboid, **kwargs)
    else:
        assert_same_outcome(Cuboid, ReferenceCuboid, *args)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(ARGS, min_size=2, max_size=2),
    st.sampled_from(PROVENANCES) | ARGS,
    st.sampled_from([OMITTED, None, "p0"]) | ARGS,
    st.booleans(),
)
def test_proposal_equals_dataclass(ids, provenance, parent_id, by_keyword):
    cuboid = Cuboid(0, 0, 5, 5, 0, 9)
    args = [*ids, cuboid, provenance] + ([] if parent_id is OMITTED else [parent_id])
    names = ("proposal_id", "video_id", "cuboid", "provenance", "parent_id")
    if by_keyword:
        assert_same_outcome(Proposal, ReferenceProposal, **dict(zip(names, args)))
    else:
        assert_same_outcome(Proposal, ReferenceProposal, *args)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(DESIGNATIONS) | ARGS,
    st.lists(st.sampled_from([OMITTED, None, (0.5, -0.5)]) | ARGS, min_size=3, max_size=3),
)
def test_labeled_proposal_equals_dataclass(designation, optional):
    proposal = Proposal("p0", "v", Cuboid(0, 0, 5, 5, 0, 9), "clustering")
    names = ("action_class", "matched_gt", "regression_target")
    kwargs = {name: value for name, value in zip(names, optional) if value is not OMITTED}
    assert_same_outcome(LabeledProposal, ReferenceLabeledProposal, proposal, designation, **kwargs)
    assert_same_outcome(LabeledProposal, ReferenceLabeledProposal, proposal=proposal, designation=designation,
                        **kwargs)


@settings(max_examples=100, deadline=None)
@given(st.lists(ARGS, min_size=3, max_size=3))
def test_score_record_equals_dataclass(args):
    assert_same_outcome(ScoreRecord, ReferenceScoreRecord, *args)
    assert_same_outcome(ScoreRecord, ReferenceScoreRecord, **dict(zip(ScoreRecord._fields, args)))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(ARGS, min_size=2, max_size=2),
    st.sampled_from([1, 12]) | ARGS,
    st.sampled_from([0.0, 0.5, 1.0]) | ARGS,
    st.booleans(),
)
def test_scored_detection_equals_dataclass(ids, action_class, confidence, by_keyword):
    args = [*ids, action_class, confidence, Cuboid(0, 0, 5, 5, 0, 9)]
    if by_keyword:
        assert_same_outcome(ScoredDetection, ReferenceScoredDetection, **dict(zip(ScoredDetection._fields, args)))
    else:
        assert_same_outcome(ScoredDetection, ReferenceScoredDetection, *args)


def test_replace_and_pickle_go_through_the_checks():
    c = Cuboid(0, 0, 5, 5, 0, 9)
    assert c._replace(f_end=12) == Cuboid(0, 0, 5, 5, 0, 12)
    with pytest.raises(ValueError, match=r"inverted frame span \[10, 9\]"):
        c._replace(f_start=10)
    with pytest.raises(ValidationError, match="unknown provenance 'x'"):
        Proposal("p", "v", c, "clustering")._replace(provenance="x")
    with pytest.raises(ValidationError, match=r"confidence 1.5 outside \[0, 1\]"):
        ScoredDetection("v", "p", 1, 0.5, c)._replace(confidence=1.5)
    # `propose --jobs N` workers send plain rows (`cli._propose_rows`), not records; a record that any
    # other caller pickles must still come back as its own type, a `Proposal` holding a `Cuboid`
    p = Proposal("p", "v", c, "jittering", "q")
    back = pickle.loads(pickle.dumps(p))
    assert back == p and type(back) is Proposal and type(back.cuboid) is Cuboid


# The table reader gives what its table's readers give in table order, and
# takes the record's own values as they are only when their types are exact.
# `READER` has no rules, so a record is read only for its fields.

READER_FIELDS = {"s": _get_str, "i": _get_int, "f": _get_number}
READER = ingest.Table(READER_FIELDS, [], lambda columns: list(zip(*columns.values())))


def read_each(fields):
    return lambda record: tuple(get(record, name) for name, get in fields.items())


def read_through_table(path, record):
    """`record` as `_read_table` reads it from a one-line file at `path`, its error without `path:1: `."""
    # NaN and the infinities are written as `json` writes them, which orjson rejects
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    try:
        [got] = ingest._read_table(path, READER)
    except ValidationError as exc:
        raise ValidationError(str(exc).removeprefix(f"{path}:1: ")) from exc
    return got


# (record, whether its values come back as they are): a block reader's column check
# takes a record only then; any other goes through the field readers one by one.
EXACT_TYPE_RECORDS = [
    ({"s": "a", "i": 3, "f": 0.5}, True),
    ({"s": "a", "i": -MAX_INT, "f": -0.0}, True),
    ({"s": "a", "i": 3}, False),
    ({"s": "", "i": 3, "f": 0.5}, False),
    ({"s": "a", "i": True, "f": 0.5}, False),
    ({"s": "a", "i": 3, "f": 1}, False),
    ({"s": "a", "i": 3.0, "f": 0.5}, False),
    ({"s": "a", "i": MAX_INT + 1, "f": 0.5}, False),
    ({"s": "a", "i": 3, "f": math.nan}, False),
    ({"s": "a", "i": 3, "f": -math.inf}, False),
    ({"s": "a", "i": 3, "f": 2.0**60}, True),
    ({"s": 7, "i": 3, "f": 0.5}, False),
]


@pytest.mark.parametrize("record,accepted", EXACT_TYPE_RECORDS)
def test_field_reader_accepts_only_exact_types(tmp_path, record, accepted):
    read = functools.partial(read_through_table, tmp_path / "records.jsonl")
    assert_same_outcome(read, read_each(READER_FIELDS), record)
    got, _ = outcome(read, record)
    assert (got is not None and tuple(map(type, got)) == tuple(map(type, record.values()))) == accepted


@pytest.mark.parametrize("record,accepted", EXACT_TYPE_RECORDS)
def test_block_check_takes_only_exact_types(tmp_path, monkeypatch, record, accepted):
    read_line_by_line = []
    parse_lines = ingest._parse_lines
    monkeypatch.setattr(ingest, "_parse_lines", lambda *args: read_line_by_line.append(args) or parse_lines(*args))
    got, _ = outcome(read_through_table, tmp_path / "records.jsonl", record)
    assert (not read_line_by_line) == accepted
    if accepted:
        assert_identical(got, tuple(record.values()))


# Loader oracle: files of valid records with one or two damaged fields.

VIDEOS = {"v1": VideoMeta("v1", 100, 30.0, 640.0, 480.0), "v2": VideoMeta("v2", 50, 30.0, 640.0, 480.0)}
SCORES = [0.05] + [0.95 / 12] * 12


def _cuboid(i):
    return {"x_min": [-0.0, 0.0, 1.5][i % 3], "y_min": 2.0, "x_max": 50.0, "y_max": 40.25,
            "f_start": 10 + i, "f_end": 40}


# kind -> (new loader, reference loader, valid record i, {field: what it holds})
LOADERS = {
    "proposals": (
        load_proposals,
        reference_load_proposals,
        lambda i: {"proposal_id": f"v1_c{i}", "video_id": "v1", "parent_id": None if i % 2 else "v1_c0",
                   "provenance": PROVENANCES[i % 2], **_cuboid(i)},
    ),
    "scores": (
        load_scores,
        reference_load_scores,
        lambda i: {"proposal_id": f"v1_c{i}", "class_scores": SCORES[i:] + SCORES[:i],
                   "refine_start": -0.5, "refine_end": 0.25 * i},
    ),
    "final_detections": (
        lambda path: load_final_detections(path, DEFAULT_ACTION_CLASSES),
        lambda path: reference_load_final_detections(path, DEFAULT_ACTION_CLASSES),
        lambda i: {"video_id": "v1", "proposal_id": f"v1_c{i}", "action_class": DEFAULT_ACTION_CLASSES[i],
                   "confidence": [0.9, 1.0, 0.0][i % 3], **_cuboid(i)},
    ),
    "detections": (
        lambda path: load_detections(path, VIDEOS, 0.5, None),
        lambda path: reference_load_detections(path, VIDEOS, 0.5, None),
        lambda i: {"video_id": ["v1", "v2"][i % 2], "frame": 3 + i, "object_class": "person",
                   "x_min": 10.0, "y_min": -0.0, "x_max": 30.5, "y_max": 60.0, "confidence": [0.9, 0.3][i % 2]},
    ),
    "ground_truth": (
        lambda path: load_ground_truth(path, VIDEOS),
        lambda path: reference_load_ground_truth(path, VIDEOS),
        lambda i: {"video_id": ["v1", "v2"][i % 2], "action_class": DEFAULT_ACTION_CLASSES[i], **_cuboid(i)},
    ),
    "videos": (
        load_video_meta,
        reference_load_video_meta,
        lambda i: {"video_id": f"v{i}", "num_frames": 100 + i, "frame_rate": [30.0, 25.0, 29.97][i % 3],
                   "width": 640.0, "height": [480.0, 360.5, 1e4][i % 3]},
    ),
}
# What a damaged field may hold instead, by the type of its valid value.
DAMAGED_VALUES = {
    type(None): ["", 5, "v1_c0", False],
    str: ["", "zz", True, 5, None, 0.5],
    int: [True, False, 1.5, 10.0, -1, 10**6, 2**53, 2**53 + 1, -(2**53 + 1), None, "3"],
    float: [True, 0, 1, 7, math.nan, math.inf, -math.inf, 2**53 + 1, 2.0**53 + 2, 1e300, -1e300,
            -0.0, 1.5, -0.5, 60.0, 5e-324, "0.5", None],
    list: [
        [0.05, math.nan] + [0.95 / 11] * 11,  # NaN after a valid score
        [math.nan] + [1.0 / 12] * 12,
        [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],  # integers, a valid distribution
        [1.0, 0, 0.0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [-0.0, 1.0] + [0.0] * 11,
        [1.5, -0.5] + [0.0] * 11,
        [True] + [0.0] * 12,
        [0.1] * 13,  # sums to 1.3
        [1.0 / 12] * 12,  # one short
        [math.inf, -math.inf] + [0.0] * 11,
        [1e308, 1e308] + [0.0] * 11,
        "0.5",
    ],
}
DAMAGED = {kind: st.sampled_from(values) for kind, values in DAMAGED_VALUES.items()}


@st.composite
def record_files(draw, kind):
    """Lines of 1-3 valid records, then up to two damaged fields on one of them.

    A damage drops a field, swaps its value for one of another type or out
    of range (NaN and the infinities are written as `json` writes them), or
    repeats an earlier record's `proposal_id`.
    """
    make = LOADERS[kind][2]
    records = [make(i) for i in range(draw(st.integers(1, 3)))]
    target = draw(st.integers(0, len(records) - 1))
    record = records[target]
    for _ in range(draw(st.integers(0, 2))):
        name = draw(st.sampled_from(sorted(record)))
        how = draw(st.sampled_from(("drop", "value", "repeat_id")))
        if how == "drop":
            del record[name]
        elif how == "repeat_id" and target > 0 and "proposal_id" in record:
            record["proposal_id"] = records[draw(st.integers(0, target - 1))]["proposal_id"]
        elif type(record[name]) in DAMAGED:
            record[name] = draw(DAMAGED[type(record[name])])
    return [json.dumps(r) for r in records]


def normalized(kind, result):
    """A loader's result as nested plain tuples of field values."""
    if kind == "scores":  # columns from the loader, `ReferenceScoreRecord`s by id from the oracle
        if isinstance(result, dict):
            return tuple((key, rec.class_scores, rec.refinement) for key, rec in result.items())
        ids, scores, refinements = result
        assert scores.dtype == refinements.dtype == np.float64
        assert scores.shape == (len(ids), 13) and refinements.shape == (len(ids), 2)
        return tuple(zip(ids, map(tuple, scores.tolist()), map(tuple, refinements.tolist())))
    if kind == "videos":
        return tuple((key, record_fields(rec)) for key, rec in result.items())
    if kind == "ground_truth":
        return tuple((video, tuple(map(record_fields, gts))) for video, gts in result.items())
    if kind == "detections":  # arrays from the loader, `ReferenceDetection` lists from the oracle
        return tuple(
            (video, rows.shape, rows.tobytes()) if isinstance(rows, np.ndarray) else (
                video, (len(rows), 5),
                np.array([(d.frame, d.x_min, d.y_min, d.x_max, d.y_max) for d in rows], dtype=np.float64).tobytes())
            for video, rows in result.items()
        )
    return tuple(map(record_fields, result))


@pytest.mark.parametrize("kind", sorted(LOADERS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_loader_equals_field_by_field_reference(tmp_path_factory, kind, data):
    load, reference, _ = LOADERS[kind]
    path = tmp_path_factory.mktemp(kind) / f"{kind}.jsonl"
    path.write_text("".join(line + "\n" for line in data.draw(record_files(kind))), encoding="utf-8")
    got, got_error = outcome(lambda: normalized(kind, load(path)))
    want, want_error = outcome(lambda: normalized(kind, reference(path)))
    assert got_error == want_error
    assert_identical(got, want)


# The four large loaders read `ingest.RECORD_BLOCK` lines at a time and check
# each block as columns; a block that fails goes line by line through the
# loader's `parse`.  At two lines a block, a damaged record, a repeated id, a
# blank line or the file's end falls in a first, a middle or a last block.

BLOCK_LOADERS = ("detections", "final_detections", "proposals", "scores")


@st.composite
def block_files(draw, kind) -> bytes:
    """1-9 records, up to two damaged fields in any of them, blank lines, LF or CRLF, a final newline or none.

    A damage is one of `record_files`', or a float field given the int of
    its value (valid: the loader converts it), or a `proposal_id` repeated
    from any earlier record.
    """
    make = LOADERS[kind][2]
    records = [make(i) for i in range(draw(st.integers(1, 9)))]
    for _ in range(draw(st.integers(0, 2))):
        target = draw(st.integers(0, len(records) - 1))
        record = records[target]
        if not record:
            break
        name = draw(st.sampled_from(sorted(record)))
        how = draw(st.sampled_from(("drop", "value", "int", "repeat_id")))
        if how == "drop":
            del record[name]
        elif how == "int":
            if type(record[name]) is float and record[name].is_integer():
                record[name] = int(record[name])
        elif how == "repeat_id":
            # an earlier damage may have dropped an earlier record's id
            earlier = [r["proposal_id"] for r in records[:target] if "proposal_id" in r]
            if earlier and "proposal_id" in record:
                record["proposal_id"] = draw(st.sampled_from(earlier))
        elif type(record[name]) in DAMAGED:
            record[name] = draw(DAMAGED[type(record[name])])
    lines = [json.dumps(r).encode("ascii") for r in records]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from([b"", b" ", b"\t"])))
    eol = draw(st.sampled_from([b"\n", b"\r\n"]))
    return eol.join(lines) + eol * draw(st.booleans())


@pytest.mark.parametrize("kind", BLOCK_LOADERS)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_block_reader_equals_field_by_field_reference(tmp_path_factory, kind, data):
    # `record_fields` names each record's type, so a plain tuple in place of a `Cuboid` would differ
    load, reference, _ = LOADERS[kind]
    path = tmp_path_factory.mktemp(kind) / f"{kind}.jsonl"
    path.write_bytes(data.draw(block_files(kind)))
    with mock.patch.object(ingest, "RECORD_BLOCK", 2):
        got, got_error = outcome(lambda: normalized(kind, load(path)))
    want, want_error = outcome(lambda: normalized(kind, reference(path)))
    assert got_error == want_error
    assert_identical(got, want)


@pytest.mark.parametrize("kind", BLOCK_LOADERS)
def test_every_damage_in_a_later_block_equals_reference(tmp_path, kind):
    # each field of the fourth of five records, in turn dropped or given each `DAMAGED` value, and
    # its id repeated from the first block and from its own
    load, reference, make = LOADERS[kind]
    path = tmp_path / f"{kind}.jsonl"
    valid = make(3)
    damages = [{name: value for name, value in valid.items() if name != dropped} for dropped in valid]
    for name, value in valid.items():
        for damaged in DAMAGED_VALUES[type(value)]:
            damages.append({**valid, name: damaged})
    if "proposal_id" in valid:
        damages += [{**valid, "proposal_id": make(i)["proposal_id"]} for i in (0, 2)]
    with mock.patch.object(ingest, "RECORD_BLOCK", 2):
        for record in damages:
            lines = [make(i) for i in range(3)] + [record, make(4)]
            path.write_text("".join(json.dumps(r) + "\n" for r in lines), encoding="utf-8")
            got, got_error = outcome(lambda: normalized(kind, load(path)))
            want, want_error = outcome(lambda: normalized(kind, reference(path)))
            assert got_error == want_error, record
            assert_identical(got, want)


@pytest.mark.parametrize("kind", BLOCK_LOADERS)
def test_valid_blocks_are_not_read_line_by_line(tmp_path, monkeypatch, kind):
    load, reference, make = LOADERS[kind]
    path = tmp_path / f"{kind}.jsonl"
    # CRLF line ends and no final newline are JSON whitespace to orjson, so they stay in the column check
    path.write_bytes(b"\r\n".join(json.dumps(make(i)).encode("ascii") for i in range(5)))
    want = normalized(kind, reference(path))

    def line_by_line(*args):
        raise AssertionError("a valid block was read line by line")

    monkeypatch.setattr(ingest, "RECORD_BLOCK", 2)
    monkeypatch.setattr(ingest, "_parse_lines", line_by_line)
    assert_identical(normalized(kind, load(path)), want)


# Each loader's rule table (`ingest.Table`) against one record at a time: among
# the records that every earlier rule holds for, a rule holds over a block's
# columns exactly when it holds over each record alone, as one-element columns.
# A typed field holds a value of exactly its reader's type, as the column read
# leaves it; a field only rules check holds whatever JSON may give, or nothing
# (`_get_scores`' `_ABSENT`).  The ids a duplicate-id rule reads are distinct
# within a block here: a repeated id sends the block line by line.

RULE_TABLES = {
    "videos": (ingest._video_table, "video_id"),
    "detections": (lambda: ingest._detection_table(VIDEOS), None),
    "ground_truth": (lambda: ingest._ground_truth_table(VIDEOS, DEFAULT_ACTION_CLASSES), None),
    "scores": (lambda: ingest._score_table(12), "proposal_id"),
    "proposals": (proposals_module._proposal_table, "proposal_id"),
    "final_detections": (lambda: nms_module._final_detection_table(DEFAULT_ACTION_CLASSES), None),
}
# Each field's values, mostly valid so that records reach the later rules, with
# the edges of the fields and of `VIDEOS` (v1: 100 frames, v2: 50; 640 x 480).
BOUNDS = [-1.0, -0.0, 0.0, 5.0, 49.5, 480.0, 480.5, 640.0, 700.0, 1e308]
RULE_VALUES = {
    "video_id": ["v1", "v2", "v1", "v2", "ghost"],
    "object_class": ["person", "car"],
    "action_class": [*DEFAULT_ACTION_CLASSES[:3], "Parkour"],
    "provenance": [*PROVENANCES, "x"],
    "proposal_id": [f"p{i}" for i in range(8)],
    "parent_id": [None, None, "p0", "", 5, False, 0.5, ["p0"]],
    "frame": [-1, 0, 10, 49, 50, 99, 100, MAX_INT, -MAX_INT],
    "f_start": [-1, 0, 10, 45, 60],
    "f_end": [0, 40, 49, 50, 99, 100],
    "num_frames": [-1, 0, 1, 100, MAX_INT],
    "frame_rate": [-1.0, 0.0, 5e-324, 1e-300, 29.97, 30.0],
    "confidence": [-0.5, -0.0, 0.0, 0.5, 1.0, 1.5],
    "x_min": BOUNDS[:5], "y_min": BOUNDS[:5], "x_max": BOUNDS[2:], "y_max": BOUNDS[2:],
    "width": BOUNDS, "height": BOUNDS, "refine_start": [-0.5, 0.25], "refine_end": [-0.5, 0.25],
}
SCORE_DAMAGE = [0, 1, True, False, -0.0, -0.5, 1.5, math.nan, math.inf, -math.inf, 2**1000, 10**400, "0.5", None]


@st.composite
def raw_class_scores(draw):
    """A valid distribution, maybe with up to two values replaced; or a list of other length; or no list."""
    kind = draw(st.sampled_from(["valid", "valid", "damaged", "length", "other"]))
    if kind == "other":
        return draw(st.sampled_from([ingest._ABSENT, None, "x", 0.5, {"a": 1}]))
    if kind == "length":
        return draw(st.lists(st.sampled_from([0.0, 1.0, 1 / 12]), min_size=0, max_size=14))
    scores = draw(st.sampled_from([SCORES, [1.0] + [0.0] * 12, [1] + [0] * 12, [0.0] * 12 + [1], [1 / 13] * 13]))
    scores = list(scores)
    for _ in range(2 if kind == "damaged" else 0):
        scores[draw(st.integers(0, 12))] = draw(st.sampled_from(SCORE_DAMAGE))
    return scores


def rule_record(draw, fields):
    return {name: draw(raw_class_scores() if name == "class_scores" else st.sampled_from(RULE_VALUES[name]))
            for name in fields}


@pytest.mark.parametrize("kind", sorted(RULE_TABLES))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_rule_holds_over_a_block_as_over_each_record(kind, data):
    make, unique = RULE_TABLES[kind]
    table = make()
    records = [rule_record(data.draw, table.fields) for _ in range(data.draw(st.integers(1, 5)))]
    if unique:
        records = list({record[unique]: record for record in records}.values())
    singles = [{name: (value,) for name, value in record.items()} for record in records]
    for k, rule in enumerate(table.rules):
        passing = [one for one in singles if all(earlier.holds(one) for earlier in table.rules[:k])]
        if passing:
            block = {name: tuple(one[name][0] for one in passing) for name in table.fields}
            assert rule.holds(block) == all(map(rule.holds, passing)), (k, passing)


DROPPED = object()  # a fault that removes the field


@pytest.mark.parametrize("kind,faults,expected", [
    ("final_detections", {"action_class": "Parkour", "f_start": 41}, "inverted frame span [41, 40]"),
    ("final_detections", {"action_class": "Parkour", "confidence": 1.5}, "unknown action_class 'Parkour'"),
    ("proposals", {"provenance": "x", "x_min": 50.0}, "empty x extent [50.0, 50.0]"),
    ("proposals", {"parent_id": "", "x_min": math.nan}, "field 'x_min' must be a finite number, got nan"),
    ("scores", {"class_scores": [1.5, -0.5] + [0.0] * 11, "refine_end": math.inf},
     "field 'refine_end' must be a finite number, got inf"),
    ("detections", {"confidence": 1.5, "x_max": 10.0}, "box must have positive width and height"),
    ("ground_truth", {"action_class": "Parkour", "f_start": DROPPED}, "missing field 'f_start'"),
], ids=["span_before_label", "label_before_confidence", "extent_before_provenance", "nan_before_parent",
        "refinement_before_scores", "box_before_confidence", "field_before_label"])
def test_first_of_two_faults_is_reported(tmp_path, kind, faults, expected):
    load, reference, make = LOADERS[kind]
    path = tmp_path / f"{kind}.jsonl"
    record = {name: value for name, value in {**make(0), **faults}.items() if value is not DROPPED}
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    for read in (load, reference):
        with pytest.raises(ValidationError) as err:
            read(path)
        assert str(err.value).startswith(f"{path}:1: {expected}")


@pytest.mark.parametrize("kind", ["proposals", "scores"])
def test_missing_field_is_found_before_a_repeated_id(tmp_path, kind):
    load, reference, make = LOADERS[kind]
    first, second = make(0), make(1)
    second["proposal_id"] = first["proposal_id"]
    missing = "video_id" if kind == "proposals" else "refine_start"
    del second[missing]
    path = tmp_path / f"{kind}.jsonl"
    path.write_text(json.dumps(first) + "\n" + json.dumps(second) + "\n", encoding="utf-8")
    expected = f"{path}:2: missing field {missing!r}"
    for read in (load, reference):
        with pytest.raises(ValidationError) as err:
            read(path)
        assert str(err.value) == expected


# A fault that a rule other than the duplicate-id rule finds, in a record the column read takes, with its message.
RULE_FAULTS = {
    "proposals": ({"provenance": "x"}, "unknown provenance 'x'"),
    "scores": ({"class_scores": [0.5] * 13}, "class_scores sum to 6.5, expected 1"),
    "videos": ({"num_frames": 0}, "video dimensions, frames and rate must be positive"),
}


@pytest.mark.parametrize("kind", sorted(RULE_FAULTS))
def test_block_read_again_line_by_line_finds_no_duplicate_of_its_own_ids(tmp_path, kind):
    # the block's ids join the duplicate set only once every rule holds over it, so the line-by-line
    # read of a refused block meets its first record's id as new
    load, reference, make = LOADERS[kind]
    fault, message = RULE_FAULTS[kind]
    path = tmp_path / f"{kind}.jsonl"
    path.write_text(json.dumps(make(0)) + "\n" + json.dumps({**make(1), **fault}) + "\n", encoding="utf-8")
    for read in (load, reference):
        with pytest.raises(ValidationError) as err:
            read(path)
        assert str(err.value) == f"{path}:2: {message}"
