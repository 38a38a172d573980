"""The record codec: one located reader for every input file, one cuboid field table, one writer per output."""

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actionpipe import labeling, nms, proposals
from actionpipe.cli import cmd_loss_oracle
from actionpipe.geometry import Cuboid
from actionpipe.ingest import (
    DEFAULT_ACTION_CLASSES,
    ORJSON_MAX_DEPTH,
    GroundTruthAction,
    ValidationError,
    VideoMeta,
    _get_int,
    _get_number,
    _encode,
    _get_str,
    _read_records,
    load_detections,
    load_ground_truth,
    load_scores,
    load_video_meta,
    write_ground_truth,
    write_records,
)
from actionpipe.labeling import LABEL_FIELDS
from actionpipe.nms import FINAL_DETECTION_FIELDS, ScoredDetection, load_final_detections, write_final_detections
from actionpipe.proposals import PROPOSAL_FIELDS, PROVENANCES, Proposal, load_proposals, write_proposals
from oracles import reference_read_records, run_python

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


# The reader parses with orjson and leaves every line orjson rejects to `json`;
# it must read any line as `json` alone does (`reference_read_records`).

# Any text, lone surrogates and non-ASCII whitespace included.
ANY_TEXT = st.text(st.characters(exclude_categories=()), max_size=6)
# Integers inside orjson's 64-bit range; past it see `test_integer_past_64_bits_reads_as_float`.
INT64 = st.integers(-(2**63), 2**64 - 1) | st.sampled_from([-(2**63), 2**63, 2**64 - 1, 2**53 + 1])
LINE_VALUES = st.recursive(
    st.none() | st.booleans() | INT64 | st.floats() | ANY_TEXT,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(ANY_TEXT, children, max_size=4),
    max_leaves=8,
)
# `str.strip()` whitespace that is not JSON whitespace, a BOM, and a separator that is neither.
PADDING = st.text(st.sampled_from(" \t\r\x0b\x0c\x1c\x1f\x85\xa0\u2028\u3000\ufeff"), max_size=3)


@st.composite
def record_lines(draw) -> bytes:
    """One line of a record file without its newline: JSON text, padded, cut or nested; blank; or any bytes."""
    kind = draw(st.sampled_from(("json", "cut", "nested", "blank", "bytes")))
    if kind == "bytes":
        return draw(st.binary(max_size=64)).replace(b"\n", b" ")
    if kind == "blank":
        return draw(PADDING).encode("utf-8")
    if kind == "nested":  # around the deepest line handed to orjson, as a valid and as a cut line
        depth = draw(st.integers(ORJSON_MAX_DEPTH - 2, ORJSON_MAX_DEPTH + 2))
        text = '{"a": ' + "[" * depth + "]" * depth * draw(st.booleans()) + "}"
    else:
        value = draw(st.dictionaries(ANY_TEXT, LINE_VALUES, max_size=4) | LINE_VALUES)
        text = json.dumps(value, ensure_ascii=draw(st.booleans()), separators=draw(st.sampled_from([None, (",", ":")])))
        if kind == "cut":
            text = text[:draw(st.integers(0, len(text)))]
    # a lone surrogate written without escapes makes the line invalid UTF-8
    return (draw(PADDING) + text + draw(PADDING)).encode("utf-8", "surrogatepass")


def read_outcome(read, path) -> tuple[list, str | None]:
    """The objects `read` yields from `path`, then its error message or None."""
    records = []
    try:
        for record in read(path, lambda obj: obj):
            records.append(record)
    except ValidationError as exc:
        return records, str(exc)
    return records, None


def assert_identical(got, want):
    """`==`, with identical types all the way down and floats equal bit for bit (NaN and -0.0 too)."""
    assert type(got) is type(want), (got, want)
    if isinstance(want, float):
        assert struct.pack("<d", got) == struct.pack("<d", want), (got, want)
    elif isinstance(want, dict):
        assert list(got) == list(want)
        for key in want:
            assert_identical(got[key], want[key])
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_identical(g, w)
    else:
        assert got == want


def assert_reads_as_json_alone(path):
    got, got_error = read_outcome(_read_records, path)
    want, want_error = read_outcome(reference_read_records, path)
    assert got_error == want_error
    assert_identical(got, want)


@settings(max_examples=400, deadline=None)
@given(lines=st.lists(record_lines(), min_size=1, max_size=4), crlf=st.booleans(), last_newline=st.booleans())
def test_reader_reads_any_line_as_json_alone(tmp_path_factory, lines, crlf, last_newline):
    eol = b"\r\n" if crlf else b"\n"
    path = tmp_path_factory.mktemp("lines") / "records.jsonl"
    path.write_bytes(eol.join(lines) + eol * last_newline)
    assert_reads_as_json_alone(path)


@pytest.mark.parametrize("line", [
    b'{"a": NaN, "b": -Infinity}', b'{"id": "\\ud800"}', b"\x0c{}\xc2\xa0", b"\x1c", b" \t\r",
    b"\xef\xbb\xbf{}", b"\xff{}", b'{"n": 9223372036854775807, "m": -0, "z": -0.0}', b"null", b"[]",
    b'{"a": ' + b"[" * 300 + b"]" * 300 + b"}", b"{" * 300,
], ids=["nan", "lone_surrogate", "nonascii_padding", "separator_only", "blank", "bom", "not_utf8",
        "int64_and_zeros", "null", "array", "nested_300", "cut_300"])
def test_reader_reads_line_as_json_alone(tmp_path, line):
    path = tmp_path / "records.jsonl"
    path.write_bytes(line + b"\r\n")
    assert_reads_as_json_alone(path)


def test_integer_past_64_bits_reads_as_float(tmp_path):
    # orjson reads an integer outside [-2**63, 2**64) as the nearest float; `json` alone read an int
    path = tmp_path / "proposals.jsonl"
    path.write_text(json.dumps({**LOADERS["proposals"][1], "f_end": 2**64}) + "\n", encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        load_proposals(path)
    assert str(err.value) == f"{path}:1: field 'f_end' must be an integer, got 1.8446744073709552e+19"
    assert_identical(list(_read_records(path, lambda obj: obj["f_end"])), [2.0**64])


def test_line_nested_a_million_deep_is_located(tmp_path):
    # orjson 3.8 has no depth limit: given this line it overflows the C stack
    path = tmp_path / "deep.jsonl"
    path.write_bytes(b"[" * 10**6 + b"]" * 10**6 + b"\n")
    out = run_python(
        "import sys\n"
        "from actionpipe.ingest import ValidationError, _read_records\n"
        "try:\n    list(_read_records(sys.argv[1], dict))\n"
        "except ValidationError as exc:\n    print(exc)\n",
        str(path),
    )
    assert out.startswith(f"{path}:1: malformed record: maximum recursion depth exceeded")


class TestWriteRecords:
    def test_sorted_keys_one_per_line(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_records(path, [{"b": 1, "a": None}, {"c": [1.5]}])
        assert path.read_text(encoding="utf-8") == '{"a": null, "b": 1}\n{"c": [1.5]}\n'

    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "proposals.jsonl"
        write_proposals(path, [Proposal("v1_c0000", "v1", Cuboid(0, 0, 5, 5, 0, 9), "clustering")])
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def failing():
            yield Proposal("v1_c0001", "v1", Cuboid(1, 1, 6, 6, 2, 4), "clustering")
            raise RuntimeError("classifier crashed")

        with pytest.raises(RuntimeError):
            write_proposals(path, failing())
        # the file and its column mirror, both as they were
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        assert sorted(before) == ["proposals.jsonl", "proposals.jsonl.cols"]

        final = tmp_path / "final"
        final.mkdir()
        path = final / "detections_final.jsonl"
        write_final_detections(path, [ScoredDetection("v1", "v1_c0000", 1, 0.5, Cuboid(0, 0, 5, 5, 0, 9))],
                               DEFAULT_ACTION_CLASSES)
        before = {p.name: p.read_bytes() for p in final.iterdir()}

        def failing_nms():
            yield ScoredDetection("v1", "v1_c0001", 2, 0.75, Cuboid(1, 1, 6, 6, 2, 4))
            raise RuntimeError("nms crashed")

        with pytest.raises(RuntimeError):
            write_final_detections(path, failing_nms(), DEFAULT_ACTION_CLASSES)
        assert {p.name: p.read_bytes() for p in final.iterdir()} == before
        assert sorted(before) == ["detections_final.jsonl", "detections_final.jsonl.cols"]


# Values an output record may hold: non-ASCII text, lone surrogates, -0.0, NaN,
# integers of any size, nesting.
WRITTEN_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(-(10**400)) | st.floats() | ANY_TEXT,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(ANY_TEXT, children, max_size=4),
    max_leaves=8,
)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.dictionaries(ANY_TEXT, WRITTEN_VALUES, max_size=5), max_size=4))
def test_write_records_equals_json_dumps(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("written") / "records.jsonl"
    write_records(path, records)
    assert path.read_bytes() == b"".join(json.dumps(r, sort_keys=True).encode("ascii") + b"\n" for r in records)


# The line functions of the three per-proposal outputs write a record through a
# template only when every value has its exact type; any value may reach them.

# (line function, its field table in argument order, fields that may be None)
LINE_FUNCTIONS = {
    "proposals": (proposals._proposal_line, {**PROPOSAL_FIELDS, "parent_id": _get_str}, {"parent_id"}),
    "labels": (labeling._label_line, LABEL_FIELDS, {"action_class", "target_start", "target_end"}),
    "final_detections": (nms._final_line, FINAL_DETECTION_FIELDS, set()),
}
TEXT_VALUES = ANY_TEXT | st.sampled_from(['"', "\\", 'a"b\\c', "\x00\x1f\x7f", "é✓", "\ud800", "\udfff x", ""])
EXACT_VALUES = {
    _get_str: TEXT_VALUES,
    _get_int: st.integers() | st.sampled_from([0, -1, 2**53 + 1, 2**63, -(2**63) - 1, 2**64]),
    _get_number: st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0, 1e16, 1e-5, 5e-324]),
}
# What the template must leave to the encoder: non-finite floats, bools, numpy scalars, subclasses.
OTHER_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, True, False]),
    st.floats().map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    TEXT_VALUES.map(type("Text", (str,), {})),
    st.integers().map(type("Integer", (int,), {})),
    st.floats(allow_nan=False).map(type("Real", (float,), {})),
    *EXACT_VALUES.values(),
)


@pytest.mark.parametrize("kind", sorted(LINE_FUNCTIONS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_line_function_equals_json_dumps(kind, data):
    line, fields, nullable = LINE_FUNCTIONS[kind]
    other = data.draw(st.sets(st.sampled_from(sorted(fields)), max_size=2))  # most records take the template
    values = [
        data.draw(OTHER_VALUES if name in other else EXACT_VALUES[read] | st.none() if name in nullable
                  else EXACT_VALUES[read])
        for name, read in fields.items()
    ]
    record = dict(zip(fields, values))
    try:
        want = json.dumps(record, sort_keys=True)
    except TypeError as exc:  # a numpy integer is no JSON value
        with pytest.raises(TypeError, match=str(exc)):
            line(*values)
    else:
        assert line(*values) == want


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


def test_lone_surrogate_id_byte_round_trip(tmp_path):
    # orjson rejects the escaped lone surrogate; `json` reads it, and the writer escapes it again
    proposals = [Proposal("v\ud800_c0000", "v\ud800", Cuboid(0, 0, 5, 5, 0, 9), "clustering")]
    assert_byte_round_trip(tmp_path, write_proposals, load_proposals, proposals)
    assert b'"video_id": "v\\ud800"' in (tmp_path / "first.jsonl").read_bytes()


# `write_proposals` and `write_final_detections` keep each box's text for the
# rest of one call.  A kept box must never stand in for one that only equals
# it: a zero of the other sign, or a value of another type.
Real = type("Real", (float,), {})
BOX_VALUE = st.sampled_from([0.0, -0.0, 1.0, 2.5, 640.0, 1e16, 5e-324]) | st.floats(allow_nan=False,
                                                                                     allow_infinity=False)


def equal_values(x: float) -> list:
    """`x`, values equal to it that the template must not write (its other sign, other types), NaN and ±inf."""
    values = [x, -x, np.float64(x), Real(x), math.nan, math.inf, -math.inf]
    if x.is_integer():
        values.append(int(x))
    if x in (0.0, 1.0):
        values.append(bool(x))
    return values


@st.composite
def shared_boxes(draw, count: int) -> list[tuple]:
    """`count` boxes, each one of at most three drawn boxes, any slot perhaps another form of its value."""
    bases = draw(st.lists(st.tuples(*[BOX_VALUE] * 4), min_size=1, max_size=3))
    boxes = []
    for _ in range(count):
        box = draw(st.sampled_from(bases))
        boxes.append(tuple(draw(st.just(x) | st.sampled_from(equal_values(x))) for x in box))
    return boxes


@settings(max_examples=200, deadline=None)
@given(data=st.data(), count=st.integers(1, 12))
def test_proposal_file_equals_encoder_lines(tmp_path_factory, data, count):
    path = tmp_path_factory.mktemp("memo") / "proposals.jsonl"
    rows = [
        (f"p{i}", "v1", data.draw(st.sampled_from(PROVENANCES)), *box, *sorted(data.draw(st.tuples(FRAME, FRAME))),
         data.draw(st.none() | st.just("p0")))
        for i, box in enumerate(data.draw(shared_boxes(count)))
    ]
    write_proposals(path, [Proposal(pid, video, tuple(box), prov, parent) for pid, video, prov, *box, parent in rows])
    names = list({**PROPOSAL_FIELDS, "parent_id": None})
    assert path.read_text("utf-8") == "".join(_encode(dict(zip(names, row))) + "\n" for row in rows)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), count=st.integers(1, 12))
def test_final_detection_file_equals_encoder_lines(tmp_path_factory, data, count):
    path = tmp_path_factory.mktemp("memo") / "detections_final.jsonl"
    dets = [
        ScoredDetection("v1", f"p{i}", data.draw(st.integers(1, 12)), data.draw(st.floats(0.0, 1.0)),
                        (*box, *sorted(data.draw(st.tuples(FRAME, FRAME)))))
        for i, box in enumerate(data.draw(shared_boxes(count)))
    ]
    write_final_detections(path, dets, DEFAULT_ACTION_CLASSES)
    rows = [(DEFAULT_ACTION_CLASSES[d.action_class - 1], d.confidence, d.video_id, d.proposal_id, *d.cuboid)
            for d in dets]
    assert path.read_text("utf-8") == "".join(_encode(dict(zip(FINAL_DETECTION_FIELDS, row))) + "\n" for row in rows)
