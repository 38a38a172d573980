"""The column mirror of a proposal file: `load_proposals` reads it only when it is that file's, else the JSONL."""

import hashlib
import math
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actionpipe import proposals
from actionpipe.ingest import MAX_INT, ValidationError
from actionpipe.proposals import (
    MIRROR_MAGIC,
    MIRROR_VERSION,
    PROVENANCES,
    Proposal,
    load_proposals,
    mirror_path,
    write_proposals,
)

ROWS = [
    Proposal("v1_c0000", "v1", (0.0, 0.0, 5.0, 5.0, 0, 9), "clustering"),
    Proposal("v1_c0000_j00", "v1", (0.0, 0.0, 5.0, 5.0, 2, 4), "jittering", "v1_c0000"),
    Proposal("v2_c0000", "v2", (1.5, 2.5, 6.0, 7.0, 3, 3), "clustering"),
]


def outcome(path):
    """What `load_proposals(path)` gives: each record's type and its fields' types and reprs, or its error."""
    try:
        records = load_proposals(path)
    except ValidationError as exc:
        return "error", str(exc).replace(str(path), "<path>")
    # a repr tells -0.0 from 0.0, and a string's repr is exact
    return "ok", [(type(p), type(p.cuboid), [(type(v), repr(v)) for v in (*p[:2], *p.cuboid, *p[3:])])
                  for p in records]


def jsonl_outcome(path, tmp_path):
    """`outcome` of a copy of `path` without its mirror: the JSONL path."""
    bare = tmp_path / "bare"
    bare.mkdir(exist_ok=True)
    shutil.copy(path, bare / path.name)
    return outcome(bare / path.name)


@pytest.fixture
def written(tmp_path):
    path = tmp_path / "out" / "proposals.jsonl"
    path.parent.mkdir()
    write_proposals(path, ROWS)
    return path


# Strings a proposal may hold: NUL, newlines, non-ASCII, lone surrogates and the two halves of a pair,
# which `json` joins into one character when it reads the escaped text back.
TEXT = st.text(st.characters(exclude_categories=()) | st.sampled_from(["\ud83d", "\ude00", "\n", "\x00"]),
               min_size=1, max_size=4) | st.sampled_from(["\ud83d\ude00", "a\ud800", "\udc00\ud800\udc00", "v\n1"])
COORD = st.sampled_from([0.0, -0.0, 1.5, 640.0, 1e16, 5e-324, -3.0]) | st.floats(allow_nan=False,
                                                                                 allow_infinity=False)
# what the writer may be given instead of a plain float: the JSONL path converts or refuses each
ODD_COORD = st.sampled_from([2, True, np.float64(1.0), math.nan, math.inf, 1e308])
FRAME = st.integers(-3, 40) | st.sampled_from([MAX_INT, MAX_INT - 1, -MAX_INT, MAX_INT + 1, -MAX_INT - 1])


@st.composite
def proposal_lists(draw):
    """Proposals that are mostly valid; now and then one holds a fault or a value of another type."""
    n = draw(st.integers(1, 6))
    ids = draw(st.lists(TEXT, min_size=n, max_size=n, unique=draw(st.integers(0, 4)) > 0))
    rows = []
    for proposal_id in ids:
        xs, ys = (sorted(draw(st.lists(COORD, min_size=2, max_size=2, unique=True))) for _ in "xy")
        values = [xs[0], ys[0], xs[1], ys[1], *sorted(draw(st.lists(FRAME, min_size=2, max_size=2)))]
        strings = [proposal_id, draw(TEXT), draw(st.none() | TEXT)]
        if draw(st.integers(0, 4)) == 0:
            fault = draw(st.integers(0, len(values) + len(strings) - 1))
            if fault < len(values):
                values[fault] = draw(COORD | ODD_COORD | FRAME)
            else:
                strings[fault - len(values)] = ""
        rows.append(Proposal(strings[0], strings[1], tuple(values), draw(st.sampled_from(PROVENANCES)), strings[2]))
    return rows


@settings(max_examples=300, deadline=None)
@given(rows=proposal_lists())
def test_mirror_reads_as_the_jsonl(tmp_path_factory, rows):
    tmp_path = tmp_path_factory.mktemp("mirror")
    path = tmp_path / "proposals.jsonl"
    write_proposals(path, rows)
    expected = jsonl_outcome(path, tmp_path)
    assert outcome(path) == expected
    if mirror_path(path).exists():  # only a file the JSONL path reads has a mirror, and the mirror is read
        assert expected[0] == "ok"
        assert proposals._read_mirror(path) is not None


def test_valid_file_is_read_from_its_mirror(written, monkeypatch):
    read = []
    monkeypatch.setattr(proposals, "_read_table", lambda *args: read.append(args) or iter(()))
    assert load_proposals(written) == ROWS
    assert read == []
    mirror_path(written).unlink()
    assert load_proposals(written) == []  # now the (stubbed) JSONL path
    assert len(read) == 1


def test_frames_at_2_53_have_a_mirror(tmp_path):
    path = tmp_path / "proposals.jsonl"
    rows = [Proposal("p", "v", (-0.0, 0.0, 5.0, 5.0, -MAX_INT, MAX_INT), "clustering")]
    write_proposals(path, rows)
    assert proposals._read_mirror(path) == rows
    assert outcome(path) == jsonl_outcome(path, tmp_path)


def test_identical_writes_give_identical_mirrors(tmp_path):
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        write_proposals(tmp_path / name / "proposals.jsonl", ROWS)
    mirrors = [(tmp_path / name / "proposals.jsonl.cols").read_bytes() for name in ("a", "b")]
    assert mirrors[0] == mirrors[1]


def test_records_the_jsonl_path_refuses_get_no_mirror(written):
    assert mirror_path(written).exists()
    write_proposals(written, [ROWS[0], ROWS[0]])  # a repeated id
    assert not mirror_path(written).exists()
    with pytest.raises(ValidationError, match=r"proposals\.jsonl:2: duplicate proposal_id 'v1_c0000'$"):
        load_proposals(written)


# strings the JSONL carries but the mirror's newline-joined UTF-8 text cannot; the JSONL path reads
# a pair's two halves, held as two code points, back as one character
UNMIRRORED = {"newline": "v1\nx", "lone_surrogate": "v1\ud800", "split_pair": "\ud83d\ude00"}


@pytest.mark.parametrize("field", ["proposal_id", "video_id", "parent_id"])
@pytest.mark.parametrize("string", sorted(UNMIRRORED))
def test_strings_the_mirror_cannot_hold_get_none(written, tmp_path, field, string):
    assert mirror_path(written).exists()
    rows = [ROWS[0], ROWS[1]._replace(**{field: UNMIRRORED[string]}), ROWS[2]]
    write_proposals(written, rows)
    assert not mirror_path(written).exists()
    got = outcome(written)
    assert got[0] == "ok"
    assert got == jsonl_outcome(written, tmp_path)


def edit(path, old: bytes, new: bytes) -> None:
    data = path.read_bytes()
    assert data.count(old) == 1
    path.write_bytes(data.replace(old, new))


# how the JSONL file changes after `write_proposals`, and the error `load_proposals` must then raise, if any
CHANGES = {
    "appended_repeat": (lambda p: p.write_bytes(p.read_bytes() + p.read_bytes().splitlines(True)[0]),
                        "<path>:4: duplicate proposal_id 'v1_c0000'"),
    "appended_record": (lambda p: p.write_bytes(p.read_bytes() + p.read_bytes().splitlines(True)[2]
                                                .replace(b"v2_c0000", b"v2_c0001")), None),
    "edited_same_length_invalid": (lambda p: edit(p, b'"x_max": 6.0', b'"x_max": 1.0'),
                                   "<path>:3: empty x extent [1.5, 1.0]"),
    "edited_same_length_valid": (lambda p: edit(p, b'"f_end": 9', b'"f_end": 8'), None),
    "truncated_mid_line": (lambda p: p.write_bytes(p.read_bytes()[:-10]), "<path>:3: malformed record: "),
    "truncated_line": (lambda p: p.write_bytes(b"".join(p.read_bytes().splitlines(True)[:2])), None),
    "emptied": (lambda p: p.write_bytes(b""), None),
}


@pytest.mark.parametrize("change", sorted(CHANGES))
def test_changed_jsonl_is_read_as_jsonl(written, tmp_path, change):
    make_change, error = CHANGES[change]
    make_change(written)
    assert proposals._read_mirror(written) is None
    got = outcome(written)
    assert got == jsonl_outcome(written, tmp_path)
    if error is None:
        assert got[0] == "ok"
    else:
        assert got[0] == "error" and got[1].startswith(error)


DIGEST = len(MIRROR_MAGIC) + 3 * 8  # where the digest starts; the box columns follow it


def seal(data: bytes, jsonl: bytes) -> bytes:
    """`data` with its digest made to hold over the JSONL bytes `jsonl` plus its body, as the writer makes it."""
    digest = hashlib.sha256(jsonl + data[len(MIRROR_MAGIC):DIGEST] + data[DIGEST + 32:]).digest()
    return data[:DIGEST] + digest + data[DIGEST + 32:]


def sealed(change):
    """A damage that applies `change` to the mirror's bytes and then `seal`s them."""
    return lambda data, jsonl: seal(change(data), jsonl)


def patched(field: str, value: int):
    """A sealed damage that sets the header's int64 `field` to `value`."""
    offset = len(MIRROR_MAGIC) + 8 * ("version", "records", "text").index(field)
    return sealed(lambda data: data[:offset] + np.array([value], "<i8").tobytes() + data[offset + 8:])


# how the mirror is damaged or replaced, given its bytes and the JSONL file's; a sealed change gets past
# the digest to the check behind it
DAMAGE = {
    "empty": lambda data, _: b"",
    "truncated_header": lambda data, _: data[:20],
    "truncated_last_byte": lambda data, _: data[:-1],
    "one_byte_more": lambda data, _: data + b"\n",
    "garbage": lambda data, _: bytes(range(256)) * (len(data) // 256 + 1),
    "not_a_mirror": lambda data, _: b"not a mirror\n",
    "other_magic": sealed(lambda data: b"X" + data[1:]),
    "newer_version": patched("version", MIRROR_VERSION + 1),
    "older_version": patched("version", MIRROR_VERSION - 1),
    "more_records": patched("records", 4),
    "fewer_records": patched("records", 2),
    "no_records": patched("records", 0),
    "negative_records": patched("records", -1),
    "longer_text": patched("text", 10**6),
    "other_digest": lambda data, _: data[:DIGEST] + bytes(32) + data[DIGEST + 32:],
    "other_box": lambda data, _: data[:DIGEST + 32] + np.array([1.0], "<f8").tobytes() + data[DIGEST + 40:],
    "other_text": lambda data, _: data[:-10] + b"_" + data[-9:],
    "strings_joined": sealed(lambda data: data[:-10] + data[-10:].replace(b"\n", b"_")),
    "not_utf8": sealed(lambda data: data[:-10] + b"\xff" + data[-9:]),
}


def test_sealing_keeps_a_written_mirror(written):
    data = mirror_path(written).read_bytes()
    assert seal(data, written.read_bytes()) == data


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_damaged_mirror_falls_back_to_the_jsonl(written, damage):
    mirror = mirror_path(written)
    mirror.write_bytes(DAMAGE[damage](mirror.read_bytes(), written.read_bytes()))
    assert proposals._read_mirror(written) is None
    assert load_proposals(written) == ROWS


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_any_byte_changed_or_cut_falls_back(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("mirror") / "proposals.jsonl"
    write_proposals(path, ROWS)
    mirror = mirror_path(path)
    original = mirror.read_bytes()
    at = data.draw(st.integers(0, len(original) - 1))
    if data.draw(st.booleans()):
        damaged = original[:at]
    else:
        damaged = original[:at] + bytes([data.draw(st.integers(0, 255).filter(lambda b: b != original[at]))]) \
            + original[at + 1:]
    mirror.write_bytes(damaged)
    assert proposals._read_mirror(path) is None
    assert load_proposals(path) == ROWS


def test_mirror_of_another_file_or_a_directory_is_ignored(written, tmp_path):
    other = tmp_path / "other" / "proposals.jsonl"
    other.parent.mkdir()
    write_proposals(other, ROWS[:2])
    shutil.copy(mirror_path(written), mirror_path(other))
    assert proposals._read_mirror(other) is None
    assert load_proposals(other) == ROWS[:2]
    mirror_path(other).unlink()
    mirror_path(other).mkdir()
    assert proposals._read_mirror(other) is None
    assert load_proposals(other) == ROWS[:2]
