"""The column mirror of a final-detections file: `load_final_detections` reads it only when it is that file's
and its labels are among the reader's action classes, else the JSONL."""

import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actionpipe import nms
from actionpipe.geometry import Cuboid
from actionpipe.ingest import DEFAULT_ACTION_CLASSES, ValidationError, mirror_path, read_mirror
from actionpipe.nms import ScoredDetection, load_final_detections, write_final_detections
from actionpipe.proposals import Proposal, write_proposals
from test_proposal_mirror import COORD, DAMAGE, FRAME, ODD_COORD, TEXT, UNMIRRORED, edit

ROWS = [
    ScoredDetection("v1", "v1_c0000", 4, 0.75, Cuboid(0.0, 0.0, 5.0, 5.0, 0, 9)),
    ScoredDetection("v1", "v1_c0000_j00", 12, 0.5, Cuboid(0.0, 0.0, 5.0, 5.0, 2, 4)),
    ScoredDetection("v2", "v2_c0000", 1, 1.0, Cuboid(1.5, 2.5, 6.0, 7.0, 3, 3)),
]


def mirrored(path, classes=DEFAULT_ACTION_CLASSES):
    """The records the mirror of `path` gives, or None: what `load_final_detections` reads when it is not None."""
    return read_mirror(path, nms._final_detection_table(classes))


def outcome(path, classes=DEFAULT_ACTION_CLASSES):
    """What `load_final_detections(path, classes)` gives: each record's fields' types and reprs, or its error."""
    try:
        records = load_final_detections(path, classes)
    except ValidationError as exc:
        return "error", str(exc).replace(str(path), "<path>")
    # a repr tells -0.0 from 0.0, and a string's repr is exact
    return "ok", [(type(d), type(d.cuboid), [(type(v), repr(v)) for v in (*d[:4], *d.cuboid)]) for d in records]


def jsonl_outcome(path, tmp_path, classes=DEFAULT_ACTION_CLASSES):
    """`outcome` of a copy of `path` without its mirror: the JSONL path."""
    bare = tmp_path / "bare"
    bare.mkdir(exist_ok=True)
    shutil.copy(path, bare / path.name)
    return outcome(bare / path.name, classes)


@pytest.fixture
def written(tmp_path):
    path = tmp_path / "out" / "detections_final.jsonl"
    path.parent.mkdir()
    write_final_detections(path, ROWS, DEFAULT_ACTION_CLASSES)
    return path


@st.composite
def detection_lists(draw):
    """Detections under a class list of their own, mostly valid; now and then one holds a fault or another type."""
    classes = tuple(draw(st.lists(TEXT, min_size=1, max_size=3, unique=True)))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        xs, ys = (sorted(draw(st.lists(COORD, min_size=2, max_size=2, unique=True))) for _ in "xy")
        values = [draw(st.sampled_from([0.0, -0.0, 0.5, 1.0, 1 / 3])), xs[0], ys[0], xs[1], ys[1],
                  *sorted(draw(st.lists(FRAME, min_size=2, max_size=2)))]
        strings = [draw(TEXT), draw(TEXT)]
        if draw(st.integers(0, 4)) == 0:
            fault = draw(st.integers(0, len(values) + len(strings) - 1))
            if fault == 0:
                values[0] = draw(st.sampled_from([-0.5, 1.5, 1]) | ODD_COORD)
            elif fault < len(values):
                values[fault] = draw(COORD | ODD_COORD | FRAME)
            else:
                strings[fault - len(values)] = ""
        cls = draw(st.integers(1, len(classes)))
        rows.append(tuple.__new__(ScoredDetection, (*strings, cls, values[0], tuple.__new__(Cuboid, values[1:]))))
    return classes, rows


@settings(max_examples=300, deadline=None)
@given(case=detection_lists())
def test_mirror_reads_as_the_jsonl(tmp_path_factory, case):
    classes, rows = case
    tmp_path = tmp_path_factory.mktemp("mirror")
    path = tmp_path / "detections_final.jsonl"
    write_final_detections(path, rows, classes)
    expected = jsonl_outcome(path, tmp_path, classes)
    assert outcome(path, classes) == expected
    if mirror_path(path).exists():  # only a file the JSONL path reads has a mirror, and the mirror is read
        assert expected[0] == "ok"
        assert mirrored(path, classes) is not None


def test_valid_file_is_read_from_its_mirror(written, monkeypatch):
    read = []
    monkeypatch.setattr(nms, "_read_table", lambda *args: read.append(args) or iter(()))
    assert load_final_detections(written, DEFAULT_ACTION_CLASSES) == ROWS
    assert read == []
    mirror_path(written).unlink()
    assert load_final_detections(written, DEFAULT_ACTION_CLASSES) == []  # now the (stubbed) JSONL path
    assert len(read) == 1


def test_identical_writes_give_identical_mirrors(tmp_path):
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        write_final_detections(tmp_path / name / "detections_final.jsonl", ROWS, DEFAULT_ACTION_CLASSES)
    mirrors = [(tmp_path / name / "detections_final.jsonl.cols").read_bytes() for name in ("a", "b")]
    assert mirrors[0] == mirrors[1]


def test_records_the_jsonl_path_refuses_get_no_mirror(written):
    assert mirror_path(written).exists()
    write_final_detections(written, [ROWS[0], tuple.__new__(ScoredDetection, (*ROWS[1][:3], 1.5, ROWS[1].cuboid))],
                           DEFAULT_ACTION_CLASSES)
    assert not mirror_path(written).exists()
    with pytest.raises(ValidationError, match=r"detections_final\.jsonl:2: confidence 1\.5 outside \[0, 1\]$"):
        load_final_detections(written, DEFAULT_ACTION_CLASSES)


@pytest.mark.parametrize("field", ["video_id", "proposal_id", "action_class"])
@pytest.mark.parametrize("string", sorted(UNMIRRORED))
def test_strings_the_mirror_cannot_hold_get_none(written, tmp_path, field, string):
    assert mirror_path(written).exists()
    classes = DEFAULT_ACTION_CLASSES
    if field == "action_class":  # the label comes from the class list
        classes = (*classes[:-1], UNMIRRORED[string])
        write_final_detections(written, ROWS, classes)
    else:
        write_final_detections(written, [ROWS[0], ROWS[1]._replace(**{field: UNMIRRORED[string]}), ROWS[2]], classes)
    assert not mirror_path(written).exists()
    got = outcome(written, classes)
    assert got == jsonl_outcome(written, tmp_path, classes)
    # a label's halves of a pair are read back as one character, which the class list does not hold
    assert got[0] == ("error" if (field, string) == ("action_class", "split_pair") else "ok")


def test_mirror_under_other_classes_gives_the_jsonl_error(written, tmp_path):
    assert mirrored(written, ("other",)) is None
    got = outcome(written, ("other",))
    assert got == ("error", "<path>:1: unknown action_class 'closing_trunk'; allowed: other")
    assert got == jsonl_outcome(written, tmp_path, ("other",))


@pytest.mark.parametrize("classes", [DEFAULT_ACTION_CLASSES[::-1], (*DEFAULT_ACTION_CLASSES, "extra")],
                         ids=["reversed", "superset"])
def test_mirror_under_classes_holding_every_label_is_read(written, tmp_path, classes):
    # the indices are the reader's own, as the JSONL path gives them
    assert mirrored(written, classes) is not None
    got = outcome(written, classes)
    assert got == jsonl_outcome(written, tmp_path, classes)
    assert [d.action_class for d in load_final_detections(written, classes)] == \
        [classes.index(DEFAULT_ACTION_CLASSES[d.action_class - 1]) + 1 for d in ROWS]


# how the JSONL file changes after `write_final_detections`, and the error loading must then raise, if any
CHANGES = {
    "appended_repeat": (lambda p: p.write_bytes(p.read_bytes() + p.read_bytes().splitlines(True)[0]), None),
    "appended_unknown_label": (lambda p: p.write_bytes(p.read_bytes() + p.read_bytes().splitlines(True)[0]
                                                       .replace(b"closing_trunk", b"Parkour")),
                               "<path>:4: unknown action_class 'Parkour'"),
    "edited_same_length_invalid": (lambda p: edit(p, b'"confidence": 0.75', b'"confidence": 1.75'),
                                   "<path>:1: confidence 1.75 outside [0, 1]"),
    "edited_same_length_valid": (lambda p: edit(p, b'"f_end": 9', b'"f_end": 8'), None),
    "truncated_mid_line": (lambda p: p.write_bytes(p.read_bytes()[:-10]), "<path>:3: malformed record: "),
    "truncated_line": (lambda p: p.write_bytes(b"".join(p.read_bytes().splitlines(True)[:2])), None),
    "emptied": (lambda p: p.write_bytes(b""), None),
}


@pytest.mark.parametrize("change", sorted(CHANGES))
def test_changed_jsonl_is_read_as_jsonl(written, tmp_path, change):
    make_change, error = CHANGES[change]
    make_change(written)
    assert mirrored(written) is None
    got = outcome(written)
    assert got == jsonl_outcome(written, tmp_path)
    if error is None:
        assert got[0] == "ok"
    else:
        assert got[0] == "error" and got[1].startswith(error)


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_damaged_mirror_falls_back_to_the_jsonl(written, damage):
    mirror = mirror_path(written)
    mirror.write_bytes(DAMAGE[damage](mirror.read_bytes(), written.read_bytes()))
    assert mirrored(written) is None
    assert load_final_detections(written, DEFAULT_ACTION_CLASSES) == ROWS


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_any_byte_changed_or_cut_falls_back(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("mirror") / "detections_final.jsonl"
    write_final_detections(path, ROWS, DEFAULT_ACTION_CLASSES)
    mirror = mirror_path(path)
    original = mirror.read_bytes()
    at = data.draw(st.integers(0, len(original) - 1))
    if data.draw(st.booleans()):
        damaged = original[:at]
    else:
        damaged = original[:at] + bytes([data.draw(st.integers(0, 255).filter(lambda b: b != original[at]))]) \
            + original[at + 1:]
    mirror.write_bytes(damaged)
    assert mirrored(path) is None
    assert load_final_detections(path, DEFAULT_ACTION_CLASSES) == ROWS


def test_mirror_of_another_file_or_a_directory_is_ignored(written, tmp_path):
    other = tmp_path / "other" / "detections_final.jsonl"
    other.parent.mkdir()
    write_final_detections(other, ROWS[:2], DEFAULT_ACTION_CLASSES)
    shutil.copy(mirror_path(written), mirror_path(other))
    assert mirrored(other) is None
    assert load_final_detections(other, DEFAULT_ACTION_CLASSES) == ROWS[:2]
    mirror_path(other).unlink()
    mirror_path(other).mkdir()
    assert mirrored(other) is None
    assert load_final_detections(other, DEFAULT_ACTION_CLASSES) == ROWS[:2]


def test_proposal_mirror_under_the_final_name_is_ignored(written, tmp_path):
    proposals = tmp_path / "proposals.jsonl"
    write_proposals(proposals, [Proposal(d.proposal_id, d.video_id, d.cuboid, "clustering") for d in ROWS])
    shutil.copy(mirror_path(proposals), mirror_path(written))
    assert mirrored(written) is None
    assert load_final_detections(written, DEFAULT_ACTION_CLASSES) == ROWS

