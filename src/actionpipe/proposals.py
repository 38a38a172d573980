"""Proposal record type plus the proposal file written by `propose`, and its column mirror.

`write_proposals` writes `proposals.jsonl` and then, beside it,
`proposals.jsonl.cols`: a binary mirror of the same records as columns,
bound to the JSONL bytes by one SHA-256 over both files.  `load_proposals`
builds its records from the mirror when the mirror parses, has the current
version and lengths that agree, and its digest holds over the JSONL file as
it is on disk plus the mirror's body.  Otherwise (no mirror, a JSONL
edited, appended to or cut after the write, a damaged or foreign mirror)
it reads the JSONL file, which stays the reference and the only source of
errors; the mirror path never raises.  The writer makes a mirror only of
records that the JSONL reader would take as they are
(`ingest.readable_as_is`) and whose strings hold no newline and encode as
strict UTF-8 (hold no surrogate), so both paths give equal records of equal
types, built by the same `build`.  Which path runs depends only on what is
on disk; deleting the mirror costs only time.

The mirror, all numbers little-endian: `MIRROR_MAGIC`; three int64 (the
version, the record count n, the byte length t of the text); the SHA-256
of the JSONL file's bytes followed by this mirror's counts, box columns and
text; the (6, n) float64 cuboid columns in `CUBOID_FIELDS` order
(frames are integers of at most 2**53 in magnitude, which float64 holds
exactly); and t bytes of UTF-8 text: every proposal id, then every video
id, provenance and parent id (empty for a null parent), joined by
newlines.  The bytes depend only on the records, so identical runs write
identical mirrors.  No pickle: NumPy reads the box columns straight from
the file's bytes, and the strings come from one `str.split`.
"""

from __future__ import annotations

import hashlib
import itertools
from collections import namedtuple
from pathlib import Path
from typing import Iterable

import numpy as np

from .geometry import BOX_FIELDS, CUBOID_RULES, Rule, check_record
from .ingest import (
    CUBOID_FIELDS,
    Table,
    ValidationError,
    _cuboids,
    _get_str,
    _read_table,
    _unique,
    line_encoder,
    readable_as_is,
    replacing,
    write_lines,
)

PROVENANCE_CLUSTERING = "clustering"
PROVENANCE_JITTERING = "jittering"
PROVENANCES = (PROVENANCE_CLUSTERING, PROVENANCE_JITTERING)
PROVENANCE_RULE = Rule(lambda c: all(map(PROVENANCES.__contains__, c["provenance"])),
                       lambda r: f"unknown provenance {r['provenance']!r}")


class Proposal(namedtuple("Proposal", "proposal_id video_id cuboid provenance parent_id")):
    """Class-agnostic cuboid hypothesized to contain an action.

    A validated tuple: construction rejects an unknown provenance
    (`PROVENANCE_RULE`, which `load_proposals` also applies).  Being a
    tuple, it also equals a plain tuple of the same values, iterates over
    them, and `json` would encode it as a list; nothing in the package, its
    tests or its benchmark relies on that.
    """

    __slots__ = ()

    def __new__(cls, proposal_id, video_id, cuboid, provenance, parent_id=None):
        check_record([PROVENANCE_RULE], {"provenance": (provenance,)}, ValidationError)
        return tuple.__new__(cls, (proposal_id, video_id, cuboid, provenance, parent_id))

    @classmethod
    def _make(cls, iterable):  # `_replace` builds through here; keep it validated
        return cls(*iterable)


# A proposal record's fields with their readers; `parent_id`, null or a string, only a rule checks.
PROPOSAL_FIELDS = {"proposal_id": _get_str, "video_id": _get_str, "provenance": _get_str, **CUBOID_FIELDS}
_PARENT_TYPES = frozenset((str, type(None)))
_proposal_line = line_encoder({**PROPOSAL_FIELDS, "parent_id": _get_str}, nullable=("parent_id",), memo=BOX_FIELDS)


MIRROR_MAGIC = b"APPCOLS\n"
MIRROR_VERSION = 2
_HEADER = len(MIRROR_MAGIC) + 3 * 8 + 32  # magic; version, record count, text length; digest
_HASH_CHUNK = 1 << 20  # bytes of the JSONL file hashed per read


def mirror_path(path) -> Path:
    """Where `write_proposals` puts the column mirror of the proposal file `path`."""
    path = Path(path)
    return path.with_name(path.name + ".cols")


def write_proposals(path, proposals: Iterable[Proposal]) -> None:
    """Write the proposal file, then its column mirror (`mirror_path`), each through `ingest.replacing`.

    A crash between the two leaves a mirror whose digest no longer matches,
    which `load_proposals` ignores.  Records that get no mirror
    (`_mirror_columns`) have an old one removed.
    """
    proposals = list(proposals)
    line = _proposal_line.fresh()  # jittered windows share their parent's box, whose text this call builds once
    digest = hashlib.sha256()
    write_lines(path, (
        line(prop.proposal_id, prop.video_id, prop.provenance, *prop.cuboid, prop.parent_id)
        for prop in proposals
    ), digest)
    columns = None if line.encoded else _mirror_columns(proposals)
    if columns is None:
        mirror_path(path).unlink(missing_ok=True)
        return
    boxes, text = columns
    counts = np.array([MIRROR_VERSION, len(proposals), len(text)], "<i8")
    for part in (counts, boxes, text):
        digest.update(part)
    with replacing(mirror_path(path)) as fh:
        for part in (MIRROR_MAGIC, counts, digest.digest(), boxes, text):
            fh.write(part)


def _mirror_columns(proposals: list[Proposal]) -> tuple[np.ndarray, bytes] | None:
    """The mirror's (6, n) cuboid columns and string text, or None when it must not be written.

    The text holds every proposal id, then every video id, provenance and
    parent id (empty for null, which no string parent can be), joined by
    newlines.  The records must have exactly their fields' types (the
    caller knows from the line encoder), and the JSONL reader must take
    their columns as they are (`readable_as_is`).  None for no records, and
    for a string holding a newline or a surrogate, which the JSONL alone
    carries.
    """
    if not proposals:
        return None
    ids, video_ids, cuboids, provenances, parents = zip(*proposals)
    columns = {"proposal_id": ids, "video_id": video_ids, "provenance": provenances, "parent_id": parents,
               **dict(zip(CUBOID_FIELDS, zip(*cuboids)))}
    if not readable_as_is(_proposal_table(), columns):
        return None
    n = len(proposals)
    text = "\n".join([*ids, *video_ids, *provenances, *[p or "" for p in parents]])
    if text.count("\n") != 4 * n - 1:  # some string holds a newline
        return None
    try:
        text = text.encode("utf-8")
    except UnicodeEncodeError:  # a surrogate
        return None
    return np.fromiter(itertools.chain(*map(columns.__getitem__, CUBOID_FIELDS)), "<f8", 6 * n), text


def _proposal_table() -> Table:
    seen: set[str] = set()

    def build(c: dict) -> list[Proposal]:
        seen.update(c["proposal_id"])
        return list(map(tuple.__new__, itertools.repeat(Proposal),
                        zip(c["proposal_id"], c["video_id"], _cuboids(c), c["provenance"], c["parent_id"])))

    return Table({**PROPOSAL_FIELDS, "parent_id": dict.get}, [  # null when absent
        _unique("proposal_id", seen),
        Rule(lambda c: _PARENT_TYPES.issuperset(map(type, c["parent_id"])) and "" not in c["parent_id"],
             lambda r: "parent_id must be null or a nonempty string"),
        *CUBOID_RULES,
        PROVENANCE_RULE,
    ], build)


def load_proposals(path) -> list[Proposal]:
    """Load a proposal file, preserving file order: from its column mirror when that matches, else from the JSONL."""
    proposals = _read_mirror(path)
    if proposals is None:
        proposals = list(_read_table(path, _proposal_table()))
    return proposals


def _read_mirror(path) -> list[Proposal] | None:
    """The records of the mirror of `path`, or None when it is absent, damaged or not that file's; never raises.

    The mirror is read with one call; the JSONL file is hashed in chunks.
    """
    try:
        buf = mirror_path(path).read_bytes()
        if buf[:len(MIRROR_MAGIC)] != MIRROR_MAGIC:
            return None
        version, n, t = np.frombuffer(buf, "<i8", 3, len(MIRROR_MAGIC)).tolist()
        if version != MIRROR_VERSION or n < 1 or t < 0 or len(buf) != _HEADER + 48 * n + t:
            return None
        view = memoryview(buf)
        digest = _file_digest(path)
        digest.update(view[len(MIRROR_MAGIC):_HEADER - 32])
        digest.update(view[_HEADER:])
        if digest.digest() != buf[_HEADER - 32:_HEADER]:
            return None
        strings = buf[_HEADER + 48 * n:].decode("utf-8").split("\n")
        if len(strings) != 4 * n:
            return None
        boxes = np.frombuffer(buf, "<f8", 6 * n, _HEADER).reshape(6, n)
        return _proposal_table().build({
            "proposal_id": strings[:n], "video_id": strings[n:2 * n], "provenance": strings[2 * n:3 * n],
            "parent_id": [p or None for p in strings[3 * n:]],
            **dict(zip(CUBOID_FIELDS, (*boxes[:4].tolist(), *boxes[4:].astype(np.int64).tolist()))),
        })
    except (OSError, ValueError):  # no mirror, or one that NumPy or `decode` refuses
        return None


def _file_digest(path):
    """SHA-256 object updated with the file's bytes, read `_HASH_CHUNK` at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(_HASH_CHUNK):
            digest.update(chunk)
    return digest
