"""Proposal record type plus the proposal file written by `propose`, and its column mirror.

`write_proposals` writes `proposals.jsonl` and then, beside it,
`proposals.jsonl.cols`: a binary mirror of the same records as columns,
bound to the JSONL bytes by one SHA-256 over both files, through the
mirror codec of `ingest` (`write_mirror`, `read_mirror`; the layout is
described there).  `load_proposals` builds its records from the mirror when
the mirror parses, has the current version and lengths that agree, and its
digest holds over the JSONL file as it is on disk plus the mirror's body.
Otherwise (no mirror, a JSONL edited, appended to or cut after the write, a
damaged or foreign mirror) it reads the JSONL file, which stays the
reference and the only source of errors; the mirror path never raises.  The
writer makes a mirror only of records that the JSONL reader would take as
they are and whose strings hold no newline and no surrogate, so both paths
give equal records of equal types, built by the same `build`.  Which path
runs depends only on what is on disk; deleting the mirror costs only time.

The proposal mirror holds the (6, n) cuboid columns in `CUBOID_FIELDS`
order (frames are integers of at most 2**53 in magnitude, which float64
holds exactly), then every proposal id, video id, provenance and parent id
(empty for a null parent).
"""

from __future__ import annotations

import hashlib
import itertools
from collections import namedtuple
from typing import Iterable

from .geometry import BOX_FIELDS, CUBOID_RULES, Rule, check_record
from .ingest import (
    CUBOID_FIELDS,
    Table,
    ValidationError,
    _cuboids,
    _get_nullable,
    _get_str,
    _read_table,
    _unique,
    line_encoder,
    read_mirror,
    write_lines,
    write_mirror,
)

PROVENANCE_CLUSTERING = "clustering"
PROVENANCE_JITTERING = "jittering"
PROVENANCES = (PROVENANCE_CLUSTERING, PROVENANCE_JITTERING)
_KNOWN_PROVENANCES = frozenset(PROVENANCES)


def _known_provenances(c: dict) -> bool:
    """True when every value of the provenance column is one of `PROVENANCES`."""
    try:
        return _KNOWN_PROVENANCES.issuperset(c["provenance"])
    except TypeError:  # an unhashable provenance, which `Proposal(...)` may be given
        return False


PROVENANCE_RULE = Rule(_known_provenances, lambda r: f"unknown provenance {r['provenance']!r}")


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


def write_proposals(path, proposals: Iterable[Proposal]) -> None:
    """Write the proposal file, then its column mirror (`ingest.write_mirror`), each through `ingest.replacing`.

    A crash between the two leaves a mirror whose digest no longer matches,
    which `load_proposals` ignores.
    """
    proposals = list(proposals)
    table = _proposal_table()
    columns = dict.fromkeys(table.fields, ())
    if proposals:
        ids, video_ids, cuboids, provenances, parents = zip(*proposals)
        columns = {"proposal_id": ids, "video_id": video_ids, "provenance": provenances,
                   **dict(zip(CUBOID_FIELDS, zip(*cuboids))), "parent_id": parents}
    line = _proposal_line.fresh()  # jittered windows share their parent's box, whose text this call builds once
    digest = hashlib.sha256()
    write_lines(path, map(line, *map(columns.__getitem__, table.fields)), digest)
    write_mirror(path, table, None if line.encoded else columns, digest)


def _proposal_table() -> Table:
    seen: set[str] = set()
    return Table({**PROPOSAL_FIELDS, "parent_id": _get_nullable}, [
        _unique("proposal_id", seen),
        Rule(lambda c: _PARENT_TYPES.issuperset(map(type, c["parent_id"])) and "" not in c["parent_id"],
             lambda r: "parent_id must be null or a nonempty string"),
        *CUBOID_RULES,
        PROVENANCE_RULE,
    ], lambda c: list(map(tuple.__new__, itertools.repeat(Proposal),
                          zip(c["proposal_id"], c["video_id"], _cuboids(c), c["provenance"], c["parent_id"]))),
        unique=("proposal_id", seen))


def load_proposals(path) -> list[Proposal]:
    """Load a proposal file, preserving file order: from its column mirror when that matches, else from the JSONL."""
    table = _proposal_table()
    proposals = read_mirror(path, table)
    if proposals is None:
        proposals = list(_read_table(path, table))
    return proposals
