"""Proposal record type plus the proposal file written by `propose`."""

from __future__ import annotations

import itertools
from collections import namedtuple
from typing import Iterable

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


def write_proposals(path, proposals: Iterable[Proposal]) -> None:
    line = _proposal_line.fresh()  # jittered windows share their parent's box, whose text this call builds once
    write_lines(path, (
        line(prop.proposal_id, prop.video_id, prop.provenance, *prop.cuboid, prop.parent_id)
        for prop in proposals
    ))


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
    """Load a proposal file, preserving file order."""
    return list(_read_table(path, _proposal_table()))
