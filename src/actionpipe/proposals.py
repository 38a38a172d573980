"""Proposal record type plus the proposal file written by `propose`."""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable

from .geometry import Cuboid
from .ingest import (
    CUBOID_FIELDS,
    ValidationError,
    _get_str,
    _read_records,
    cuboid_record,
    field_reader,
    read_cuboid,
    write_records,
)

PROVENANCE_CLUSTERING = "clustering"
PROVENANCE_JITTERING = "jittering"
PROVENANCES = (PROVENANCE_CLUSTERING, PROVENANCE_JITTERING)


class Proposal(namedtuple("Proposal", "proposal_id video_id cuboid provenance parent_id")):
    """Class-agnostic cuboid hypothesized to contain an action.

    A validated tuple: construction rejects an unknown provenance.  Being
    a tuple, it also equals a plain tuple of the same values, iterates over
    them, and `json` would encode it as a list; nothing in the package, its
    tests or its benchmark relies on that.
    """

    __slots__ = ()

    def __new__(cls, proposal_id, video_id, cuboid, provenance, parent_id=None):
        if provenance not in PROVENANCES:
            raise ValidationError(f"unknown provenance {provenance!r}")
        return tuple.__new__(cls, (proposal_id, video_id, cuboid, provenance, parent_id))

    @classmethod
    def _make(cls, iterable):  # `_replace` builds through here; keep it validated
        return cls(*iterable)


def write_proposals(path, proposals: Iterable[Proposal]) -> None:
    write_records(path, (
        {
            "proposal_id": prop.proposal_id,
            "video_id": prop.video_id,
            "parent_id": prop.parent_id,
            "provenance": prop.provenance,
            **cuboid_record(prop.cuboid),
        }
        for prop in proposals
    ))


_read_proposal_fields = field_reader({
    "proposal_id": _get_str, "video_id": _get_str, "provenance": _get_str, **CUBOID_FIELDS,
})


def load_proposals(path) -> list[Proposal]:
    """Load a proposal file, preserving file order."""
    seen: set[str] = set()

    def parse(obj: dict) -> Proposal:
        fields = _read_proposal_fields(obj)
        parent = obj.get("parent_id")
        # a repeated id or a bad parent_id is an error that `parse_checked` words, in its order
        if fields is None or fields[0] in seen or (parent is not None and (not isinstance(parent, str) or not parent)):
            return parse_checked(obj)
        pid, video_id, provenance, *box = fields
        seen.add(pid)
        return Proposal(pid, video_id, Cuboid(*box), provenance, parent)

    def parse_checked(obj: dict) -> Proposal:
        pid = _get_str(obj, "proposal_id")
        if pid in seen:
            raise ValidationError(f"duplicate proposal_id {pid!r}")
        seen.add(pid)
        provenance = _get_str(obj, "provenance")
        parent = obj.get("parent_id")
        if parent is not None and (not isinstance(parent, str) or not parent):
            raise ValidationError("parent_id must be null or a nonempty string")
        return Proposal(pid, _get_str(obj, "video_id"), read_cuboid(obj), provenance, parent)

    return list(_read_records(path, parse))
