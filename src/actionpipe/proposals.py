"""Proposal record type plus the proposal file written by `propose`."""

from __future__ import annotations

import itertools
from collections import namedtuple
from typing import Iterable

from .geometry import Cuboid, cuboids_from_columns
from .ingest import (
    CUBOID_FIELDS,
    ValidationError,
    _get_str,
    _read_blocks,
    field_reader,
    line_encoder,
    write_lines,
)

PROVENANCE_CLUSTERING = "clustering"
PROVENANCE_JITTERING = "jittering"
PROVENANCES = (PROVENANCE_CLUSTERING, PROVENANCE_JITTERING)


class Proposal(namedtuple("Proposal", "proposal_id video_id cuboid provenance parent_id")):
    """Class-agnostic cuboid hypothesized to contain an action.

    A validated tuple: construction rejects an unknown provenance.  Being
    a tuple, it also equals a plain tuple of the same values, iterates over
    them, and `json` would encode it as a list; nothing in the package, its
    tests or its benchmark relies on that.  `load_proposals` checks the same
    rules over a block of records at once and then builds them with
    `tuple.__new__`.
    """

    __slots__ = ()

    def __new__(cls, proposal_id, video_id, cuboid, provenance, parent_id=None):
        if provenance not in PROVENANCES:
            raise ValidationError(f"unknown provenance {provenance!r}")
        return tuple.__new__(cls, (proposal_id, video_id, cuboid, provenance, parent_id))

    @classmethod
    def _make(cls, iterable):  # `_replace` builds through here; keep it validated
        return cls(*iterable)


# A proposal record's fields with their readers; `parent_id`, null or a string, is read on its own.
PROPOSAL_FIELDS = {"proposal_id": _get_str, "video_id": _get_str, "provenance": _get_str, **CUBOID_FIELDS}
_read_proposal_fields = field_reader(PROPOSAL_FIELDS)
_PROVENANCE_SET = frozenset(PROVENANCES)
_PARENT_TYPES = frozenset((str, type(None)))
_proposal_line = line_encoder({**PROPOSAL_FIELDS, "parent_id": _get_str}, nullable=("parent_id",))


def write_proposals(path, proposals: Iterable[Proposal]) -> None:
    write_lines(path, (
        _proposal_line(prop.proposal_id, prop.video_id, prop.provenance, *prop.cuboid, prop.parent_id)
        for prop in proposals
    ))


def load_proposals(path) -> list[Proposal]:
    """Load a proposal file, preserving file order."""
    seen: set[str] = set()

    def parse(obj: dict) -> Proposal:
        pid, video_id, provenance, *box = _read_proposal_fields(obj)
        if pid in seen:
            raise ValidationError(f"duplicate proposal_id {pid!r}")
        seen.add(pid)
        parent = obj.get("parent_id")
        if parent is not None and (not isinstance(parent, str) or not parent):
            raise ValidationError("parent_id must be null or a nonempty string")
        return Proposal(pid, video_id, Cuboid(*box), provenance, parent)

    def check(objects: list[dict], rows: list[tuple], columns: list[tuple]) -> list[Proposal] | None:
        ids, video_ids, provenances, *box = columns
        parents = [obj.get("parent_id") for obj in objects]
        fresh = set(ids)
        if (len(fresh) < len(ids) or not seen.isdisjoint(fresh) or not _PROVENANCE_SET.issuperset(provenances)
                or not _PARENT_TYPES.issuperset(map(type, parents)) or "" in parents):
            return None
        cuboids = cuboids_from_columns(*box)
        if cuboids is None:
            return None
        seen.update(fresh)
        return list(map(tuple.__new__, itertools.repeat(Proposal), zip(ids, video_ids, cuboids, provenances, parents)))

    return list(itertools.chain.from_iterable(_read_blocks(path, PROPOSAL_FIELDS, check, parse)))
