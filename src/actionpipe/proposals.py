"""Proposal record type plus the proposal file written by `propose`."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .geometry import Cuboid
from .ingest import ValidationError, _get_str, _read_records, cuboid_record, read_cuboid, write_records

PROVENANCE_CLUSTERING = "clustering"
PROVENANCE_JITTERING = "jittering"
PROVENANCES = (PROVENANCE_CLUSTERING, PROVENANCE_JITTERING)


@dataclass(frozen=True)
class Proposal:
    """Class-agnostic cuboid hypothesized to contain an action."""

    proposal_id: str
    video_id: str
    cuboid: Cuboid
    provenance: str
    parent_id: str | None = None

    def __post_init__(self):
        if self.provenance not in PROVENANCES:
            raise ValidationError(f"unknown provenance {self.provenance!r}")


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


def load_proposals(path) -> list[Proposal]:
    """Load a proposal file, preserving file order."""
    seen: set[str] = set()

    def parse(obj: dict) -> Proposal:
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
