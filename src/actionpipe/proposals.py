"""Proposal record type plus the proposal file written by `propose`."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

from .geometry import Cuboid
from .ingest import ValidationError, _get_int, _get_number, _get_str, _read_records

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
    with open(path, "w", encoding="utf-8") as fh:
        for prop in proposals:
            c = prop.cuboid
            fh.write(json.dumps({
                "proposal_id": prop.proposal_id,
                "video_id": prop.video_id,
                "parent_id": prop.parent_id,
                "provenance": prop.provenance,
                "x_min": c.x_min,
                "y_min": c.y_min,
                "x_max": c.x_max,
                "y_max": c.y_max,
                "f_start": c.f_start,
                "f_end": c.f_end,
            }, sort_keys=True) + "\n")


def load_proposals(path) -> list[Proposal]:
    """Load a proposal file, preserving file order."""
    out: list[Proposal] = []
    seen: set[str] = set()
    for lineno, obj in _read_records(path):
        where = f"{path}:{lineno}"
        pid = _get_str(obj, "proposal_id", where)
        if pid in seen:
            raise ValidationError(f"{where}: duplicate proposal_id {pid!r}")
        seen.add(pid)
        provenance = _get_str(obj, "provenance", where)
        if provenance not in PROVENANCES:
            raise ValidationError(f"{where}: unknown provenance {provenance!r}")
        parent = obj.get("parent_id")
        if parent is not None and (not isinstance(parent, str) or not parent):
            raise ValidationError(f"{where}: parent_id must be null or a nonempty string")
        try:
            cuboid = Cuboid(
                x_min=_get_number(obj, "x_min", where),
                y_min=_get_number(obj, "y_min", where),
                x_max=_get_number(obj, "x_max", where),
                y_max=_get_number(obj, "y_max", where),
                f_start=_get_int(obj, "f_start", where),
                f_end=_get_int(obj, "f_end", where),
            )
        except ValueError as exc:
            raise ValidationError(f"{where}: {exc}") from exc
        out.append(Proposal(pid, _get_str(obj, "video_id", where), cuboid, provenance, parent))
    return out

