"""In-memory span recorder for the traced benchmark run.

The traced stage process wraps the public functions of `actionpipe` at the
place their callers look them up (`actionpipe.cli.load_detections`, not
`actionpipe.ingest.load_detections`, because `cli` imported the name), so
no file under `src/` changes.  Each call records one span (name, start,
end, parent); a wrapper may also derive counts from the call's arguments
and result.  Counting runs after the span closes and is recorded as its own
`bench.count` span, so it is charged neither to the layer nor to its caller.
Spans stay in memory and are written once, when the stage process exits.
"""

from __future__ import annotations

import collections
import importlib
import os
import time

ROOT = "cli"  # the span around one `actionpipe.cli.main` call
COUNT = "bench.count"
MAX_COUNTS = frozenset({"clustering.points_max", "nms.max_group"})  # kept as a maximum, not a sum


class SpanRecorder:
    """Collects spans and counts for one process; not thread-safe (stages run with --jobs 1)."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            span = [name, time.perf_counter(), 0.0, parent]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                started = time.perf_counter()
                for key, value in count(args, result).items():
                    if key in MAX_COUNTS:
                        self.counts[key] = max(self.counts.get(key, 0), value)
                    else:
                        self.counts[key] = self.counts.get(key, 0) + value
                self.spans.append([COUNT, started, time.perf_counter(), parent])
            return result

        return traced

    def to_json(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


def _count_detections(args, result):
    with open(args[0], "rb") as fh:
        records = sum(1 for line in fh if line.strip())
    return {"ingest.records_read": records, "ingest.detections_kept": sum(len(d) for d in result.values())}


def _count_jitter(args, result):
    clustered, params = args[0], args[1]
    attempted = 0
    for p in clustered:
        anchors = (p.cuboid.f_end - p.cuboid.f_start) // params.stride + 1
        if params.include_end and (p.cuboid.f_end - p.cuboid.f_start) % params.stride:
            anchors += 1
        attempted += anchors * len(params.half_windows)
    return {"jitter.windows_attempted": attempted, "jitter.windows_kept": len(result) - len(clustered)}


def _count_designations(args, result):
    proposals, gts_by_video = args[0], args[1]
    per_video = collections.Counter(p.video_id for p in proposals)
    counts = {"labeling.pairs": sum(n * len(gts_by_video.get(v, [])) for v, n in per_video.items())}
    for designation in ("positive", "easy_negative", "hard_negative", "discarded"):
        counts[f"labeling.{designation}"] = 0
    for lp in result:
        counts[f"labeling.{lp.designation}"] += 1
    return counts


def _count_nms(args, result):
    per_class = collections.Counter(d.action_class for d in args[0])
    return {"nms.candidates": len(args[0]), "nms.kept": len(result), "nms.max_group": max(per_class.values(), default=0)}


def _bytes(key):
    return lambda args, result: {key: os.path.getsize(args[0])}


# (module, attribute, layer, counter): every lookup site the traced run patches.
TRACED = (
    ("cli", "load_video_meta", "ingest.load_video_meta", None),
    ("cli", "load_detections", "ingest.load_detections", _count_detections),
    ("cli", "load_ground_truth", "ingest.load_ground_truth", None),
    ("cli", "load_scores", "ingest.load_scores", None),
    ("cli", "propose_video", "clustering.propose_video", None),
    ("clustering", "detection_features", "clustering.detection_features", None),
    ("clustering", "build_linkage", "clustering.build_linkage",
     lambda args, result: {"clustering.points_max": len(args[0])}),
    ("clustering", "cut_tree", "clustering.cut_tree", None),
    ("clustering", "clusters_to_proposals", "clustering.clusters_to_proposals", None),
    ("cli", "jitter_proposals", "jitter.jitter_proposals", _count_jitter),
    ("cli", "write_proposals", "proposals.write_proposals", _bytes("proposals.write_proposals_bytes")),
    ("cli", "load_proposals", "proposals.load_proposals", None),
    ("labeling", "designate_all", "labeling.designate_all", _count_designations),
    ("labeling", "select_training_set", "labeling.select_training_set",
     lambda args, result: {"labeling.training": len(result)}),
    ("labeling", "balance_classes", "labeling.balance_classes",
     lambda args, result: {"labeling.balanced": len(result)}),
    ("labeling", "write_training_manifest", "labeling.write_training_manifest",
     _bytes("labeling.write_training_manifest_bytes")),
    ("cli", "apply_refinement", "refine.apply_refinement",
     lambda args, result: {"refine.calls": 1, "refine.applied": int(result[1])}),
    ("cli", "nms_3d", "nms.nms_3d", _count_nms),
    ("cli", "write_final_detections", "nms.write_final_detections", _bytes("nms.write_final_detections_bytes")),
    ("cli", "load_final_detections", "nms.load_final_detections", None),
    ("cli", "per_class_det_curves", "scoring.per_class_det_curves",
     lambda args, result: {"scoring.thresholds": len({(d.action_class, d.confidence) for d in args[0]})}),
    ("scoring", "hungarian_match", "scoring.hungarian_match",
     lambda args, result: {"scoring.hungarian_match_calls": 1}),
    ("cli", "aggregate_det_curve", "scoring.aggregate_det_curve", None),
)


def install(recorder: SpanRecorder) -> None:
    """Patch every lookup site in TRACED with a recording wrapper."""
    for module_name, attr, layer, count in TRACED:
        module = importlib.import_module(f"actionpipe.{module_name}")
        setattr(module, attr, recorder.wrap(layer, getattr(module, attr), count))


def self_times(spans: list[list]) -> dict[str, float]:
    """Self time per span name: duration minus the time its direct children cover."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, float] = {}
    for (name, start, end, _), children in zip(spans, child_time):
        totals[name] = totals.get(name, 0.0) + (end - start) - children
    return totals


def check_self_times(spans: list[list]) -> tuple[float, float]:
    """Return (root wall, sum of all self times); they agree when spans nest properly."""
    roots = [s for s in spans if s[3] < 0]
    if len(roots) != 1 or roots[0][0] != ROOT:
        raise ValueError(f"expected one {ROOT!r} root span, got {[s[0] for s in roots]}")
    for name, start, end, parent in spans:
        if parent >= 0 and not (spans[parent][1] <= start <= end <= spans[parent][2]):
            raise ValueError(f"span {name!r} is not inside its parent {spans[parent][0]!r}")
    return roots[0][2] - roots[0][1], sum(self_times(spans).values())
