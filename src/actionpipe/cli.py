"""Command-line driver wiring the pipeline end to end.

Subcommands: propose, label, finalize, score, synth, loss-oracle.  Every
threshold can be set in the JSON config and overridden per run; reruns with
the same config and seed produce byte-identical outputs.  Exit codes:
0 success, 1 validation error, 2 I/O error.  `finalize` builds its NMS
candidates (`_candidates`) without `ScoredDetection`'s checks, from class
indices and scores that are already known to be valid.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import itertools
import json
import math
import os
import sys
from pathlib import Path

# No stage calls BLAS, yet NumPy and SciPy each bundle an OpenBLAS build that
# starts a pool of worker threads as it loads; one thread starts none.  Set
# before the first import below that loads NumPy.  A value the user set stays,
# and `propose --jobs` workers inherit the setting with the environment.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from . import labeling  # noqa: E402
from .clustering import keep_rounds_on_one_thread, propose_video  # noqa: E402
from .config import PipelineConfig, load_config  # noqa: E402
from .geometry import Cuboid  # noqa: E402
from .ingest import (  # noqa: E402
    ValidationError,
    VideoMeta,
    _get,
    _get_int,
    _is_finite,
    _read_records,
    ensure_path,
    indented_json,
    load_detections,
    load_ground_truth,
    load_scores,
    load_video_meta,
    write_lines,
    write_records,
)
from .jitter import jitter_proposals  # noqa: E402
from .nms import ScoredDetection, load_final_detections, nms_3d, write_final_detections  # noqa: E402
from .proposals import PROVENANCE_CLUSTERING, Proposal, load_proposals, write_proposals  # noqa: E402
from .refine import LossParams, apply_refinement, cross_entropy, full_loss, localization_loss  # noqa: E402
from .scoring import aggregate_det_curve, mean_pmiss_at, per_class_det_curves  # noqa: E402
from .synth import SCENARIOS, generate_fixture  # noqa: E402


def _propose_one(args) -> list[Proposal]:
    detections, meta, cluster_params, jitter_params = args
    clustered = propose_video(detections, meta, cluster_params)
    return jitter_proposals(clustered, jitter_params, meta)


def _propose_rows(args) -> list[tuple]:
    """`_propose_one` in a pool worker: each proposal as a plain row of its values, cuboid as a plain tuple.

    A `Proposal` unpickles through the checking `Proposal.__new__` and
    `Cuboid.__new__`; a row of plain values does not, and the worker has
    already checked them, so the parent rebuilds them unchecked
    (`_proposals_from_rows`).
    """
    return [(p.proposal_id, p.video_id, tuple(p.cuboid), p.provenance, p.parent_id) for p in _propose_one(args)]


def _proposals_from_rows(rows: list[tuple]) -> list[Proposal]:
    return [tuple.__new__(Proposal, (pid, vid, tuple.__new__(Cuboid, box), provenance, parent))
            for pid, vid, box, provenance, parent in rows]


def cmd_propose(cfg: PipelineConfig, jobs: int = 1) -> None:
    if jobs < 1:
        raise ValidationError(f"--jobs must be at least 1, got {jobs}")
    videos = load_video_meta(ensure_path(cfg.videos))
    detections = load_detections(ensure_path(cfg.detections), videos, cfg.min_confidence, cfg.object_classes)
    tasks = [(dets, videos[vid], cfg.cluster, cfg.jitter) for vid, dets in detections.items()]
    if jobs > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor  # only here: a serial run never pays its import

        # the pool starts all its workers up front; more than one per video would idle
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks)), initializer=keep_rounds_on_one_thread) as pool:
            per_video = list(map(_proposals_from_rows, pool.map(_propose_rows, tasks)))
    else:
        per_video = [_propose_one(t) for t in tasks]
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    out_path = cfg.output_dir / "proposals.jsonl"
    merged = [p for props in per_video for p in props]
    write_proposals(out_path, merged)
    for vid, props in zip(detections, per_video):
        clustered = sum(p.provenance == PROVENANCE_CLUSTERING for p in props)
        print(f"{vid}: {clustered} clustering + {len(props) - clustered} jittered proposals")
    print(f"wrote {len(merged)} proposals to {out_path}")


def _refuse_unknown_videos(records, videos: dict[str, VideoMeta], path: Path, what: str) -> None:
    """Raise for the first upstream record whose video `videos.jsonl` does not list.

    One set difference over all records; only a failing input is searched
    for the record to name.
    """
    unknown = {record.video_id for record in records}.difference(videos)
    if unknown:
        bad = next(record for record in records if record.video_id in unknown)
        raise ValidationError(f"{path}: {what} {bad.proposal_id!r} has unknown video_id {bad.video_id!r}")


def cmd_label(cfg: PipelineConfig) -> None:
    videos = load_video_meta(ensure_path(cfg.videos))
    gts = load_ground_truth(ensure_path(cfg.ground_truth), videos, cfg.action_classes)
    proposals_path = ensure_path(cfg.output_dir / "proposals.jsonl")
    proposals = load_proposals(proposals_path)
    _refuse_unknown_videos(proposals, videos, proposals_path, "proposal")
    labeled = labeling.designate_all(proposals, gts, cfg.labeling)
    counts = labeling.designation_counts(labeled)
    training = labeling.select_training_set(labeled)
    balanced = labeling.balance_classes(training)
    out_path = cfg.output_dir / "labels.jsonl"
    labeling.write_training_manifest(out_path, balanced)
    print("designations: " + "  ".join(f"{k}={v}" for k, v in counts.items()))
    per_class: dict[str, int] = {}
    for lp in balanced:
        if lp.designation == labeling.POSITIVE:
            per_class[lp.action_class] = per_class.get(lp.action_class, 0) + 1
    print(f"training set: {len(training)} selected, {len(balanced)} after balancing")
    if per_class:
        print("positives per class: " + "  ".join(f"{k}={v}" for k, v in sorted(per_class.items())))
    print(f"wrote training manifest to {out_path}")


def _candidates(
    proposals: list[Proposal],
    scores: tuple[list[str], np.ndarray, np.ndarray],
    videos: dict[str, VideoMeta],
    multi_label: bool,
    min_class_score: float,
) -> dict[str, list[ScoredDetection]]:
    """Each video's NMS candidates: one refined detection per proposal and chosen action class.

    Each proposal finds its row of `load_scores`' columns through one dict,
    and one comparison over those rows chooses the classes: those scoring
    at least `min_class_score` with `multi_label`, else the argmax (the
    first maximum, as `tuple.index(max(...))` picks it, `-0.0` tying `0.0`)
    when it is not the non-action class 0.  Candidates come in proposal
    order, then class order.  Every proposal's video must be in `videos`
    (`_refuse_unknown_videos`).  `apply_refinement` runs once per candidate,
    on the exact floats that `tolist()` reads back.  Each `ScoredDetection`
    is built with `tuple.__new__`, without its constructor's checks, which
    hold already: the class is at least 1, and the confidence is a score
    `load_scores` has checked to lie in [0, 1].
    """
    ids, class_scores, refinements = scores
    row_of = dict(zip(ids, range(len(ids))))
    rows = [row_of.get(prop.proposal_id) for prop in proposals]
    if None in rows:
        raise ValidationError(f"no score record for proposal {proposals[rows.index(None)].proposal_id!r}")
    rows = np.array(rows, dtype=np.intp)
    aligned = class_scores[rows]
    if multi_label:
        chosen, classes = np.nonzero(aligned[:, 1:] >= min_class_score)
        classes += 1
    else:
        classes = aligned.argmax(axis=1)
        chosen = np.flatnonzero(classes)
        classes = classes[chosen]
    confidences = aligned[chosen, classes].tolist()
    pairs = refinements[rows[chosen]].tolist()
    num_frames = {video_id: meta.num_frames for video_id, meta in videos.items()}
    by_video: dict[str, list[ScoredDetection]] = {}
    for i, cls, confidence, refinement in zip(chosen.tolist(), classes.tolist(), confidences, pairs):
        proposal_id, video_id, cuboid, _, _ = proposals[i]
        refined, _ = apply_refinement(cuboid, refinement, num_frames[video_id])
        by_video.setdefault(video_id, []).append(
            tuple.__new__(ScoredDetection, (video_id, proposal_id, cls, confidence, refined)))
    return by_video


def cmd_finalize(cfg: PipelineConfig, multi_label: bool = False, min_class_score: float = 0.05) -> None:
    if cfg.scores is None:
        raise ValidationError("config has no scores path; finalize needs classifier scores")
    if not 0.0 <= min_class_score <= 1.0:
        raise ValidationError(f"min_class_score must be in [0, 1], got {min_class_score}")
    videos = load_video_meta(ensure_path(cfg.videos))
    scores = load_scores(ensure_path(cfg.scores), num_classes=len(cfg.action_classes))
    proposals_path = ensure_path(cfg.output_dir / "proposals.jsonl")
    proposals = load_proposals(proposals_path)
    _refuse_unknown_videos(proposals, videos, proposals_path, "proposal")
    by_video = _candidates(proposals, scores, videos, multi_label, min_class_score)
    final: list[ScoredDetection] = []
    for vid in sorted(by_video):
        final.extend(nms_3d(by_video[vid], cfg.nms))
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    out_path = cfg.output_dir / "detections_final.jsonl"
    write_final_detections(out_path, final, cfg.action_classes)
    print(f"wrote {len(final)} final detections to {out_path}")


def cmd_score(cfg: PipelineConfig) -> None:
    videos = load_video_meta(ensure_path(cfg.videos))
    gts_by_video = load_ground_truth(ensure_path(cfg.ground_truth), videos, cfg.action_classes)
    gts = [gt for group in gts_by_video.values() for gt in group]
    dets_path = ensure_path(cfg.output_dir / "detections_final.jsonl")
    dets = load_final_detections(dets_path, cfg.action_classes)
    _refuse_unknown_videos(dets, videos, dets_path, "detection of proposal")
    minutes = sum(meta.minutes for meta in videos.values())
    curves = per_class_det_curves(dets, gts, minutes, cfg.match, cfg.action_classes)
    if not curves:
        raise ValidationError("no action class has ground truth; nothing to score")
    aggregate = aggregate_det_curve(curves.values())
    report = {
        "video_minutes": minutes,
        "num_ground_truth": len(gts),
        "num_detections": len(dets),
        "rate_grid": list(cfg.rate_grid),
        "aggregate": {
            "mean_p_miss": mean_pmiss_at(aggregate, cfg.rate_grid),
            "points": aggregate.points,
        },
        "classes": {
            label: {
                "p_miss": mean_pmiss_at(curve, cfg.rate_grid),
                "points": curve.points,
            }
            for label, curve in curves.items()
        },
    }
    text = indented_json(report)  # raises before anything is written when a number is not finite
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    report_path = cfg.output_dir / "report.json"
    write_lines(report_path, [text])
    curve_dir = cfg.output_dir / "curves"
    curve_dir.mkdir(exist_ok=True)
    for label, curve in [("aggregate", aggregate)] + sorted(curves.items()):
        # one line per point; `"%.6g" % x` is `f"{x:.6g}"` for every float
        template = "\n".join(["# rate_fa p_miss"] + ["%.6g %.6g"] * len(curve.points))
        write_lines(curve_dir / f"{label}.txt", [template % tuple(itertools.chain.from_iterable(curve.points))])
    for label in set(cfg.action_classes).difference(curves):  # a curve an earlier run wrote for a class now without GT
        (curve_dir / f"{label}.txt").unlink(missing_ok=True)
    print("rate_fa:     " + "  ".join(f"{r:8.3g}" for r in cfg.rate_grid))
    print("mean p_miss: " + "  ".join(f"{p:8.3g}" for p in report["aggregate"]["mean_p_miss"]))
    print(f"wrote {report_path} and {len(curves) + 1} curve files under {curve_dir}")


def cmd_synth(output: Path, scenario: str, seed: int, num_videos: int) -> None:
    summary = generate_fixture(output, scenario, seed, num_videos)
    print(
        f"fixture '{scenario}' seed={seed}: {summary['videos']} videos, "
        f"{summary['detections']} detections, {summary['ground_truth']} ground-truth actions, "
        f"{summary['proposals_scored']} proposals scored"
    )
    print(f"wrote fixture to {output}")


def _get_pair(query: dict, name: str) -> tuple | None:
    value = query.get(name)
    if value is not None and not (isinstance(value, list) and len(value) == 2 and all(map(_is_finite, value))):
        raise ValidationError(f"field {name!r} must be null or a pair of finite numbers, got {value!r}")
    return None if value is None else tuple(value)


def cmd_loss_oracle(input_path, output, loc_weight: float) -> None:
    """Evaluate loss queries so external trainers can check their math."""
    params = LossParams(loc_weight=loc_weight)

    def answer(query: dict) -> dict:
        probs = _get(query, "class_scores")
        if not isinstance(probs, list) or not all(map(_is_finite, probs)):
            raise ValidationError(f"field 'class_scores' must be a list of finite numbers, got {probs!r}")
        true_class = _get_int(query, "true_class")
        predicted, target = _get_pair(query, "predicted"), _get_pair(query, "target")
        loc = None if predicted is None or target is None else localization_loss(predicted, target)
        result = {
            "cross_entropy": cross_entropy(probs, true_class),
            "localization_loss": loc,
            "full_loss": full_loss(probs, true_class, predicted, target, params),
        }
        if not all(loss is None or math.isfinite(loss) for loss in result.values()):
            raise ValidationError(f"loss overflows a float: {result}")
        return result

    results = list(_read_records(ensure_path(input_path), answer))
    if output:
        write_records(output, results)
    else:
        for result in results:
            print(json.dumps(result, sort_keys=True))


def _override(cfg: PipelineConfig, args: argparse.Namespace) -> PipelineConfig:
    """Apply per-flag overrides onto the loaded config.

    An override flag's argparse dest names the field it sets: `section.field`
    inside a config section, or a top-level `PipelineConfig` field.  Flags
    left unset (None) and dests that name no field change nothing.
    """
    top_level = {f.name for f in dataclasses.fields(PipelineConfig)}
    updates: dict = {}
    sections: dict[str, dict] = {}
    for dest, value in vars(args).items():
        if value is None:
            continue
        section, _, field = dest.rpartition(".")
        if section:
            sections.setdefault(section, {})[field] = value
        elif dest in top_level:
            updates[dest] = value
    for section, fields in sections.items():
        updates[section] = dataclasses.replace(getattr(cfg, section), **fields)
    return dataclasses.replace(cfg, **updates) if updates else cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="actionpipe",
        description="Turn per-frame object detections into scored spatio-temporal action detections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--config", required=True, help="pipeline config JSON")
        p.add_argument("--output", dest="output_dir", type=Path, help="override the config's output directory")

    p = sub.add_parser("propose", help="cluster detections and jitter into dense proposals")
    add_config(p)
    p.add_argument("--jobs", type=int, default=1, help="videos processed in parallel")
    p.add_argument("--min-confidence", dest="min_confidence", type=float, help="detection confidence floor")
    p.add_argument("--temporal-scale", dest="cluster.temporal_scale", type=float,
                   help="frame-axis scale before distances")
    p.add_argument("--clusters-per-frame", dest="cluster.clusters_per_frame", type=float,
                   help="cluster count per video frame")
    p.add_argument("--min-cluster-size", dest="cluster.min_cluster_size", type=int)
    p.add_argument("--stride", dest="jitter.stride", type=int, help="anchor stride in frames")
    p.add_argument("--half-windows", dest="jitter.half_windows", type=int, nargs="+",
                   help="window half-extents in frames")
    p.add_argument("--min-span", dest="jitter.min_span", type=int, help="shortest surviving window, frames")
    p.add_argument("--no-clamp", dest="jitter.clamp_to_video", action="store_false", default=None,
                   help="keep windows that cross video bounds")
    p.add_argument("--include-end", dest="jitter.include_end", action="store_true", default=None,
                   help="always anchor on the last frame")

    p = sub.add_parser("label", help="designate proposals against ground truth and balance classes")
    add_config(p)
    p.add_argument("--spatial-positive", dest="labeling.spatial_positive", type=float)
    p.add_argument("--temporal-positive", dest="labeling.temporal_positive", type=float)
    p.add_argument("--temporal-negative", dest="labeling.temporal_negative", type=float)
    p.add_argument("--hard-temporal-low", dest="labeling.hard_temporal_low", type=float)

    p = sub.add_parser("finalize", help="join scores, refine bounds, filter non-action, run 3D-NMS")
    add_config(p)
    p.add_argument("--nms-temporal-iou", dest="nms.temporal_iou", type=float)
    p.add_argument("--nms-spatial-iou", dest="nms.spatial_iou", type=float)
    p.add_argument("--multi-label", dest="multi_label", action="store_true",
                   help="emit every action class scoring at least --min-class-score instead of the argmax")
    p.add_argument("--min-class-score", dest="min_class_score", type=float, default=0.05,
                   help="lowest class score --multi-label emits, in [0, 1] (default 0.05)")

    p = sub.add_parser("score", help="DET curves and mean p_miss report")
    add_config(p)
    p.add_argument("--match-temporal-iou", dest="match.temporal_iou", type=float)
    p.add_argument("--match-spatial-iou", dest="match.spatial_iou", type=float)
    p.add_argument("--rates", dest="rate_grid", type=float, nargs="+", help="rate_fa grid for the summary")

    p = sub.add_parser("synth", help="generate a synthetic fixture with oracle scores")
    p.add_argument("--output", required=True, help="fixture directory")
    p.add_argument("--scenario", choices=sorted(SCENARIOS), default="clean")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--videos", type=int, default=10)

    p = sub.add_parser("loss-oracle", help="evaluate loss queries from a JSONL file")
    p.add_argument("--input", required=True, help="JSONL queries: class_scores, true_class, predicted?, target?")
    p.add_argument("--output", help="write results here instead of stdout")
    p.add_argument("--loc-weight", dest="loc_weight", type=float, default=0.25)

    return parser


def main(argv=None) -> int:
    """Run one subcommand with the cyclic garbage collector paused.

    A stage's records and arrays hold no reference cycles, so reference
    counting frees them; full collections would only rescan the long-lived
    heap of imported modules.  The collector's previous state is restored
    on every exit.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(build_parser().parse_args(argv))
    finally:
        if enabled:
            gc.enable()


def _run(args: argparse.Namespace) -> int:
    try:
        if args.command == "synth":
            cmd_synth(Path(args.output), args.scenario, args.seed, args.videos)
        elif args.command == "loss-oracle":
            cmd_loss_oracle(args.input, args.output, args.loc_weight)
        else:
            cfg = _override(load_config(args.config), args)
            if args.command == "propose":
                cmd_propose(cfg, jobs=args.jobs)
            elif args.command == "label":
                cmd_label(cfg)
            elif args.command == "finalize":
                cmd_finalize(cfg, args.multi_label, args.min_class_score)
            elif args.command == "score":
                cmd_score(cfg)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
