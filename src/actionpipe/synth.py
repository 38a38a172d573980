"""Synthetic fixture generator: videos of point-actors with scripted actions.

Each video hosts a few spatially separated actors.  An actor idles, performs
one annotated action, then idles again; its detector track covers the whole
stay while the ground-truth cuboid covers only the action span.  The noisy
scenario perturbs detection boxes, drops frames, scatters spurious
detections and stretches the idle time, which is what degrades
clustering-only recall and makes temporal jittering earn its keep.

The oracle score file stands in for a classifier: it re-runs the proposal
stage with the written config, designates every proposal against the ground
truth, and scores positives near-one on their class with the exact
refinement pair.  Proposal ids therefore line up with what `propose` later
emits for the same fixture.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import labeling
from .clustering import propose_video
from .config import PipelineConfig, save_config
from .ingest import (
    DEFAULT_ACTION_CLASSES,
    GroundTruthAction,
    ScoreRecord,
    ValidationError,
    VideoMeta,
    class_index,
    load_detections,
    load_ground_truth,
    load_video_meta,
    write_detections,
    write_ground_truth,
    write_scores,
    write_video_meta,
)
from .geometry import Cuboid
from .jitter import jitter_proposals
from .proposals import Proposal


@dataclass(frozen=True)
class ScenarioParams:
    num_frames: int = 900
    frame_rate: float = 30.0
    width: float = 640.0
    height: float = 480.0
    actors_per_video: int = 3
    action_frames: tuple[int, int] = (55, 75)  # action length range, >= 2 frames
    idle_pad: int = 40  # idle track frames on each side of the action
    wander: float = 0.0  # actor drift amplitude, px
    coord_noise: float = 0.0  # detection corner noise sigma, px
    detection_drop: float = 0.0  # probability a track frame goes undetected
    spurious_per_video: int = 0
    confidence_range: tuple[float, float] = (0.98, 0.98)
    classifier_error: float = 0.0  # oracle mislabel probability


SCENARIOS: dict[str, ScenarioParams] = {
    "clean": ScenarioParams(),
    "noisy": ScenarioParams(
        actors_per_video=4,
        action_frames=(28, 42),
        idle_pad=400,
        wander=8.0,
        coord_noise=5.0,
        detection_drop=0.2,
        spurious_per_video=150,
        confidence_range=(0.4, 0.99),
        classifier_error=0.05,
    ),
}

# Well-separated spots so actors land in distinct clusters.
_ACTOR_CELLS = ((130.0, 130.0), (460.0, 140.0), (150.0, 340.0), (470.0, 330.0), (310.0, 235.0))

_BOX_SIZES = {"person": (28.0, 52.0), "vehicle": (80.0, 48.0)}

_SPURIOUS_CLASSES = ("person", "vehicle", "bicycle")


def _actor_tracks(rng: np.random.Generator, params: ScenarioParams):
    """Per-actor (object_class, box size, path fn, action span, action class)."""
    order = rng.permutation(len(_ACTOR_CELLS))
    actors = []
    for i in range(params.actors_per_video):
        cx, cy = _ACTOR_CELLS[order[i % len(_ACTOR_CELLS)]]
        cx += rng.uniform(-15.0, 15.0)
        cy += rng.uniform(-15.0, 15.0)
        object_class = "person" if i % 2 == 0 else "vehicle"
        w, h = _BOX_SIZES[object_class]
        length = int(rng.integers(params.action_frames[0], params.action_frames[1] + 1))
        a_start = int(rng.integers(params.idle_pad, params.num_frames - length - params.idle_pad))
        a_end = a_start + length - 1
        t_start = max(0, a_start - params.idle_pad)
        t_end = min(params.num_frames - 1, a_end + params.idle_pad)
        phase = rng.uniform(0.0, 2.0 * np.pi, size=2)
        period = max(1, t_end - t_start + 1)
        label = str(rng.choice(DEFAULT_ACTION_CLASSES))
        actors.append({
            "object_class": object_class,
            "w": w,
            "h": h,
            "cx": cx,
            "cy": cy,
            "phase": phase,
            "period": period,
            "track": (t_start, t_end),
            "action": (a_start, a_end),
            "label": label,
        })
    return actors


def _position(actor: dict, frame: int, params: ScenarioParams) -> tuple[float, float]:
    if params.wander == 0.0:
        return actor["cx"], actor["cy"]
    t = 2.0 * np.pi * (frame - actor["track"][0]) / actor["period"]
    return (
        actor["cx"] + params.wander * float(np.sin(t + actor["phase"][0])),
        actor["cy"] + params.wander * float(np.sin(t + actor["phase"][1])),
    )


def _generate_video(video_id: str, rng: np.random.Generator, params: ScenarioParams):
    meta = VideoMeta(video_id, params.num_frames, params.frame_rate, params.width, params.height)
    detections: list[tuple] = []  # records in `ingest.DETECTION_FIELDS` order
    ground_truth: list[GroundTruthAction] = []
    for actor in _actor_tracks(rng, params):
        a_start, a_end = actor["action"]
        half_w, half_h = actor["w"] / 2.0, actor["h"] / 2.0
        # ground truth is the true (noise-free) box envelope over the action span
        centers = [_position(actor, f, params) for f in range(a_start, a_end + 1)]
        ground_truth.append(GroundTruthAction(video_id, actor["label"], Cuboid(
            x_min=min(c[0] for c in centers) - half_w,
            y_min=min(c[1] for c in centers) - half_h,
            x_max=max(c[0] for c in centers) + half_w,
            y_max=max(c[1] for c in centers) + half_h,
            f_start=a_start,
            f_end=a_end,
        )))
        for frame in range(actor["track"][0], actor["track"][1] + 1):
            if params.detection_drop > 0.0 and rng.random() < params.detection_drop:
                continue
            cx, cy = _position(actor, frame, params)
            noise = rng.normal(0.0, params.coord_noise, size=4) if params.coord_noise > 0.0 else np.zeros(4)
            x_min = cx - half_w + noise[0]
            y_min = cy - half_h + noise[1]
            x_max = max(cx + half_w + noise[2], x_min + 1.0)
            y_max = max(cy + half_h + noise[3], y_min + 1.0)
            confidence = float(rng.uniform(*params.confidence_range))
            box = map(float, (x_min, y_min, x_max, y_max))
            detections.append((video_id, frame, actor["object_class"], *box, confidence))
    for _ in range(params.spurious_per_video):
        frame = int(rng.integers(0, params.num_frames))
        cx = rng.uniform(40.0, params.width - 40.0)
        cy = rng.uniform(40.0, params.height - 40.0)
        w = rng.uniform(18.0, 70.0)
        h = rng.uniform(18.0, 70.0)
        object_class = str(rng.choice(_SPURIOUS_CLASSES))
        box = (cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0)
        detections.append((video_id, frame, object_class, *box, float(rng.uniform(0.5, 0.95))))
    return meta, detections, ground_truth


def oracle_scores(
    proposals: list[Proposal],
    gts_by_video: dict[str, list[GroundTruthAction]],
    cfg: PipelineConfig,
    rng: np.random.Generator,
    classifier_error: float = 0.0,
) -> list[ScoreRecord]:
    """Score proposals the way a near-perfect classifier would.

    Positives get a high probability on their designated class and the exact
    refinement pair; everything else scores as non-action.  A small
    classifier_error probability flips positives to non-action and a quarter
    of that flips negatives to a random class.
    """
    num_classes = len(cfg.action_classes)
    records = []
    for lp in labeling.designate_all(proposals, gts_by_video, cfg.labeling):
        confidence = float(rng.uniform(0.9, 0.99))
        flip = rng.random()
        if lp.designation == labeling.POSITIVE and flip >= classifier_error:
            hot = class_index(lp.action_class, cfg.action_classes)
            refinement = lp.regression_target
        elif lp.designation != labeling.POSITIVE and flip < classifier_error / 4.0:
            hot = int(rng.integers(1, num_classes + 1))
            refinement = (0.0, 0.0)
        else:
            hot = 0
            refinement = (0.0, 0.0)
        rest = (1.0 - confidence) / num_classes
        scores = tuple(confidence if i == hot else rest for i in range(num_classes + 1))
        records.append(ScoreRecord(lp.proposal.proposal_id, scores, refinement))
    return records


def fixture_config(out_dir: Path) -> PipelineConfig:
    """Pipeline defaults pointing at the fixture's files."""
    return PipelineConfig(
        detections=out_dir / "detections.jsonl",
        ground_truth=out_dir / "ground_truth.jsonl",
        videos=out_dir / "videos.jsonl",
        scores=out_dir / "scores.jsonl",
        output_dir=out_dir / "out",
    )


def generate_fixture(out_dir, scenario: str = "clean", seed: int = 0, num_videos: int = 10) -> dict:
    """Write a complete fixture: metadata, detections, ground truth, oracle scores, config."""
    if scenario not in SCENARIOS:
        raise ValidationError(f"unknown scenario {scenario!r}; choose from {sorted(SCENARIOS)}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    if num_videos < 1:
        raise ValidationError(f"a fixture needs at least one video, got {num_videos}")
    params = SCENARIOS[scenario]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    data_seed, score_seed = np.random.SeedSequence(seed).spawn(2)
    rng = np.random.default_rng(data_seed)

    metas: list[VideoMeta] = []
    detections: list[tuple] = []
    ground_truth: list[GroundTruthAction] = []
    for i in range(num_videos):
        meta, dets, gts = _generate_video(f"{scenario}_{i:02d}", rng, params)
        metas.append(meta)
        detections.extend(dets)
        ground_truth.extend(gts)

    write_video_meta(out_dir / "videos.jsonl", metas)
    write_detections(out_dir / "detections.jsonl", detections)
    write_ground_truth(out_dir / "ground_truth.jsonl", ground_truth)

    cfg = fixture_config(out_dir)
    # Score exactly the proposals `propose` will emit: reload the written
    # files and run the same proposal stage with the same config.
    videos = load_video_meta(cfg.videos)
    loaded = load_detections(cfg.detections, videos, cfg.min_confidence, cfg.object_classes)
    gts_by_video = load_ground_truth(cfg.ground_truth, videos, cfg.action_classes)
    proposals: list[Proposal] = []
    for video_id, dets in loaded.items():
        clustered = propose_video(dets, videos[video_id], cfg.cluster)
        proposals.extend(jitter_proposals(clustered, cfg.jitter, videos[video_id]))
    score_rng = np.random.default_rng(score_seed)
    records = oracle_scores(proposals, gts_by_video, cfg, score_rng, params.classifier_error)
    write_scores(cfg.scores, records)

    # Paths in the config file are relative so the fixture directory can move.
    relative = replace(
        cfg,
        detections=Path("detections.jsonl"),
        ground_truth=Path("ground_truth.jsonl"),
        videos=Path("videos.jsonl"),
        scores=Path("scores.jsonl"),
        output_dir=Path("out"),
    )
    save_config(relative, out_dir / "config.json")
    return {
        "videos": len(metas),
        "detections": len(detections),
        "ground_truth": len(ground_truth),
        "proposals_scored": len(records),
    }
