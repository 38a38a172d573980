"""Seeded input generators for the stage benchmark.

Every workload is a fixture directory holding `config.json`, the input
JSONL files the four stages read, and `inputs.json` with the workload's
input sizes.  Generation only calls `actionpipe` building blocks (`synth`,
`ingest`, `labeling`, `clustering`, `jitter`); nothing in the package is
changed.  The same seed always gives byte-identical inputs.

Why these three workloads:

- noisy-short: the `synth` `noisy` fixture.  Many short videos, so the cost
  is per-record JSONL parse/validate and per-proposal Python loops; linkage
  sees only ~2.8k points per video and the DET sweep is tiny.
- long-video: one 9000-frame (5 min at 30 fps) noisy video.  One linkage
  tree over ~14k points sets propose time and peak RSS (O(n^2) condensed
  distances), and 24 ground-truth actions in one video make designation
  heavy.
- weak-multilabel: noisy-short detections with a weak classifier score
  file, finalized with `--multi-label`.  ~13k candidates go through
  refinement and 3-D NMS, and ~650 detections per class go through the
  DET sweep.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from actionpipe import labeling, synth
from actionpipe.clustering import propose_video
from actionpipe.config import PipelineConfig, load_config, save_config
from actionpipe.ingest import (
    ScoreRecord,
    class_index,
    load_detections,
    load_ground_truth,
    load_video_meta,
    write_detections,
    write_ground_truth,
    write_scores,
    write_video_meta,
)
from actionpipe.jitter import jitter_proposals
from actionpipe.proposals import Proposal

MULTI_LABEL_MIN_SCORE = 0.05


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    videos: int  # videos in the fixture
    # changes to the `synth` `noisy` scenario; empty means the stock fixture
    scenario: dict = dataclasses.field(default_factory=dict)
    weak_scores: bool = False  # replace oracle scores with a weak multi-label classifier
    finalize_args: tuple[str, ...] = ()

    def stage_args(self, stage: str) -> list[str]:
        return list(self.finalize_args) if stage == "finalize" else []


WORKLOADS = {
    w.name: w
    for w in (
        Workload("noisy-short", videos=10),
        Workload(
            "long-video",
            videos=1,
            scenario={"num_frames": 9000, "actors_per_video": 24, "spurious_per_video": 1500},
        ),
        Workload(
            "weak-multilabel",
            videos=10,
            weak_scores=True,
            finalize_args=("--multi-label", "--min-class-score", str(MULTI_LABEL_MIN_SCORE)),
        ),
    )
}


def tiny(workload: Workload) -> Workload:
    """A few-second version of a workload for the harness smoke test."""
    if workload.scenario:
        return dataclasses.replace(workload, name=workload.name + "-tiny", scenario={"num_frames": 1800})
    return dataclasses.replace(workload, name=workload.name + "-tiny", videos=2)


def _proposals(cfg: PipelineConfig) -> list[Proposal]:
    """The proposals `propose` will emit for this config, in file order."""
    videos = load_video_meta(cfg.videos)
    detections = load_detections(cfg.detections, videos, cfg.min_confidence, cfg.object_classes)
    out: list[Proposal] = []
    for video_id, dets in detections.items():
        clustered = propose_video(dets, videos[video_id], cfg.cluster)
        out.extend(jitter_proposals(clustered, cfg.jitter, videos[video_id]))
    return out


def weak_classifier_scores(
    proposals: list[Proposal], cfg: PipelineConfig, rng: np.random.Generator
) -> list[ScoreRecord]:
    """A weak classifier: Dirichlet class probabilities and noisy refinements.

    Positives get extra mass on their ground-truth class and a refinement
    near the true regression target; every proposal keeps enough mass on
    other classes that several pass the multi-label floor.
    """
    gts = load_ground_truth(cfg.ground_truth, load_video_meta(cfg.videos), cfg.action_classes)
    num_classes = len(cfg.action_classes)
    records = []
    for prop in proposals:
        lp = labeling.designate(prop, gts.get(prop.video_id, []), cfg.labeling)
        alpha = np.full(num_classes + 1, 0.12)
        alpha[0] = 6.0
        noise = rng.normal(0.0, 0.5, size=2)
        if lp.designation == labeling.POSITIVE:
            alpha[class_index(lp.action_class, cfg.action_classes)] += 2.5
            refinement = (lp.regression_target[0] + float(noise[0]), lp.regression_target[1] + float(noise[1]))
        else:
            refinement = (float(noise[0]), float(noise[1]))
        probs = rng.dirichlet(alpha)
        records.append(ScoreRecord(prop.proposal_id, tuple(float(p) for p in probs), refinement))
    return records


def _write_long_fixture(out_dir: Path, workload: Workload, seed: int) -> None:
    """Like `synth.generate_fixture`, with the workload's frame, actor and clutter counts.

    `generate_fixture` only accepts the names in `synth.SCENARIOS`, so this
    repeats its few file-writing steps rather than add a scenario to the
    package's module state.
    """
    params = dataclasses.replace(synth.SCENARIOS["noisy"], **workload.scenario)
    data_seed, score_seed = np.random.SeedSequence(seed).spawn(2)
    rng = np.random.default_rng(data_seed)
    metas, detections, ground_truth = [], [], []
    for i in range(workload.videos):
        meta, dets, gts = synth._generate_video(f"long_{i:02d}", rng, params)
        metas.append(meta)
        detections.extend(dets)
        ground_truth.extend(gts)
    write_video_meta(out_dir / "videos.jsonl", metas)
    write_detections(out_dir / "detections.jsonl", detections)
    write_ground_truth(out_dir / "ground_truth.jsonl", ground_truth)
    cfg = synth.fixture_config(out_dir)
    gts_by_video = load_ground_truth(cfg.ground_truth, load_video_meta(cfg.videos), cfg.action_classes)
    records = synth.oracle_scores(
        _proposals(cfg), gts_by_video, cfg, np.random.default_rng(score_seed), params.classifier_error
    )
    write_scores(cfg.scores, records)
    relative = dataclasses.replace(
        cfg,
        detections=Path("detections.jsonl"),
        ground_truth=Path("ground_truth.jsonl"),
        videos=Path("videos.jsonl"),
        scores=Path("scores.jsonl"),
        output_dir=Path("out"),
    )
    save_config(relative, out_dir / "config.json")


def _count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip())


def input_sizes(fixture: Path, workload: Workload) -> dict:
    """Workload input sizes, as the stages will see them."""
    cfg = load_config(fixture / "config.json")
    videos = load_video_meta(cfg.videos)
    kept = load_detections(cfg.detections, videos, cfg.min_confidence, cfg.object_classes)
    gts = load_ground_truth(cfg.ground_truth, videos, cfg.action_classes)
    candidates = 0
    with open(cfg.scores, encoding="utf-8") as fh:
        for line in fh:
            scores = json.loads(line)["class_scores"]
            if workload.weak_scores:
                candidates += sum(s >= MULTI_LABEL_MIN_SCORE for s in scores[1:])
            else:
                candidates += ScoreRecord("", tuple(scores), (0.0, 0.0)).argmax_class != 0
    return {
        "videos": len(videos),
        "video_minutes": sum(m.minutes for m in videos.values()),
        "detections_read": _count_lines(cfg.detections),
        "detections_kept": sum(len(d) for d in kept.values()),
        "proposals": _count_lines(cfg.scores),
        "ground_truth": sum(len(g) for g in gts.values()),
        "nms_candidates": candidates,
    }


def generate(workload: Workload, seed: int, out_dir: Path) -> dict:
    """Write the workload's fixture for `seed` into `out_dir`; return its input sizes."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if workload.scenario:
        _write_long_fixture(out_dir, workload, seed)
    else:
        synth.generate_fixture(out_dir, "noisy", seed, workload.videos)
    if workload.weak_scores:
        cfg = load_config(out_dir / "config.json")
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(3)[2])
        write_scores(cfg.scores, weak_classifier_scores(_proposals(cfg), cfg, rng))
    sizes = input_sizes(out_dir, workload)
    (out_dir / "inputs.json").write_text(json.dumps(sizes, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return sizes
