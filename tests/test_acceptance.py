"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the PASS/FAIL lines.
The synthetic fixtures are built once per session with the default seed, so
every check here is deterministic.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from actionpipe.cli import main
from actionpipe.config import load_config
from actionpipe.geometry import Cuboid, iou_3d, spatial_iou, temporal_iou
from actionpipe.ingest import (
    GroundTruthAction,
    VideoMeta,
    load_ground_truth,
    load_video_meta,
)
from actionpipe.jitter import JitterParams, jitter_proposals
from actionpipe.labeling import (
    DISCARDED,
    EASY_NEGATIVE,
    HARD_NEGATIVE,
    POSITIVE,
    designate,
    regression_target,
)
from actionpipe.nms import NmsParams, ScoredDetection, nms_3d
from actionpipe.proposals import PROVENANCE_CLUSTERING, Proposal, load_proposals, write_proposals
from actionpipe.refine import apply_refinement, cross_entropy, full_loss, smooth_l1
from actionpipe.scoring import MatchParams, hungarian_match, recall_curve
from actionpipe.synth import generate_fixture
from oracles import (
    congruent_pairs,
    exhaustive_assignment,
    random_cuboid,
    random_match_instance,
    reference_nms,
    voxel_iou,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"criterion {number:2d} FAIL  {description}")
        raise
    print(f"criterion {number:2d} PASS  {description}")


@pytest.fixture(scope="session")
def clean_fixture(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept_clean")
    generate_fixture(root, "clean", seed=0, num_videos=10)
    return root


@pytest.fixture(scope="session")
def noisy_fixture(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept_noisy")
    generate_fixture(root, "noisy", seed=0, num_videos=10)
    return root


def run_pipeline(config_path):
    for cmd in ("propose", "label", "finalize", "score"):
        assert main([cmd, "--config", str(config_path)]) == 0


def test_criterion_01_geometry_suite():
    with criterion(1, "IoU symmetry/bounds/identity + voxel-oracle agreement"):
        start = time.monotonic()
        rng = np.random.default_rng(101)
        for _ in range(200):
            a, b = random_cuboid(rng), random_cuboid(rng)
            for fn in (spatial_iou, temporal_iou, iou_3d):
                v = fn(a, b)
                assert v == fn(b, a)
                assert 0.0 <= v <= 1.0
                assert fn(a, a) == 1.0 and fn(b, b) == 1.0
        for _ in range(50):
            a, b = random_cuboid(rng), random_cuboid(rng)
            assert abs(iou_3d(a, b) - voxel_iou(a, b, resolution=4)) <= 0.02
        assert time.monotonic() - start < 5.0


def test_criterion_02_refinement_round_trip():
    with criterion(2, "regression-target/refinement round-trip on 1000 random pairs"):
        rng = np.random.default_rng(202)
        exact = 0
        for _ in range(1000):
            p0 = int(rng.integers(0, 2000))
            p = Cuboid(0, 0, 10, 10, p0, p0 + int(rng.integers(1, 300)) - 1)
            g0 = int(rng.integers(0, 2000))
            g = Cuboid(0, 0, 10, 10, g0, g0 + int(rng.integers(2, 300)) - 1)
            pair = regression_target(p, g)
            mid, half = p.mid_frame, p.num_frames / 2.0
            assert abs((mid + pair[0] * half) - g.f_start) <= 0.5
            assert abs((mid + pair[1] * half) - g.f_end) <= 0.5
            refined, applied = apply_refinement(p, pair, num_frames=2300)  # a video holding both spans
            if applied and (refined.f_start, refined.f_end) == (g.f_start, g.f_end):
                exact += 1
        assert exact >= 990


def test_criterion_03_loss_oracle():
    with criterion(3, "smooth-L1 exact values, C1 continuity, non-action loss identity"):
        assert [smooth_l1(x) for x in (0.0, 0.5, 1.0, 2.0)] == [0.0, 0.125, 0.5, 1.5]
        h = 1e-6
        for x0, slope in ((1.0, 1.0), (-1.0, -1.0)):
            fd = (smooth_l1(x0 + h) - smooth_l1(x0 - h)) / (2 * h)
            assert abs(fd - slope) <= 1e-4
            assert abs(smooth_l1(x0 + h) - smooth_l1(x0 - h)) <= 1e-4
        rng = np.random.default_rng(303)
        for _ in range(100):
            raw = rng.uniform(0.01, 1.0, 13)
            probs = list(raw / raw.sum())
            v = (float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
            r = (float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
            assert full_loss(probs, 0, v, r) == cross_entropy(probs, 0)


def test_criterion_04_dense_proposal_conformance(tmp_path):
    with criterion(4, "stride-15 windows over parent [0,30] give the 13 enumerated proposals"):
        meta = VideoMeta("v", 100000, 30.0, 640, 480)
        parent = Proposal("p", "v", Cuboid(0, 0, 10, 10, 0, 30), PROVENANCE_CLUSTERING)
        expected = [
            (0, 30),
            (0, 16), (0, 32), (0, 64), (0, 128),
            (0, 31), (0, 47), (0, 79), (0, 143),
            (14, 46), (0, 62), (0, 94), (0, 158),
        ]
        out = jitter_proposals([parent], JitterParams(), meta)
        assert [(p.cuboid.f_start, p.cuboid.f_end) for p in out] == expected
        assert len(out) == 13
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_proposals(first, out)
        write_proposals(second, jitter_proposals([parent], JitterParams(), meta))
        assert first.read_bytes() == second.read_bytes()


def test_criterion_05_labeling_thresholds():
    with criterion(5, "designation matrix over spatial/temporal IoU combinations"):
        expected = {
            (0.3, 0.005): EASY_NEGATIVE,
            (0.3, 0.1): EASY_NEGATIVE,
            (0.3, 0.3): DISCARDED,
            (0.3, 0.6): DISCARDED,
            (0.4, 0.005): EASY_NEGATIVE,
            (0.4, 0.1): HARD_NEGATIVE,
            (0.4, 0.3): DISCARDED,
            (0.4, 0.6): POSITIVE,
        }
        gt = GroundTruthAction("v", "loading", Cuboid(0, 0, 10, 10, 0, 199))
        for (s, t), want in expected.items():
            p = Proposal("p", "v", Cuboid(0, 0, 10 * s, 10, 0, int(200 * t) - 1), PROVENANCE_CLUSTERING)
            assert spatial_iou(p.cuboid, gt.cuboid) == pytest.approx(s)
            assert temporal_iou(p.cuboid, gt.cuboid) == pytest.approx(t)
            got = designate(p, [gt]).designation
            assert got == want, f"sIoU={s} tIoU={t}: expected {want}, got {got}"


def test_criterion_06_nms_oracle():
    with criterion(6, "NMS idempotence + greedy-oracle equivalence on 500 instances"):
        start = time.monotonic()
        rng = np.random.default_rng(606)
        params = NmsParams()
        for _ in range(500):
            dets = [
                ScoredDetection("v", f"p{i:02d}", int(rng.integers(1, 4)),
                                float(rng.choice([0.2, 0.4, 0.4, 0.7, 0.9])), random_cuboid(rng))
                for i in range(int(rng.integers(0, 9)))
            ]
            kept = nms_3d(dets, params)
            assert kept == reference_nms(dets, params)
            assert nms_3d(kept, params) == kept
        box = Cuboid(0, 0, 10, 10, 0, 63)
        two_classes = [
            ScoredDetection("v", "a", 1, 0.9, box),
            ScoredDetection("v", "b", 2, 0.8, box),
        ]
        assert len(nms_3d(two_classes, params)) == 2
        assert time.monotonic() - start < 10.0


def test_criterion_07_hungarian_oracle():
    with criterion(7, "matcher equals exhaustive assignment search on 500 instances"):
        start = time.monotonic()
        rng = np.random.default_rng(707)
        params = MatchParams()
        for _ in range(500):
            dets, gts = random_match_instance(rng, max_side=6)
            allowed = congruent_pairs(dets, gts, params)
            want_card, want_sum = exhaustive_assignment(len(dets), len(gts), allowed)
            pairs = hungarian_match(dets, gts, params)
            got_sum = sum(temporal_iou(dets[i].cuboid, gts[j].cuboid) for i, j in pairs)
            assert len(pairs) == want_card
            assert abs(got_sum - want_sum) <= 1e-9
        assert time.monotonic() - start < 10.0


def _recall_pair(fixture_root):
    cfg = load_config(fixture_root / "config.json")
    assert main(["propose", "--config", str(fixture_root / "config.json")]) == 0
    proposals = load_proposals(cfg.output_dir / "proposals.jsonl")
    videos = load_video_meta(cfg.videos)
    gts = [g for group in load_ground_truth(cfg.ground_truth, videos).values() for g in group]
    grid = [round(0.1 * i, 1) for i in range(1, 10)]
    clustering_only = [p for p in proposals if p.provenance == PROVENANCE_CLUSTERING]
    return (
        recall_curve(clustering_only, gts, grid, cfg.recall_iou_mode),
        recall_curve(proposals, gts, grid, cfg.recall_iou_mode),
        grid,
    )


def test_criterion_08_recall_monotonicity(clean_fixture, noisy_fixture):
    with criterion(8, "jittering never hurts recall and strictly lifts it on the noisy fixture"):
        clean_cluster, clean_jitter, grid = _recall_pair(clean_fixture)
        noisy_cluster, noisy_jitter, _ = _recall_pair(noisy_fixture)
        for cluster, jitter in ((clean_cluster, clean_jitter), (noisy_cluster, noisy_jitter)):
            for c, j in zip(cluster, jitter):
                assert j >= c
        at = grid.index(0.2)
        assert noisy_jitter[at] > noisy_cluster[at]
        assert clean_jitter[at] == 1.0
        # detector noise costs recall overall (paired fixtures, same seed)
        assert sum(noisy_jitter) < sum(clean_jitter)


def test_criterion_09_end_to_end_pipeline(clean_fixture):
    with criterion(9, "propose/label/finalize/score on the clean fixture hits p_miss <= 0.1"):
        start = time.monotonic()
        run_pipeline(clean_fixture / "config.json")
        elapsed = time.monotonic() - start
        cfg = load_config(clean_fixture / "config.json")
        report = json.loads((cfg.output_dir / "report.json").read_text())
        assert report["rate_grid"] == [0.01, 0.03, 0.1, 0.15, 0.2, 1.0]
        p_miss_at_one = report["aggregate"]["mean_p_miss"][report["rate_grid"].index(1.0)]
        assert p_miss_at_one <= 0.1
        assert elapsed < 60.0


def test_criterion_10_determinism(clean_fixture, tmp_path):
    with criterion(10, "every subcommand reruns byte-identically"):
        twin_a, twin_b = tmp_path / "a", tmp_path / "b"
        for twin in (twin_a, twin_b):
            assert main(["synth", "--output", str(twin), "--scenario", "clean",
                         "--seed", "0", "--videos", "10"]) == 0
        for name in ("videos.jsonl", "detections.jsonl", "ground_truth.jsonl", "scores.jsonl", "config.json"):
            assert (twin_a / name).read_bytes() == (twin_b / name).read_bytes()

        config_path = clean_fixture / "config.json"
        out = load_config(config_path).output_dir
        outputs = ("proposals.jsonl", "labels.jsonl", "detections_final.jsonl", "report.json")
        run_pipeline(config_path)
        before = {name: (out / name).read_bytes() for name in outputs}
        run_pipeline(config_path)
        after = {name: (out / name).read_bytes() for name in outputs}
        assert before == after
        curves = sorted((out / "curves").glob("*.txt"))
        assert curves
        snapshot = {p.name: p.read_bytes() for p in curves}
        assert main(["score", "--config", str(config_path)]) == 0
        assert {p.name: p.read_bytes() for p in sorted((out / "curves").glob("*.txt"))} == snapshot
