import pytest

from actionpipe import labeling
from actionpipe.clustering import propose_video
from actionpipe.config import load_config
from actionpipe.ingest import ValidationError, load_detections, load_ground_truth, load_scores, load_video_meta
from actionpipe.jitter import jitter_proposals
from actionpipe.synth import SCENARIOS, generate_fixture

FILES = ("videos.jsonl", "detections.jsonl", "ground_truth.jsonl", "scores.jsonl", "config.json")


def fingerprint(root):
    return {name: (root / name).read_bytes() for name in FILES}


class TestGenerateFixture:
    def test_rejects_unknown_scenario(self, tmp_path):
        with pytest.raises(ValidationError):
            generate_fixture(tmp_path, "weird")

    def test_deterministic_given_seed(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        sa = generate_fixture(a, "clean", seed=7, num_videos=3)
        sb = generate_fixture(b, "clean", seed=7, num_videos=3)
        assert sa == sb
        assert fingerprint(a) == fingerprint(b)

    def test_seed_changes_content(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        generate_fixture(a, "clean", seed=0, num_videos=2)
        generate_fixture(b, "clean", seed=1, num_videos=2)
        assert fingerprint(a) != fingerprint(b)

    def test_counts_and_structure(self, tmp_path):
        out = tmp_path / "fx"
        summary = generate_fixture(out, "clean", seed=0, num_videos=3)
        assert summary["videos"] == 3
        assert summary["ground_truth"] == 3 * SCENARIOS["clean"].actors_per_video
        cfg = load_config(out / "config.json")
        videos = load_video_meta(cfg.videos)
        assert len(videos) == 3
        gts = load_ground_truth(cfg.ground_truth, videos)
        assert sum(len(v) for v in gts.values()) == summary["ground_truth"]
        load_detections(cfg.detections, videos)  # validates cleanly

    def test_scores_cover_exact_propose_output(self, tmp_path):
        out = tmp_path / "fx"
        generate_fixture(out, "clean", seed=3, num_videos=2)
        cfg = load_config(out / "config.json")
        videos = load_video_meta(cfg.videos)
        detections = load_detections(cfg.detections, videos, cfg.min_confidence, cfg.object_classes)
        proposal_ids = set()
        for vid, dets in detections.items():
            clustered = propose_video(dets, videos[vid], cfg.cluster)
            proposal_ids.update(p.proposal_id for p in jitter_proposals(clustered, cfg.jitter, videos[vid]))
        ids, _, _ = load_scores(cfg.scores, num_classes=len(cfg.action_classes))
        assert set(ids) == proposal_ids and len(ids) == len(proposal_ids)

    def test_clean_fixture_every_gt_has_positive(self, tmp_path):
        out = tmp_path / "fx"
        generate_fixture(out, "clean", seed=0, num_videos=3)
        cfg = load_config(out / "config.json")
        videos = load_video_meta(cfg.videos)
        detections = load_detections(cfg.detections, videos, cfg.min_confidence, cfg.object_classes)
        gts_by_video = load_ground_truth(cfg.ground_truth, videos)
        for vid, dets in detections.items():
            clustered = propose_video(dets, videos[vid], cfg.cluster)
            labeled = labeling.designate_all(
                jitter_proposals(clustered, cfg.jitter, videos[vid]), gts_by_video, cfg.labeling)
            matched = {lp.matched_gt for lp in labeled if lp.designation == labeling.POSITIVE}
            assert matched >= set(gts_by_video[vid])
