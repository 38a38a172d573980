import numpy as np
import pytest

from actionpipe.geometry import Cuboid
from actionpipe.ingest import GroundTruthAction, ValidationError
from actionpipe.labeling import (
    DESIGNATIONS,
    DISCARDED,
    EASY_NEGATIVE,
    HARD_NEGATIVE,
    POSITIVE,
    LabeledProposal,
    LabelingThresholds,
    balance_classes,
    designate,
    designate_all,
    designation_counts,
    regression_target,
    select_training_set,
)
from actionpipe.proposals import PROVENANCE_CLUSTERING, PROVENANCE_JITTERING, Proposal
from actionpipe.refine import apply_refinement
from oracles import random_cuboid, reference_designate


def prop(cuboid, pid="p", provenance=PROVENANCE_CLUSTERING):
    return Proposal(pid, "v1", cuboid, provenance)


def gt(cuboid, label="loading"):
    return GroundTruthAction("v1", label, cuboid)


def overlap_pair(s_iou, t_iou):
    """Proposal nested in a GT so both IoUs are exact simple ratios."""
    gt_c = Cuboid(0, 0, 10, 10, 0, 199)
    p_c = Cuboid(0, 0, 10 * s_iou, 10, 0, int(200 * t_iou) - 1)
    return prop(p_c), gt(gt_c)


class TestRegressionTarget:
    def test_self_match(self):
        c = Cuboid(0, 0, 10, 10, 0, 63)
        assert regression_target(c, c) == (-0.984375, 0.984375)

    def test_offset_gt(self):
        p = Cuboid(0, 0, 10, 10, 0, 63)
        g = Cuboid(0, 0, 10, 10, 10, 80)
        assert regression_target(p, g) == (-0.671875, 1.515625)

    def test_symmetric_when_centered(self):
        p = Cuboid(0, 0, 10, 10, 10, 29)
        g = Cuboid(0, 0, 10, 10, 5, 34)
        r_st, r_end = regression_target(p, g)
        assert r_st == -r_end

    def test_round_trip_through_refinement(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            f0 = int(rng.integers(0, 500))
            p = Cuboid(0, 0, 10, 10, f0, f0 + int(rng.integers(1, 300)))
            g0 = int(rng.integers(0, 500))
            g = Cuboid(0, 0, 10, 10, g0, g0 + int(rng.integers(1, 300)))
            refined, applied = apply_refinement(p, regression_target(p, g), num_frames=800)  # holds both spans
            assert applied
            assert (refined.f_start, refined.f_end) == (g.f_start, g.f_end)


class TestDesignate:
    def test_exact_match_positive(self):
        c = Cuboid(0, 0, 10, 10, 0, 63)
        lp = designate(prop(c), [gt(c)])
        assert lp.designation == POSITIVE
        assert lp.action_class == "loading"
        assert lp.regression_target == (-0.984375, 0.984375)
        assert lp.matched_gt is not None

    def test_no_overlap_easy_negative(self):
        lp = designate(prop(Cuboid(0, 0, 10, 10, 0, 9)), [gt(Cuboid(500, 400, 510, 410, 800, 900))])
        assert lp.designation == EASY_NEGATIVE
        assert lp.regression_target is None

    def test_hard_negative_band(self):
        # spatial IoU 0.5, temporal IoU 0.1
        p, g = overlap_pair(0.5, 0.1)
        assert designate(p, [g]).designation == HARD_NEGATIVE

    def test_no_ground_truth_is_easy(self):
        assert designate(prop(Cuboid(0, 0, 10, 10, 0, 9)), []).designation == EASY_NEGATIVE

    def test_gap_discarded(self):
        p, g = overlap_pair(0.5, 0.3)
        assert designate(p, [g]).designation == DISCARDED

    def test_high_temporal_low_spatial_discarded(self):
        p, g = overlap_pair(0.2, 0.9)
        assert designate(p, [g]).designation == DISCARDED

    def test_best_match_prefers_temporal_then_spatial_then_index(self):
        p_c = Cuboid(0, 0, 10, 10, 0, 99)
        p = prop(p_c)
        weaker = gt(Cuboid(0, 0, 10, 10, 40, 199), label="enter")   # tIoU 0.3
        stronger = gt(Cuboid(0, 0, 12, 10, 0, 99), label="exit")    # tIoU 1.0
        assert designate(p, [weaker, stronger]).action_class == "exit"
        # equal temporal, larger spatial wins
        wide = gt(Cuboid(0, 0, 14, 10, 0, 99), label="enter")
        tight = gt(Cuboid(0, 0, 11, 10, 0, 99), label="exit")
        assert designate(p, [wide, tight]).action_class == "exit"
        # full tie: lowest index wins
        twin_a = gt(Cuboid(0, 0, 12, 10, 0, 99), label="enter")
        twin_b = gt(Cuboid(0, 0, 12, 10, 0, 99), label="exit")
        assert designate(p, [twin_a, twin_b]).action_class == "enter"

    def test_threshold_matrix(self):
        expected = {
            (0.3, 0.005): EASY_NEGATIVE,
            (0.3, 0.1): EASY_NEGATIVE,
            (0.3, 0.3): DISCARDED,
            (0.3, 0.6): DISCARDED,
            (0.4, 0.005): EASY_NEGATIVE,  # at/below the hard band's lower edge
            (0.4, 0.1): HARD_NEGATIVE,
            (0.4, 0.3): DISCARDED,
            (0.4, 0.6): POSITIVE,
        }
        for (s, t), want in expected.items():
            p, g = overlap_pair(s, t)
            assert designate(p, [g]).designation == want, (s, t)

    def test_designations_exhaustive_and_exclusive(self):
        rng = np.random.default_rng(13)
        gts = [gt(Cuboid(0, 0, 50, 50, 100, 250))]
        seen = set()
        for _ in range(300):
            x0 = float(rng.uniform(0, 80))
            f0 = int(rng.integers(0, 400))
            p = prop(Cuboid(x0, 0, x0 + float(rng.uniform(5, 60)), 50, f0, f0 + int(rng.integers(1, 300))))
            lp = designate(p, gts)
            assert lp.designation in DESIGNATIONS
            seen.add(lp.designation)
        assert seen == set(DESIGNATIONS)  # the sweep hits every designation


class TestDesignateAll:
    @pytest.mark.parametrize("thresholds", [
        LabelingThresholds(),
        LabelingThresholds(spatial_positive=0.1, temporal_positive=0.3, temporal_negative=0.25,
                           hard_temporal_low=0.05),
    ], ids=["default", "loose"])
    def test_matches_scalar_designation(self, thresholds):
        # three videos, one without ground truth; quarter-pixel lattice makes IoU ties common
        rng = np.random.default_rng(19)
        labels = ("enter", "exit", "loading")
        gts_by_video = {
            vid: [GroundTruthAction(vid, labels[int(rng.integers(0, 3))], random_cuboid(rng))
                  for _ in range(int(rng.integers(1, 6)))]
            for vid in ("va", "vb")
        }
        proposals = []
        for i in range(300):
            vid = ("va", "vb", "vc")[int(rng.integers(0, 3))]
            gts = gts_by_video.get(vid, [])
            # every third proposal copies a GT box, so positives and exact ties occur
            cub = gts[int(rng.integers(0, len(gts)))].cuboid if gts and i % 3 == 0 else random_cuboid(rng)
            proposals.append(Proposal(f"p{i:03d}", vid, cub, PROVENANCE_CLUSTERING))
        got = designate_all(proposals, gts_by_video, thresholds)
        want = [reference_designate(p, gts_by_video.get(p.video_id, []), thresholds) for p in proposals]
        assert got == want
        assert [designate(p, gts_by_video.get(p.video_id, []), thresholds) for p in proposals] == want
        assert {lp.designation for lp in got} == set(DESIGNATIONS)


class TestSelectTrainingSet:
    def test_provenance_rules(self):
        c = Cuboid(0, 0, 10, 10, 0, 9)
        easy_cluster = LabeledProposal(prop(c, "a"), EASY_NEGATIVE)
        easy_jitter = LabeledProposal(prop(c, "b", PROVENANCE_JITTERING), EASY_NEGATIVE)
        hard_jitter = LabeledProposal(prop(c, "c", PROVENANCE_JITTERING), HARD_NEGATIVE)
        pos_jitter = LabeledProposal(
            prop(c, "d", PROVENANCE_JITTERING), POSITIVE,
            action_class="enter", regression_target=(0.0, 1.0),
        )
        dropped = LabeledProposal(prop(c, "e"), DISCARDED)
        got = select_training_set([easy_cluster, easy_jitter, hard_jitter, pos_jitter, dropped])
        assert [lp.proposal.proposal_id for lp in got] == ["a", "c", "d"]


def positive(pid, label):
    c = Cuboid(0, 0, 10, 10, 0, 9)
    return LabeledProposal(prop(c, pid), POSITIVE, action_class=label, regression_target=(0.0, 1.0))


def negative(pid):
    return LabeledProposal(prop(Cuboid(0, 0, 10, 10, 0, 9), pid), HARD_NEGATIVE)


class TestBalanceClasses:
    def test_cycling_duplication(self):
        training = [positive("a1", "A"), positive("a2", "A")] + [positive(f"b{i}", "B") for i in range(4)]
        out = balance_classes(training)
        counts = {}
        for lp in out:
            counts[lp.proposal.proposal_id] = counts.get(lp.proposal.proposal_id, 0) + 1
        assert counts["a1"] == 2 and counts["a2"] == 2
        assert all(counts[f"b{i}"] == 1 for i in range(4))

    def test_balanced_input_untouched(self):
        training = [positive("a", "A"), positive("b", "B"), negative("n")]
        assert balance_classes(training) == training

    def test_negatives_never_duplicated(self):
        training = [positive("a", "A"), positive("b1", "B"), positive("b2", "B"), negative("n")]
        out = balance_classes(training)
        assert sum(lp.proposal.proposal_id == "n" for lp in out) == 1
        assert len(out) == 5

    def test_counts_equalized_at_scale(self):
        training = [positive(f"u{i}", "u_turn_like") for i in range(215)]
        training += [positive(f"r{i}", "right_turn_like") for i in range(2554)]
        out = balance_classes(training)
        by_class = {}
        for lp in out:
            by_class[lp.action_class] = by_class.get(lp.action_class, 0) + 1
        assert by_class == {"u_turn_like": 2554, "right_turn_like": 2554}

    def test_never_deletes(self):
        training = [positive("a", "A"), positive("b1", "B"), positive("b2", "B")]
        out = balance_classes(training)
        assert all(item in out for item in training)

    def test_no_positives_passthrough(self):
        training = [negative("n")]
        assert balance_classes(training) == training


def test_designation_counts():
    c = Cuboid(0, 0, 10, 10, 0, 9)
    labeled = [
        LabeledProposal(prop(c, "a"), EASY_NEGATIVE),
        LabeledProposal(prop(c, "b"), EASY_NEGATIVE),
        LabeledProposal(prop(c, "c"), DISCARDED),
    ]
    assert designation_counts(labeled) == {
        POSITIVE: 0, EASY_NEGATIVE: 2, HARD_NEGATIVE: 0, DISCARDED: 1,
    }


def test_labeled_proposal_invariant():
    c = Cuboid(0, 0, 10, 10, 0, 9)
    with pytest.raises(ValidationError):
        LabeledProposal(prop(c), POSITIVE, action_class="enter")  # missing target
    with pytest.raises(ValidationError):
        LabeledProposal(prop(c), EASY_NEGATIVE, regression_target=(0.0, 1.0))
