import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actionpipe.cli import _candidates
from actionpipe.geometry import Cuboid
from actionpipe.ingest import MAX_INT, ScoreRecord, ValidationError, VideoMeta
from actionpipe.nms import ScoredDetection, nms_3d
from actionpipe.proposals import PROVENANCE_JITTERING, Proposal
from actionpipe.refine import (
    LossParams,
    apply_refinement,
    cross_entropy,
    full_loss,
    localization_loss,
    smooth_l1,
)
from oracles import reference_apply_refinement, reference_finalize_candidates, score_columns, typed

UNIFORM = [1.0 / 13] * 13


def one_hot(a, n=13):
    return [1.0 if i == a else 0.0 for i in range(n)]


class TestCrossEntropy:
    def test_one_hot_correct_is_zero(self):
        assert cross_entropy(one_hot(3), 3) == 0.0

    def test_uniform(self):
        assert cross_entropy(UNIFORM, 7) == pytest.approx(math.log(13), abs=1e-12)

    def test_half(self):
        probs = [0.5] + [0.5 / 12] * 12
        assert cross_entropy(probs, 0) == pytest.approx(math.log(2), abs=1e-12)

    def test_zero_probability_clamped(self):
        loss = cross_entropy(one_hot(1), 0)
        assert math.isfinite(loss) and loss == pytest.approx(-math.log(1e-12))

    def test_class_out_of_range(self):
        with pytest.raises(ValidationError):
            cross_entropy(UNIFORM, 13)
        with pytest.raises(ValidationError):
            cross_entropy(UNIFORM, -1)


class TestSmoothL1:
    @pytest.mark.parametrize("x, want", [(0.0, 0.0), (0.5, 0.125), (1.0, 0.5), (2.0, 1.5)])
    def test_exact_values(self, x, want):
        assert smooth_l1(x) == want
        assert smooth_l1(-x) == want

    def test_c1_continuity_at_one(self):
        h = 1e-6
        for x0, slope in ((1.0, 1.0), (-1.0, -1.0)):
            assert abs(smooth_l1(x0 + h) - smooth_l1(x0 - h)) < 1e-4
            fd = (smooth_l1(x0 + h) - smooth_l1(x0 - h)) / (2 * h)
            assert fd == pytest.approx(slope, abs=1e-4)

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        for x in rng.uniform(-5, 5, 100):
            assert smooth_l1(float(x)) >= 0.0


class TestLocalizationLoss:
    def test_zero_at_agreement(self):
        assert localization_loss((0.3, -0.4), (0.3, -0.4)) == 0.0

    def test_composition(self):
        assert localization_loss((0.0, 0.0), (0.5, 2.0)) == pytest.approx(1.625)

    def test_symmetric(self):
        assert localization_loss((0.1, 0.9), (-0.4, 0.2)) == localization_loss((-0.4, 0.2), (0.1, 0.9))


class TestFullLoss:
    def test_non_action_equals_cross_entropy_exactly(self):
        probs = [0.2, 0.3] + [0.5 / 11] * 11
        assert full_loss(probs, 0, (0.7, -0.3), (1.0, 1.0)) == cross_entropy(probs, 0)
        assert full_loss(probs, 0, None, None) == cross_entropy(probs, 0)

    def test_perfect_positive_is_zero(self):
        assert full_loss(one_hot(3), 3, (0.2, 0.4), (0.2, 0.4)) == 0.0

    def test_weighted_composition(self):
        got = full_loss(UNIFORM, 1, (0.0, 0.0), (0.5, 2.0), LossParams(loc_weight=0.25))
        assert got == pytest.approx(math.log(13) + 0.25 * 1.625, abs=1e-4)
        assert got == pytest.approx(2.9712, abs=1e-4)

    @pytest.mark.parametrize("value", [True, False, "0.5", None])
    def test_loc_weight_takes_numbers_only(self, value):
        with pytest.raises(ValidationError, match="^loc_weight must be a number"):
            LossParams(loc_weight=value)

    @pytest.mark.parametrize("value", [2.5, True, False, "3", None, 3.0])
    def test_num_classes_takes_integers_only(self, value):
        with pytest.raises(ValidationError, match="^num_classes must be an integer"):
            LossParams(num_classes=value)

    @pytest.mark.parametrize("value", [0, -1])
    def test_num_classes_at_least_one(self, value):
        with pytest.raises(ValidationError, match="^num_classes must be >= 1"):
            LossParams(num_classes=value)

    def test_num_classes_keeps_saved_value(self):
        assert LossParams(num_classes=12).num_classes == 12
        assert LossParams(num_classes=1).num_classes == 1

    def test_action_class_requires_refinement(self):
        with pytest.raises(ValidationError):
            full_loss(UNIFORM, 2, None, None)

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            raw = rng.uniform(0, 1, 13)
            probs = list(raw / raw.sum())
            a = int(rng.integers(0, 13))
            v = (float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
            r = (float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
            assert full_loss(probs, a, v, r) >= 0.0


VIDEO = 1000  # frames in the video of the cuboids below, unless a test says otherwise


class TestApplyRefinement:
    def test_fixed_point(self):
        c = Cuboid(0, 0, 10, 10, 0, 63)
        refined, applied = apply_refinement(c, (-0.984375, 0.984375), VIDEO)
        assert applied and (refined.f_start, refined.f_end) == (0, 63)

    def test_zero_refinement_falls_back(self):
        c = Cuboid(0, 0, 10, 10, 0, 63)
        refined, applied = apply_refinement(c, (0.0, 0.0), VIDEO)
        assert not applied and refined == c

    def test_inverted_falls_back(self):
        c = Cuboid(0, 0, 10, 10, 0, 63)
        refined, applied = apply_refinement(c, (1.0, -1.0), VIDEO)
        assert not applied and refined == c

    def test_spatial_untouched(self):
        c = Cuboid(3, 4, 13, 24, 100, 163)
        refined, applied = apply_refinement(c, (-0.5, 0.75), VIDEO)
        assert applied
        assert (refined.x_min, refined.y_min, refined.x_max, refined.y_max) == (3, 4, 13, 24)

    def test_shift(self):
        c = Cuboid(0, 0, 10, 10, 0, 63)  # mid 31.5, half 32
        refined, applied = apply_refinement(c, (-0.5, 0.5), VIDEO)
        assert applied
        assert (refined.f_start, refined.f_end) == (16, 48)

    @pytest.mark.parametrize("refinement", [(1e308, 1e308), (-1e17, 1e17), (-1e308, 1e308)])
    def test_bound_past_2_53_falls_back(self, refinement):
        c = Cuboid(0, 0, 5, 5, 0, 10)
        assert apply_refinement(c, refinement, VIDEO) == (c, False)

    def test_clamped_to_the_video(self):
        c = Cuboid(0, 0, 10, 10, 880, 899)  # mid 889.5, half 10: (0, 9) gives [890, 980]
        assert apply_refinement(c, (0.0, 9.0), 900) == (Cuboid(0, 0, 10, 10, 890, 899), True)
        c = Cuboid(0, 0, 10, 10, 0, 10)  # mid 5, half 5.5: (-5, 0.2) gives [-22, 6]
        assert apply_refinement(c, (-5.0, 0.2), 900) == (Cuboid(0, 0, 10, 10, 0, 6), True)

    # the refined cuboid is built without `Cuboid`'s checks, so a float frame count
    # raises whether or not the end clamps
    @pytest.mark.parametrize("refinement", [(-0.5, 0.5), (0.0, 9.0), (1e308, 1e308)])
    def test_float_frame_count_raises(self, refinement):
        with pytest.raises(TypeError):
            apply_refinement(Cuboid(0, 0, 5, 5, 0, 10), refinement, 20.0)

    def test_integer_types_give_int_frames(self):
        c = Cuboid(0, 0, 10, 10, 880, 899)
        refined, applied = apply_refinement(c, (0.0, 9.0), np.int64(900))
        assert applied and type(refined) is Cuboid and type(refined.f_end) is int and refined.f_end == 899

    @pytest.mark.parametrize("refinement", [(2.0, 3.0), (-3.0, -2.0), (0.99, 2.0)])
    def test_span_clamped_away_falls_back(self, refinement):
        c = Cuboid(0, 0, 10, 10, 0, 99)  # refined past one end of the video, or onto its last frame alone
        assert apply_refinement(c, refinement, 100) == (c, False)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
REFINEMENT = st.one_of(FINITE, st.floats(-3.0, 3.0))
WINDOW = st.tuples(
    st.integers(0, 10**6),  # start, wrapped into the video
    st.integers(1, 10**4),  # length, cut at the video's end
    st.tuples(REFINEMENT, REFINEMENT),
    st.sampled_from((0.0, 20.0)),  # x offset: spatial IoU 1/3 or 1 between windows
    st.floats(0.0, 1.0),  # confidence
)


@settings(max_examples=300, deadline=None)
@given(num_frames=st.integers(1, 2 * 10**6), windows=st.lists(WINDOW, min_size=1, max_size=8))
def test_any_finite_refinement_gives_a_valid_cuboid(num_frames, windows):
    # refine -> clamp -> NMS, as `finalize` runs them on proposals inside their video
    dets = []
    for k, (start, length, refinement, x0, confidence) in enumerate(windows):
        start %= num_frames
        c = Cuboid(x0, 0, x0 + 30, 5, start, min(start + length - 1, num_frames - 1))
        refined, applied = apply_refinement(c, refinement, num_frames)
        assert 0 <= refined.f_start <= refined.f_end <= num_frames - 1
        if applied:
            mid, half = c.mid_frame, c.num_frames / 2.0
            start, end = mid + refinement[0] * half, mid + refinement[1] * half
            assert max(abs(start), abs(end)) <= MAX_INT
            assert (refined.f_start, refined.f_end) == (max(round(start), 0), min(round(end), num_frames - 1))
        else:
            assert refined == c
        dets.append(ScoredDetection("v", f"p{k}", 1, confidence, refined))
    kept = nms_3d(dets)
    assert kept and all(d in dets for d in kept)
    assert len({d.proposal_id for d in kept}) == len(kept)


# Refinement pairs for the unchecked builds: spans of 1-16 frames with pairs in
# steps of 1/8, so that mid + r * half often lands on .5 (round half to even),
# pairs past 2**53 or infinite, collapsed pairs, and any float.
SPAN = st.sampled_from([1, 2, 3, 4, 8, 16])
EIGHTHS = st.integers(-200, 200).map(lambda k: k / 8)
PAIR = st.one_of(
    st.tuples(EIGHTHS, EIGHTHS),
    st.tuples(st.sampled_from([1e17, -1e17, 1e308, math.inf, -math.inf, math.nan]), EIGHTHS),
    st.tuples(EIGHTHS, st.sampled_from([1e17, -1e17, 1e308, math.inf, -math.inf, math.nan])),
    EIGHTHS.map(lambda r: (r, r)),
    st.tuples(st.floats(), st.floats()),
)


@settings(max_examples=500, deadline=None)
@given(num_frames=st.integers(1, 300), start=st.integers(0, 10**4), length=SPAN, refinement=PAIR)
def test_refinement_equals_validated_reference(num_frames, start, length, refinement):
    start %= num_frames
    c = Cuboid(1.5, 2.0, 30.0, 40.0, start, min(start + length - 1, num_frames - 1))
    got = apply_refinement(c, refinement, num_frames)
    assert typed(got) == typed(reference_apply_refinement(c, refinement, num_frames))
    assert type(got[0]) is Cuboid


# One NMS candidate source per proposal: two videos of 1-300 frames, class
# scores with ties and values at the `min_class_score` floors drawn below.
SCORE = st.sampled_from([0.0, -0.0, 0.05, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)
CANDIDATE = st.tuples(st.sampled_from(["a", "b"]), st.integers(0, 10**4), SPAN,
                      st.tuples(*[SCORE] * 13), PAIR)


@settings(max_examples=300, deadline=None)
@given(
    frames=st.tuples(st.integers(1, 300), st.integers(1, 300)),
    rows=st.lists(CANDIDATE, max_size=12),
    multi_label=st.booleans(),
    min_class_score=st.sampled_from([0.0, 0.05, 0.5, 1.0]) | st.floats(0.0, 1.0),
)
def test_candidates_equal_validated_reference(frames, rows, multi_label, min_class_score):
    videos = {vid: VideoMeta(vid, n, 30.0, 640, 480) for vid, n in zip("ab", frames)}
    proposals, scores = [], {}
    for i, (vid, start, length, class_scores, refinement) in enumerate(rows):
        start %= videos[vid].num_frames
        end = min(start + length - 1, videos[vid].num_frames - 1)
        proposals.append(Proposal(f"p{i}", vid, Cuboid(0.0, 0.0, 8.0 + i, 8.0, start, end), PROVENANCE_JITTERING))
        scores[f"p{i}"] = ScoreRecord(f"p{i}", class_scores, refinement)
    got = _candidates(proposals, score_columns(scores.values()), videos, multi_label, min_class_score)
    want = reference_finalize_candidates(proposals, scores, videos, multi_label, min_class_score)
    assert list(got) == list(want)
    assert typed(got) == typed(want)
    assert all(type(d) is ScoredDetection and type(d.cuboid) is Cuboid for group in got.values() for d in group)
