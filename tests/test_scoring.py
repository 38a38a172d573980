import logging
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from actionpipe.geometry import Cuboid, iou_3d, spatial_iou, temporal_iou
from actionpipe.ingest import DEFAULT_ACTION_CLASSES, GroundTruthAction, ValidationError, class_index
from actionpipe.nms import ScoredDetection
from actionpipe.proposals import PROVENANCE_CLUSTERING, Proposal
from actionpipe.scoring import (
    DEFAULT_RATE_GRID,
    IOU_MODES,
    DetCurve,
    MatchParams,
    aggregate_det_curve,
    det_curve,
    hungarian_match,
    mean_pmiss_at,
    per_class_det_curves,
    pmiss_at,
    recall_curve,
)
from oracles import (
    congruent_pairs,
    exhaustive_assignment,
    random_cuboid,
    random_match_instance,
    reference_aggregate_det_curve,
    reference_det_curve,
    scipy_assignment,
)

LABEL = DEFAULT_ACTION_CLASSES[0]
CLS = class_index(LABEL)


def sdet(pid, cuboid, conf=0.9, cls=CLS, video="v1"):
    return ScoredDetection(video, pid, cls, conf, cuboid)


def gt(cuboid, label=LABEL, video="v1"):
    return GroundTruthAction(video, label, cuboid)


def frames(f0, f1, x0=0.0):
    return Cuboid(x0, 0.0, x0 + 10.0, 10.0, f0, f1)


@pytest.mark.parametrize("field", ["temporal_iou", "spatial_iou"])
@pytest.mark.parametrize("value", [True, False, "0.5", None])
def test_match_params_take_numbers_only(field, value):
    with pytest.raises(ValidationError, match=f"^{field} must be a number"):
        MatchParams(**{field: value})


class TestHungarianMatch:
    def test_full_overlap_matches(self):
        pairs = hungarian_match([sdet("d", frames(0, 99))], [gt(frames(0, 99))])
        assert pairs == [(0, 0)]

    def test_two_dets_one_gt_prefers_higher_iou(self):
        dets = [sdet("d0", frames(0, 49)), sdet("d1", frames(0, 79))]  # tIoU 0.5 vs 0.8
        pairs = hungarian_match(dets, [gt(frames(0, 99))])
        assert pairs == [(1, 0)]

    def test_class_gate(self):
        dets = [sdet("d", frames(0, 99), cls=class_index(DEFAULT_ACTION_CLASSES[1]))]
        assert hungarian_match(dets, [gt(frames(0, 99))]) == []

    def test_video_gate(self):
        dets = [sdet("d", frames(0, 99), video="other")]
        assert hungarian_match(dets, [gt(frames(0, 99))]) == []

    def test_temporal_gate(self):
        dets = [sdet("d", frames(0, 9))]  # tIoU 0.1 < 0.2
        assert hungarian_match(dets, [gt(frames(0, 99))]) == []

    def test_optional_spatial_gate(self):
        det = sdet("d", frames(0, 99, x0=8.0))  # sIoU = 2/18, tIoU = 1
        assert hungarian_match([det], [gt(frames(0, 99))]) == [(0, 0)]
        strict = MatchParams(temporal_iou=0.2, spatial_iou=0.5)
        assert hungarian_match([det], [gt(frames(0, 99))], strict) == []

    def test_one_to_one(self):
        dets = [sdet(f"d{i}", frames(0, 99)) for i in range(3)]
        gts = [gt(frames(0, 99)), gt(frames(10, 89))]
        pairs = hungarian_match(dets, gts)
        assert len(pairs) == 2
        assert len({i for i, _ in pairs}) == 2 and len({j for _, j in pairs}) == 2

    def test_cardinality_beats_iou_sum(self):
        # d0 overlaps both GTs, d1 only the first; taking the greedy best
        # pair (d0, g0) would orphan d1, so the matcher must cross-assign
        g0, g1 = gt(frames(0, 99)), gt(frames(80, 179))
        d0 = sdet("d0", frames(0, 99))       # tIoU 1.0 with g0, 0.1 with g1... adjust
        d0 = sdet("d0", frames(20, 119))     # overlaps both: g0 0.667, g1 0.25
        d1 = sdet("d1", frames(0, 59))       # overlaps only g0: 0.6
        pairs = dict(hungarian_match([d0, d1], [g0, g1]))
        assert pairs == {0: 1, 1: 0}

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(31)
        params = MatchParams()
        for _ in range(50):
            dets, gts = random_match_instance(rng)
            allowed = congruent_pairs(dets, gts, params)
            want_card, want_sum = exhaustive_assignment(len(dets), len(gts), allowed)
            pairs = hungarian_match(dets, gts, params)
            got_sum = sum(temporal_iou(dets[i].cuboid, gts[j].cuboid) for i, j in pairs)
            assert len(pairs) == want_card
            assert got_sum == pytest.approx(want_sum, abs=1e-9)

    def test_dense_instance_scales(self):
        # every detection congruent with every GT (one video and class, long overlapping spans): one dense
        # 400 x 400 assignment, ~0.3 s on a 2-core x86 VM; SciPy ~10 ms
        rng = np.random.default_rng(11)

        def overlapping():
            return Cuboid(0.0, 0.0, 10.0, 10.0, int(rng.integers(0, 21)), int(rng.integers(80, 101)))

        gts = [gt(overlapping()) for _ in range(400)]
        dets = [sdet(f"d{i:03d}", overlapping()) for i in range(400)]
        started = time.perf_counter()
        pairs = hungarian_match(dets, gts)
        assert time.perf_counter() - started < 1.0
        allowed = congruent_pairs(dets, gts)
        assert len(allowed) == 400 * 400
        want_card, want_sum = scipy_assignment(400, 400, allowed)
        assert len(pairs) == want_card
        assert sum(allowed[pair] for pair in pairs) == pytest.approx(want_sum, abs=1e-9)

    def test_mostly_congruent_instances_match_scipy(self):
        # 10-60 per side, one class; a tenth of each side in a second video, and spans whose temporal IoU
        # falls from 1 to ~0.1, so most pairs but not all are congruent
        rng = np.random.default_rng(53)

        def placed(count):
            return [(Cuboid(0.0, 0.0, 10.0, 10.0, int(rng.integers(0, 41)), int(rng.integers(50, 101))),
                     "v2" if rng.random() < 0.1 else "v1") for _ in range(count)]

        for _ in range(30):
            gts = [gt(span, video=video) for span, video in placed(int(rng.integers(10, 61)))]
            dets = [sdet(f"d{i:02d}", span, video=video)
                    for i, (span, video) in enumerate(placed(int(rng.integers(10, 61))))]
            allowed = congruent_pairs(dets, gts)
            assert len(allowed) > len(dets) * len(gts) / 2
            pairs = hungarian_match(dets, gts)
            want_card, want_sum = scipy_assignment(len(dets), len(gts), allowed)
            assert len(pairs) == want_card
            assert sum(allowed[pair] for pair in pairs) == pytest.approx(want_sum, abs=1e-9)


# Spans and boxes on a small grid, so equal IoUs (exact ties) and duplicate cuboids are common.
SPANS = ((0, 9), (0, 19), (5, 14), (10, 19), (10, 29), (0, 39))
BOXES = ((0.0, 0.0, 10.0, 10.0), (5.0, 0.0, 15.0, 10.0))  # spatial IoU 1/3
OTHER = DEFAULT_ACTION_CLASSES[1]


def grid_cuboid(box, span):
    return Cuboid(*box, *span)


def instance_dets(specs):
    return [sdet(f"d{i}", grid_cuboid(box, span), conf, class_index(label), video)
            for i, (video, label, box, span, conf) in enumerate(specs)]


def instance_gts(specs):
    return [gt(grid_cuboid(box, span), label, video) for video, label, box, span in specs]


PLACE = (st.sampled_from(("v1", "v2")), st.sampled_from((LABEL, OTHER)), st.sampled_from(BOXES), st.sampled_from(SPANS))
TIE = ("v1", LABEL, BOXES[0], (0, 19))  # tIoU exactly 0.5 with GT spans (0, 9) and (10, 19) alike


@settings(max_examples=300, deadline=None)
@given(
    det_specs=st.lists(st.tuples(*PLACE, st.sampled_from((0.3, 0.5, 0.9))), max_size=7),
    gt_specs=st.lists(st.tuples(*PLACE), max_size=7),
    params=st.sampled_from((MatchParams(), MatchParams(temporal_iou=0.0), MatchParams(0.1, 0.3))),
)
@example(det_specs=[TIE + (0.9,), TIE + (0.9,)], gt_specs=[TIE[:3] + ((0, 9),), TIE[:3] + ((10, 19),)],
         params=MatchParams())  # duplicate detections, exact ties
@example(det_specs=[TIE + (0.5,)], gt_specs=[TIE[:3] + (span,) for span in SPANS], params=MatchParams())  # more GT
@example(det_specs=[], gt_specs=[TIE[:3] + ((0, 9),)], params=MatchParams())  # no detections
@example(det_specs=[TIE + (0.5,)], gt_specs=[], params=MatchParams())  # no ground truth
def test_matcher_equals_oracles(det_specs, gt_specs, params):
    dets, gts = instance_dets(det_specs), instance_gts(gt_specs)
    allowed = congruent_pairs(dets, gts, params)
    pairs = hungarian_match(dets, gts, params)
    assert pairs == sorted(pairs)
    assert len({i for i, _ in pairs}) == len({j for _, j in pairs}) == len(pairs)
    assert all(pair in allowed for pair in pairs)
    got_sum = sum(allowed[pair] for pair in pairs)
    for want_card, want_sum in (exhaustive_assignment(len(dets), len(gts), allowed),
                                scipy_assignment(len(dets), len(gts), allowed)):
        assert len(pairs) == want_card
        assert got_sum == pytest.approx(want_sum, abs=1e-9)
    if gts:
        assert det_curve(dets, gts, 3.0, params) == reference_det_curve(dets, gts, 3.0, params)


@settings(max_examples=300, deadline=None)
@given(
    det_specs=st.lists(st.tuples(*PLACE, st.sampled_from((0.0, -0.0, 0.5, 1.0))), max_size=9),
    gt_specs=st.lists(st.tuples(*PLACE), min_size=1, max_size=6),
    minutes=st.sampled_from((3.0, 0.7, 1e-300, 5e-324)),  # at the last two, every false alarm rate is inf
)
@example(det_specs=[TIE + (0.0,), TIE + (-0.0,), TIE + (0.0,)], gt_specs=[TIE[:3] + ((0, 9),)], minutes=3.0)
@example(det_specs=[TIE + (-0.0,), TIE + (0.5,)], gt_specs=[TIE[:3] + ((0, 9),)], minutes=5e-324)
def test_sweep_equals_reference_on_confidence_ties(det_specs, gt_specs, minutes):
    # equal confidences (0.0 and -0.0 compare equal) form one threshold; equal rates keep the lowest p_miss
    dets, gts = instance_dets(det_specs), instance_gts(gt_specs)
    got = det_curve(dets, gts, minutes)
    assert repr(got) == repr(reference_det_curve(dets, gts, minutes))
    assert all(type(value) is float for point in got.points for value in point)


def _curve(pairs) -> DetCurve:
    """A valid curve from drawn (rate, p_miss) pairs: rates ascending and distinct, p_miss non-increasing."""
    rates = sorted({rate for rate, _ in pairs})
    return DetCurve("c", tuple(zip(rates, sorted((p for _, p in pairs), reverse=True))))


# rates from a small set, so grids share points; p_miss fractions whose sums round
CURVES = st.lists(
    st.lists(st.tuples(st.sampled_from((0.0, 0.1, 0.2, 1 / 3, 1.0, 2.5, 1e308)),
                       st.sampled_from((0.0, 1 / 3, 0.1, 0.7, 1.0)) | st.floats(0.0, 1.0)), max_size=6).map(_curve),
    min_size=1, max_size=7,
)


@settings(max_examples=300, deadline=None)
@given(curves=CURVES)
@example(curves=[DetCurve("c", ())])  # no points at all: the grid is [0.0]
@example(curves=[DetCurve("a", ((0.5, 0.2),)), DetCurve("b", ())])  # 1-point curves; below a curve, p_miss 1
def test_aggregate_equals_per_rate_reference(curves):
    got = aggregate_det_curve(curves)
    assert repr(got) == repr(reference_aggregate_det_curve(curves))
    assert all(type(value) is float for point in got.points for value in point)


class TestDetCurve:
    def test_hand_counted_operating_point(self):
        gts = [gt(frames(0, 63)), gt(frames(200, 263))]
        dets = [
            sdet("d0", frames(0, 63)),
            sdet("d1", frames(200, 263)),
            sdet("d2", frames(500, 563)),  # matches nothing
        ]
        curve = det_curve(dets, gts, video_minutes=10.0)
        assert curve.points == ((0.1, 0.0),)

    def test_perfect_detections_pin_zero(self):
        gts = [gt(frames(0, 63)), gt(frames(200, 263))]
        dets = [sdet("d0", frames(0, 63), conf=0.9), sdet("d1", frames(200, 263), conf=0.7)]
        curve = det_curve(dets, gts, video_minutes=10.0)
        assert curve.points == ((0.0, 0.0),)

    def test_no_detections(self):
        curve = det_curve([], [gt(frames(0, 63))], video_minutes=10.0)
        assert curve.points == ((0.0, 1.0),)

    def test_no_ground_truth_rejected(self):
        with pytest.raises(ValidationError):
            det_curve([], [], video_minutes=10.0)
        with pytest.raises(ValidationError):
            det_curve([], [gt(frames(0, 9))], video_minutes=0.0)

    def test_monotone_invariants_randomized(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            dets, gts = random_match_instance(rng, max_side=6)
            if not gts:
                continue
            curve = det_curve(dets, gts, video_minutes=5.0)
            rates = [r for r, _ in curve.points]
            pmisses = [p for _, p in curve.points]
            assert rates == sorted(rates)
            assert all(b <= a for a, b in zip(pmisses, pmisses[1:]))
            assert all(0.0 <= p <= 1.0 and r >= 0.0 for r, p in curve.points)

    @pytest.mark.parametrize("params", [MatchParams(), MatchParams(temporal_iou=0.1, spatial_iou=0.3)],
                             ids=["no-spatial-gate", "spatial-gate"])
    def test_matches_per_threshold_reference(self, params):
        # two videos, two classes, confidences drawn from four levels so ties are common
        rng = np.random.default_rng(43)
        for _ in range(60):
            dets, gts = random_match_instance(rng, max_side=10)
            if not gts:
                continue
            dets = [d._replace(confidence=float(rng.choice([0.3, 0.5, 0.7, 0.9]))) for d in dets]
            assert det_curve(dets, gts, 3.0, params) == reference_det_curve(dets, gts, 3.0, params)

    def test_later_detection_reroutes_earlier_match(self):
        # d0 arrives first and could take either GT; d1 only fits g0, so the
        # sweep must move d0 to g1 (an augmenting path) to match both
        g0, g1 = gt(frames(0, 99)), gt(frames(80, 179))
        d0 = sdet("d0", frames(20, 119), conf=0.9)  # tIoU 0.667 with g0, 0.222 with g1
        d1 = sdet("d1", frames(0, 59), conf=0.8)  # tIoU 0.6 with g0 only
        assert det_curve([d0, d1], [g0, g1], video_minutes=1.0).points == ((0.0, 0.0),)

    def test_crowded_graph_matches_reference(self):
        # many detections per GT force long augmenting paths
        rng = np.random.default_rng(47)
        for _ in range(5):
            gts = [gt(random_cuboid(rng, grid=1, max_frame=40)) for _ in range(12)]
            dets = [sdet(f"d{i:02d}", random_cuboid(rng, grid=1, max_frame=40), conf=float(rng.integers(1, 9)) / 10)
                    for i in range(40)]
            assert det_curve(dets, gts, 1.0) == reference_det_curve(dets, gts, 1.0)

    def test_sweep_scales(self):
        # one class, 1000 detections, 200 GT: one solve per threshold took ~11 s here
        rng = np.random.default_rng(53)
        gts = [gt(random_cuboid(rng, max_frame=6000)) for _ in range(200)]
        dets = []
        for i in range(1000):
            base = gts[int(rng.integers(0, len(gts)))].cuboid
            shift = int(rng.integers(-20, 21))
            cub = Cuboid(base.x_min, base.y_min, base.x_max, base.y_max,
                         max(0, base.f_start + shift), max(0, base.f_end + shift))
            dets.append(sdet(f"d{i:04d}", cub, conf=float(rng.uniform(0.1, 1.0))))
        started = time.perf_counter()
        curve = det_curve(dets, gts, video_minutes=10.0)
        assert time.perf_counter() - started < 1.0
        assert curve.points[0][1] < 1.0

    def test_threshold_sweep_counts(self):
        # one matchable + one unmatchable detection at distinct confidences
        gts = [gt(frames(0, 63))]
        dets = [sdet("hit", frames(0, 63), conf=0.9), sdet("fa", frames(400, 463), conf=0.5)]
        curve = det_curve(dets, gts, video_minutes=2.0)
        assert curve.points == ((0.0, 0.0), (0.5, 0.0))


class TestPmissLookup:
    CURVE = DetCurve("x", ((0.05, 0.6), (0.2, 0.3), (1.0, 0.1)))

    def test_below_all_points(self):
        assert pmiss_at(self.CURVE, 0.01) == 1.0

    def test_exact_point(self):
        assert pmiss_at(self.CURVE, 0.2) == 0.3

    def test_between_points_steps_down(self):
        assert pmiss_at(self.CURVE, 0.5) == 0.3
        assert pmiss_at(self.CURVE, 2.0) == 0.1

    def test_negative_rate_rejected_and_nan_never_operates(self):
        with pytest.raises(ValidationError):
            pmiss_at(self.CURVE, -0.1)
        assert pmiss_at(self.CURVE, float("nan")) == 1.0

    def test_mean_over_grid(self):
        assert mean_pmiss_at(self.CURVE, [0.01, 0.05, 1.0]) == [1.0, 0.6, 0.1]

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(59)
        for _ in range(50):
            rates = sorted({float(r) for r in rng.integers(0, 8, 6) / 4})
            curve = DetCurve("x", tuple((r, float(rng.uniform(0, 1))) for r in rates))
            for rate in [0.0, 0.1, 0.25, 0.5, 1.0, 1.75, 2.0, 5.0, float("nan")]:
                want = 1.0
                for rate_fa, p_miss in curve.points:
                    if rate_fa <= rate:
                        want = p_miss
                    else:
                        break
                assert pmiss_at(curve, rate) == want

    def test_default_grid(self):
        assert DEFAULT_RATE_GRID == (0.01, 0.03, 0.1, 0.15, 0.2, 1.0)


class TestPerClassAndAggregate:
    def test_class_without_gt_warned_and_skipped(self, caplog):
        gts = [gt(frames(0, 63), label=DEFAULT_ACTION_CLASSES[0])]
        dets = [
            sdet("d0", frames(0, 63)),
            sdet("d1", frames(0, 63), cls=class_index(DEFAULT_ACTION_CLASSES[1])),
        ]
        with caplog.at_level(logging.WARNING):
            curves = per_class_det_curves(dets, gts, video_minutes=1.0)
        assert set(curves) == {DEFAULT_ACTION_CLASSES[0]}
        assert DEFAULT_ACTION_CLASSES[1] in caplog.text

    def test_class_without_detections_pinned_at_one(self):
        gts = [gt(frames(0, 63)), gt(frames(0, 63), label=DEFAULT_ACTION_CLASSES[1])]
        dets = [sdet("d0", frames(0, 63))]
        curves = per_class_det_curves(dets, gts, video_minutes=1.0)
        assert curves[DEFAULT_ACTION_CLASSES[1]].points == ((0.0, 1.0),)

    def test_aggregate_mean(self):
        a = DetCurve("a", ((0.0, 0.5),))
        b = DetCurve("b", ((0.1, 0.2),))
        agg = aggregate_det_curve([a, b])
        assert agg.class_label == "aggregate"
        assert agg.points == ((0.0, 0.75), (0.1, 0.35))

    def test_aggregate_empty_rejected(self):
        with pytest.raises(ValidationError):
            aggregate_det_curve([])


class TestRecallCurve:
    GRID = [0.1 * i for i in range(1, 10)]

    def prop(self, cuboid, pid="p", video="v1"):
        return Proposal(pid, video, cuboid, PROVENANCE_CLUSTERING)

    def test_exact_proposals_full_recall(self):
        gts = [gt(frames(0, 63)), gt(frames(100, 163))]
        props = [self.prop(g.cuboid, pid=f"p{i}") for i, g in enumerate(gts)]
        assert recall_curve(props, gts, self.GRID + [1.0]) == [1.0] * 10

    def test_empty_proposals_zero_recall(self):
        assert recall_curve([], [gt(frames(0, 63))], self.GRID) == [0.0] * 9

    def test_non_increasing_in_threshold(self):
        rng = np.random.default_rng(41)
        gts = [gt(frames(int(f), int(f) + 50)) for f in rng.integers(0, 400, 8)]
        props = [self.prop(frames(int(f), int(f) + int(w)), pid=f"p{i}")
                 for i, (f, w) in enumerate(zip(rng.integers(0, 400, 30), rng.integers(5, 120, 30)))]
        rec = recall_curve(props, gts, self.GRID)
        assert all(b <= a for a, b in zip(rec, rec[1:]))

    def test_video_scoping(self):
        gts = [gt(frames(0, 63))]
        props = [self.prop(frames(0, 63), video="other")]
        assert recall_curve(props, gts, [0.5]) == [0.0]

    def test_class_agnostic(self):
        gts = [gt(frames(0, 63), label=DEFAULT_ACTION_CLASSES[5])]
        props = [self.prop(frames(0, 63))]
        assert recall_curve(props, gts, [0.9]) == [1.0]

    def test_product_mode_equals_volume_for_shared_box(self):
        gts = [gt(frames(0, 63))]
        props = [self.prop(frames(20, 83))]
        vol = recall_curve(props, gts, self.GRID, iou_mode="volume")
        prod = recall_curve(props, gts, self.GRID, iou_mode="product")
        assert vol == prod

    @pytest.mark.parametrize("mode", IOU_MODES)
    def test_matches_scalar_best_overlap(self, mode):
        rng = np.random.default_rng(61)
        gts = [gt(random_cuboid(rng), video=("va", "vb", "vc")[int(rng.integers(0, 3))]) for _ in range(12)]
        props = [self.prop(random_cuboid(rng), pid=f"p{i}", video=("va", "vb")[int(rng.integers(0, 2))])
                 for i in range(40)]

        def overlap(a, b):
            return iou_3d(a, b) if mode == "volume" else spatial_iou(a, b) * temporal_iou(a, b)

        best = [max((overlap(p.cuboid, g.cuboid) for p in props if p.video_id == g.video_id), default=0.0)
                for g in gts]
        grid = sorted(set(best)) + self.GRID  # the best overlaps themselves make exactness matter
        assert recall_curve(props, gts, grid, mode) == [sum(b >= t for b in best) / len(best) for t in grid]

    @settings(max_examples=300, deadline=None)
    @given(
        gt_specs=st.lists(st.tuples(st.sampled_from(["va", "vb", "vc"]), st.integers(0, 3), st.integers(0, 30),
                                    st.integers(0, 8)), min_size=1, max_size=8),
        prop_specs=st.lists(st.tuples(st.sampled_from(["va", "vb"]), st.integers(0, 3), st.integers(0, 30),
                                      st.integers(0, 8)), max_size=16),
        mode=st.sampled_from(IOU_MODES),
    )
    def test_equals_scalar_best_overlap_on_lattices(self, gt_specs, prop_specs, mode):
        # lattice boxes in 39 frames: shared spans, nested spans and GTs no proposal overlaps ("vc")
        def box(x0, f0, n):
            return Cuboid(x0, 0.0, x0 + 4.0, 4.0, f0, f0 + n)

        gts = [gt(box(x0, f0, n), video=vid) for vid, x0, f0, n in gt_specs]
        props = [self.prop(box(x0, f0, n), pid=f"p{i}", video=vid) for i, (vid, x0, f0, n) in enumerate(prop_specs)]

        def overlap(a, b):
            return iou_3d(a, b) if mode == "volume" else spatial_iou(a, b) * temporal_iou(a, b)

        best = [max((overlap(g.cuboid, p.cuboid) for p in props if p.video_id == g.video_id), default=0.0)
                for g in gts]
        grid = sorted(set(best))
        assert recall_curve(props, gts, grid, mode) == [sum(b >= t for b in best) / len(best) for t in grid]

    def test_bad_mode_and_empty_gt(self):
        with pytest.raises(ValidationError):
            recall_curve([], [gt(frames(0, 9))], [0.5], iou_mode="nope")
        with pytest.raises(ValidationError):
            recall_curve([], [], [0.5])
