import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from actionpipe.geometry import (
    Cuboid,
    box_iou,
    box_iou_3d,
    cuboid_array,
    iou_3d,
    pairwise_iou,
    span_pairs,
    spatial_iou,
    temporal_iou,
)
from oracles import random_cuboid, reference_cuboid_array, voxel_iou


def cub(x0, y0, x1, y1, f0=0, f1=0):
    return Cuboid(x0, y0, x1, y1, f0, f1)


class TestCuboid:
    def test_rejects_empty_extents(self):
        with pytest.raises(ValueError):
            cub(0, 0, 0, 10)
        with pytest.raises(ValueError):
            cub(0, 0, 10, 0)
        with pytest.raises(ValueError):
            Cuboid(0, 0, 10, 10, 5, 4)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            cub(0, 0, math.inf, 10)
        with pytest.raises(ValueError):
            cub(math.nan, 0, 10, 10)

    def test_rejects_fractional_frames(self):
        with pytest.raises(TypeError):
            Cuboid(0, 0, 10, 10, 0.5, 3)

    def test_derived_quantities(self):
        c = Cuboid(1, 2, 5, 8, 3, 7)
        assert c.width == 4 and c.height == 6 and c.area == 24
        assert c.num_frames == 5 and c.volume == 120
        assert c.mid_frame == 5.0


class TestSpatialIou:
    def test_identity(self):
        a = cub(0, 0, 10, 10)
        assert spatial_iou(a, a) == 1.0

    def test_half_shift(self):
        # inter = 50, union = 150
        assert spatial_iou(cub(0, 0, 10, 10), cub(5, 0, 15, 10)) == pytest.approx(1 / 3)

    def test_disjoint(self):
        assert spatial_iou(cub(0, 0, 1, 1), cub(5, 5, 6, 6)) == 0.0

    def test_touching_edges_count_as_zero(self):
        assert spatial_iou(cub(0, 0, 1, 1), cub(1, 0, 2, 1)) == 0.0


class TestTemporalIou:
    def test_identity(self):
        a = cub(0, 0, 10, 10, 0, 9)
        assert temporal_iou(a, a) == 1.0

    def test_inclusive_overlap(self):
        # frames [0,9] vs [5,14]: inter 5 frames, union 15
        assert temporal_iou(cub(0, 0, 1, 1, 0, 9), cub(0, 0, 1, 1, 5, 14)) == pytest.approx(1 / 3)

    def test_disjoint(self):
        assert temporal_iou(cub(0, 0, 1, 1, 0, 9), cub(0, 0, 1, 1, 20, 29)) == 0.0

    def test_single_frame_overlap(self):
        # adjacent spans sharing the boundary frame
        assert temporal_iou(cub(0, 0, 1, 1, 0, 5), cub(0, 0, 1, 1, 5, 9)) == pytest.approx(1 / 10)


class TestIou3d:
    def test_identity(self):
        a = cub(0, 0, 10, 10, 0, 9)
        assert iou_3d(a, a) == 1.0

    def test_same_box_shifted_frames(self):
        a = cub(0, 0, 10, 10, 0, 9)
        b = cub(0, 0, 10, 10, 5, 14)
        assert iou_3d(a, b) == pytest.approx(1 / 3)

    def test_spatially_disjoint(self):
        assert iou_3d(cub(0, 0, 1, 1, 0, 9), cub(5, 5, 6, 6, 0, 9)) == 0.0

    def test_reduces_to_temporal_when_boxes_equal(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = random_cuboid(rng)
            b = Cuboid(a.x_min, a.y_min, a.x_max, a.y_max,
                       a.f_start + 3, a.f_end + 3)
            assert iou_3d(a, b) == pytest.approx(temporal_iou(a, b))

    def test_reduces_to_spatial_when_frames_equal(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            a = random_cuboid(rng)
            b = random_cuboid(rng)
            b = Cuboid(b.x_min, b.y_min, b.x_max, b.y_max, a.f_start, a.f_end)
            assert iou_3d(a, b) == pytest.approx(spatial_iou(a, b))

    def test_matches_voxel_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            a, b = random_cuboid(rng), random_cuboid(rng)
            assert iou_3d(a, b) == pytest.approx(voxel_iou(a, b), abs=0.02)


def test_iou_invariants_randomized():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a, b = random_cuboid(rng), random_cuboid(rng)
        for fn in (spatial_iou, temporal_iou, iou_3d):
            v = fn(a, b)
            assert v == fn(b, a)
            assert 0.0 <= v <= 1.0
            assert fn(a, a) == 1.0
        assert iou_3d(a, b) <= min(spatial_iou(a, b), temporal_iou(a, b)) + 1e-12


# Small integer lattices make touching edges (zero-width intersections),
# single-frame spans, identical boxes and disjoint spans common; free floats
# cover inexact coordinates.
_lattice = st.integers(0, 12).map(float)
_free = st.floats(-1e4, 1e4, allow_nan=False, allow_subnormal=False)


@st.composite
def _cuboids(draw):
    coord, extent = draw(st.sampled_from([
        (_lattice, st.integers(1, 6).map(float)),
        (_free, st.floats(1e-3, 1e3)),
    ]))
    x0, y0 = draw(coord), draw(coord)
    f0 = draw(st.integers(0, 12))
    return Cuboid(x0, y0, x0 + draw(extent), y0 + draw(extent), f0, f0 + draw(st.integers(0, 4)))


class TestPairwiseKernel:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_cuboids(), max_size=6), st.lists(_cuboids(), max_size=6))
    def test_equals_scalar_bit_for_bit(self, left, right):
        right = right + left[:2]  # identical boxes on both sides
        spatial, temporal = pairwise_iou(cuboid_array(left), cuboid_array(right))
        volume = box_iou_3d(cuboid_array(left)[:, None], cuboid_array(right)[None])
        assert spatial.shape == temporal.shape == volume.shape == (len(left), len(right))
        for i, a in enumerate(left):
            for j, b in enumerate(right):
                assert spatial[i, j] == spatial_iou(a, b)
                assert temporal[i, j] == temporal_iou(a, b)
                assert volume[i, j] == iou_3d(a, b)

    def test_edge_cases(self):
        box = cub(0, 0, 10, 10, 5, 5)  # single frame
        touching_x = cub(10, 0, 20, 10, 5, 5)  # ix == 0
        later = cub(0, 0, 10, 10, 6, 9)  # disjoint frames
        cuboids = [box, touching_x, later, box]
        spatial, temporal = pairwise_iou(cuboid_array(cuboids), cuboid_array(cuboids))
        assert spatial[0].tolist() == [1.0, 0.0, 1.0, 1.0]
        assert temporal[0].tolist() == [1.0, 1.0, 0.0, 1.0]
        assert box_iou_3d(cuboid_array(cuboids)[:1], cuboid_array(cuboids)).tolist() == [1.0, 0.0, 0.0, 1.0]

    def test_empty_sides(self):
        assert cuboid_array([]).shape == (0, 6)
        spatial, temporal = pairwise_iou(cuboid_array([cub(0, 0, 1, 1)]), cuboid_array([]))
        assert spatial.shape == temporal.shape == (1, 0)


# Spans in a 30-frame video: single frames, equal starts, nested spans and
# the whole video are all common.
_span = st.one_of(
    st.tuples(st.integers(0, 29), st.integers(0, 29)).map(sorted),
    st.integers(0, 29).map(lambda f: (f, f)),
    st.just((0, 29)),
)
_span_boxes = st.lists(st.tuples(_lattice, _span), max_size=8).map(
    lambda drawn: cuboid_array(Cuboid(x0, 0, x0 + 2, 2, f0, f1) for x0, (f0, f1) in drawn)
)


class TestSpanPairs:
    @settings(max_examples=300, deadline=None)
    @given(_span_boxes, _span_boxes)
    @example(cuboid_array([]), cuboid_array([]))
    @example(cuboid_array([cub(0, 0, 1, 1, 0, 29)]), cuboid_array([]))
    def test_equals_brute_force_pair_set(self, a, b):
        rows, cols = span_pairs(a, b)
        got = list(zip(rows.tolist(), cols.tolist()))
        want = {(i, j) for i in range(len(a)) for j in range(len(b)) if a[i, 4] <= b[j, 5] and b[j, 4] <= a[i, 5]}
        assert len(got) == len(set(got)) and set(got) == want

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_cuboids(), max_size=6), st.lists(_cuboids(), max_size=6))
    def test_values_on_pairs_equal_dense_entries(self, left, right):
        a, b = cuboid_array(left), cuboid_array(right + left[:2])
        rows, cols = span_pairs(a, b)
        spatial, temporal = box_iou(a[rows], b[cols])
        dense_s, dense_t = pairwise_iou(a, b)
        assert spatial.tolist() == dense_s[rows, cols].tolist()
        assert temporal.tolist() == dense_t[rows, cols].tolist()
        assert box_iou_3d(a[rows], b[cols]).tolist() == box_iou_3d(a[:, None], b[None])[rows, cols].tolist()
        listed = np.zeros(dense_t.shape, dtype=bool)
        listed[rows, cols] = True
        assert (dense_t[~listed] == 0.0).all()  # an unlisted pair shares no frame


# floats of every magnitude (-0.0 included) and ints, some past 2**53, where float64 rounds
VALUE = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-2**60, 2**60)


class TestCuboidArray:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(*[VALUE] * 6) | _cuboids(), max_size=8))
    @example([(-0.0, 0.0, 1.0, 1.0, 2**53 + 1, 7)])
    @example([])
    def test_equals_one_np_array_call_bit_for_bit(self, rows):
        got, want = cuboid_array(iter(rows)), reference_cuboid_array(rows)
        assert got.shape == want.shape == (len(rows), 6)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("lengths", [[5], [7], [5, 7], [6, 5, 7], [12], [0]])
    def test_row_not_six_long_raises(self, lengths):
        rows = [tuple(float(i) for i in range(n)) for n in lengths]
        with pytest.raises(ValueError):
            reference_cuboid_array(rows)
        with pytest.raises(ValueError):
            cuboid_array(rows)
