"""Pure 2-D vector and polyline kernels.

All coordinates live in an ego-centric bird's-eye-view frame at the planning
instant: +y points forward along the ego heading, +x points right, units are
meters.  Every public operation validates that its inputs are finite and all
tie-breaks resolve to the lowest index, so results are deterministic.

Each input has one form.  Query points and vectors are (K, 2) arrays; a
`Point2`, the one checked position type, is a finite (x, y) tuple and so a
plain 2-vector wherever one is taken.  A polyline is a `Polyline`, one
checked, read-only (N, 2) array, and the polylines a search runs over are a
`PolylineSet`.  A box is a `BoxFrame`.  A pose track is a `Poses` pair of
arrays, (T, 2) positions and (T,) headings.

The nearest-polyline chain (`closest_point_on_segment`,
`point_polyline_distance`, `closest_polyline`, `closest_polyline_within`)
and `angular_difference` take (K, 2) arrays, broadcast over query points x
segments and return arrays or a `Nearest`.  `rect_corners` broadcasts over
box arrays.

The separating-axis test (`oriented_rect_margin`, `oriented_rect_overlap`)
takes two box frames: each box's center, cos/sin, axes, half dims,
half-extents on its own axes and circle radii, checked and built once by
`box_frame` or `swept_box_frame`.  Before the test, `oriented_rect_overlap`
decides what it can by circle bounds: centers closer than the sum of the
inscribed radii overlap, and centers further apart than the sum of the
circumscribed radii do not.  Each bound is widened by a slack of 1e-12 times
the box's center distance from the origin plus its circumscribed radius, far
above the few ulps by which the SAT and the center distance can round, so a
bound decides a call only where the SAT would give the same answer.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple, Sequence

import numpy as np

from .errors import GeometryError


class Point2(namedtuple("Point2", "x y")):
    """A point (or free vector) in the ego BEV frame, in meters: a finite
    (x, y) tuple of floats, so every kernel takes it as a 2-vector."""

    __slots__ = ()

    def __new__(cls, x, y):
        x, y = float(x), float(y)
        if not (math.isfinite(x) and math.isfinite(y)):
            raise GeometryError(f"non-finite coordinates ({x}, {y})")
        return super().__new__(cls, x, y)


def _all(mask) -> bool:
    """`mask.all()` without the call overhead of a ufunc reduction, which
    dominates on the small arrays the kernels check."""
    return np.count_nonzero(mask) == np.size(mask)


class Polyline:
    """An ordered open polyline: `xy`, a read-only (N, 2) float64 array of at
    least two finite points, copied from the array-like it is made from and
    checked once, here.

    Consecutive points may coincide only when the polyline has more than two
    points; such zero-length segments are skipped by distance queries, never
    divided by.

    Raises:
        GeometryError: on another shape, fewer than two points, a non-finite
            coordinate or a two-point polyline whose points coincide.
    """

    __slots__ = ("xy",)

    def __init__(self, points):
        xy = np.array(points, dtype=np.float64)  # a copy, never the caller's array
        if xy.ndim != 2 or xy.shape[1] != 2:
            raise GeometryError(f"polyline points must have shape (N, 2), got {xy.shape}")
        if len(xy) < 2:
            raise GeometryError(f"polyline needs at least 2 points, got {len(xy)}")
        if not _all(np.isfinite(xy)):
            raise GeometryError("non-finite polyline point")
        if len(xy) == 2 and _all(xy[0] == xy[1]):
            raise GeometryError("two-point polyline must not be degenerate")
        xy.flags.writeable = False
        self.xy = xy

    def __eq__(self, other) -> bool:
        return isinstance(other, Polyline) and np.array_equal(self.xy, other.xy)

    def __repr__(self) -> str:
        return f"Polyline({len(self.xy)} points)"


class _Checked(NamedTuple):
    xy: np.ndarray  # (K, 2) points `_as_xy` has checked, passed down the chain


def _as_xy(p, what: str = "query point") -> np.ndarray:
    """`p` as a checked (K, 2) float64 array.

    Raises:
        GeometryError: on any other shape or a non-finite coordinate.
    """
    if isinstance(p, _Checked):
        return p.xy
    xy = np.asarray(p, dtype=np.float64)
    if xy.ndim != 2 or xy.shape[1] != 2:
        raise GeometryError(f"{what}s must have shape (K, 2), got {xy.shape}")
    if not _all(np.isfinite(xy)):
        raise GeometryError(f"non-finite {what}")
    return xy


class PolylineSet:
    """Polylines packed into one array of segments, for nearest searches.

    Segments are numbered polyline by polyline, so among tied segments the
    lowest packed index is the lowest polyline and then its lowest segment.
    A set of no polylines is empty, and searches over it find nothing.  The
    arrays are read-only and finite (a Polyline checks its points when it is
    made), so the chain uses them without checking them again.

    Raises:
        GeometryError: if a polyline has no non-degenerate segment.
    """

    __slots__ = ("start", "end", "step", "step_sq", "live", "poly", "seg", "count")

    def __init__(self, pls: Sequence[Polyline]):
        xy = [pl.xy for pl in pls]
        counts = [len(x) - 1 for x in xy]
        none = np.zeros((0, 2))
        self.start = np.concatenate([none] + [x[:-1] for x in xy])  # (S, 2)
        self.end = np.concatenate([none] + [x[1:] for x in xy])
        d = self.end - self.start
        seg_sq = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
        # a degenerate segment's squared length counts as 1, so its
        # projections are 0 / 1 = 0: searches skip it, never divide by it
        self.step, self.step_sq = d, np.where(seg_sq == 0.0, 1.0, seg_sq)
        self.live = (self.start != self.end).any(axis=1)
        self.poly = np.repeat(np.arange(len(xy)), counts)  # owner of each segment
        self.seg = np.concatenate([np.arange(c) for c in [0] + counts])  # index within it
        self.count = len(xy)
        if not (np.bincount(self.poly, self.live, self.count) > 0).all():
            raise GeometryError("polyline has no non-degenerate segment")
        for a in (self.start, self.end, self.step, self.step_sq, self.live, self.poly, self.seg):
            a.flags.writeable = False

    def __len__(self) -> int:
        return self.count


class Nearest(NamedTuple):
    """The nearest polyline segment of each of K query points."""

    poly: np.ndarray  # (K,) polyline index, -1 where none lies in range
    dist: np.ndarray  # (K,) distance to it, meters
    seg: np.ndarray  # (K,) segment index within that polyline, -1 with poly
    foot: np.ndarray  # (K, 2) closest point on that segment
    start: np.ndarray  # (K, 2) first endpoint of that segment
    end: np.ndarray  # (K, 2) second endpoint of that segment


def closest_point_on_segment(p, segments: PolylineSet) -> np.ndarray:
    """Closest point to each query point on each segment of a PolylineSet.

    `p` is a (K, 2) array of query points; the result is the (K, S, 2) array
    of foot points on the set's S closed segments [a_s, b_s].  A degenerate
    segment (a_s == b_s) gives a_s.
    """
    q = _as_xy(p)
    a, d = segments.start, segments.step
    along = (q[:, None, 0] - a[:, 0]) * d[:, 0] + (q[:, None, 1] - a[:, 1]) * d[:, 1]
    t = np.minimum(1.0, np.maximum(0.0, along / segments.step_sq))
    return a + t[..., None] * d


def point_polyline_distance(p, pls: PolylineSet):
    """Distance from each query point to the nearest segment of a
    PolylineSet, searched as one polyline with packed segment indices.

    `p` is a (K, 2) array of query points; returns the (K,) distances, the
    (K,) winning packed segment indices and the (K, 2) foot points on them.
    Degenerate segments are skipped; exact ties resolve to the lowest
    segment index.

    Raises:
        GeometryError: if the set is empty.
    """
    q = _as_xy(p)
    if not pls:
        raise GeometryError("no polyline to measure the distance to")
    foot = closest_point_on_segment(_Checked(q), pls)
    dist = np.hypot(q[:, None, 0] - foot[..., 0], q[:, None, 1] - foot[..., 1])
    dist = np.where(pls.live, dist, np.inf)
    seg = np.argmin(dist, axis=1)
    rows = np.arange(q.shape[0])
    return dist[rows, seg], seg, foot[rows, seg]


def angular_difference(v1, v2) -> np.ndarray:
    """Unsigned angles between the rows of two (K, 2) arrays of non-zero
    vectors, as a (K,) array in [0, pi].

    Symmetric in its arguments and invariant to positive scaling of either
    one.  The acos argument is clamped to [-1, 1] for floating-point safety.

    Raises:
        GeometryError: if any vector has zero length.
    """
    a, b = _as_xy(v1, "vector"), _as_xy(v2, "vector")
    n1 = np.hypot(a[:, 0], a[:, 1])
    n2 = np.hypot(b[:, 0], b[:, 1])
    if not ((n1 != 0.0).all() and (n2 != 0.0).all()):
        raise GeometryError("angular_difference requires non-zero vectors")
    c = (a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1]) / (n1 * n2)
    return np.arccos(np.minimum(1.0, np.maximum(-1.0, c)))


def closest_polyline(p, pls: PolylineSet) -> Nearest | None:
    """Nearest polyline of a PolylineSet to each query point of a (K, 2)
    array, or None when the set is empty.  Ties resolve to the lowest
    polyline index, then to the lowest segment index.
    """
    q = _as_xy(p)
    if not pls:
        return None
    dist, k, foot = point_polyline_distance(_Checked(q), pls)
    return Nearest(pls.poly[k], dist, pls.seg[k], foot, pls.start[k], pls.end[k])


def closest_polyline_within(p, pls: PolylineSet, within: float) -> Nearest | None:
    """`closest_polyline`, with polyline and segment index -1 for a query
    whose nearest lies beyond `within` meters; its distance, foot and
    endpoints still describe the nearest segment.  Raises GeometryError
    unless `within` is positive and finite.
    """
    if not (within > 0.0 and math.isfinite(within)):
        raise GeometryError(f"search range must be positive and finite, got {within}")
    hit = closest_polyline(p, pls)
    if hit is None:
        return None
    near = hit.dist <= within
    return hit._replace(poly=np.where(near, hit.poly, -1), seg=np.where(near, hit.seg, -1))


class Poses(NamedTuple):
    """Positions and headings of a mover along a track."""

    xy: np.ndarray  # (..., T, 2) positions
    heading: np.ndarray  # (..., T) headings, radians


def pose_track(track, start, heading: float) -> Poses:
    """Pose at each point of a (T, 2) track that leaves the 2-vector `start`:
    the positions are the track itself.

    Each heading follows the step from the previous point (`start` for the
    first), through `math.atan2` one step at a time; a zero-length step keeps
    the previous heading, `heading` before any step.
    """
    xy = _as_xy(track, "track point")
    headings = []
    last_x, last_y = start
    for x, y in xy.tolist():
        if x != last_x or y != last_y:
            heading = math.atan2(y - last_y, x - last_x)
        headings.append(heading)
        last_x, last_y = x, y
    return Poses(xy, np.array(headings, dtype=np.float64))


def rect_corners(center, heading, dims) -> np.ndarray:
    """Corners of oriented rectangles as a (..., 4, 2) array.

    (..., 2) centers, (...) headings and (..., 2) dims (length, width)
    broadcast, and one rectangle gives (4, 2).  The length axis points along
    the heading.  Corner order: front-left, front-right, rear-right, rear-left.
    """
    xy, h, d = _box_arrays(center, heading, dims)
    ux, uy = np.cos(h), np.sin(h)
    hl, hw = 0.5 * d[..., 0], 0.5 * d[..., 1]
    # half length along the heading, half width along its right-hand normal
    lx, ly, wx, wy = hl * ux, hl * uy, hw * uy, hw * -ux
    cx, cy = xy[..., 0], xy[..., 1]
    x = np.stack([cx + lx - wx, cx + lx + wx, cx - lx + wx, cx - lx - wx], axis=-1)
    y = np.stack([cy + ly - wy, cy + ly + wy, cy - ly + wy, cy - ly - wy], axis=-1)
    return np.stack([x, y], axis=-1)


def _box_arrays(center, heading, dims):
    """Centers, headings and dims of a set of boxes as float64 arrays.

    Raises:
        GeometryError: on a center or dims whose last axis is not 2, a
            non-finite value or a non-positive dimension.
    """
    xy = np.asarray(center, dtype=np.float64)
    h = np.asarray(heading, dtype=np.float64)
    d = np.asarray(dims, dtype=np.float64)
    if xy.shape[-1:] != (2,) or d.shape[-1:] != (2,):
        raise GeometryError(
            f"box centers and dims must have shape (..., 2), got {xy.shape} and {d.shape}"
        )
    if not (_all(np.isfinite(xy)) and _all(np.isfinite(h)) and _all(np.isfinite(d))):
        raise GeometryError("non-finite box center, heading or dims")
    if not _all(d > 0.0):
        raise GeometryError("rectangle dims must be positive")
    return xy, h, d


# Relative slack of the circle bounds.  The separating-axis margin and the
# center distance each carry a rounding error of a few ulps of the
# coordinates and dims they are computed from; widening every bound by this
# much of them keeps the bounds from deciding a pair that rounding could
# make the SAT decide the other way.
_SLACK = 1e-12


class BoxFrame(NamedTuple):
    """Per-box quantities of the separating-axis test and its circle bounds,
    built once per box by `box_frame` or `swept_box_frame`.

    Fields marked (...) are box-shaped.  Fields marked (2, ...) stack, in
    front, one value per axis of the box itself (length, width): the
    separating-axis arithmetic then runs over contiguous box arrays.  A field
    may lack leading box axes where the box's inputs did (dims shared by every
    box, say); it broadcasts.
    """

    x: np.ndarray  # (...) center x
    y: np.ndarray  # (...) center y
    c: np.ndarray  # (...) cos of the heading
    s: np.ndarray  # (...) sin of the heading
    inner: np.ndarray  # (...) inscribed radius, less the box's slack
    outer: np.ndarray  # (...) circumscribed radius, plus the box's slack
    ax: np.ndarray  # (2, ...) x components of the length and width axes
    ay: np.ndarray  # (2, ...) y components of them
    half: np.ndarray  # (2, ...) half length, half width
    own: np.ndarray  # (2, ...) the box's half-extent on each of its own axes

    @classmethod
    def empty(cls, shape: tuple[int, ...]) -> "BoxFrame":
        """Unfilled frames of `shape` boxes, to fill with `put`."""
        box, pair = tuple(shape), (2,) + tuple(shape)
        return cls(*[np.empty(box) for _ in range(_BOX_FIELDS)],
                   *[np.empty(pair) for _ in range(len(cls._fields) - _BOX_FIELDS)])

    def head(self, n: int) -> "BoxFrame":
        """The first `n` boxes along the leading box axis, as views."""
        return BoxFrame(*[a[:n] for a in self[:_BOX_FIELDS]],
                        *[a[:, :n] for a in self[_BOX_FIELDS:]])

    def put(self, i: int, frame: "BoxFrame") -> None:
        """Copy `frame` into box `i` along the leading box axis, broadcast."""
        for row, value in zip(self[:_BOX_FIELDS], frame[:_BOX_FIELDS]):
            row[i] = value
        for row, value in zip(self[_BOX_FIELDS:], frame[_BOX_FIELDS:]):
            row[:, i] = _lead(value, row.ndim - 2)


_BOX_FIELDS = 6  # BoxFrame fields before the (2, ...) ones


def _lead(a: np.ndarray, rank: int) -> np.ndarray:
    """`a` with its first axis kept in front and the rest right-aligned to
    `rank` axes, so it broadcasts against arrays of that many axes."""
    if a.ndim == rank + 1:
        return a
    return a.reshape(a.shape[:1] + (1,) * (rank + 1 - a.ndim) + a.shape[1:])


def box_frame(center, heading, dims) -> BoxFrame:
    """The `BoxFrame` of oriented rectangles: (..., 2) centers, (...)
    headings and (..., 2) dims (length, width), which broadcast; the length
    axis points along the heading.

    Raises:
        GeometryError: on a center or dims whose last axis is not 2, a
            non-finite value or a non-positive dimension.
    """
    return _frame(*_box_arrays(center, heading, dims))


def swept_box_frame(track, start, heading: float, dims) -> BoxFrame:
    """The `BoxFrame` of a box of (length, width) `dims` swept along a track:
    at the 2-vector `start` with `heading`, then at each point of the (T, 2)
    `track` that leaves it, headed as `pose_track` heads them, so T + 1
    boxes.

    Each input is checked once, here, and the frame is built from the
    checked arrays.

    Raises:
        GeometryError: on a non-finite start, heading or track point, or dims
            that are not a positive, finite pair.
    """
    try:
        (x0, y0), (length, width) = start, dims
        valid = (math.isfinite(x0) and math.isfinite(y0) and math.isfinite(heading)
                 and 0.0 < length < math.inf and 0.0 < width < math.inf)
    except (TypeError, ValueError):
        valid = False
    if not valid:
        raise GeometryError(f"bad swept box: start {start!r}, heading {heading!r}, dims {dims!r}")
    xy = np.concatenate(([(x0, y0)], _as_xy(track, "track point")))
    poses = pose_track(_Checked(xy), (x0, y0), heading)
    return _frame(poses.xy, poses.heading, np.array((length, width), dtype=np.float64))


def _frame(xy: np.ndarray, h: np.ndarray, d: np.ndarray) -> BoxFrame:
    """`box_frame` of checked float64 arrays."""
    if h.shape != xy.shape[:-1]:
        # the centers span every box, so the circle bounds see every pair
        xy = np.broadcast_to(xy, np.broadcast_shapes(xy.shape[:-1], h.shape) + (2,))
    x, y = xy[..., 0], xy[..., 1]
    sc = np.empty((3,) + h.shape)  # sin, cos, -sin
    s = np.sin(h, out=sc[0, ...])
    c = np.cos(h, out=sc[1, ...])
    np.negative(s, out=sc[2, ...])
    half = 0.5 * d.transpose((d.ndim - 1, *range(d.ndim - 1)))
    # on its own axes a box reaches half length * |c c + s s| (length axis)
    # and half width * |s s + c c| (width axis): the other term, |-s c + c s|,
    # is exactly 0
    own = _lead(half, max(d.ndim - 1, h.ndim)) * (c * c + s * s)
    r_out = np.hypot(half[0], half[1])
    slack = _SLACK * (np.hypot(x, y) + r_out)
    inner, outer = np.minimum(half[0], half[1]) - slack, r_out + slack
    return BoxFrame(x, y, c, s, inner, outer, sc[1:], sc[:2], half, own)


def _sat_margin(f1: BoxFrame, f2: BoxFrame, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Separating-axis margins of each broadcast pair of boxes, whose center
    gaps are `dx`, `dy` (box 2 minus box 1)."""
    rank = max(f1.x.ndim, f1.own.ndim - 1, f2.x.ndim, f2.own.ndim - 1)
    ax1, ay1, half1, own1 = [_lead(a, rank) for a in f1[_BOX_FIELDS:]]
    ax2, ay2, half2, own2 = [_lead(a, rank) for a in f2[_BOX_FIELDS:]]
    # |cos| and |sin| of the heading difference: |c2 c1 + s2 s1| and
    # |c2 (-s1) + s2 c1| = |s2 c1 - c2 s1|
    cos_d, sin_d = np.abs(f2.c * ax1 + f2.s * ay1)
    # box 2 reaches half length * cos_d + half width * sin_d along box 1's
    # length axis and the swapped sum along its width axis
    reach1 = own1 + (half2 * cos_d + half2[::-1] * sin_d)
    reach2 = (half1 * cos_d + half1[::-1] * sin_d) + own2
    margin = np.minimum(reach1 - np.abs(dx * ax1 + dy * ay1),
                        reach2 - np.abs(dx * ax2 + dy * ay2))
    return np.minimum(margin[0], margin[1])


def oriented_rect_margin(f1: BoxFrame, f2: BoxFrame):
    """Separating-axis margin between the oriented rectangles of two
    `BoxFrame`s.

    The two sets of boxes broadcast, and boxes of shape (...) give (...)
    margins.  Tests the four candidate axes (each rectangle's length and
    width directions) and returns, per pair, the minimum over axes of

        (projected half-extent 1 + projected half-extent 2) - |projected center gap|

    which is >= 0 iff the rectangles intersect (touching edges count) and
    negative when a separating axis exists.  The margin is exactly symmetric
    in the two rectangles.

    Every margin is bit-equal to evaluating that formula pair by pair with
    projections written as u_x v_x + u_y v_y: products commute and negation is
    exact in floating point, so the four cross projections of one rectangle's
    directions on the other's axes reduce to two values per pair,
    |c2 c1 + s2 s1| and |s2 c1 - c2 s1|.
    """
    return _sat_margin(f1, f2, f2.x - f1.x, f2.y - f1.y)


def oriented_rect_overlap(f1: BoxFrame, f2: BoxFrame) -> bool:
    """True iff any broadcast pair of the oriented rectangles of two
    `BoxFrame`s intersects (touching counts); False when there is no pair.

    Circle bounds decide most calls before the separating-axis test: a pair
    whose centers are closer than the sum of the inscribed radii overlaps,
    and pairs further apart than the sum of the circumscribed radii do not.
    Both sums are widened by the boxes' slack, so a bound only decides a call
    whose SAT result rounding cannot flip, and the answer always equals
    `(oriented_rect_margin(f1, f2) >= 0).any()`.
    """
    dx, dy = f2.x - f1.x, f2.y - f1.y
    gap = np.hypot(dx, dy)
    # count_nonzero is `any` without the call overhead of a ufunc reduction
    if np.count_nonzero(gap < f1.inner + f2.inner):
        return True
    if not np.count_nonzero(gap <= f1.outer + f2.outer):
        return False
    return bool(np.count_nonzero(_sat_margin(f1, f2, dx, dy) >= 0.0))
