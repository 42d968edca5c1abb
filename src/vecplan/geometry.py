"""Pure 2-D vector and polyline kernels.

All coordinates live in an ego-centric bird's-eye-view frame at the planning
instant: +y points forward along the ego heading, +x points right, units are
meters.  Every public operation validates that its inputs are finite and all
tie-breaks resolve to the lowest index, so results are deterministic.

The nearest-polyline chain (`closest_point_on_segment`,
`point_polyline_distance`, `closest_polyline`, `closest_polyline_within`)
and `angular_difference` work on (K, 2) arrays and broadcast over query
points x segments; a single Point2 is the K = 1 case of the same code and
gets scalar results.  The separating-axis test (`oriented_rect_margin`,
`oriented_rect_overlap`) likewise broadcasts over box arrays, with scalar
boxes as the one-pair case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import GeometryError


@dataclass(frozen=True)
class Point2:
    """A point (or free vector) in the ego BEV frame, in meters."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise GeometryError(f"non-finite coordinates ({self.x}, {self.y})")

    def __iter__(self):
        yield self.x
        yield self.y


def as_point(p) -> Point2:
    """Coerce a Point2 or a 2-sequence into a Point2."""
    if isinstance(p, Point2):
        return p
    return Point2(float(p[0]), float(p[1]))


class Polyline:
    """An ordered open polyline with at least two points.

    Consecutive points may coincide only when the polyline has more than two
    points; such zero-length segments are skipped by distance queries, never
    divided by.
    """

    __slots__ = ("points", "_xy")

    def __init__(self, points: Iterable):
        pts = tuple(as_point(p) for p in points)
        if len(pts) < 2:
            raise GeometryError(f"polyline needs at least 2 points, got {len(pts)}")
        if len(pts) == 2 and pts[0] == pts[1]:
            raise GeometryError("two-point polyline must not be degenerate")
        self.points = pts
        self._xy = None

    def xy(self) -> np.ndarray:
        """Points as an (N, 2) float64 array (cached)."""
        if self._xy is None:
            self._xy = np.array([(p.x, p.y) for p in self.points], dtype=np.float64)
            self._xy.flags.writeable = False
        return self._xy

    @property
    def segment_count(self) -> int:
        return len(self.points) - 1

    def __len__(self) -> int:
        return len(self.points)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polyline) and self.points == other.points

    def __repr__(self) -> str:
        return f"Polyline({len(self.points)} points)"


def _as_xy(p, what: str = "query point") -> tuple[np.ndarray, bool]:
    """`p` as a (K, 2) float64 array, and whether it was one 2-vector.

    A Point2 or a flat 2-sequence is the K = 1 case of the array form.

    Raises:
        GeometryError: on any other shape or a non-finite coordinate.
    """
    if isinstance(p, Point2):
        return np.array([[p.x, p.y]]), True
    xy = np.asarray(p, dtype=np.float64)
    single = xy.shape == (2,)
    if single:
        xy = xy[None, :]
    if xy.ndim != 2 or xy.shape[1] != 2:
        raise GeometryError(f"{what}s must have shape (K, 2), got {xy.shape}")
    if not np.isfinite(xy).all():
        raise GeometryError(f"non-finite {what}")
    return xy, single


class PolylineSet:
    """Polylines packed into one array of segments, for nearest searches.

    Segments are numbered polyline by polyline, so among tied segments the
    lowest packed index is the lowest polyline and then its lowest segment.

    Raises:
        GeometryError: if a polyline has no non-degenerate segment.
    """

    __slots__ = ("start", "end", "live", "poly", "seg")

    def __init__(self, pls: Sequence[Polyline]):
        xy = [pl.xy() for pl in pls]
        counts = [len(x) - 1 for x in xy]
        self.start = np.concatenate([x[:-1] for x in xy])  # (S, 2)
        self.end = np.concatenate([x[1:] for x in xy])
        # degenerate segments are skipped by searches, never divided by
        self.live = (self.start != self.end).any(axis=1)
        self.poly = np.repeat(np.arange(len(xy)), counts)  # owner of each segment
        self.seg = np.concatenate([np.arange(c) for c in counts])  # index within it
        if not np.logical_or.reduceat(self.live, np.cumsum([0] + counts[:-1])).all():
            raise GeometryError("polyline has no non-degenerate segment")


class Nearest(NamedTuple):
    """The nearest polyline segment of each of K query points."""

    poly: np.ndarray  # (K,) polyline index, -1 where none lies in range
    dist: np.ndarray  # (K,) distance to it, meters
    seg: np.ndarray  # (K,) segment index within that polyline, -1 with poly
    foot: np.ndarray  # (K, 2) closest point on that segment
    start: np.ndarray  # (K, 2) first endpoint of that segment
    end: np.ndarray  # (K, 2) second endpoint of that segment

    def first(self) -> tuple[int, float, int]:
        """(polyline index, distance, segment index) of the first query."""
        return int(self.poly[0]), float(self.dist[0]), int(self.seg[0])


def closest_point_on_segment(p, a, b):
    """Closest point to each query point on each closed segment [a_s, b_s].

    `p` holds K query points and `a`, `b` the endpoints of S segments, as
    (K, 2) and (S, 2) arrays or single points; the result is the (K, S, 2)
    array of foot points, or a Point2 when `p` and `a` are single points.  A
    degenerate segment (a_s == b_s) gives a_s.
    """
    q, single = _as_xy(p)
    a_xy, single_segment = _as_xy(a, "segment endpoint")
    b_xy, _ = _as_xy(b, "segment endpoint")
    d = b_xy - a_xy
    seg_sq = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
    along = (q[:, None, 0] - a_xy[:, 0]) * d[:, 0] + (q[:, None, 1] - a_xy[:, 1]) * d[:, 1]
    # along is 0 on a degenerate segment, so dividing by 1 there gives t = 0
    t = along / np.where(seg_sq == 0.0, 1.0, seg_sq)
    t = np.minimum(1.0, np.maximum(0.0, t))
    foot = a_xy + t[..., None] * d
    if single and single_segment:
        return Point2(float(foot[0, 0, 0]), float(foot[0, 0, 1]))
    return foot


def point_segment_distance(p: Point2, a: Point2, b: Point2) -> float:
    """Minimum Euclidean distance from `p` to the closed segment [a, b].

    Returns |p - a| when the segment is degenerate.  Symmetric in (a, b).
    """
    c = closest_point_on_segment(p, a, b)
    return math.hypot(p.x - c.x, p.y - c.y)


def point_polyline_distance(p, pl):
    """Distance from each query point to the polyline `pl`, with the nearest
    segment.

    `p` is a (K, 2) array of query points; returns the (K,) distances, the
    (K,) winning segment indices and the (K, 2) foot points on them.  For a
    single point the result is the (distance, segment index) pair.  `pl` may
    also be a PolylineSet, searched as one polyline with packed segment
    indices.  Degenerate segments are skipped; exact ties resolve to the
    lowest segment index.

    Raises:
        GeometryError: if the polyline has no non-degenerate segment.
    """
    q, single = _as_xy(p)
    packed = pl if isinstance(pl, PolylineSet) else PolylineSet([pl])
    foot = closest_point_on_segment(q, packed.start, packed.end)
    dist = np.hypot(q[:, None, 0] - foot[..., 0], q[:, None, 1] - foot[..., 1])
    dist = np.where(packed.live, dist, np.inf)
    seg = np.argmin(dist, axis=1)
    rows = np.arange(q.shape[0])
    if single:
        return float(dist[0, seg[0]]), int(seg[0])
    return dist[rows, seg], seg, foot[rows, seg]


def angular_difference(v1, v2):
    """Unsigned angle between non-zero vectors, in [0, pi].

    Takes two (K, 2) arrays of vectors and returns the (K,) angles between
    their rows, or a float for two single vectors.  Symmetric in its
    arguments and invariant to positive scaling of either one.  The acos
    argument is clamped to [-1, 1] for floating-point safety.

    Raises:
        GeometryError: if any vector has zero length.
    """
    a, single = _as_xy(v1, "vector")
    b, _ = _as_xy(v2, "vector")
    n1 = np.hypot(a[:, 0], a[:, 1])
    n2 = np.hypot(b[:, 0], b[:, 1])
    if not ((n1 != 0.0).all() and (n2 != 0.0).all()):
        raise GeometryError("angular_difference requires non-zero vectors")
    c = (a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1]) / (n1 * n2)
    angle = np.arccos(np.minimum(1.0, np.maximum(-1.0, c)))
    return float(angle[0]) if single else angle


def closest_polyline(p, pls: Sequence[Polyline]):
    """Nearest polyline to each query point among `pls`.

    `p` is a (K, 2) array of query points; returns a `Nearest`, or for a
    single point the (polyline index, distance, segment index) triple.  None
    when `pls` is empty.  Ties resolve to the lowest polyline index, then to
    the lowest segment index.
    """
    q, single = _as_xy(p)
    if not pls:
        return None
    packed = PolylineSet(pls)
    dist, k, foot = point_polyline_distance(q, packed)
    hit = Nearest(packed.poly[k], dist, packed.seg[k], foot, packed.start[k], packed.end[k])
    return hit.first() if single else hit


def closest_polyline_within(p, pls: Sequence[Polyline], within: float):
    """`closest_polyline`, with no polyline for a query whose nearest lies
    beyond `within` meters.

    In the array form those queries get polyline and segment index -1, while
    their distance, foot and endpoints still describe the nearest segment; a
    single point gets None.
    """
    if within <= 0.0:
        raise GeometryError(f"search range must be positive, got {within}")
    q, single = _as_xy(p)
    hit = closest_polyline(q, pls)
    if hit is None:
        return None
    near = hit.dist <= within
    hit = hit._replace(poly=np.where(near, hit.poly, -1), seg=np.where(near, hit.seg, -1))
    if single:
        return hit.first() if near[0] else None
    return hit


def pose_track(track: np.ndarray, start: Point2, heading: float) -> list[tuple[Point2, float]]:
    """(position, heading) at each point of a (T, 2) track that leaves `start`.

    Each heading follows the step from the previous point (`start` for the
    first); a zero-length step keeps the previous heading, `heading` before
    any step.
    """
    poses = []
    last_x, last_y = start.x, start.y
    for p in track:
        x, y = float(p[0]), float(p[1])
        if x != last_x or y != last_y:
            heading = math.atan2(y - last_y, x - last_x)
        poses.append((Point2(x, y), heading))
        last_x, last_y = x, y
    return poses


def rect_corners(center: Point2, heading: float, dims: tuple[float, float]) -> np.ndarray:
    """Corners of an oriented rectangle as a (4, 2) array.

    `dims` is (length, width); the length axis points along `heading`.
    Corner order: front-left, front-right, rear-right, rear-left.
    """
    length, width = dims
    if not (length > 0.0 and width > 0.0):
        raise GeometryError(f"rectangle dims must be positive, got {dims}")
    ux, uy = math.cos(heading), math.sin(heading)
    # right-hand normal of the heading direction
    nx, ny = uy, -ux
    hl, hw = 0.5 * length, 0.5 * width
    cx, cy = center.x, center.y
    return np.array(
        [
            (cx + hl * ux - hw * nx, cy + hl * uy - hw * ny),
            (cx + hl * ux + hw * nx, cy + hl * uy + hw * ny),
            (cx - hl * ux + hw * nx, cy - hl * uy + hw * ny),
            (cx - hl * ux - hw * nx, cy - hl * uy - hw * ny),
        ],
        dtype=np.float64,
    )


def _box_arrays(center, heading, dims):
    """Centers, headings and dims of a set of boxes as float64 arrays.

    Raises:
        GeometryError: on a center or dims whose last axis is not 2, a
            non-finite value or a non-positive dimension.
    """
    if isinstance(center, Point2):
        xy = np.array((center.x, center.y))
    else:
        xy = np.asarray(center, dtype=np.float64)
    h = np.asarray(heading, dtype=np.float64)
    d = np.asarray(dims, dtype=np.float64)
    if xy.shape[-1:] != (2,) or d.shape[-1:] != (2,):
        raise GeometryError(
            f"box centers and dims must have shape (..., 2), got {xy.shape} and {d.shape}"
        )
    if not (np.isfinite(xy).all() and np.isfinite(h).all() and np.isfinite(d).all()):
        raise GeometryError("non-finite box center, heading or dims")
    if not (d > 0.0).all():
        raise GeometryError("rectangle dims must be positive")
    return xy, h, d


def _lead(a: np.ndarray, rank: int) -> np.ndarray:
    """`a` with its first axis kept in front and the rest right-aligned to
    `rank` axes, so it broadcasts against arrays of that many axes."""
    return a.reshape(a.shape[:1] + (1,) * (rank + 1 - a.ndim) + a.shape[1:])


def _box_frame(h, d, rank: int):
    """Per-box quantities of the separating-axis test, each computed once.

    Returns cos and sin of the headings, then (2, ...) arrays stacked over the
    box's own two axes (length, width): their x and y components, the half
    dims (half length, half width) and the box's half-extent on each of them.
    """
    sc = np.empty((3,) + h.shape)  # sin, cos, -sin
    s = np.sin(h, out=sc[0, ...])
    c = np.cos(h, out=sc[1, ...])
    np.negative(s, out=sc[2, ...])
    sc = _lead(sc, rank)
    half = _lead(0.5 * d.transpose((d.ndim - 1, *range(d.ndim - 1))), rank)
    # on its own axes a box reaches half length * |c c + s s| (length axis)
    # and half width * |s s + c c| (width axis): the other term, |-s c + c s|,
    # is exactly 0
    return c, s, sc[1:], sc[:2], half, half * (c * c + s * s)


def oriented_rect_margin(center1, heading1, dims1, center2, heading2, dims2):
    """Separating-axis margin between oriented rectangles.

    Each rectangle is a center, a heading and (length, width) dims, the
    length axis pointing along the heading.  The two sets broadcast: (..., 2)
    centers, (...) headings and (..., 2) dims give (...) margins, and
    all-scalar inputs (a Point2 or 2-vector, a float, a 2-tuple) give a
    float.  Tests the four candidate axes (each rectangle's length and width
    directions) and returns, per pair, the minimum over axes of

        (projected half-extent 1 + projected half-extent 2) - |projected center gap|

    which is >= 0 iff the rectangles intersect (touching edges count) and
    negative when a separating axis exists.  The margin is exactly symmetric
    in the two rectangles.

    Every margin is bit-equal to evaluating that formula pair by pair with
    projections written as u_x v_x + u_y v_y: products commute and negation is
    exact in floating point, so the four cross projections of one rectangle's
    directions on the other's axes reduce to two values per pair,
    |c2 c1 + s2 s1| and |s2 c1 - c2 s1|.

    Raises:
        GeometryError: on a non-finite input or a non-positive dimension.
    """
    xy1, h1, d1 = _box_arrays(center1, heading1, dims1)
    xy2, h2, d2 = _box_arrays(center2, heading2, dims2)
    rank = max(xy1.ndim - 1, h1.ndim, d1.ndim - 1, xy2.ndim - 1, h2.ndim, d2.ndim - 1)
    c1, s1, ax1, ay1, half1, own1 = _box_frame(h1, d1, rank)
    c2, s2, ax2, ay2, half2, own2 = _box_frame(h2, d2, rank)
    dx = xy2[..., 0] - xy1[..., 0]
    dy = xy2[..., 1] - xy1[..., 1]
    cos_d = np.abs(c2 * c1 + s2 * s1)
    sin_d = np.abs(s2 * c1 - c2 * s1)
    # rectangle 2 reaches half length * cos_d + half width * sin_d along
    # rectangle 1's length axis and the swapped sum along its width axis
    reach1 = own1 + (half2 * cos_d + half2[::-1] * sin_d)
    reach2 = (half1 * cos_d + half1[::-1] * sin_d) + own2
    margin1 = (reach1 - np.abs(dx * ax1 + dy * ay1)).min(axis=0)
    margin2 = (reach2 - np.abs(dx * ax2 + dy * ay2)).min(axis=0)
    margin = np.minimum(margin1, margin2)
    return float(margin) if margin.ndim == 0 else margin


def oriented_rect_overlap(center1, heading1, dims1, center2, heading2, dims2) -> bool:
    """True iff any broadcast pair of oriented rectangles intersects (touching
    counts); False when there is no pair.  Inputs as `oriented_rect_margin`."""
    margin = oriented_rect_margin(center1, heading1, dims1, center2, heading2, dims2)
    return bool(np.asarray(margin >= 0.0).any())
