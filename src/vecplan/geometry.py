"""Pure 2-D vector and polyline kernels.

All coordinates live in an ego-centric bird's-eye-view frame at the planning
instant: +y points forward along the ego heading, +x points right, units are
meters.  Every public operation validates that its inputs are finite and all
tie-breaks resolve to the lowest index, so results are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

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


def closest_point_on_segment(p: Point2, a: Point2, b: Point2) -> Point2:
    """Closest point to `p` on the closed segment [a, b].

    Falls back to `a` when the segment is degenerate (a == b).
    """
    ax, ay, bx, by = a.x, a.y, b.x, b.y
    dx, dy = bx - ax, by - ay
    seg_sq = dx * dx + dy * dy
    if seg_sq == 0.0:
        return a
    t = ((p.x - ax) * dx + (p.y - ay) * dy) / seg_sq
    t = min(1.0, max(0.0, t))
    return Point2(ax + t * dx, ay + t * dy)


def point_segment_distance(p: Point2, a: Point2, b: Point2) -> float:
    """Minimum Euclidean distance from `p` to the closed segment [a, b].

    Returns |p - a| when the segment is degenerate.  Symmetric in (a, b).
    """
    c = closest_point_on_segment(p, a, b)
    return math.hypot(p.x - c.x, p.y - c.y)


def point_polyline_distance(p: Point2, pl: Polyline) -> tuple[float, int]:
    """Minimum distance from `p` to `pl` and the winning segment index.

    Degenerate segments are skipped; exact ties resolve to the lowest
    segment index.

    Raises:
        GeometryError: if the polyline has no non-degenerate segment.
    """
    best_d: Optional[float] = None
    best_i = -1
    pts = pl.points
    for i in range(len(pts) - 1):
        a, b = pts[i], pts[i + 1]
        if a == b:
            continue
        d = point_segment_distance(p, a, b)
        if best_d is None or d < best_d:
            best_d = d
            best_i = i
    if best_d is None:
        raise GeometryError("polyline has no non-degenerate segment")
    return best_d, best_i


def angular_difference(v1, v2) -> float:
    """Unsigned angle between two non-zero vectors, in [0, pi].

    Symmetric in its arguments and invariant to positive scaling of either
    one.  The acos argument is clamped to [-1, 1] for floating-point safety.

    Raises:
        GeometryError: if either vector has zero length.
    """
    v1 = as_point(v1)
    v2 = as_point(v2)
    n1 = math.hypot(v1.x, v1.y)
    n2 = math.hypot(v2.x, v2.y)
    if n1 == 0.0 or n2 == 0.0:
        raise GeometryError("angular_difference requires non-zero vectors")
    c = (v1.x * v2.x + v1.y * v2.y) / (n1 * n2)
    return math.acos(min(1.0, max(-1.0, c)))


def closest_polyline(p: Point2, pls: Sequence[Polyline]) -> Optional[tuple[int, float, int]]:
    """Nearest polyline to `p` among `pls`.

    Returns (polyline index, distance, segment index), or None when `pls` is
    empty.  Ties resolve to the lowest polyline index.
    """
    best: Optional[tuple[int, float, int]] = None
    for i, pl in enumerate(pls):
        d, seg = point_polyline_distance(p, pl)
        if best is None or d < best[1]:
            best = (i, d, seg)
    return best


def closest_polyline_within(
    p: Point2, pls: Sequence[Polyline], within: float
) -> Optional[tuple[int, float, int]]:
    """`closest_polyline`, or None when the nearest lies beyond `within` meters."""
    if within <= 0.0:
        raise GeometryError(f"search range must be positive, got {within}")
    best = closest_polyline(p, pls)
    return best if best is not None and best[1] <= within else None


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


def oriented_rect_margin(
    center1: Point2,
    heading1: float,
    dims1: tuple[float, float],
    center2: Point2,
    heading2: float,
    dims2: tuple[float, float],
) -> float:
    """Separating-axis margin between two oriented rectangles.

    Tests the four candidate axes (each rectangle's length and width
    directions) and returns the minimum over axes of

        (projected half-extent 1 + projected half-extent 2) - |projected center gap|

    which is >= 0 iff the rectangles intersect (touching edges count) and
    negative when a separating axis exists.
    """
    if not (dims1[0] > 0 and dims1[1] > 0 and dims2[0] > 0 and dims2[1] > 0):
        raise GeometryError("rectangle dims must be positive")
    dx = center2.x - center1.x
    dy = center2.y - center1.y
    axes = []
    for h in (heading1, heading2):
        c, s = math.cos(h), math.sin(h)
        axes.append((c, s))
        axes.append((-s, c))

    def half_extent(heading: float, dims: tuple[float, float], axis) -> float:
        c, s = math.cos(heading), math.sin(heading)
        ux, uy = c, s
        nx, ny = -s, c
        return 0.5 * dims[0] * abs(ux * axis[0] + uy * axis[1]) + 0.5 * dims[1] * abs(
            nx * axis[0] + ny * axis[1]
        )

    margin = math.inf
    for axis in axes:
        gap = abs(dx * axis[0] + dy * axis[1])
        reach = half_extent(heading1, dims1, axis) + half_extent(heading2, dims2, axis)
        margin = min(margin, reach - gap)
    return margin


def oriented_rect_overlap(
    center1: Point2,
    heading1: float,
    dims1: tuple[float, float],
    center2: Point2,
    heading2: float,
    dims2: tuple[float, float],
) -> bool:
    """True iff two oriented rectangles intersect (touching counts)."""
    return oriented_rect_margin(center1, heading1, dims1, center2, heading2, dims2) >= 0.0


def overlaps_any(
    center: Point2,
    heading: float,
    dims: tuple[float, float],
    boxes: Iterable[tuple[Point2, float, tuple[float, float]]],
) -> bool:
    """True iff the rectangle intersects any (center, heading, dims) box.

    Boxes are tested in order and the sweep stops at the first hit.
    """
    return any(oriented_rect_overlap(center, heading, dims, c, h, d) for c, h, d in boxes)
