"""Pure 2-D vector and polyline kernels.

All coordinates live in an ego-centric bird's-eye-view frame at the planning
instant: +y points forward along the ego heading, +x points right, units are
meters.  Every public operation validates that its inputs are finite and all
tie-breaks resolve to the lowest index, so results are deterministic.

Each input has one form.  Query points and vectors are (K, 2) arrays; a
`Point2`, the one checked position type, is a finite (x, y) tuple and so a
plain 2-vector wherever one is taken.  Polylines are the rows of an
(M, P, 2) array, and the polylines a search runs over are a `PolylineSet`
of B scenes' rows, which checks them once.  A box is a `BoxFrame`.  A pose
track is a `Poses` pair of arrays, (..., T, 2) positions and (..., T)
headings.

Each input is checked once.  A kernel checks the arrays a caller hands it;
an array that is already known to be finite float64 of the right shape (a
read-only `PlanTrajectory.waypoints`, a scene's read-only stacks, an array
computed from checked arrays) may be handed over as `Checked(array)`, and
the kernels and the constraint losses then use it as it is.  The chain
passes its own checked queries down that way, so a query is checked where
it enters and nowhere below.

The nearest-polyline chain (`closest_point_on_segment`,
`point_polyline_distance`, `closest_polyline`, `closest_polyline_within`)
and `angular_difference` broadcast over query points x segments and
return arrays or a `Nearest`.  A `PolylineSet` holds, once per set, the
per-segment constants of the projection (start and step columns, squared
lengths, whether every segment is live), and a `Nearest` gathers the
polyline and endpoints of a hit only when they are read.  The chain takes
(B, K, 2) arrays, one row of queries per scene of the set and no other
count, and searches each row among its own scene's segments, or one (K, 2)
array searched among each scene's: a packed map (`scene.pack`) holds its
boundaries and its dividers as two such rows, so one search finds a plan's
nearest of both, and the open-loop metrics hold a block's boundaries one
scene a row.
`rect_corners` broadcasts over box arrays.

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
from typing import NamedTuple

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


def _all(a: np.ndarray) -> bool:
    """`a.all()` without the call overhead of a ufunc reduction, which
    dominates on the small arrays the kernels check."""
    return np.count_nonzero(a) == a.size


class Checked(NamedTuple):
    """An array known to be finite float64 of the shape its receiver takes,
    handed over so that it is not checked again.

    Wrap only an array for which that holds by construction: a read-only
    array checked when its owner was made (`PlanTrajectory.waypoints`,
    `Scenario.expert`, `PackedScene.agent_tracks`), or one computed from
    checked arrays (step vectors, lane directions).  A caller's own array
    goes in bare and is checked where it enters.  A `Scenario` takes a
    read-only `Checked` field, an array of a scenario it derives from, the
    same way: as it is, after a shape check.
    """

    xy: np.ndarray


def checked(p, what: str = "query point", ndim: int | tuple[int, ...] | None = 2) -> np.ndarray:
    """`p` as a finite float64 array of `ndim` axes (a tuple: any of those
    counts; None: two or more), the last of length 2: a `Checked` array as
    it is, any other array-like after a check.

    Raises:
        GeometryError: on any other shape or a non-finite coordinate.
    """
    if type(p) is Checked:
        return p.xy
    xy = np.asarray(p, dtype=np.float64)
    ranks = (ndim,) if type(ndim) is int else ndim
    if (xy.ndim < 2 if ranks is None else xy.ndim not in ranks) or xy.shape[-1] != 2:
        counts = "two or more" if ranks is None else " or ".join(map(str, sorted(set(ranks))))
        raise GeometryError(f"{what}s must have {counts} axes, the last of length 2, "
                            f"got shape {xy.shape}")
    if not _all(np.isfinite(xy)):
        raise GeometryError(f"non-finite {what}")
    return xy


class PolylineSet:
    """The polylines of B scenes packed into one array of segments, for
    nearest searches.

    Each scene's polylines are the rows of an (M, P, 2) array, padded with
    dead segments to the same count S.  Segments are numbered scene after
    scene and polyline by polyline (N = B S), so among tied segments the
    lowest packed index is the lowest polyline and then its lowest segment.
    A set of no polylines is empty, and searches over it find nothing.

    A search takes a (B, K, 2) query array, K points a scene, or one (K, 2)
    array searched in every scene, and finds each point's nearest segment
    among its scene's own, (B, K) results either way.  The set holds, once,
    the constants every projection onto it needs: the segment `start`s,
    `end`s and `step`s (B, 1, S, 2), the contiguous start and step columns
    `sx`, `sy`, `dx`, `dy`, the squared lengths `step_sq` (B, 1, S, to
    broadcast over the query axis), the flag `all_live` (no segment is
    degenerate) and the (N,) polyline number `poly` of each segment.  The
    arrays are read-only and finite, and each polyline has a live segment
    (`of_scenes` checks its rows), so the chain uses them without checking
    them again.
    """

    __slots__ = ("start", "end", "step", "sx", "sy", "dx", "dy", "step_sq", "live",
                 "all_live", "poly", "count")

    @classmethod
    def of_scenes(cls, xy, real) -> "PolylineSet":
        """The polylines of B scenes in one set: the rows of a (B, M, P, 2)
        array, scene b's in row b, copied and checked once, here.  The (B, M)
        mask `real` marks the rows that are polylines, each of at least two
        points with a non-degenerate segment; every other row pads its scene
        to M rows and must have no non-degenerate segment, so that no search
        finds it.  Points that pad a polyline to P hold its last point.  A
        scene with no polyline finds only padding, at distance inf.

        Raises:
            GeometryError: on other shapes, a non-finite point, a polyline
                of fewer than two points or with no non-degenerate segment,
                or a padding row with a live segment.
        """
        xy = np.array(xy, dtype=np.float64)  # a copy, never the caller's array
        real = np.asarray(real, dtype=bool)
        if xy.ndim != 4 or xy.shape[-1] != 2 or real.shape != xy.shape[:2]:
            raise GeometryError(f"scene rows must have shape (B, M, P, 2) with a (B, M) "
                                f"mask, got {xy.shape} and {real.shape}")
        if not _all(np.isfinite(xy)):
            raise GeometryError("non-finite polyline point")
        if xy.shape[-2] < 2 and np.count_nonzero(real):
            raise GeometryError(f"polyline needs at least 2 points, got {xy.shape[-2]}")
        segs = max(xy.shape[-2] - 1, 0)
        out = cls(xy[..., :-1, :].reshape(-1, 2), xy[..., 1:, :].reshape(-1, 2),
                  np.repeat(np.arange(real.size), segs), int(np.count_nonzero(real)),
                  (len(xy), 1, real.shape[1] * segs))
        # a row is live if any of its segments is, and must be live iff real
        live = out.live.reshape(real.shape + (segs,)).any(axis=-1)
        if not _all(live == real):
            raise GeometryError("polyline has no non-degenerate segment"
                                if np.count_nonzero(real & ~live)
                                else "a padding row has a non-degenerate segment")
        return out

    def __init__(self, start, end, poly, count: int, shape: tuple[int, int, int]):
        """Hold the packed (N, 2) segment `start`s and `end`s, the polyline
        of each and the count of polylines, the per-segment arrays in the
        (B, 1, S) `shape`.  Made by `of_scenes`, which checks the arrays
        first."""
        d = end - start
        seg_sq = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
        # a degenerate segment's squared length counts as 1, so its
        # projections are 0 / 1 = 0: searches skip it, never divide by it
        step_sq = np.where(seg_sq == 0.0, 1.0, seg_sq)
        live = (start != end).any(axis=1)
        self.all_live = bool(live.all())
        self.start, self.end, self.step = (a.reshape(shape + (2,)) for a in (start, end, d))
        self.sx, self.sy = np.ascontiguousarray(start.T).reshape((2,) + shape)
        self.dx, self.dy = np.ascontiguousarray(d.T).reshape((2,) + shape)
        self.step_sq, self.live = step_sq.reshape(shape), live.reshape(shape)
        self.poly, self.count = poly, count
        for a in (self.start, self.end, self.step, self.sx, self.sy, self.dx, self.dy,
                  self.step_sq, self.live, self.poly):
            a.flags.writeable = False

    def __len__(self) -> int:
        return self.count


class Nearest(NamedTuple):
    """The nearest polyline segment of each of K query points in each of B
    scenes.

    The search gives `dist`, `foot` and the packed segment `index` (and, for
    a range search, `found`); the polyline and endpoints are gathered from
    the set when they are read, so a caller pays only for the fields it
    uses.
    """

    segments: PolylineSet  # the set searched
    index: np.ndarray  # (B, K) packed index of the nearest segment
    dist: np.ndarray  # (B, K) distance to it, meters
    foot: np.ndarray  # (B, K, 2) closest point on it
    found: np.ndarray | None = None  # (B, K) in range of a range search; None: all

    @property
    def poly(self) -> np.ndarray:
        """(B, K) polyline index, -1 where none lies in range."""
        ids = self.segments.poly.take(self.index)
        return ids if self.found is None else np.where(self.found, ids, -1)

    @property
    def start(self) -> np.ndarray:
        """(B, K, 2) first endpoint of the nearest segment."""
        return self.segments.start.reshape(-1, 2).take(self.index, axis=0)

    @property
    def end(self) -> np.ndarray:
        """(B, K, 2) second endpoint of the nearest segment."""
        return self.segments.end.reshape(-1, 2).take(self.index, axis=0)


def _query(p, pls: PolylineSet) -> np.ndarray:
    """`checked` query points of a search of `pls`, where they enter the
    chain: (K, 2), or (B, K, 2) for the set's B scenes (a GeometryError
    otherwise); a `Checked` array as it is."""
    if type(p) is Checked:
        return p.xy
    q = checked(p, ndim=(2, 3))
    if q.ndim == 3 and len(q) != len(pls.start):
        raise GeometryError(f"queries of {len(q)} scenes for a set of {len(pls.start)}")
    return q


def closest_point_on_segment(p, segments: PolylineSet) -> np.ndarray:
    """Closest point to each query point on each segment of a PolylineSet.

    `p` is a (B, K, 2) array of query points, or a (K, 2) one for every
    scene; the result is the (B, K, S, 2) array of each scene's foot points
    on its S closed segments [a_s, b_s].  A degenerate segment (a_s == b_s)
    gives a_s.
    """
    q = _query(p, segments)
    # along-segment parameter, projected and clamped to [0, 1] in place
    t = q[..., 0, None] - segments.sx
    t *= segments.dx
    ty = q[..., 1, None] - segments.sy
    ty *= segments.dy
    t += ty
    del ty  # one (..., K, S) array fewer while the feet are made
    t /= segments.step_sq
    np.maximum(0.0, t, out=t)
    np.minimum(1.0, t, out=t)
    foot = t[..., None] * segments.step
    foot += segments.start
    return foot


def point_polyline_distance(p, pls: PolylineSet):
    """Distance from each query point to the nearest segment of a
    PolylineSet, searched as one polyline with packed segment indices.

    `p` is a (B, K, 2) array of query points, or a (K, 2) one for every
    scene; returns the (B, K) distances, the (B, K) winning packed segment
    indices, which run over the whole set, and the (B, K, 2) foot points on
    them.  Degenerate segments are skipped; exact ties resolve to the
    lowest segment index.

    Raises:
        GeometryError: if the set is empty.
    """
    q = _query(p, pls)
    if not pls:
        raise GeometryError("no polyline to measure the distance to")
    foot = closest_point_on_segment(Checked(q), pls)
    # both distance terms in one buffer: one (B, K, S) array fewer
    dist = q[..., 0, None] - foot[..., 0]
    np.hypot(dist, q[..., 1, None] - foot[..., 1], out=dist)
    if not pls.all_live:
        np.copyto(dist, np.inf, where=~pls.live)
    seg = dist.argmin(axis=-1)
    s = dist.shape[-1]
    # each winner's place in the flattened (B, K, S) arrays
    flat = np.arange(0, seg.size * s, s).reshape(seg.shape)
    flat += seg
    index = seg + np.arange(0, len(seg) * s, s)[:, None]
    return dist.reshape(-1).take(flat), index, foot.reshape(-1, 2).take(flat, axis=0)


def angular_difference(v1, v2) -> np.ndarray:
    """Unsigned angles between the rows of two (K, 2) arrays of non-zero
    vectors, as a (K,) array in [0, pi].

    Symmetric in its arguments and invariant to positive scaling of either
    one.  The acos argument is clamped to [-1, 1] for floating-point safety.

    Raises:
        GeometryError: if any vector has zero length.
    """
    a, b = checked(v1, "vector"), checked(v2, "vector")
    ax, ay, bx, by = a[:, 0], a[:, 1], b[:, 0], b[:, 1]
    n1 = np.hypot(ax, ay)
    n2 = np.hypot(bx, by)
    if not (_all(n1) and _all(n2)):
        raise GeometryError("angular_difference requires non-zero vectors")
    c = ax * bx
    c += ay * by
    c /= n1 * n2
    np.maximum(-1.0, c, out=c)
    np.minimum(1.0, c, out=c)
    return np.arccos(c, out=c)


def closest_polyline(p, pls: PolylineSet) -> Nearest | None:
    """Nearest polyline of a PolylineSet to each query point of a (B, K, 2)
    array, or of a (K, 2) one searched in every scene, or None when the set
    is empty.  Ties resolve to the lowest polyline index, then to the lowest
    segment index.
    """
    q = _query(p, pls)
    if not pls:
        return None
    dist, k, foot = point_polyline_distance(Checked(q), pls)
    return Nearest(pls, k, dist, foot)


def closest_polyline_within(p, pls: PolylineSet, within: float) -> Nearest | None:
    """`closest_polyline`, with polyline index -1 for a query whose nearest
    lies beyond `within` meters (`found` False); its distance, segment index,
    foot and endpoints still describe the nearest segment.  Raises
    GeometryError unless `within` is positive and finite.
    """
    if not (within > 0.0 and math.isfinite(within)):
        raise GeometryError(f"search range must be positive and finite, got {within}")
    hit = closest_polyline(p, pls)
    return hit if hit is None else hit._replace(found=hit.dist <= within)


class Poses(NamedTuple):
    """Positions and headings of a mover along a track."""

    xy: np.ndarray  # (..., T, 2) positions
    heading: np.ndarray  # (..., T) headings, radians


def pose_track(track, start, heading) -> Poses:
    """Pose at each point of (..., T, 2) tracks, each leaving its start of
    the (..., 2) `start`: the positions are the tracks themselves, and the
    (..., T) headings follow them.

    Each heading follows the step from the previous point (the start for the
    first), through `math.atan2` one step at a time; a zero-length step
    keeps the previous heading, the track's (...) `heading` before any step.
    `start` and `heading` broadcast over the tracks' leading axes.  One
    scalar loop runs over the points of every track, which for the few
    points of a track is cheaper than any array call.
    """
    xy = checked(track, "track point", ndim=None)
    if xy.ndim == 2:
        rows, starts, firsts = [xy.tolist()], [start], [heading]
    else:
        lead = xy.shape[:-2]
        rows = xy.reshape((math.prod(lead),) + xy.shape[-2:]).tolist()
        starts = np.broadcast_to(np.asarray(start, dtype=np.float64), lead + (2,))
        starts = starts.reshape(-1, 2).tolist()
        firsts = np.broadcast_to(np.asarray(heading, dtype=np.float64), lead).reshape(-1).tolist()
    headings = []
    for points, (last_x, last_y), heading in zip(rows, starts, firsts):
        for x, y in points:
            if x != last_x or y != last_y:
                heading = math.atan2(y - last_y, x - last_x)
            headings.append(heading)
            last_x, last_y = x, y
    headings = np.array(headings, dtype=np.float64)
    return Poses(xy, headings if xy.ndim == 2 else headings.reshape(xy.shape[:-1]))


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
    xy = np.concatenate(([(x0, y0)], checked(track, "track point")))
    poses = pose_track(Checked(xy), (x0, y0), heading)
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
