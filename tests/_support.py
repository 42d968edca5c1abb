"""Shared test helpers: finite-difference oracles and non-degenerate
constraint-configuration samplers.

The samplers construct random scenes and plans whose active sets are robust
to perturbation: every hinge threshold, range gate, nearest-element
assignment, and abs/angle kink is at least MARGIN away, so central finite
differences of the loss value are a valid oracle for the analytic gradient.
"""

import math

import numpy as np

from vecplan.constraints import ConstraintParams
from vecplan.geometry import Point2, Polyline, closest_point_on_segment, point_segment_distance
from vecplan.scene import AgentPrediction, MapClass, MapVector, PlanTrajectory

MARGIN = 1e-3
FD_STEP = 1e-5


def fd_plan_gradient(loss_value_fn, waypoints: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """Central-difference gradient of a scalar loss w.r.t. plan waypoints."""
    grad = np.zeros_like(waypoints)
    for i in range(waypoints.shape[0]):
        for j in range(2):
            wp = waypoints.copy()
            wp[i, j] += step
            f_plus = loss_value_fn(wp)
            wp[i, j] -= 2 * step
            f_minus = loss_value_fn(wp)
            grad[i, j] = (f_plus - f_minus) / (2 * step)
    return grad


def fd_param_gradient(loss_value_fn, x: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat array."""
    grad = np.zeros_like(x)
    for i in range(x.size):
        orig = x.flat[i]
        x.flat[i] = orig + step
        f_plus = loss_value_fn()
        x.flat[i] = orig - step
        f_minus = loss_value_fn()
        x.flat[i] = orig
        grad.flat[i] = (f_plus - f_minus) / (2 * step)
    return grad


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-3) -> float:
    """Worst elementwise relative error, floored to ignore pure FD noise."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def _track_agent(track: np.ndarray) -> AgentPrediction:
    return AgentPrediction(
        position=Point2(float(track[0, 0]), float(track[0, 1])),
        heading=math.pi / 2,
        size=(4.5, 1.9),
        confidence=1.0,
        modes=track[None, :, :].copy(),
        mode_scores=np.array([1.0]),
    )


def sample_collision_config(rng, params: ConstraintParams, t_f: int = 6):
    """Random plan + agents, rejected until no activation boundary is near.

    Guards every discrete switch of the loss: the Euclidean candidate gate,
    the per-axis argmin assignment, the abs kink, and the hinge threshold.
    """
    for _ in range(1000):
        w = rng.uniform(-8.0, 8.0, size=(t_f, 2))
        n_a = int(rng.integers(2, 6))
        tracks = w[None, :, :] + rng.uniform(-4.0, 4.0, size=(n_a, t_f, 2))
        ok = True
        for t in range(t_f):
            delta = tracks[:, t, :] - w[t]
            dist = np.hypot(delta[:, 0], delta[:, 1])
            if np.any(np.abs(dist - params.agent_search_range) < MARGIN):
                ok = False
                break
            candidates = delta[dist <= params.agent_search_range]
            if candidates.size == 0:
                continue
            for axis, margin in ((0, params.lateral_safety), (1, params.longitudinal_safety)):
                a = np.sort(np.abs(candidates[:, axis]))
                if a.size > 1 and a[1] - a[0] < MARGIN:
                    ok = False
                    break
                if abs(a[0] - margin) < MARGIN or a[0] < MARGIN:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return PlanTrajectory(w), [_track_agent(tr) for tr in tracks]
    raise AssertionError("could not sample a non-degenerate collision config")


def nearest_segment_oracle(p, polylines):
    """Brute-force nearest segment to the point p = (x, y), in Python floats.

    Scans every non-degenerate segment of every polyline in order and keeps
    the first strict improvement, so ties go to the lowest polyline and then
    the lowest segment.  Returns (polyline index, distance, segment index,
    foot) or None when there is no polyline.
    """
    px, py = float(p[0]), float(p[1])
    best = None
    for i, pl in enumerate(polylines):
        pts = [(float(x), float(y)) for x, y in pl.xy()]
        for s in range(len(pts) - 1):
            (ax, ay), (bx, by) = pts[s], pts[s + 1]
            if (ax, ay) == (bx, by):
                continue
            dx, dy = bx - ax, by - ay
            t = ((px - ax) * dx + (py - ay) * dy) / (dx * dx + dy * dy)
            t = min(1.0, max(0.0, t))
            foot = (ax + t * dx, ay + t * dy)
            d = math.hypot(px - foot[0], py - foot[1])
            if best is None or d < best[1]:
                best = (i, d, s, foot)
    return best


def _wiggly_vertical(rng, x0: float, n_pts: int = 6) -> Polyline:
    ys = np.linspace(-12.0, 12.0, n_pts)
    xs = x0 + rng.uniform(-0.4, 0.4, size=n_pts)
    return Polyline([Point2(float(x), float(y)) for x, y in zip(xs, ys)])


def _segment_distances(p: Point2, polylines) -> list[tuple[float, Point2]]:
    """(distance, foot) for every non-degenerate segment of every polyline."""
    out = []
    for pl in polylines:
        pts = pl.points
        for i in range(len(pts) - 1):
            if pts[i] == pts[i + 1]:
                continue
            foot = closest_point_on_segment(p, pts[i], pts[i + 1])
            out.append((point_segment_distance(p, pts[i], pts[i + 1]), foot))
    return out


def _assignment_clear(p: Point2, polylines, min_distance: float) -> tuple[bool, float]:
    """True when the nearest-segment assignment at p is perturbation-robust."""
    ds = sorted(_segment_distances(p, polylines), key=lambda e: e[0])
    best_d, best_foot = ds[0]
    if best_d < min_distance:
        return False, best_d
    for d, foot in ds[1:]:
        if d - best_d >= MARGIN:
            break
        # a rival segment at (numerically) the same distance is harmless when
        # it shares the winning foot point (adjacent segments at a vertex)
        if math.hypot(foot.x - best_foot.x, foot.y - best_foot.y) > 1e-9:
            return False, best_d
    return True, best_d


def sample_boundary_config(rng, params: ConstraintParams, t_f: int = 6):
    """Random plan + two boundary polylines with robust nearest assignments."""
    for _ in range(1000):
        boundaries = [
            MapVector(MapClass.ROAD_BOUNDARY, _wiggly_vertical(rng, -5.0), 1.0, "right"),
            MapVector(MapClass.ROAD_BOUNDARY, _wiggly_vertical(rng, 5.0), 1.0, "left"),
        ]
        # bias half the waypoints toward a boundary so hinges activate
        w = rng.uniform(-4.0, 4.0, size=(t_f, 2))
        w[:, 1] = rng.uniform(-10.0, 10.0, size=t_f)
        near = rng.uniform(0, 1, size=t_f) < 0.5
        w[near, 0] = rng.choice([-1.0, 1.0], size=int(near.sum())) * rng.uniform(
            4.0, 6.0, size=int(near.sum())
        )
        polylines = [b.points for b in boundaries]
        ok = True
        for t in range(t_f):
            p = Point2(float(w[t, 0]), float(w[t, 1]))
            clear, d = _assignment_clear(p, polylines, min_distance=0.05)
            if not clear or abs(d - params.boundary_clearance) < MARGIN:
                ok = False
                break
        if ok:
            return PlanTrajectory(w), boundaries
    raise AssertionError("could not sample a non-degenerate boundary config")


def sample_direction_config(rng, params: ConstraintParams, t_f: int = 6):
    """Random forward-moving plan + divider polylines with robust assignments."""
    for _ in range(1000):
        dividers = [
            MapVector(MapClass.LANE_DIVIDER, _wiggly_vertical(rng, -1.8), 1.0),
            MapVector(MapClass.LANE_DIVIDER, _wiggly_vertical(rng, 1.8), 1.0),
        ]
        steps = rng.uniform(0.5, 2.5, size=(t_f, 2)) * np.array([0.3, 1.0])
        steps[:, 0] *= rng.choice([-1.0, 1.0], size=t_f)
        w = np.cumsum(steps, axis=0) + np.array([rng.uniform(-2.5, 2.5), -6.0])
        polylines = [d.points for d in dividers]
        ok = True
        prev = np.zeros(2)
        for t in range(t_f):
            p = Point2(float(w[t, 0]), float(w[t, 1]))
            ds = [min(d for d, _ in _segment_distances(p, [pl])) for pl in polylines]
            if any(abs(d - params.divider_search_range) < MARGIN for d in ds):
                ok = False
                break
            if min(ds) <= params.divider_search_range:
                clear, _ = _assignment_clear(p, polylines, min_distance=MARGIN)
                if not clear:
                    ok = False
                    break
                winner = polylines[int(np.argmin(ds))]
                seg_ds = _segment_distances(p, [winner])
                seg_i = int(np.argmin([d for d, _ in seg_ds]))
                pts = winner.points
                u = np.array([pts[seg_i + 1].x - pts[seg_i].x, pts[seg_i + 1].y - pts[seg_i].y])
                v = w[t] - prev
                vn = math.hypot(v[0], v[1])
                if vn < 0.4:
                    ok = False
                    break
                sin_angle = abs(u[0] * v[1] - u[1] * v[0]) / (np.linalg.norm(u) * vn)
                if sin_angle < 0.05:
                    ok = False
                    break
            prev = w[t]
        if ok:
            return PlanTrajectory(w), dividers
    raise AssertionError("could not sample a non-degenerate direction config")


def sample_imitation_config(rng, t_f: int = 6):
    w = rng.uniform(-8.0, 8.0, size=(t_f, 2))
    offset = rng.uniform(MARGIN * 2, 3.0, size=(t_f, 2)) * rng.choice([-1.0, 1.0], size=(t_f, 2))
    return PlanTrajectory(w), w + offset


def sat_margin_oracle(center1, heading1, dims1, center2, heading2, dims2) -> float:
    """Separating-axis margin of two rectangles, scalar and in Python floats.

    The per-pair formula: for each of the four axes (each rectangle's length
    and width directions) the projected half-extents of both rectangles minus
    the projected center gap, minimised over the axes.  Each half-extent
    recomputes its rectangle's cos/sin, as the formula is written.
    """
    dx = float(center2[0]) - float(center1[0])
    dy = float(center2[1]) - float(center1[1])

    def half_extent(heading, dims, axis):
        c, s = math.cos(heading), math.sin(heading)
        return 0.5 * dims[0] * abs(c * axis[0] + s * axis[1]) + 0.5 * dims[1] * abs(
            -s * axis[0] + c * axis[1]
        )

    margin = math.inf
    for h in (heading1, heading2):
        c, s = math.cos(h), math.sin(h)
        for axis in ((c, s), (-s, c)):
            gap = abs(dx * axis[0] + dy * axis[1])
            reach = half_extent(heading1, dims1, axis) + half_extent(heading2, dims2, axis)
            margin = min(margin, reach - gap)
    return margin
