"""Shared test helpers: finite-difference oracles, reference loops and
non-degenerate constraint-configuration samplers.

The samplers construct random scenes and plans whose active sets are robust
to perturbation: every hinge threshold, range gate, nearest-element
assignment, and abs/angle kink is at least MARGIN away, so central finite
differences of the loss value are a valid oracle for the analytic gradient.
"""

import dataclasses
import itertools
import math
import os
import sys

import numpy as np

import vecplan
from vecplan import autodiff as ad
from vecplan.constraints import ConstraintParams, boundary_loss, direction_loss, map_search
from vecplan.errors import ShapeError
from vecplan.geometry import (
    Nearest,
    Point2,
    PolylineSet,
    angular_difference,
    box_frame,
    closest_polyline,
    closest_polyline_within,
    oriented_rect_overlap,
)
from vecplan.scene import (
    DRIVABLE_SIDES,
    MAP_CLASSES,
    MAP_ROWS,
    Command,
    EgoState,
    GeneratorConfig,
    MapClass,
    PlanTrajectory,
    Scenario,
    ego_vectors,
    generate_scenario,
)
from vecplan.simulator import smoothness_loss

MARGIN = 1e-3
FD_STEP = 1e-5


def package_calls(fn):
    """fn() and the number of Python frames it enters in the vecplan
    package (``call`` events; calls into numpy's Python wrappers and
    C functions are not counted)."""
    root = os.path.dirname(vecplan.__file__) + os.sep
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code.co_filename.startswith(root):
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        out = fn()
    finally:
        sys.setprofile(previous)
    return out, count


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


def adamw_per_tensor_step(tensors, grads, m, v, step_count, lr, weight_decay,
                          beta1=0.9, beta2=0.999, eps=1e-8):
    """One AdamW step as a loop over named tensors, updating `tensors`, `m`
    and `v` (dicts of arrays) in place: the reference arithmetic for the flat
    optimizer.  `step_count` counts this step."""
    b1c = 1.0 - beta1**step_count
    b2c = 1.0 - beta2**step_count
    for name, theta in tensors.items():
        g = grads[name]
        m[name] *= beta1
        m[name] += (1.0 - beta1) * g
        v[name] *= beta2
        v[name] += (1.0 - beta2) * g * g
        update = (m[name] / b1c) / (np.sqrt(v[name] / b2c) + eps)
        theta -= lr * (update + weight_decay * theta)


def dict_backward_flat(tape, seeds, param_leaves) -> np.ndarray:
    """The reference for `Gradients.flat`: a reverse sweep over the tape's
    records that keeps every node's gradient in a dict (the first one
    copied, later ones summed into a new array) and skips the None that a
    record gives a constant, then the concatenated gradients of
    `param_leaves`, zeros for one no record reaches."""
    grads = {}
    contributions = [(t.index, np.asarray(s, dtype=np.float64)) for t, s in seeds]
    for idx, g in contributions:
        grads[idx] = grads[idx] + g if idx in grads else g.copy()
    for out_idx, in_idxs, vjp in reversed(tape._records):
        if out_idx in grads:
            for idx, g in zip(in_idxs, vjp(grads[out_idx])):
                if g is None:
                    assert idx in tape._constants
                    continue
                grads[idx] = grads[idx] + g if idx in grads else np.array(g, dtype=np.float64)
    return np.concatenate(
        [grads.get(leaf.index, np.zeros(leaf.shape)).reshape(-1) for leaf in param_leaves]
    )


def map_regression_oracle(pred, gt) -> tuple[float, np.ndarray]:
    """Mean Manhattan distance over the points of one map vector and its
    subgradient with respect to `pred`, zero at exact equality: the
    reference for the auxiliary map regression term."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    n = len(pred)
    value = sum(abs(px - gx) + abs(py - gy) for (px, py), (gx, gy) in zip(pred, gt))
    return float(value / n), np.sign(pred - gt) / n


# scenes built in tests: the ego at rest at the origin, heading +y
EGO_AT_REST = EgoState(Point2(0.0, 0.0), math.pi / 2, 0.0, 0.0, 0.0, Command.GO_STRAIGHT)


def no_agents(t_f: int) -> dict:
    """The agent arrays of a scene with no agents and `t_f` future steps."""
    return one_mode_agents(np.zeros((0, 2)), np.zeros((0, t_f, 2)))


def one_mode_agents(xy, tracks, heading=math.pi / 2, size=(4.5, 1.9), confidence=1.0) -> dict:
    """The agent arrays of agents at `xy` (A, 2), each with one mode, its
    ground-truth future `tracks` (A, T_f, 2), and the same heading, size and
    confidence."""
    tracks = np.asarray(tracks, dtype=np.float64)
    n = len(tracks)
    return dict(
        agent_xy=xy, agent_heading=np.full(n, heading), agent_size=np.tile(size, (n, 1)),
        agent_confidence=np.full(n, confidence), agent_future=tracks, agent_modes=tracks,
        agent_mode_scores=np.ones(n), agent_mode_count=np.ones(n, dtype=np.intp),
    )


def map_arrays(xy, kinds, confidence=1.0, sides=None) -> dict:
    """The map arrays of polylines `xy` (M, P, 2) of the MapClass `kinds`,
    with one confidence (or one each) and DRIVABLE_SIDES names (None:
    unlabeled)."""
    xy = np.reshape(xy, (len(kinds), -1, 2)) if kinds else np.zeros((0, 0, 2))
    return dict(
        map_xy=xy, map_kind=[MAP_CLASSES.index(k) for k in kinds],
        map_confidence=np.broadcast_to(confidence, len(kinds)),
        map_side=[DRIVABLE_SIDES[s] for s in sides or [None] * len(kinds)],
    )


def scene(expert, agents=None, map=None, ego=EGO_AT_REST, horizon_dt=0.5,
          perception_range=(60.0, 30.0)) -> Scenario:
    """A scenario with the given agent and map arrays, none where left out."""
    expert = np.asarray(expert, dtype=np.float64)
    return Scenario(
        ego=ego, expert=expert, horizon_dt=horizon_dt, perception_range=perception_range,
        **(no_agents(len(expert)) if agents is None else agents),
        **(map_arrays([], []) if map is None else map),
    )


def mode_ranges(scenario) -> list[range]:
    """The rows of `agent_modes` that hold each agent's modes."""
    ends = np.cumsum(scenario.agent_mode_count).tolist()
    return [range(start, end) for start, end in zip([0] + ends, ends)]


def best_mode_rows(scenario) -> list[int]:
    """The row of `agent_modes` that holds each agent's best mode, found by a
    scan: the highest score, the lowest row on ties."""
    scores = scenario.agent_mode_scores.tolist()
    return [max(modes, key=lambda k: (scores[k], -k)) for modes in mode_ranges(scenario)]


def take_agents(scenario, index):
    """`scenario` with the agents that `index` picks, in its order."""
    index = np.asarray(index, dtype=np.intp)
    ranges = mode_ranges(scenario)
    modes = np.array([k for i in index.tolist() for k in ranges[i]], dtype=np.intp)
    return dataclasses.replace(
        scenario,
        agent_xy=scenario.agent_xy[index], agent_heading=scenario.agent_heading[index],
        agent_size=scenario.agent_size[index],
        agent_confidence=scenario.agent_confidence[index],
        agent_future=scenario.agent_future[index], agent_modes=scenario.agent_modes[modes],
        agent_mode_scores=scenario.agent_mode_scores[modes],
        agent_mode_count=scenario.agent_mode_count[index],
    )


def take_map(scenario, index):
    """`scenario` with the map elements that `index` picks, in its order."""
    index = np.asarray(index, dtype=np.intp)
    return dataclasses.replace(
        scenario, map_xy=scenario.map_xy[index], map_kind=scenario.map_kind[index],
        map_confidence=scenario.map_confidence[index], map_side=scenario.map_side[index],
    )


def sample_collision_config(rng, params: ConstraintParams, t_f: int = 6):
    """Random plan + agent tracks (A, T_f, 2), rejected until no activation
    boundary is near.

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
            return PlanTrajectory(w), tracks
    raise AssertionError("could not sample a non-degenerate collision config")


def segment_distance(p, a, b) -> tuple[float, tuple[float, float]]:
    """Distance from the point p to the closed segment [a, b] and the foot
    point on it, in Python floats: project p onto the segment's line and
    clamp to its ends.  A degenerate segment (a == b) gives |p - a| and a."""
    px, py = float(p[0]), float(p[1])
    ax, ay = float(a[0]), float(a[1])
    dx, dy = float(b[0]) - ax, float(b[1]) - ay
    seg_sq = dx * dx + dy * dy
    t = 0.0 if seg_sq == 0.0 else ((px - ax) * dx + (py - ay) * dy) / seg_sq
    t = min(1.0, max(0.0, t))
    foot = (ax + t * dx, ay + t * dy)
    return math.hypot(px - foot[0], py - foot[1]), foot


def _padded(polylines, n: int) -> list[np.ndarray]:
    """(N_i, 2) point arrays padded to n points by repeating the last one,
    which adds only degenerate segments: searches skip them."""
    xy = [np.asarray(pl, dtype=np.float64) for pl in polylines]
    return [np.concatenate([pl, np.repeat(pl[-1:], n - len(pl), axis=0)]) for pl in xy]


def polyline_set(polylines) -> PolylineSet:
    """The one-scene PolylineSet of polylines given as (N_i, 2) point
    arrays, in order: each padded to the longest, then
    `PolylineSet.of_scenes`.  A search over it gives (1, K) results, which
    `scene0` reads."""
    n = max((len(pl) for pl in polylines), default=0)
    rows = np.reshape(_padded(polylines, n), (1, len(polylines), n, 2))
    return PolylineSet.of_scenes(rows, np.ones(rows.shape[:2], dtype=bool))


def scene0(hit: Nearest | None) -> Nearest | None:
    """The (K,) results of scene 0 of a search over a one-scene set, such
    as a `polyline_set`, as a `Nearest` (None stays None)."""
    if hit is None:
        return None
    found = None if hit.found is None else hit.found[0]
    return hit._replace(index=hit.index[0], dist=hit.dist[0], foot=hit.foot[0], found=found)


def packed_index(polylines, poly: int, seg: int) -> int:
    """The packed index in `polyline_set(polylines)` of segment `seg` of
    polyline `poly`: each polyline holds as many segments as the longest."""
    return poly * (max(len(pl) for pl in polylines) - 1) + seg


def map_set(boundaries=(), dividers=()) -> PolylineSet:
    """A packed map, as `PackedScene.map` holds it, of polylines given as
    (N_i, 2) point arrays: one row for each class of `MAP_ROWS`, each
    polyline padded to the longest and each row with all-zero rows."""
    by_class = {MapClass.ROAD_BOUNDARY: list(boundaries), MapClass.LANE_DIVIDER: list(dividers)}
    n = max((len(pl) for pls in by_class.values() for pl in pls), default=2)
    m = max(len(pls) for pls in by_class.values())
    rows, real = np.zeros((len(MAP_ROWS), m, n, 2)), np.zeros((len(MAP_ROWS), m), dtype=bool)
    for i, kind in enumerate(MAP_ROWS):
        pls = _padded(by_class[kind], n)
        rows[i, :len(pls)] = np.reshape(pls, (-1, n, 2))
        real[i, :len(pls)] = True
    return PolylineSet.of_scenes(rows, real)


def boundary_term(plan, boundaries, params):
    """`boundary_loss` of `plan` against the given boundary polylines."""
    return boundary_loss(plan, map_search(plan, map_set(boundaries=boundaries), params), params)


def direction_term(plan, dividers, params):
    """`direction_loss` of `plan` against the given divider polylines."""
    return direction_loss(plan, map_search(plan, map_set(dividers=dividers), params), params)


def nearest_segment_oracle(p, polylines):
    """Brute-force nearest segment to the point p = (x, y), in Python floats.

    Scans every non-degenerate segment of every polyline in order and keeps
    the first strict improvement, so ties go to the lowest polyline and then
    the lowest segment.  Returns (polyline index, distance, segment index,
    foot) or None when there is no polyline.
    """
    best = None
    for i, pl in enumerate(polylines):
        pts = np.asarray(pl).tolist()
        for s in range(len(pts) - 1):
            if pts[s] == pts[s + 1]:
                continue
            d, foot = segment_distance(p, pts[s], pts[s + 1])
            if best is None or d < best[1]:
                best = (i, d, s, foot)
    return best


def _wiggly_vertical(rng, x0: float, n_pts: int = 6) -> np.ndarray:
    ys = np.linspace(-12.0, 12.0, n_pts)
    xs = x0 + rng.uniform(-0.4, 0.4, size=n_pts)
    return np.column_stack([xs, ys])


def _segment_distances(p, polylines) -> list[tuple[float, tuple[float, float]]]:
    """(distance, foot) for every non-degenerate segment of every polyline."""
    out = []
    for pl in polylines:
        pts = np.asarray(pl).tolist()
        for i in range(len(pts) - 1):
            if pts[i] != pts[i + 1]:
                out.append(segment_distance(p, pts[i], pts[i + 1]))
    return out


def _assignment_clear(p, polylines, min_distance: float) -> tuple[bool, float]:
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
        if math.hypot(foot[0] - best_foot[0], foot[1] - best_foot[1]) > 1e-9:
            return False, best_d
    return True, best_d


def sample_boundary_config(rng, params: ConstraintParams, t_f: int = 6):
    """Random plan + two boundary polylines with robust nearest assignments."""
    for _ in range(1000):
        boundaries = [_wiggly_vertical(rng, -5.0), _wiggly_vertical(rng, 5.0)]
        # bias half the waypoints toward a boundary so hinges activate
        w = rng.uniform(-4.0, 4.0, size=(t_f, 2))
        w[:, 1] = rng.uniform(-10.0, 10.0, size=t_f)
        near = rng.uniform(0, 1, size=t_f) < 0.5
        w[near, 0] = rng.choice([-1.0, 1.0], size=int(near.sum())) * rng.uniform(
            4.0, 6.0, size=int(near.sum())
        )
        ok = True
        for t in range(t_f):
            clear, d = _assignment_clear(w[t], boundaries, min_distance=0.05)
            if not clear or abs(d - params.boundary_clearance) < MARGIN:
                ok = False
                break
        if ok:
            return PlanTrajectory(w), boundaries
    raise AssertionError("could not sample a non-degenerate boundary config")


def sample_direction_config(rng, params: ConstraintParams, t_f: int = 6):
    """Random forward-moving plan + divider polylines with robust assignments."""
    for _ in range(1000):
        dividers = [_wiggly_vertical(rng, -1.8), _wiggly_vertical(rng, 1.8)]
        steps = rng.uniform(0.5, 2.5, size=(t_f, 2)) * np.array([0.3, 1.0])
        steps[:, 0] *= rng.choice([-1.0, 1.0], size=t_f)
        w = np.cumsum(steps, axis=0) + np.array([rng.uniform(-2.5, 2.5), -6.0])
        ok = True
        prev = np.zeros(2)
        for t in range(t_f):
            p = w[t]
            ds = [min(d for d, _ in _segment_distances(p, [pl])) for pl in dividers]
            if any(abs(d - params.divider_search_range) < MARGIN for d in ds):
                ok = False
                break
            if min(ds) <= params.divider_search_range:
                clear, _ = _assignment_clear(p, dividers, min_distance=MARGIN)
                if not clear:
                    ok = False
                    break
                winner = dividers[int(np.argmin(ds))]
                seg_ds = _segment_distances(p, [winner])
                seg_i = int(np.argmin([d for d, _ in seg_ds]))
                u = np.diff(winner, axis=0)[seg_i]
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


def looped_collision_loss(w, tracks, params) -> tuple[float, np.ndarray]:
    """The collision hinge of (T_f, 2) waypoints against (A, T_f, 2) tracks,
    one axis at a time, each axis's hinge summed over its active steps alone:
    the reference value and gradient for `constraints.collision_loss`."""
    t_f = len(w)
    grad = np.zeros_like(w)
    total = 0.0
    if len(tracks):
        delta = tracks - w
        dist = np.hypot(delta[..., 0], delta[..., 1])
        candidate = dist <= params.agent_search_range
        if params.collision_mode == "single_nearest":
            nearest = np.argmin(np.where(candidate, dist, np.inf), axis=0)
            candidate &= np.arange(len(tracks))[:, None] == nearest
        steps = np.arange(t_f)
        for axis, margin in enumerate((params.lateral_safety, params.longitudinal_safety)):
            gap = np.where(candidate, np.abs(delta[..., axis]), np.inf)
            j = np.argmin(gap, axis=0)
            d = gap[j, steps]
            active = d < margin
            total += float((margin - d[active]).sum())
            grad[active, axis] = np.sign(delta[j, steps, axis][active])
    return total / t_f, grad / t_f


def unpacked_planning_loss(plan, scenario, params, weights):
    """The planning objective computed the way it was before scenes were
    packed: filter the scene, stack the best modes and list the polylines on
    every call.  Returns {term: (value, grad)} for the four terms and
    "total", the reference that the packed losses must match bit for bit."""
    w = plan.waypoints
    t_f = w.shape[0]
    agents = [
        scenario.agent_modes[best]
        for best, confidence in zip(best_mode_rows(scenario), scenario.agent_confidence)
        if confidence >= params.agent_min_confidence
    ]
    kept = [
        (MAP_CLASSES[kind], xy)
        for xy, kind, confidence in zip(scenario.map_xy, scenario.map_kind, scenario.map_confidence)
        if confidence >= params.map_min_confidence
    ]
    boundaries = [pl for kind, pl in kept if kind == MapClass.ROAD_BOUNDARY]
    dividers = [pl for kind, pl in kept if kind == MapClass.LANE_DIVIDER]
    terms = {}

    terms["collision"] = looped_collision_loss(w, np.reshape(agents, (-1, t_f, 2)), params)

    grad = np.zeros_like(w)
    total = 0.0
    if boundaries:
        hit = scene0(closest_polyline(w, polyline_set(boundaries)))
        active = hit.dist < params.boundary_clearance
        total = float((params.boundary_clearance - hit.dist[active]).sum())
        pull = active & (hit.dist > 0.0)
        grad[pull] = -(w[pull] - hit.foot[pull]) / hit.dist[pull, None]
    terms["boundary"] = (total / t_f, grad / t_f)

    grad = np.zeros_like(w)
    total = 0.0
    if dividers:
        hit = scene0(closest_polyline_within(w, polyline_set(dividers),
                                             params.divider_search_range))
        vectors = ego_vectors(plan)
        moving = (vectors[:, 0] != 0.0) | (vectors[:, 1] != 0.0)
        active = np.flatnonzero((hit.poly >= 0) & moving)
        if active.size:
            lane_dir = hit.end[active] - hit.start[active]
            v = vectors[active]
            total = float(angular_difference(lane_dir, v).sum())
            cross = lane_dir[:, 0] * v[:, 1] - lane_dir[:, 1] * v[:, 0]
            norm_sq = v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1]
            g_v = np.zeros_like(w)
            g_v[active] = (
                np.sign(cross)[:, None] * np.column_stack([-v[:, 1], v[:, 0]]) / norm_sq[:, None]
            )
            grad += g_v
            grad[:-1] -= g_v[1:]
    terms["direction"] = (total / t_f, grad / t_f)

    diff = w - scenario.expert
    terms["imitation"] = (float(np.abs(diff).sum() / t_f), np.sign(diff) / t_f)

    col, bd, dr, imi = (terms[k] for k in ("collision", "boundary", "direction", "imitation"))
    terms["total"] = tuple(
        weights.collision * col[i]
        + weights.boundary * bd[i]
        + weights.direction * dr[i]
        + weights.imitation * imi[i]
        for i in (0, 1)
    )
    return terms


def unpacked_refine(seed_plan, scenario, params, weights, steps=60, step_size=0.2):
    """`simulator.refine_trajectory` as it was written before its objective
    lost the expert term: projected gradient descent on
    `unpacked_planning_loss` with the imitation weight 0, plus the imitation
    weight times the smoothness prior.  The reference the refine planner
    must match bit for bit."""
    high = np.array((scenario.perception_range[1] / 2.0, scenario.perception_range[0] / 2.0))
    no_imitation = dataclasses.replace(weights, imitation=0.0)

    def objective(plan):
        value, grad = unpacked_planning_loss(plan, scenario, params, no_imitation)["total"]
        smooth = smoothness_loss(plan)
        return value + weights.imitation * smooth.value, grad + weights.imitation * smooth.grad

    best = plan = seed_plan
    best_value, grad = objective(plan)
    for _ in range(steps):
        plan = PlanTrajectory(np.clip(plan.waypoints - step_size * grad, -high, high))
        value, grad = objective(plan)
        if value < best_value:
            best_value, best = value, plan
    return best


def looped_scene_features(scenario):
    """The network's input rows built one agent and one map element at a
    time, the way they were built before scenes were stacked: the reference
    that `interact.scene_features` must match bit for bit.  Returns (agent
    rows, map rows, map centroids)."""
    from vecplan.interact import (
        AGENT_FEATURE_DIM,
        MAP_FEATURE_DIM,
        POSITION_SCALE,
        SPEED_SCALE,
    )

    agent_rows = np.zeros((len(scenario.agent_xy), AGENT_FEATURE_DIM))
    for i, best in enumerate(best_mode_rows(scenario)):
        (x, y), heading = scenario.agent_xy[i].tolist(), float(scenario.agent_heading[i])
        step = scenario.agent_modes[best, 0] - (x, y)
        speed = math.hypot(step[0], step[1]) / scenario.horizon_dt
        agent_rows[i] = (
            x * POSITION_SCALE,
            y * POSITION_SCALE,
            math.cos(heading),
            math.sin(heading),
            speed * SPEED_SCALE,
            scenario.agent_confidence[i],
        )
    kinds = [MapClass.LANE_DIVIDER, MapClass.ROAD_BOUNDARY, MapClass.PEDESTRIAN_CROSSING]
    map_rows = np.zeros((len(scenario.map_xy), MAP_FEATURE_DIM))
    centroids = np.zeros((len(scenario.map_xy), 2))
    for i, xy in enumerate(scenario.map_xy):
        centroids[i] = xy.mean(axis=0)
        for a, b in zip(xy[:-1], xy[1:]):
            d = b - a
            n = math.hypot(d[0], d[1])
            if n > 0.0:
                map_rows[i, 5:7] = d / n
                break
        map_rows[i, kinds.index(MAP_CLASSES[scenario.map_kind[i]])] = 1.0
        map_rows[i, 3:5] = centroids[i] * POSITION_SCALE
    return agent_rows, map_rows, centroids


def _unfolded_attention(q, q_pos, k, k_pos, v, wq, wk, wv, wo, n_heads: int):
    """The attention of `unfolded_decoder_block`, its encodings tensors of
    their own: the value, each head's weights, the input indices in the
    order the chain's records, replayed in reverse, reach them, and the
    vjp."""
    d = q.shape[1]
    if (q_pos.shape != q.shape or k.shape[1] != d or k_pos.shape != k.shape
            or v.shape != k.shape or {wq.shape, wk.shape, wv.shape, wo.shape} != {(d, d)}):
        raise ShapeError(f"attention: q {q.shape}, q_pos {q_pos.shape}, k {k.shape}")
    if n_heads < 1 or d % n_heads:
        raise ShapeError(f"attention: width {d} does not split into {n_heads} heads")
    q_in, v_in, wq_in, wk_in, wv_in, wo_in = q.data, v.data, wq.data, wk.data, wv.data, wo.data
    qq = q_in + q_pos.data
    kk = k.data + k_pos.data
    qh = qq @ wq_in
    kh = kk @ wk_in
    vh = v_in @ wv_in
    d_head = d // n_heads
    scale = 1.0 / math.sqrt(d_head)
    heads, weights, outs = [], [], []
    for h in range(n_heads):
        lo, hi = h * d_head, (h + 1) * d_head
        qs = np.ascontiguousarray(qh[:, lo:hi])
        k_t = np.ascontiguousarray(kh[:, lo:hi].T)
        logits = qs @ k_t
        logits *= scale
        logits -= np.maximum.reduce(logits, axis=1, keepdims=True)
        y = np.exp(logits)
        y /= np.add.reduce(y, axis=1, keepdims=True)
        y.setflags(write=False)
        vs = np.ascontiguousarray(vh[:, lo:hi])
        heads.append((lo, hi, qs, k_t, y, vs))
        weights.append(y)
        outs.append(y @ vs)
    att = outs[0] if n_heads == 1 else np.concatenate(outs, axis=1)

    def vjp(g):
        g_att = g @ wo_in.T
        g_qh = g_kh = g_vh = None
        for lo, hi, qs, k_t, y, vs in reversed(heads):
            g_o = g_att if n_heads == 1 else np.array(g_att[:, lo:hi])
            g_y = g_o @ vs.T
            g_vh = ad._add_cols(g_vh, y.T @ g_o, v_in.shape, lo, hi)
            g_logits = y * (g_y - np.add.reduce(g_y * y, axis=1, keepdims=True))
            g_raw = g_logits * scale
            g_kh = ad._add_cols(g_kh, (qs.T @ g_raw).T, kk.shape, lo, hi)
            g_qh = ad._add_cols(g_qh, g_raw @ k_t.T, qq.shape, lo, hi)
        g_kk = g_kh @ wk_in.T
        g_qq = g_qh @ wq_in.T
        return (g, att.T @ g, g_vh @ wv_in.T, v_in.T @ g_vh, kk.T @ g_kh, g_kk, g_kk,
                qq.T @ g_qh, g_qq, g_qq)

    inputs = (q.index, wo.index, v.index, wv.index, wk.index, k.index, k_pos.index,
              wq.index, q.index, q_pos.index)
    out = att @ wo_in
    out += q_in
    return out, weights, inputs, vjp


def query_encoding(q_rows, stage):
    """The `q_enc` that `ad.decoder_block` takes with the `ad.DecoderStage`
    `stage` for the query position rows `q_rows`, made read-only: their
    positional encoding and its vjp."""
    q_rows.setflags(write=False)
    return ad._mlp(q_rows, *stage.encoder.arrays, False)


def unfolded_decoder_block(q, q_pos, k, k_pos, v, wq, wk, wv, wo, w1, b1, w2, b2, n_heads):
    """The decoder block as one record over encodings that are tensors of
    their own (the positional `mlp` records' outputs): the reference that
    `autodiff.decoder_block`, which encodes the position rows itself, must
    match bit for bit after those two records.  Returns the output and each
    head's weights; zero key rows take the feed-forward alone."""
    tape = ad._tape_of(q, q_pos, k, k_pos, v, wq, wk, wv, wo, w1, b1, w2, b2)
    if w2.shape[1] != q.shape[1]:
        raise ShapeError(f"decoder_block: feed-forward {w2.shape} for input {q.shape}")
    if k.shape[0]:
        x_in, weights, inputs, att_vjp = _unfolded_attention(
            q, q_pos, k, k_pos, v, wq, wk, wv, wo, n_heads)
    else:
        x_in, weights, inputs = q.data, [], (q.index, q.index)
    m, ffn_vjp = ad._mlp(x_in, w1.data, b1.data, w2.data, b2.data, True)

    def vjp(g):
        g_x, *g_ffn = ffn_vjp(g)
        return (*att_vjp(g + g_x), *g_ffn) if weights else (g, g_x, *g_ffn)

    m += x_in
    return tape._op(m, inputs + (w1.index, b1.index, w2.index, b2.index), vjp), weights


def unfolded_mlp_head(parts, w1, b1, w2, b2, w3, b3, scale):
    """The plan head as one record over its concatenated parts, the status
    embedding a tensor of its own (the status `mlp` record's output): the
    reference that `autodiff.mlp_head`, which encodes the status rows
    itself, must match bit for bit after that record."""
    tape = ad._tape_of(*parts, w1, b1, w2, b2, w3, b3)
    offsets = list(itertools.accumulate([p.shape[1] for p in parts], initial=0))
    if (len({p.shape[0] for p in parts}) != 1 or offsets[-1] != w1.shape[0]
            or b1.shape != (1, w1.shape[1])):
        raise ShapeError(f"mlp_head: parts {[p.shape for p in parts]} @ {w1.shape}")
    c = float(scale)
    w1_in = w1.data
    feat = np.concatenate([p.data for p in parts], axis=1)
    pre = feat @ w1_in
    pre += b1.data
    mask = pre > 0.0
    out, mlp_vjp = ad._mlp(np.where(mask, pre, 0.0), w2.data, b2.data, w3.data, b3.data, True)

    def vjp(g):
        g_h1, *g_mlp = mlp_vjp(g * c)
        g_pre = g_h1 * mask
        g_feat = g_pre @ w1_in.T
        return (*g_mlp, np.add.reduce(g_pre, axis=0, keepdims=True), feat.T @ g_pre,
                *[g_feat[:, lo:hi] for lo, hi in zip(offsets, offsets[1:])])

    inputs = (w2.index, b2.index, w3.index, b3.index, b1.index, w1.index, *[p.index for p in parts])
    out *= c
    return tape._op(out, inputs, vjp)


def unfolded_forward_plan(scenario, params):
    """`interact.forward_plan` with its positional and status encoders as
    `mlp` records of their own, over constants, and the unfolded block and
    head: the reference of its plan and of every gradient."""
    from vecplan import interact
    from vecplan.interact import POSITION_SCALE, ForwardResult, encode_queries, network_layers

    config = params.config
    tape = ad.Tape(params.leaves)
    p = params.leaves.tensors

    def layer(prefix, parts=("w1", "b1", "w2", "b2")):
        return [p[f"{prefix}.{part}"] for part in parts]

    features = encode_queries(scenario, network_layers(p, config), tape)
    attention = {}
    ego_q = p["ego_query"]
    ego_row = tape.constant(np.zeros((1, 2)))
    stages = (
        ("agent", config.use_agent_interaction, features.agent_queries,
         features.agent_positions, "pe1"),
        ("map", config.use_map_interaction, features.map_queries, features.map_positions, "pe2"),
    )
    q_after = []
    for name, used, keys, positions, pe in stages:
        if used:
            pe = ad.Perceptron(*layer(pe))
            q_pos = ad.mlp(ego_row, pe)
            k_pos = (ad.mlp(tape.constant(positions * POSITION_SCALE), pe) if len(positions)
                     else tape.constant(np.zeros((0, config.d_model))))
            ego_q, attention[name] = unfolded_decoder_block(
                ego_q, q_pos, keys, k_pos, keys,
                *layer(f"{name}_block", ("wq", "wk", "wv", "wo", "ffn.w1", "ffn.b1", "ffn.w2",
                                         "ffn.b2")),
                config.n_heads)
        q_after.append(ego_q)
    ego = scenario.ego
    status = np.array([[ego.velocity * interact.SPEED_SCALE, ego.acceleration * interact.ACCEL_SCALE,
                        ego.steering_angle * interact.STEER_SCALE]])
    status_embed = ad.mlp(tape.constant(status), ad.Perceptron(*layer("status_enc")))
    one_hot = np.zeros((1, 3))
    one_hot[0, interact.COMMAND_INDEX[ego.command]] = 1.0
    cmd_embed = ad.matmul(tape.constant(one_hot), p["cmd_embed"])
    plan_node = unfolded_mlp_head(
        [*q_after, status_embed, cmd_embed], p["head.l1.w1"], p["head.l1.b1"],
        p["head.w2"], p["head.b2"], p["head.w3"], p["head.b3"], interact.OUTPUT_SCALE)
    plan = PlanTrajectory(plan_node.data.reshape(config.t_future, 2))
    return ForwardResult(plan, tape, plan_node, p, features, attention)


# confidences spread over [0, 1) so that thresholds keep part of a scene
_SPREAD = dict(agent_confidence_range=(0.0, 0.99), map_confidence_range=(0.0, 0.99))
SCENE_KINDS = {
    "default": GeneratorConfig(**_SPREAD),
    "dense": GeneratorConfig(agent_count_range=(8, 12), **_SPREAD),
    "agent_free": GeneratorConfig(agent_count_range=(0, 0), **_SPREAD),
    "map_free": GeneratorConfig(**_SPREAD),
}


def scene_of_kind(kind: str, seed: int):
    """A generated scene of one of SCENE_KINDS; "map_free" drops the map."""
    s = generate_scenario(seed, SCENE_KINDS[kind])
    return take_map(s, []) if kind == "map_free" else s


def with_mixed_modes(scenario, rng):
    """`scenario` with each agent keeping a random, shuffled subset of its
    modes (at least one), so agents differ in mode count and best mode."""
    keep = []
    for modes in mode_ranges(scenario):
        n = len(modes)
        keep.append(modes.start + rng.permutation(n)[: int(rng.integers(1, n + 1))])
    rows = np.concatenate([np.zeros(0, dtype=np.intp)] + keep)
    return dataclasses.replace(
        scenario, agent_modes=scenario.agent_modes[rows],
        agent_mode_scores=scenario.agent_mode_scores[rows],
        agent_mode_count=[len(k) for k in keep],
    )


def with_repeated_map_points(scenario, rng):
    """`scenario` with the first few points of each map polyline made equal,
    so that its first non-degenerate segment is not always its first."""
    xy = scenario.map_xy.copy()
    for row in xy:
        row[1 : int(rng.integers(1, 4))] = row[0]
    return dataclasses.replace(scenario, map_xy=xy)


def looped_view(scenario, agent_poses, tick, position, heading, velocity, acceleration, steering):
    """`simulator._build_view` as it was written before scenes were stacked:
    one `world_to_ego` call per map element, agent position, mode,
    ground-truth future and the expert.  The reference the stacked calls
    must match bit for bit."""
    from vecplan.simulator import _wrap_angle, world_to_ego

    def pad(track):
        remaining = track[tick:]
        if remaining.shape[0] == 0:
            remaining = track[-1:]
        fill = scenario.t_future - remaining.shape[0]
        return np.vstack([remaining, np.tile(remaining[-1], (fill, 1))]) if fill else remaining

    n_a, t_f = len(scenario.agent_xy), scenario.t_future
    agent_xy = np.zeros((n_a, 2))
    for i in range(n_a):
        agent_xy[i] = world_to_ego(agent_poses.xy[i, tick], position, heading)[0]
    headings = [
        _wrap_angle(float(h) + math.pi / 2 - heading) for h in agent_poses.heading[:, tick]
    ]
    modes = np.zeros((len(scenario.agent_modes), t_f, 2))
    for k, mode in enumerate(scenario.agent_modes):
        modes[k] = world_to_ego(pad(mode), position, heading)
    futures = np.zeros((n_a, t_f, 2))
    for i, future in enumerate(scenario.agent_future):
        futures[i] = world_to_ego(pad(future), position, heading)
    map_xy = np.zeros(scenario.map_xy.shape)
    for i, xy in enumerate(scenario.map_xy):
        map_xy[i] = world_to_ego(xy, position, heading)
    ego = EgoState(Point2(0.0, 0.0), math.pi / 2, velocity, acceleration, steering,
                   scenario.ego.command)
    return dataclasses.replace(
        scenario, ego=ego, expert=world_to_ego(pad(scenario.expert), position, heading),
        agent_xy=agent_xy, agent_heading=headings, agent_future=futures, agent_modes=modes,
        map_xy=map_xy,
    )


def looped_tick_flags(scenario, log, ego_dims=(4.0, 1.85)) -> list[tuple[bool, bool]]:
    """The (collision, boundary overstep) flags of each record of a
    closed-loop log, scored tick by tick as `simulator.run_closed_loop` once
    scored them: the ego box at the record's world pose against every
    agent's box at the record's positions and headings by
    `oriented_rect_overlap`, and the ego box against the scene's labeled
    boundaries by `metrics.pose_oversteps_boundary`, one pose a call."""
    from vecplan.metrics import labeled_boundaries, pose_oversteps_boundary

    boundaries = labeled_boundaries([scenario])
    flags = []
    for r in log.records:
        collision = oriented_rect_overlap(
            box_frame(r.ego_position, r.ego_heading, ego_dims),
            box_frame(r.agent_positions, r.agent_headings, scenario.agent_size),
        )
        overstep = pose_oversteps_boundary(boundaries, [r.ego_position], [r.ego_heading],
                                           ego_dims)
        flags.append((collision, bool(overstep[0])))
    return flags
