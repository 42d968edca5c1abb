"""Open-loop planning metrics.

Displacement error compares planned and expert waypoints at the fixed
horizons `DEFAULT_HORIZONS` (1, 2 and 3 s), which every metric reports; the
collision rate is cumulative and box-aware: a sample counts as colliding
at horizon h if the ego footprint placed on any planned waypoint up to h
overlaps any agent's ground-truth box at the same tick; the boundary
overstep rate is the same rate at the longest horizon for a footprint that
crosses a labeled road boundary.  Both read the (B, T) per-tick flags of
`collision_ticks` and `boundary_overstep`, which also score the simulator's
executed ego track.  These are artifact protocol numbers for synthetic
scenes, not comparable to published benchmark absolutes.

The box and boundary metrics run over blocks of `BLOCK_SCENES` scenes, each
block in a few array calls: one `pose_track` pass over the block's plans
(`plan_pose_track`, shared by the collision and overstep checks) and one
over the agents with a tick near the ego (`agent_pose_track`), circle bounds
for every (agent, tick) pair and one separating-axis call for the pairs of
those agents (`collision_ticks`), and one nearest-boundary query
over the block's labeled boundaries, a `PolylineSet` of one scene a row,
padded per scene (`labeled_boundaries`, `pose_oversteps_boundary`).  Within
a block each track is held at its last point to the block's longest horizon,
and each scene's flags are read only to its own horizon ticks.  The block
size bounds the memory of those arrays; any block size gives the same bits.
Larger blocks take fewer calls a scene, and 32 keeps the memory near a
megabyte: 32 scenes of 8-12 agents make (32, 24, 38) corner-by-segment
arrays, of which the nearest-segment chain holds four at once, so the
boundary query peaks at about 1.0 MB under tracemalloc (0.3 MB for 8 scenes,
3.8 MB for 128).  Blocks of 32 rather than 8 took a 128-scene `plan_metrics`
from about 10.5 to 7.9 ms.
A plan longer than its scene's future is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .geometry import (
    Checked,
    Poses,
    PolylineSet,
    box_frame,
    circle_bounds,
    closest_polyline,
    oriented_rect_margin,
    pose_track,
    rect_corners,
)
from .scene import (
    DEFAULT_EGO_DIMS,
    DRIVABLE_SIDES,
    MAP_CLASSES,
    MapClass,
    PlanTrajectory,
    Scenario,
)

DEFAULT_HORIZONS = (1.0, 2.0, 3.0)
BLOCK_SCENES = 32  # scenes per block of the box and boundary metrics
_ROAD_BOUNDARY = MAP_CLASSES.index(MapClass.ROAD_BOUNDARY)


@dataclass(frozen=True)
class HorizonStats:
    """A metric evaluated at each horizon plus their mean."""

    horizons: tuple[float, ...]
    values: tuple[float, ...]
    avg: float


@dataclass(frozen=True)
class PlanMetrics:
    l2: HorizonStats  # meters
    collision: HorizonStats  # percent
    boundary_overstep_rate: float  # percent, artifact extension


def _horizon_tick(h: float, dt: float, t_f: int) -> int:
    """1-based tick at horizon h.

    Raises:
        ConfigError: if h is not a whole number of dt ticks (to 1e-9 of a
            tick), so a metric never reports one horizon under another's name,
            or if that tick lies outside 1..t_f.
    """
    ticks = h / dt
    tick = round(ticks)
    if abs(ticks - tick) > 1e-9:
        raise ConfigError(f"horizon {h} s is not a whole number of {dt} s ticks")
    if tick < 1 or tick > t_f:
        raise ConfigError(
            f"horizon {h} s needs tick {tick:.6g}, but the plan covers 1..{t_f}"
        )
    return tick


def check_horizons(horizon_dt: float, t_f: int) -> None:
    """Refuse, as `_horizon_tick` does, a scene of `t_f` ticks of
    `horizon_dt` s that misses a metric horizon."""
    for h in DEFAULT_HORIZONS:
        _horizon_tick(h, horizon_dt, t_f)


def _horizon_ticks(scenarios, plans) -> np.ndarray:
    """(B, H) 1-based tick of each of the H `DEFAULT_HORIZONS` in each
    scene's plan, worked out once for each (tick length, plan horizon) pair.

    Raises:
        ConfigError: on unequal counts of scenes and plans, a plan longer
            than its scene's future, or a horizon `_horizon_tick` refuses.
    """
    if len(scenarios) != len(plans):
        raise ConfigError(f"{len(scenarios)} scenarios vs {len(plans)} plans")
    for s, p in zip(scenarios, plans):
        if p.horizon > s.t_future:
            raise ConfigError(f"a plan of {p.horizon} ticks for a scene of {s.t_future}")
    keys = [(s.horizon_dt, p.horizon) for s, p in zip(scenarios, plans)]
    ticks = {key: [_horizon_tick(h, *key) for h in DEFAULT_HORIZONS] for key in set(keys)}
    shape = (len(keys), len(DEFAULT_HORIZONS))
    return np.array([ticks[key] for key in keys], dtype=np.intp).reshape(shape)


def displacement_error(scenarios: Sequence[Scenario],
                       plans: Sequence[PlanTrajectory]) -> np.ndarray:
    """(B, H) L2 distance between each plan's waypoint and its scene's expert
    waypoint at each of the H `DEFAULT_HORIZONS`, one `math.hypot` each."""
    ticks = _horizon_ticks(scenarios, plans) - 1
    shape = ticks.shape + (2,)
    planned = np.array([p.waypoints[t] for p, t in zip(plans, ticks)]).reshape(shape)
    expert = np.array([s.expert[t] for s, t in zip(scenarios, ticks)]).reshape(shape)
    d = (planned - expert).reshape(-1, 2).tolist()
    return np.array([math.hypot(x, y) for x, y in d]).reshape(ticks.shape)


def _held(track: np.ndarray, n: int) -> np.ndarray:
    """The first `n` points of (..., T, 2) tracks, each held at its last
    point past its end: the array itself when T == n."""
    t = track.shape[-2]
    return track if t == n else track[..., np.minimum(np.arange(n), t - 1), :]


def plan_pose_track(plans: Sequence[PlanTrajectory]) -> Poses:
    """Pose of the ego at each planned tick of each plan, leaving the origin
    heading +y: (B, T, 2) positions and (B, T) headings over the longest
    plan's T ticks, a shorter plan held at its last waypoint."""
    n = max((p.horizon for p in plans), default=0)
    xy = np.array([_held(p.waypoints, n) for p in plans]).reshape(len(plans), n, 2)
    return pose_track(Checked(xy), (0.0, 0.0), math.pi / 2)


def _agent_futures(scenarios: Sequence[Scenario], ticks: int) -> np.ndarray:
    """The (A, ticks, 2) ground-truth futures of every agent of `scenarios`,
    scene after scene, each cut, or held at its last point, to `ticks`."""
    return np.concatenate([np.empty((0, ticks, 2))]
                          + [_held(s.agent_future, ticks) for s in scenarios])


def agent_pose_track(scenarios: Sequence[Scenario], ticks: int, rows=None,
                     futures=None) -> Poses:
    """Pose of every agent of `scenarios`, scene after scene, along its
    ground-truth future: (A, ticks, 2) positions and (A, ticks) headings,
    each future cut, or held at its last point, to `ticks` ticks.  Given
    `rows`, indices into those agents, only the agents they pick, in their
    order; given `futures`, the `_agent_futures` of the scenes, which the
    caller holds already, the positions are picked from it."""
    xy = _agent_futures(scenarios, ticks) if futures is None else futures
    start = np.concatenate([np.empty((0, 2))] + [s.agent_xy for s in scenarios])
    heading = np.concatenate([np.empty(0)] + [s.agent_heading for s in scenarios])
    if rows is not None:
        xy, start, heading = xy[rows], start[rows], heading[rows]
    return pose_track(Checked(xy), start, heading)


def collision_ticks(
    scenarios: Sequence[Scenario],
    ego: Poses,
    ego_dims: tuple[float, float] = DEFAULT_EGO_DIMS,
    agents: Poses | None = None,
) -> np.ndarray:
    """(B, T) flags: does the ego box on each scene's plan hit any of its
    agents' ground-truth boxes at the same tick?

    `ego` is the scenes' `plan_pose_track`.  The agents of every scene are
    taken in scene order, each with its own scene's ego box at each tick.
    The circle bounds (`circle_bounds`) decide every (agent, tick) pair
    whose centers are too far apart to overlap, before any agent heading is
    computed; the agents with a pair left are tracked (`agent_pose_track`)
    and one separating-axis call decides all of their pairs.  `agents` is
    that track of every agent to tick T, where the caller holds it already.
    An agent whose future ends before tick T holds its last pose, which
    pads a block of scenes with futures of different lengths (the rates
    read each scene's flags only to its own horizon ticks); a scene with no
    agents has no hit.
    """
    if len(ego.xy) != len(scenarios):
        raise ConfigError(f"{len(scenarios)} scenarios vs {len(ego.xy)} plans")
    ticks = ego.heading.shape[1]
    owner = np.repeat(np.arange(len(scenarios)), [len(s.agent_xy) for s in scenarios])
    sizes = np.concatenate([np.empty((0, 2))] + [s.agent_size for s in scenarios])
    ego_xy = ego.xy[owner]
    agent_xy = _agent_futures(scenarios, ticks) if agents is None else agents.xy
    gap = agent_xy - ego_xy
    near = (np.hypot(gap[..., 0], gap[..., 1])
            <= circle_bounds(ego_xy, ego_dims)[1] + circle_bounds(agent_xy, sizes[:, None])[1])
    rows = np.flatnonzero(np.count_nonzero(near, axis=1))
    if agents is None:
        agents = agent_pose_track(scenarios, ticks, rows, agent_xy)
    else:
        agents = Poses(agent_xy[rows], agents.heading[rows])
    margin = oriented_rect_margin(
        box_frame(ego_xy[rows], ego.heading[owner[rows]], ego_dims),
        box_frame(agents.xy, agents.heading, sizes[rows, None]),
    )
    flags = np.zeros((len(scenarios), ticks), dtype=bool)
    agent, tick = np.nonzero(margin >= 0.0)
    flags[owner[rows[agent]], tick] = True
    return flags


def _blocks(scenarios, plans):
    """The scenes in blocks of `BLOCK_SCENES`, each with its plans'
    `plan_pose_track` and the (B, H) 1-based tick of every horizon in each
    scene's plan."""
    ticks = _horizon_ticks(scenarios, plans)
    for lo in range(0, len(scenarios), BLOCK_SCENES):
        hi = lo + BLOCK_SCENES
        yield scenarios[lo:hi], plan_pose_track(plans[lo:hi]), ticks[lo:hi]


def collision_rate(
    scenarios: Sequence[Scenario],
    plans: Sequence[PlanTrajectory],
    ego_dims: tuple[float, float] = DEFAULT_EGO_DIMS,
) -> HorizonStats:
    """Cumulative open-loop collision rate (percent) at each default horizon."""
    blocks = [
        (collision_ticks(block, ego, ego_dims), ticks)
        for block, ego, ticks in _blocks(scenarios, plans)
    ]
    return _cumulative_rate(blocks)


def _cumulative_rate(blocks) -> HorizonStats:
    """Percent of scenes whose per-tick flags hold by each horizon, from
    each block's (B, T) flags and (B, H) horizon ticks."""
    hits = [
        np.take_along_axis(np.logical_or.accumulate(flags, axis=1), ticks - 1, axis=1)
        for flags, ticks in blocks
    ]
    n = sum(len(h) for h in hits)
    if not n:
        return HorizonStats(DEFAULT_HORIZONS, tuple(0.0 for _ in DEFAULT_HORIZONS), 0.0)
    counts = sum(np.count_nonzero(h, axis=0) for h in hits)
    rates = tuple(float(c) * 100.0 / n for c in counts)
    return HorizonStats(DEFAULT_HORIZONS, rates, float(np.mean(rates)))


def labeled_boundaries(scenarios: Sequence[Scenario]) -> tuple[PolylineSet, np.ndarray]:
    """The road boundaries of each scene that carry a drivable side, as one
    PolylineSet with a scene axis (`PolylineSet.of_scenes`, scene b's
    boundaries in row b), and for each of its rows, padding included,
    whether its drivable side is its left."""
    points = max((s.map_xy.shape[1] for s in scenarios), default=0)
    maps = [s for s in scenarios if len(s.map_xy)]
    xy = np.concatenate([np.zeros((0, points, 2))] + [_held(s.map_xy, points) for s in maps])
    kind = np.concatenate([np.zeros(0, np.intp)] + [s.map_kind for s in maps])
    side = np.concatenate([np.zeros(0, np.int8)] + [s.map_side for s in maps])
    labeled = (kind == _ROAD_BOUNDARY) & (side != DRIVABLE_SIDES[None])
    # each labeled row's scene and its place among that scene's rows
    scene = np.repeat(np.arange(len(scenarios)), [len(s.map_xy) for s in scenarios])[labeled]
    counts = np.bincount(scene, minlength=len(scenarios))
    slot = np.arange(len(scene)) - (np.cumsum(counts) - counts)[scene]
    rows = np.zeros((len(scenarios), counts.max(initial=0), points, 2))
    rows[scene, slot] = xy[labeled]
    real, left = np.zeros(rows.shape[:2], dtype=bool), np.zeros(rows.shape[:2], dtype=bool)
    real[scene, slot] = True
    left[scene, slot] = side[labeled] == DRIVABLE_SIDES["left"]
    return PolylineSet.of_scenes(rows, real), left.reshape(-1)


def pose_oversteps_boundary(
    boundaries: tuple[PolylineSet, np.ndarray],
    xy,
    heading,
    ego_dims: tuple[float, float],
) -> np.ndarray:
    """Per pose, does any corner of the ego box sit on the non-drivable side
    of its nearest boundary of `labeled_boundaries`?  Scene b's poses are row
    b of the (B, ..., 2) positions `xy` and (B, ...) headings `heading`; the
    result is the (B, ...) flags.

    A corner exactly on the boundary line counts as on the drivable side, and
    a scene with no labeled boundary has no overstep.
    """
    labeled, drivable_left = boundaries
    corners = rect_corners(xy, heading, ego_dims)
    if not labeled:
        return np.zeros(corners.shape[:-2], dtype=bool)
    q = corners.reshape(len(corners), -1, 2)
    hit = closest_polyline(q, labeled)
    a, b = hit.start, hit.end
    cross = (b[..., 0] - a[..., 0]) * (q[..., 1] - a[..., 1]) - (b[..., 1] - a[..., 1]) * (
        q[..., 0] - a[..., 0]
    )
    wrong = np.where(drivable_left.take(hit.poly), cross < 0.0, cross > 0.0)
    return wrong.reshape(corners.shape[:-1]).any(axis=-1)


def boundary_overstep(
    scenarios: Sequence[Scenario],
    ego: Poses,
    ego_dims: tuple[float, float] = DEFAULT_EGO_DIMS,
) -> np.ndarray:
    """(B, T) flags: does the ego box on each scene's plan cross one of its
    boundaries at each tick?

    `ego` is the scenes' `plan_pose_track`.  Uses the generator-provided side
    labels; boundaries without a label are skipped.
    """
    if len(ego.xy) != len(scenarios):
        raise ConfigError(f"{len(scenarios)} scenarios vs {len(ego.xy)} plans")
    return pose_oversteps_boundary(labeled_boundaries(scenarios), ego.xy, ego.heading, ego_dims)


def plan_metrics(
    scenarios: Sequence[Scenario],
    plans: Sequence[PlanTrajectory],
    ego_dims: tuple[float, float] = DEFAULT_EGO_DIMS,
) -> PlanMetrics:
    """Aggregate the full open-loop metric set over a scenario/plan pairing,
    at the `DEFAULT_HORIZONS`.

    The boundary overstep rate is the cumulative rate at the longest
    horizon: each scene's overstep is checked up to its own 3 s tick."""
    errors = displacement_error(scenarios, plans)
    collided, overstepped = [], []
    for block, ego, ticks in _blocks(scenarios, plans):
        collided.append((collision_ticks(block, ego, ego_dims), ticks))
        overstepped.append((boundary_overstep(block, ego, ego_dims), ticks))
    if scenarios:
        l2_values = tuple(float(v) for v in np.mean(errors, axis=0))
    else:
        l2_values = tuple(0.0 for _ in DEFAULT_HORIZONS)
    l2 = HorizonStats(DEFAULT_HORIZONS, l2_values, float(np.mean(l2_values)))
    collision = _cumulative_rate(collided)
    overstep_rate = _cumulative_rate(overstepped).values[-1]
    return PlanMetrics(l2=l2, collision=collision, boundary_overstep_rate=overstep_rate)
