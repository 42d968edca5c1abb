"""Vectorized scene data model, filtering, scenario file I/O, and synthetic
scene generation.

A scenario is expressed in the ego frame at the planning instant: the ego
sits at the origin heading +y, the road runs roughly forward, and every map
element is a fixed-size polyline with a confidence score.  The generator
produces parallel-lane roads (straight or constant-curvature arcs) populated
with lane-following agents and an expert trajectory that respects the driving
command, so scenes are consistent by construction and usable as ground truth.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import ConfigError, GeometryError, ScenarioFormatError, read_text
from .geometry import (BoxFrame, Point2, PolylineSet, count_nonzero, swept_box_frame,
                       swept_box_frame_if_clear)

if TYPE_CHECKING:
    from .constraints import ConstraintParams

SCHEMA_VERSION = 1


class MapClass(enum.Enum):
    LANE_DIVIDER = "lane_divider"
    ROAD_BOUNDARY = "road_boundary"
    PEDESTRIAN_CROSSING = "pedestrian_crossing"


class Command(enum.Enum):
    TURN_LEFT = "turn_left"
    TURN_RIGHT = "turn_right"
    GO_STRAIGHT = "go_straight"


@dataclass(frozen=True)
class EgoState:
    position: Point2
    heading: float
    velocity: float
    acceleration: float
    steering_angle: float
    command: Command


@dataclass(frozen=True, eq=False)
class PlanTrajectory:
    """Planned future ego waypoints, shape (T_f, 2), in the ego frame.

    The waypoints are a read-only float64 copy of the array the plan is made
    from, checked here, so the check holds for the plan's lifetime and the
    losses take them as checked.
    """

    waypoints: np.ndarray

    def __post_init__(self):
        w = np.array(self.waypoints, dtype=np.float64)  # a copy, never the caller's array
        if w.ndim != 2 or w.shape[1] != 2:
            raise ScenarioFormatError(f"waypoints must be (T_f, 2), got {w.shape}")
        if w.shape[0] < 1:
            raise ScenarioFormatError("plan needs at least one waypoint")
        if count_nonzero(np.isfinite(w)) != w.size:
            raise ScenarioFormatError("non-finite plan waypoints")
        w.flags.writeable = False
        object.__setattr__(self, "waypoints", w)

    @classmethod
    def adopt(cls, waypoints: np.ndarray) -> "PlanTrajectory":
        """The plan of `waypoints`, a new (T_f, 2) float64 array that the
        caller made and hands over: checked for finite values as the
        constructor checks a copy, and made read-only in place instead of
        copied.  The refine descent makes its iterates this way.

        Raises:
            ScenarioFormatError: on another shape or type, or a non-finite
                waypoint.
        """
        if (waypoints.dtype != np.float64 or waypoints.ndim != 2 or waypoints.shape[1] != 2
                or not len(waypoints)):
            raise ScenarioFormatError(f"adopted waypoints must be a (T_f, 2) float64 array, "
                                      f"got {waypoints.dtype} {waypoints.shape}")
        if count_nonzero(np.isfinite(waypoints)) != waypoints.size:
            raise ScenarioFormatError("non-finite plan waypoints")
        waypoints.flags.writeable = False
        plan = object.__new__(cls)
        object.__setattr__(plan, "waypoints", waypoints)
        return plan

    @property
    def horizon(self) -> int:
        return self.waypoints.shape[0]

    def __eq__(self, other) -> bool:
        return isinstance(other, PlanTrajectory) and np.array_equal(
            self.waypoints, other.waypoints
        )


MAP_CLASSES = tuple(MapClass)  # the order of `Scenario.map_kind` indices
DRIVABLE_SIDES = {None: 0, "left": 1, "right": -1}  # `Scenario.map_side` codes
DEFAULT_EGO_DIMS = (4.0, 1.85)  # the ego box, length by width, in meters


def _rows(mask: np.ndarray) -> np.ndarray:
    """Whether all of each row of `mask` holds, shape (N,)."""
    return mask.all(axis=tuple(range(1, mask.ndim)))


def _refuse(bad: np.ndarray, message: str, values=None) -> None:
    """Raise a ScenarioFormatError for the first row flagged in the (N,) mask
    `bad`: `message` formatted with the row's index `i` and value `v`."""
    # count_nonzero first: flatnonzero costs more, and almost no mask flags a row
    if np.count_nonzero(bad):
        i = int(np.flatnonzero(bad)[0])
        raise ScenarioFormatError(message.format(i=i, v=None if values is None else values[i]))


@dataclass(frozen=True, eq=False)
class Scenario:
    """A full vectorized scene in the ego frame at the planning instant.

    A scene is its read-only arrays: (0, ...) arrays where it has no agents
    or map.  Each agent has its own number of modes, at least one:
    `agent_modes` holds every agent's modes, agent after agent, and
    `agent_mode_count` says how many belong to each.  Construction copies
    each array, checks it and makes it read-only, and derives `agent_best`,
    the row in `agent_modes` of each agent's best mode, and `agent_track`,
    those rows; the scenario is frozen, so they never go stale.
    A refusal names the element by its path in a scenario file, e.g.
    `agents[2].size`.  Every scene, a closed-loop view too, is built this
    one way.
    """

    ego: EgoState
    expert: np.ndarray  # (T_f, 2)
    horizon_dt: float
    perception_range: tuple[float, float]
    agent_xy: np.ndarray  # (A, 2)
    agent_heading: np.ndarray  # (A,)
    agent_size: np.ndarray  # (A, 2) length, width
    agent_confidence: np.ndarray  # (A,)
    agent_future: np.ndarray  # (A, T_f, 2) ground truth
    agent_modes: np.ndarray  # (K, T_f, 2)
    agent_mode_scores: np.ndarray  # (K,), each in [0, 1]
    agent_mode_count: np.ndarray  # (A,), each >= 1, summing to K
    map_xy: np.ndarray  # (M, P, 2)
    map_kind: np.ndarray  # (M,) index into MAP_CLASSES
    map_confidence: np.ndarray  # (M,)
    map_side: np.ndarray  # (M,) DRIVABLE_SIDES code
    agent_best: np.ndarray = field(init=False, repr=False)  # (A,) rows of agent_modes
    agent_track: np.ndarray = field(init=False, repr=False)  # (A, T_f, 2) best modes

    def __post_init__(self):
        def keep(name, a):
            a.flags.writeable = False
            object.__setattr__(self, name, a)
            return a

        def take(name, shape, bad=None, message=""):
            """Field `name` as a float64 copy of `shape` (None: any length),
            its first row that `bad` flags refused with `message`."""
            try:
                a = np.array(getattr(self, name), dtype=np.float64)
            except (TypeError, ValueError) as e:
                raise ScenarioFormatError(f"bad {name}: {e}") from e
            if a.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, a.shape)):
                raise ScenarioFormatError(f"{name} must have shape {shape}, got {a.shape}")
            if bad is not None:
                _refuse(bad(a), message, a)
            return keep(name, a)

        def whole(name, n, low, high, dtype, message):
            """Field `name` as (n,) whole numbers in [low, high], of `dtype`."""
            a = take(name, (n,), lambda a: ~((a >= low) & (a <= high) & (a == np.floor(a))),
                     message)
            return keep(name, a.astype(dtype))

        expert = take("expert", (None, 2), lambda a: ~_rows(np.isfinite(a)),
                      "non-finite values in expert")
        if not (self.horizon_dt > 0.0 and math.isfinite(self.horizon_dt)):
            raise ScenarioFormatError(
                f"horizon_dt must be positive and finite, got {self.horizon_dt}"
            )
        if not all(0.0 < v < math.inf for v in self.perception_range):
            raise ScenarioFormatError(
                f"perception_range must be positive and finite, got {self.perception_range}"
            )
        for name in ("heading", "velocity", "acceleration", "steering_angle"):
            value = getattr(self.ego, name)
            if not math.isfinite(value):
                raise ScenarioFormatError(f"non-finite ego {name}: {value}")
        t_f = len(expert)

        n_a = len(take("agent_xy", (None, 2), lambda a: ~_rows(np.isfinite(a)),
                       "agents[{i}].position: non-finite agent position {v}"))
        take("agent_heading", (n_a,), lambda a: ~np.isfinite(a),
             "agents[{i}].heading: non-finite agent heading {v}")
        take("agent_size", (n_a, 2), lambda a: ~_rows((a > 0.0) & (a < math.inf)),
             "agents[{i}].size: agent size must be positive and finite, got {v}")
        take("agent_confidence", (n_a,), lambda a: ~((a >= 0.0) & (a <= 1.0)),
             "agents[{i}].confidence: agent confidence out of [0,1]: {v}")
        take("agent_future", (n_a, t_f, 2), lambda a: ~_rows(np.isfinite(a)),
             "non-finite values in agent {i} ground-truth future")
        modes = take("agent_modes", (None, t_f, 2))
        scores = take("agent_mode_scores", (len(modes),))
        count = whole("agent_mode_count", n_a, 1, len(modes), np.intp,
                      f"agents[{{i}}].modes: mode count {{v}} is not a whole number of at "
                      f"least one and at most the {len(modes)} modes")
        if len(modes) != count.sum():
            raise ScenarioFormatError(
                f"agent_mode_count adds up to {count.sum()} modes, agent_modes holds {len(modes)}"
            )
        owner = np.repeat(np.arange(n_a), count)  # the agent of each mode

        def agents_of(bad_modes):
            return np.bincount(owner, weights=bad_modes, minlength=n_a) > 0

        _refuse(agents_of(~_rows(np.isfinite(modes))),
                "agents[{i}].modes: non-finite values in agent prediction")
        _refuse(agents_of(~((scores >= 0.0) & (scores <= 1.0))),
                "agents[{i}].mode_scores: mode scores must lie in [0,1]")
        ends = np.cumsum(count)
        best = np.array([start + best_mode_index(scores[start:end]) for start, end
                         in zip((ends - count).tolist(), ends.tolist())], dtype=np.intp)
        keep("agent_track", modes[keep("agent_best", best)])

        map_xy = take("map_xy", (None, None, 2))
        n_m, n_p = map_xy.shape[:2]
        if n_m and n_p < 2:
            raise ScenarioFormatError(f"map polylines need at least 2 points, got {n_p}")
        _refuse(~_rows(np.isfinite(map_xy)), "map[{i}].points: non-finite polyline point")
        _refuse(~(map_xy[:, 1:] != map_xy[:, :-1]).any(axis=(1, 2)),
                "map[{i}].points: polyline has no non-degenerate segment")
        whole("map_kind", n_m, 0, len(MAP_CLASSES) - 1, np.intp,
              "map[{i}].kind: no map class has code {v}")
        take("map_confidence", (n_m,), lambda a: ~((a >= 0.0) & (a <= 1.0)),
             "map[{i}].confidence: map confidence out of [0,1]: {v}")
        sides = DRIVABLE_SIDES.values()
        whole("map_side", n_m, min(sides), max(sides), np.int8,
              "map[{i}].drivable_side: no drivable side has code {v}")

    @property
    def t_future(self) -> int:
        return self.expert.shape[0]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Scenario)
            and self.ego == other.ego
            and self.horizon_dt == other.horizon_dt
            and tuple(self.perception_range) == tuple(other.perception_range)
            and all(np.array_equal(getattr(self, f), getattr(other, f)) for f in _ARRAYS)
        )


# the arrays a scenario is built from, which equal scenarios share
_ARRAYS = tuple(f.name for f in fields(Scenario) if f.init and f.type == "np.ndarray")


def best_mode_index(scores: np.ndarray) -> int:
    """Index of the highest of one agent's mode scores; lowest index on ties."""
    return int(np.argmax(scores))


def ego_vectors(plan: PlanTrajectory) -> np.ndarray:
    """Per-step displacement vectors of a plan, shape (T_f, 2).

    The first vector runs from the ego origin to waypoint 1; each later
    vector runs from waypoint t-1 to waypoint t.
    """
    w = plan.waypoints
    out = w.copy()
    out[1:] -= w[:-1]
    return out


# the map classes of the rows of `PackedScene.map`, in row order
MAP_ROWS = (MapClass.ROAD_BOUNDARY, MapClass.LANE_DIVIDER)


@dataclass(frozen=True, eq=False)
class PackedScene:
    """A scenario in the arrays that its losses compute on, built once by
    `pack`: the best-mode tracks of the agents, and the road boundaries and
    lane dividers in one PolylineSet with a scene axis of two rows, so that
    one search finds each point's nearest of both.  It carries the
    constraint parameters it was packed under, which the losses read.
    """

    scenario: Scenario
    params: ConstraintParams
    agent_tracks: np.ndarray  # (A, T_f, 2), read-only
    map: PolylineSet  # row i holds the kept elements of class MAP_ROWS[i]


def pack(scenario: Scenario, params: ConstraintParams) -> PackedScene:
    """`scenario` packed under the confidence thresholds of `params`; both
    thresholds are inclusive.

    Row i of the map set holds the kept elements of class `MAP_ROWS[i]` in
    scene order, then dead all-zero rows up to the longer row's count.

    Raises:
        ConfigError: on margins of `params` whose hinges could overflow over
            the scene's horizon (`ConstraintParams.check_horizon`).
    """
    params.check_horizon(scenario.t_future)
    tracks = scenario.agent_track[scenario.agent_confidence >= params.agent_min_confidence]
    tracks.flags.writeable = False
    kept = scenario.map_confidence >= params.map_min_confidence
    rows = [scenario.map_xy[kept & (scenario.map_kind == MAP_CLASSES.index(c))] for c in MAP_ROWS]
    counts = np.array([len(row) for row in rows])
    xy = np.zeros((len(rows), counts.max()) + scenario.map_xy.shape[1:])
    real = np.arange(xy.shape[1]) < counts[:, None]
    xy[real] = np.concatenate(rows)
    return PackedScene(scenario, params, tracks, PolylineSet.of_scenes(xy, real))


# ---------------------------------------------------------------------------
# synthetic scenario generation


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for the procedural road/traffic generator.

    The road is a set of parallel lanes following a straight line or a
    constant-curvature arc through the ego position.  Agents follow their
    lanes at sampled speeds; the expert follows the ego lane and performs a
    lane change when the command asks for one.
    """

    lane_count: int = 3
    lane_width: float = 3.5
    curvature_range: tuple[float, float] = (-0.02, 0.02)
    agent_count_range: tuple[int, int] = (2, 8)
    speed_range: tuple[float, float] = (3.0, 9.0)
    agent_speed_range: tuple[float, float] = (2.0, 9.0)
    lane_change_probability: float = 0.35
    crossing_probability: float = 0.3
    # relative spread of the executed expert speed around the speed the ego
    # status reports; > 0 leaves an irreducible longitudinal uncertainty that
    # no planner input can resolve
    speed_jitter: float = 0.0
    # probability of force-placing a slower lead vehicle ahead in the ego
    # lane, with just enough initial gap to stay clearance-safe for the
    # expert over the horizon; the extra slack is sampled from this range
    lead_vehicle_probability: float = 0.0
    lead_gap_slack: tuple[float, float] = (0.2, 2.0)
    mode_count: int = 6
    mode_noise_std: float = 0.5
    agent_confidence_range: tuple[float, float] = (1.0, 1.0)
    map_confidence_range: tuple[float, float] = (1.0, 1.0)
    min_agent_clearance: float = 0.4
    ego_dims: tuple[float, float] = DEFAULT_EGO_DIMS
    n_points: int = 20
    t_future: int = 6
    horizon_dt: float = 0.5
    perception_range: tuple[float, float] = (60.0, 30.0)

    def __post_init__(self):
        # each comparison is written so that NaN fails it
        if not self.lane_count >= 1:
            raise ConfigError(f"lane_count must be >= 1, got {self.lane_count}")
        if not self.lane_width > 0:
            raise ConfigError("lane_width must be positive")
        if not 0 <= self.agent_count_range[0] <= self.agent_count_range[1]:
            raise ConfigError(f"bad agent_count_range {self.agent_count_range}")
        for name in ("curvature_range", "speed_range", "agent_speed_range",
                     "agent_confidence_range", "map_confidence_range", "lead_gap_slack"):
            lo, hi = getattr(self, name)
            if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
                raise ConfigError(f"bad {name} ({lo}, {hi})")
        if not 0.0 <= self.speed_jitter < 1.0:
            raise ConfigError("speed_jitter must lie in [0, 1)")
        for name in ("lane_change_probability", "crossing_probability",
                     "lead_vehicle_probability", "agent_confidence_range", "map_confidence_range"):
            value = np.asarray(getattr(self, name))
            if not (0.0 <= value.min() and value.max() <= 1.0):
                raise ConfigError(f"{name} must lie in [0, 1], got {getattr(self, name)}")
        for name in ("speed_range", "agent_speed_range", "lead_gap_slack"):
            if not getattr(self, name)[0] >= 0:
                raise ConfigError(f"{name} must not be negative, got {getattr(self, name)}")
        for name in ("mode_noise_std", "min_agent_clearance"):
            if not getattr(self, name) >= 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not (self.ego_dims[0] > 0 and self.ego_dims[1] > 0):
            raise ConfigError(f"ego_dims must be positive, got {self.ego_dims}")
        if not self.mode_count >= 1:
            raise ConfigError("mode_count must be >= 1")
        if not self.n_points >= 2:
            raise ConfigError("n_points must be >= 2")
        if not self.t_future >= 1:
            raise ConfigError("t_future must be >= 1")
        if not self.horizon_dt > 0:
            raise ConfigError("horizon_dt must be positive")
        long_extent, lat_extent = self.perception_range
        if not (long_extent > 0 and lat_extent > 0):
            raise ConfigError(f"bad perception_range {self.perception_range}")
        # the widest possible road (ego in an outermost lane) must fit laterally
        half_road = (self.lane_count - 0.5) * self.lane_width
        if half_road > lat_extent / 2.0:
            raise ConfigError(
                f"{self.lane_count} lanes of {self.lane_width} m cannot fit a "
                f"{lat_extent} m lateral perception range"
            )
        kmax = max(abs(self.curvature_range[0]), abs(self.curvature_range[1]))
        if kmax * half_road >= 0.8:
            raise ConfigError("curvature too strong for the road width")
        # every arc length a mover reaches is below 16 x its top speed x the
        # horizon: the executed speed is below twice the drawn one, a mover
        # on a road this curved has an arc rate below 1 / (1 - 0.8) = 5 (an
        # agent's 0.3 m lateral jitter keeps it on a road of lanes at least
        # 0.6 m wide), and a lead starts at most one horizon of closure ahead
        horizon = self.t_future * self.horizon_dt
        for name in ("speed_range", "agent_speed_range"):
            if not math.isfinite(float(getattr(self, name)[1]) * horizon * 16.0):
                raise ConfigError(f"{name} {getattr(self, name)} overflows the arc length "
                                  f"over the {horizon} s horizon")


class _RoadFrame:
    """Arc-length parametrization of a constant-curvature road.

    The centerline passes through the origin heading +y.  Positive curvature
    bends the road to the right.  `point(s, d)` is the location at arc length
    `s` along the centerline, offset `d` meters to the right of it.
    """

    def __init__(self, curvature: float):
        self.curvature = curvature

    def point(self, s: float, d: float) -> tuple[float, float]:
        k = self.curvature
        if k == 0.0:
            return (d, s)
        cos, sin = math.cos(k * s), math.sin(k * s)
        return ((1.0 - cos) / k + d * cos, sin / k - d * sin)

    def heading(self, s: float) -> float:
        return math.pi / 2.0 - self.curvature * s

    def arc_rate(self, d: float) -> float:
        """ds (centerline) per meter traveled along the offset-d lane."""
        return 1.0 / (1.0 - d * self.curvature)

    def polyline(self, d: float, s_lo: float, s_hi: float, n: int) -> list[tuple[float, float]]:
        return [self.point(s, d) for s in np.linspace(s_lo, s_hi, n).tolist()]


def _fit_extent(road: _RoadFrame, offsets: Sequence[float], cfg: GeneratorConfig):
    """Largest arc-length half-extent whose sampled points stay in the box,
    and the `polyline` of each offset over it."""
    long_half = cfg.perception_range[0] / 2.0
    lat_half = cfg.perception_range[1] / 2.0
    s_max = long_half
    for _ in range(200):
        lines = []
        for d in offsets:
            points = []
            for s in np.linspace(-s_max, s_max, cfg.n_points).tolist():
                x, y = road.point(s, d)
                if abs(x) > lat_half or abs(y) > long_half:
                    break
                points.append((x, y))
            if len(points) < cfg.n_points:
                break
            lines.append(points)
        else:
            return s_max, lines
        s_max *= 0.95
    raise ConfigError("road geometry cannot fit the perception range")


def _lane_follow_track(
    road: _RoadFrame, s0: float, d: float, speed: float, dt: float, steps: int
) -> np.ndarray:
    """Start and ground-truth future of a lane-following mover, shape
    (steps + 1, 2): the start, then one point a step."""
    step = speed * dt * road.arc_rate(d)
    s = s0
    out = [road.point(s, d)]
    for _ in range(steps):
        s += step
        out.append(road.point(s, d))
    return np.array(out, dtype=np.float64)


def _expert_track(
    road: _RoadFrame,
    speed: float,
    d_target: float,
    dt: float,
    steps: int,
) -> np.ndarray:
    """Expert waypoints: keep lane or ease laterally to d_target over the horizon."""
    out = np.empty((steps, 2), dtype=np.float64)
    s = 0.0
    d_prev = 0.0
    for t in range(steps):
        frac = (t + 1) / steps
        d = d_target * 0.5 * (1.0 - math.cos(math.pi * frac))
        s += speed * dt * road.arc_rate(0.5 * (d_prev + d))
        out[t] = road.point(s, d)
        d_prev = d
    return out


def _uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    """`rng.uniform(lo, hi)` for a finite `hi - lo`, bit for bit, from the
    same one double of the stream: numpy draws it as `lo + (hi - lo) * d`
    of one `rng.random()` double `d` on the floats of `lo` and `hi`, and so
    does this, without the cost of `uniform`'s argument handling."""
    lo = float(lo)
    return lo + (float(hi) - lo) * rng.random()


def generate_scenario(seed: int, config: GeneratorConfig = GeneratorConfig()) -> Scenario:
    """Procedurally build one scenario; bit-identical for a given seed.

    Raises:
        ConfigError: on a negative seed, or if the settings make a scene
            that `Scenario` refuses.
    """
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    t_f = config.t_future
    dt = config.horizon_dt
    n_lanes = config.lane_count
    w = config.lane_width

    curvature = _uniform(rng, *config.curvature_range)
    road = _RoadFrame(curvature)
    ego_lane = int(rng.integers(0, n_lanes))

    lane_offsets = [(i - ego_lane) * w for i in range(n_lanes)]
    left_bd = lane_offsets[0] - w / 2.0
    right_bd = lane_offsets[-1] + w / 2.0
    divider_offsets = [lane_offsets[i] + w / 2.0 for i in range(n_lanes - 1)]

    s_max, boundaries = _fit_extent(road, [left_bd, right_bd], config)

    # one row per map element: (points, kind, confidence, drivable side)
    map_rows = []
    # boundaries first: polylines run along the travel direction, so the
    # drivable area is right of the left boundary and left of the right one
    for points, side in zip(boundaries, ("right", "left")):
        conf = _uniform(rng, *config.map_confidence_range)
        map_rows.append((points, MapClass.ROAD_BOUNDARY, conf, side))
    for d in divider_offsets:
        conf = _uniform(rng, *config.map_confidence_range)
        points = road.polyline(d, -s_max, s_max, config.n_points)
        map_rows.append((points, MapClass.LANE_DIVIDER, conf, None))
    if rng.random() < config.crossing_probability:
        s_c = _uniform(rng, 0.3 * s_max, 0.8 * s_max)
        conf = _uniform(rng, *config.map_confidence_range)
        ds = np.linspace(left_bd, right_bd, config.n_points).tolist()
        points = [road.point(s_c, d) for d in ds]
        map_rows.append((points, MapClass.PEDESTRIAN_CROSSING, conf, None))

    # expert: follow the ego lane, or ease into the adjacent lane on a
    # turn command (+x is right, so a left turn targets a negative offset)
    can_left = ego_lane > 0
    can_right = ego_lane < n_lanes - 1
    command = Command.GO_STRAIGHT
    if (can_left or can_right) and rng.random() < config.lane_change_probability:
        if can_left and can_right:
            command = Command.TURN_LEFT if rng.random() < 0.5 else Command.TURN_RIGHT
        elif can_left:
            command = Command.TURN_LEFT
        else:
            command = Command.TURN_RIGHT
    d_target = {-1.0: -w, 0.0: 0.0, 1.0: w}[
        {Command.TURN_LEFT: -1.0, Command.GO_STRAIGHT: 0.0, Command.TURN_RIGHT: 1.0}[command]
    ]

    ego_speed = _uniform(rng, *config.speed_range)
    # the executed speed may deviate from what the ego status reports
    executed_speed = ego_speed * (1.0 + _uniform(rng, -1.0, 1.0) * config.speed_jitter)
    long_half = config.perception_range[0] / 2.0
    lat_half = config.perception_range[1] / 2.0
    expert = _expert_track(road, executed_speed, d_target, dt, t_f)
    for _ in range(40):
        if np.all(np.abs(expert[:, 0]) <= lat_half - 0.25) and np.all(
            np.abs(expert[:, 1]) <= long_half - 0.25
        ):
            break
        executed_speed *= 0.8
        ego_speed *= 0.8
        expert = _expert_track(road, executed_speed, d_target, dt, t_f)

    ego = EgoState(
        position=Point2(0.0, 0.0),
        heading=math.pi / 2.0,
        velocity=ego_speed,
        acceleration=0.0,
        steering_angle=math.atan(2.8 * curvature),
        command=command,
    )

    # one row per placed agent: (start, heading, size, confidence, future,
    # modes, mode scores)
    agent_rows = []
    n_agents = int(rng.integers(config.agent_count_range[0], config.agent_count_range[1] + 1))
    want_lead = rng.random() < config.lead_vehicle_probability
    n_slots = n_agents + int(want_lead)

    # frames of the boxes swept over ticks 0..t_f that a new agent must
    # clear, each built once: row 0 is the expert's, inflated by the
    # clearance, and row 1 + i is placed agent i's
    frames = BoxFrame.empty((1 + n_slots, t_f + 1))
    clearance = 2.0 * config.min_agent_clearance
    expert_dims = (config.ego_dims[0] + clearance, config.ego_dims[1] + clearance)
    frames.put(0, swept_box_frame(expert, ego.position, ego.heading, expert_dims))
    placed = 1
    clear_of = frames.head(placed)
    for k in range(n_slots):
        is_lead = want_lead and k == 0
        for _attempt in range(30):
            size = np.array((_uniform(rng, 4.2, 4.9), _uniform(rng, 1.7, 2.0)))
            if is_lead:
                # slower vehicle ahead in the ego lane; the initial gap covers
                # the closure over the horizon plus a sampled safety margin
                d = _uniform(rng, -0.2, 0.2)
                speed = executed_speed * _uniform(rng, 0.55, 0.9)
                closure = (executed_speed - speed) * t_f * dt
                s0 = (
                    (config.ego_dims[0] + float(size[0])) / 2.0
                    + config.min_agent_clearance
                    + closure
                    + _uniform(rng, *config.lead_gap_slack)
                )
            else:
                d = lane_offsets[int(rng.integers(0, n_lanes))] + _uniform(rng, -0.3, 0.3)
                s0 = _uniform(rng, -0.5, 0.9) * s_max
                speed = _uniform(rng, *config.agent_speed_range)

            # the box's centers: its start, then its ground-truth future
            track = _lane_follow_track(road, s0, d, speed, dt, t_f)
            heading = road.heading(s0)
            box = swept_box_frame_if_clear(track, heading, size, clear_of)
            if box is None:
                continue

            future = track[1:]
            n_k = config.mode_count
            modes = np.empty((n_k, t_f, 2), dtype=np.float64)
            scores = np.empty(n_k, dtype=np.float64)
            modes[0] = future
            scores[0] = 1.0
            # each later mode drifts from the future by a walk of normal steps,
            # all summed in one call: a cumsum adds along its axis in order
            for m in range(1, n_k):
                modes[m] = rng.normal(0.0, config.mode_noise_std, size=(t_f, 2))
                scores[m] = _uniform(rng, 0.05, 0.95)
            np.add(future, modes[1:].cumsum(axis=1), out=modes[1:])
            conf = _uniform(rng, *config.agent_confidence_range)
            agent_rows.append((track[0], heading, size, conf, future, modes, scores))
            frames.put(placed, box)
            placed += 1
            clear_of = frames.head(placed)
            break

    starts, headings, sizes, confs, futures, modes, scores = list(zip(*agent_rows)) or [()] * 7
    points, kinds, map_confs, sides = zip(*map_rows)
    try:
        return Scenario(
            ego=ego, expert=expert, horizon_dt=dt, perception_range=config.perception_range,
            agent_xy=np.reshape(starts, (-1, 2)), agent_heading=headings,
            agent_size=np.reshape(sizes, (-1, 2)), agent_confidence=confs,
            agent_future=np.reshape(futures, (-1, t_f, 2)),
            agent_modes=np.reshape(modes, (-1, t_f, 2)), agent_mode_scores=np.reshape(scores, -1),
            agent_mode_count=[config.mode_count] * len(agent_rows),
            map_xy=points, map_kind=[MAP_CLASSES.index(k) for k in kinds],
            map_confidence=map_confs, map_side=[DRIVABLE_SIDES[s] for s in sides],
        )
    except ScenarioFormatError as e:
        # no file was read: the settings made a scene that a file may not hold
        raise ConfigError(f"generator settings make an invalid scene (seed {seed}): {e}") from e


# ---------------------------------------------------------------------------
# scenario file I/O
#
# Scenario files are JSON with an explicit schema version.  Floats pass
# through Python's repr, which round-trips float64 exactly, and key order is
# fixed so re-saving a loaded scenario is byte-identical.


def scenario_to_dict(s: Scenario) -> dict:
    ends = np.cumsum(s.agent_mode_count).tolist()
    side_names = {code: name for name, code in DRIVABLE_SIDES.items()}
    return {
        "schema_version": SCHEMA_VERSION,
        "t_future": s.t_future,
        "horizon_dt": s.horizon_dt,
        "perception_range": list(s.perception_range),
        "map": [
            {"kind": MAP_CLASSES[k].value, "confidence": c, "drivable_side": side_names[d],
             "points": xy}
            for k, c, d, xy in zip(s.map_kind.tolist(), s.map_confidence.tolist(),
                                   s.map_side.tolist(), s.map_xy.tolist())
        ],
        # each agent's modes are the rows from the previous agent's end to its own
        "agents": [
            {"position": xy, "heading": h, "size": size, "confidence": c,
             "mode_scores": s.agent_mode_scores[a:b].tolist(),
             "modes": s.agent_modes[a:b].tolist()}
            for xy, h, size, c, a, b in zip(s.agent_xy.tolist(), s.agent_heading.tolist(),
                                            s.agent_size.tolist(), s.agent_confidence.tolist(),
                                            [0] + ends, ends)
        ],
        "agent_gt_futures": s.agent_future.tolist(),
        "ego": {
            "position": list(s.ego.position),
            "heading": s.ego.heading,
            "velocity": s.ego.velocity,
            "acceleration": s.ego.acceleration,
            "steering_angle": s.ego.steering_angle,
            "command": s.ego.command.value,
        },
        "expert": s.expert.tolist(),
    }


def _require(data, key: str, where: str):
    if not isinstance(data, dict):
        raise ScenarioFormatError(f"{where.rstrip('.') or 'scenario'} must be an object")
    if key not in data:
        raise ScenarioFormatError(f"missing field: {where}{key}")
    return data[key]


def _field(data, key: str, where: str, decode, optional: bool = False):
    """A field passed through `decode`, None where an optional one is left
    out; a value of the wrong type or form is a ScenarioFormatError that
    names the field's path."""
    if optional and isinstance(data, dict):
        value = data.get(key)
    else:
        value = _require(data, key, where)
    try:
        return decode(value)
    except (TypeError, ValueError, OverflowError, GeometryError) as e:
        raise ScenarioFormatError(f"bad field {where}{key}: {e}") from e


def _list(value) -> list:
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return value


def _pair(value) -> tuple[float, float]:
    x, y = value
    return float(x), float(y)


def _point(value) -> Point2:
    return Point2(*_pair(value))


def _array(value) -> np.ndarray:
    return np.asarray(_list(value), dtype=np.float64)


def _xy(form: str):
    """A decoder of a float array of the shape `form`, e.g. "(P, 2)", whose
    last axis holds (x, y)."""

    def decode(value) -> np.ndarray:
        a = _array(value)
        if a.ndim != form.count(",") + 1 or a.shape[-1] != 2:
            raise ValueError(f"expected {form}, got {a.shape}")
        return a

    return decode


def _side(value) -> int:
    if not (value is None or isinstance(value, str)) or value not in DRIVABLE_SIDES:
        raise ValueError(f"{value!r} is not left, right or null")
    return DRIVABLE_SIDES[value]


# the fields of a map element and of an agent, in the order they are read
_MAP_FIELDS = {"kind": MapClass, "points": _xy("(P, 2)"), "confidence": float}
_AGENT_FIELDS = {
    "position": _pair, "heading": float, "size": _pair, "confidence": float,
    "modes": _xy("(N_k, T_f, 2)"), "mode_scores": _array,
}


def _columns(data, key: str, decoders: dict) -> dict:
    """The objects of the list `data[key]`, each field decoded, as one list
    per field."""
    columns = {name: [] for name in decoders}
    for i, element in enumerate(_field(data, key, "", _list)):
        for name, decode in decoders.items():
            columns[name].append(_field(element, name, f"{key}[{i}].", decode))
    return columns


def scenario_from_dict(data: dict) -> Scenario:
    version = _require(data, "schema_version", "")
    if version != SCHEMA_VERSION:
        raise ScenarioFormatError(
            f"unsupported schema_version {version!r}, expected {SCHEMA_VERSION}"
        )
    t_f = _require(data, "t_future", "")
    if isinstance(t_f, bool) or not isinstance(t_f, int):
        raise ScenarioFormatError(f"bad field t_future: expected an integer, got {t_f!r}")

    maps = _columns(data, "map", _MAP_FIELDS)
    sides = [
        _field(mv, "drivable_side", f"map[{i}].", _side, optional=True)
        for i, mv in enumerate(data["map"])
    ]
    agents = _columns(data, "agents", _AGENT_FIELDS)
    ego_data = _require(data, "ego", "")
    ego = EgoState(
        position=_field(ego_data, "position", "ego.", _point),
        heading=_field(ego_data, "heading", "ego.", float),
        velocity=_field(ego_data, "velocity", "ego.", float),
        acceleration=_field(ego_data, "acceleration", "ego.", float),
        steering_angle=_field(ego_data, "steering_angle", "ego.", float),
        command=_field(ego_data, "command", "ego.", Command),
    )
    futures = _field(
        data, "agent_gt_futures", "", lambda v: [_xy("(T_f, 2)")(f) for f in _list(v)]
    )
    expert = _field(data, "expert", "", _xy("(T_f, 2)"))
    if len(expert) != t_f:
        raise ScenarioFormatError(
            f"header t_future {t_f} does not match expert length {len(expert)}"
        )

    # each element's shape, checked here, where a file can make them ragged
    points = {len(xy) for xy in maps["points"]}
    if len(points) > 1:
        raise ScenarioFormatError(f"map vectors have mixed point counts: {sorted(points)}")
    n_a = len(agents["modes"])
    if len(futures) != n_a:
        raise ScenarioFormatError(f"{len(futures)} ground-truth futures for {n_a} agents")
    for i, (modes, scores, future) in enumerate(
        zip(agents["modes"], agents["mode_scores"], futures)
    ):
        if modes.shape[1] != t_f:
            raise ScenarioFormatError(
                f"agent {i} modes cover {modes.shape[1]} steps, expected {t_f}"
            )
        if scores.shape != modes.shape[:1]:
            raise ScenarioFormatError(
                f"agents[{i}].mode_scores shape {scores.shape} does not match {len(modes)} modes"
            )
        if future.shape != (t_f, 2):
            raise ScenarioFormatError(
                f"agent {i} ground-truth future has shape {future.shape}, expected ({t_f}, 2)"
            )

    return Scenario(
        ego=ego, expert=expert, horizon_dt=_field(data, "horizon_dt", "", float),
        perception_range=_field(data, "perception_range", "", _pair),
        agent_xy=np.reshape(agents["position"], (n_a, 2)), agent_heading=agents["heading"],
        agent_size=np.reshape(agents["size"], (n_a, 2)), agent_confidence=agents["confidence"],
        agent_future=np.reshape(futures, (n_a, t_f, 2)),
        agent_modes=np.concatenate([np.empty((0, t_f, 2))] + agents["modes"]),
        agent_mode_scores=np.concatenate([np.empty(0)] + agents["mode_scores"]),
        agent_mode_count=[len(modes) for modes in agents["modes"]],
        map_xy=np.reshape(maps["points"], (len(sides), next(iter(points), 0), 2)),
        map_kind=[MAP_CLASSES.index(kind) for kind in maps["kind"]],
        map_confidence=maps["confidence"], map_side=sides,
    )


def scenario_to_json(s: Scenario) -> str:
    return json.dumps(scenario_to_dict(s), indent=1, allow_nan=False)


def save_scenario(s: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(scenario_to_json(s))
        f.write("\n")


def load_scenario(path) -> Scenario:
    try:
        data = json.loads(read_text(path, ScenarioFormatError))
    except json.JSONDecodeError as e:
        raise ScenarioFormatError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}") from e
    except ValueError as e:  # an int of more digits than Python parses
        raise ScenarioFormatError(f"{path}: {e}") from e
    if not isinstance(data, dict):
        raise ScenarioFormatError(f"{path}: top level must be an object")
    try:
        return scenario_from_dict(data)
    except ScenarioFormatError as e:
        raise ScenarioFormatError(f"{path}: {e}") from e
