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
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, GeometryError, ScenarioFormatError
from .geometry import Point2, Polyline, oriented_rect_overlap, pose_track

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
class MapVector:
    """One polyline map element with a confidence score.

    `drivable_side` is only meaningful for road boundaries: it names the side
    of the polyline (relative to its point ordering) on which the drivable
    area lies, and is filled in by the generator.
    """

    kind: MapClass
    points: Polyline
    confidence: float
    drivable_side: Optional[str] = None

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise ScenarioFormatError(f"map confidence out of [0,1]: {self.confidence}")
        if self.drivable_side not in (None, "left", "right"):
            raise ScenarioFormatError(f"bad drivable_side: {self.drivable_side!r}")


@dataclass(eq=False)
class AgentPrediction:
    """One agent: pose, box size, confidence, and multi-modal future.

    `modes` holds absolute ego-frame positions of shape (N_k, T_f, 2); each
    mode has its own score in [0, 1] and the scores need not sum to one.
    """

    position: Point2
    heading: float
    size: tuple[float, float]
    confidence: float
    modes: np.ndarray
    mode_scores: np.ndarray

    def __post_init__(self):
        self.modes = np.asarray(self.modes, dtype=np.float64)
        self.mode_scores = np.asarray(self.mode_scores, dtype=np.float64)
        if self.modes.ndim != 3 or self.modes.shape[2] != 2:
            raise ScenarioFormatError(f"modes must be (N_k, T_f, 2), got {self.modes.shape}")
        if self.modes.shape[0] < 1:
            raise ScenarioFormatError("agent needs at least one mode")
        if self.mode_scores.shape != (self.modes.shape[0],):
            raise ScenarioFormatError(
                f"mode_scores shape {self.mode_scores.shape} does not match "
                f"{self.modes.shape[0]} modes"
            )
        if not np.all(np.isfinite(self.modes)) or not np.all(np.isfinite(self.mode_scores)):
            raise ScenarioFormatError("non-finite values in agent prediction")
        if not math.isfinite(self.heading):
            raise ScenarioFormatError(f"non-finite agent heading: {self.heading}")
        if np.any(self.mode_scores < 0.0) or np.any(self.mode_scores > 1.0):
            raise ScenarioFormatError("mode scores must lie in [0,1]")
        if not 0.0 <= self.confidence <= 1.0:
            raise ScenarioFormatError(f"agent confidence out of [0,1]: {self.confidence}")
        if not (self.size[0] > 0.0 and self.size[1] > 0.0):
            raise ScenarioFormatError(f"agent size must be positive, got {self.size}")

    @property
    def n_modes(self) -> int:
        return self.modes.shape[0]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AgentPrediction)
            and self.position == other.position
            and self.heading == other.heading
            and tuple(self.size) == tuple(other.size)
            and self.confidence == other.confidence
            and np.array_equal(self.modes, other.modes)
            and np.array_equal(self.mode_scores, other.mode_scores)
        )


@dataclass(frozen=True)
class EgoState:
    position: Point2
    heading: float
    velocity: float
    acceleration: float
    steering_angle: float
    command: Command


@dataclass(eq=False)
class PlanTrajectory:
    """Planned future ego waypoints, shape (T_f, 2), in the ego frame."""

    waypoints: np.ndarray

    def __post_init__(self):
        self.waypoints = np.asarray(self.waypoints, dtype=np.float64)
        if self.waypoints.ndim != 2 or self.waypoints.shape[1] != 2:
            raise ScenarioFormatError(f"waypoints must be (T_f, 2), got {self.waypoints.shape}")
        if self.waypoints.shape[0] < 1:
            raise ScenarioFormatError("plan needs at least one waypoint")
        if not np.all(np.isfinite(self.waypoints)):
            raise ScenarioFormatError("non-finite plan waypoints")

    @property
    def horizon(self) -> int:
        return self.waypoints.shape[0]

    def __eq__(self, other) -> bool:
        return isinstance(other, PlanTrajectory) and np.array_equal(
            self.waypoints, other.waypoints
        )


@dataclass(eq=False)
class Scenario:
    """A full vectorized scene in the ego frame at the planning instant."""

    map: list[MapVector]
    agents: list[AgentPrediction]
    agent_gt_futures: list[np.ndarray]
    ego: EgoState
    expert: np.ndarray
    horizon_dt: float
    perception_range: tuple[float, float]

    def __post_init__(self):
        self.expert = np.asarray(self.expert, dtype=np.float64)
        self.agent_gt_futures = [np.asarray(f, dtype=np.float64) for f in self.agent_gt_futures]
        if not (self.horizon_dt > 0.0 and math.isfinite(self.horizon_dt)):
            raise ScenarioFormatError(
                f"horizon_dt must be positive and finite, got {self.horizon_dt}"
            )
        if self.expert.ndim != 2 or self.expert.shape[1] != 2:
            raise ScenarioFormatError(f"expert must be (T_f, 2), got {self.expert.shape}")
        if not np.all(np.isfinite(self.expert)):
            raise ScenarioFormatError("non-finite values in expert")
        for name in ("heading", "velocity", "acceleration", "steering_angle"):
            value = getattr(self.ego, name)
            if not math.isfinite(value):
                raise ScenarioFormatError(f"non-finite ego {name}: {value}")
        t_f = self.expert.shape[0]
        if len(self.agent_gt_futures) != len(self.agents):
            raise ScenarioFormatError(
                f"{len(self.agent_gt_futures)} ground-truth futures for "
                f"{len(self.agents)} agents"
            )
        for i, (agent, fut) in enumerate(zip(self.agents, self.agent_gt_futures)):
            if agent.modes.shape[1] != t_f:
                raise ScenarioFormatError(
                    f"agent {i} modes cover {agent.modes.shape[1]} steps, expected {t_f}"
                )
            if fut.shape != (t_f, 2):
                raise ScenarioFormatError(
                    f"agent {i} ground-truth future has shape {fut.shape}, expected ({t_f}, 2)"
                )
            if not np.all(np.isfinite(fut)):
                raise ScenarioFormatError(f"non-finite values in agent {i} ground-truth future")
        counts = {len(mv.points) for mv in self.map}
        if len(counts) > 1:
            raise ScenarioFormatError(f"map vectors have mixed point counts: {sorted(counts)}")

    @property
    def t_future(self) -> int:
        return self.expert.shape[0]

    @property
    def n_map_points(self) -> Optional[int]:
        return len(self.map[0].points) if self.map else None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Scenario)
            and self.map == other.map
            and self.agents == other.agents
            and len(self.agent_gt_futures) == len(other.agent_gt_futures)
            and all(
                np.array_equal(a, b)
                for a, b in zip(self.agent_gt_futures, other.agent_gt_futures)
            )
            and self.ego == other.ego
            and np.array_equal(self.expert, other.expert)
            and self.horizon_dt == other.horizon_dt
            and tuple(self.perception_range) == tuple(other.perception_range)
        )


# ---------------------------------------------------------------------------
# filtering and per-agent reductions


def filter_map(
    elements: Sequence[MapVector], min_confidence: float, kind: Optional[MapClass] = None
) -> list[MapVector]:
    """Keep elements with confidence >= min_confidence (and matching class).

    The threshold is inclusive so a threshold of 1.0 still keeps
    perfect-confidence elements.  Order is preserved; an empty result is legal.
    """
    if not 0.0 <= min_confidence <= 1.0:
        raise ConfigError(f"confidence threshold out of [0,1]: {min_confidence}")
    return [
        mv
        for mv in elements
        if mv.confidence >= min_confidence and (kind is None or mv.kind == kind)
    ]


def filter_agents(agents: Sequence[AgentPrediction], min_confidence: float) -> list[AgentPrediction]:
    """Keep agents with confidence >= min_confidence, preserving order."""
    if not 0.0 <= min_confidence <= 1.0:
        raise ConfigError(f"confidence threshold out of [0,1]: {min_confidence}")
    return [a for a in agents if a.confidence >= min_confidence]


def best_mode_index(agent: AgentPrediction) -> int:
    """Index of the highest-scoring mode; lowest index on ties."""
    return int(np.argmax(agent.mode_scores))


def best_mode(agent: AgentPrediction) -> np.ndarray:
    """The trajectory of the highest-scoring mode, shape (T_f, 2)."""
    return agent.modes[best_mode_index(agent)]


def ego_vectors(plan: PlanTrajectory, origin: Point2 = Point2(0.0, 0.0)) -> np.ndarray:
    """Per-step displacement vectors of a plan, shape (T_f, 2).

    The first vector runs from `origin` (the ego position) to waypoint 1;
    each later vector runs from waypoint t-1 to waypoint t.
    """
    w = plan.waypoints
    out = np.empty_like(w)
    out[0] = w[0] - np.array([origin.x, origin.y])
    out[1:] = w[1:] - w[:-1]
    return out


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
    ego_dims: tuple[float, float] = (4.0, 1.85)
    n_points: int = 20
    t_future: int = 6
    horizon_dt: float = 0.5
    perception_range: tuple[float, float] = (60.0, 30.0)

    def __post_init__(self):
        if self.lane_count < 1:
            raise ConfigError(f"lane_count must be >= 1, got {self.lane_count}")
        if self.lane_width <= 0:
            raise ConfigError("lane_width must be positive")
        if self.agent_count_range[0] < 0 or self.agent_count_range[0] > self.agent_count_range[1]:
            raise ConfigError(f"bad agent_count_range {self.agent_count_range}")
        for name in ("curvature_range", "speed_range", "agent_speed_range",
                     "agent_confidence_range", "map_confidence_range", "lead_gap_slack"):
            lo, hi = getattr(self, name)
            if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
                raise ConfigError(f"bad {name} ({lo}, {hi})")
        if not 0.0 <= self.speed_jitter < 1.0:
            raise ConfigError("speed_jitter must lie in [0, 1)")
        if not 0.0 <= self.lead_vehicle_probability <= 1.0:
            raise ConfigError("lead_vehicle_probability must lie in [0, 1]")
        if not 0.0 <= self.lead_gap_slack[0] <= self.lead_gap_slack[1]:
            raise ConfigError(f"bad lead_gap_slack {self.lead_gap_slack}")
        if self.mode_count < 1:
            raise ConfigError("mode_count must be >= 1")
        if self.n_points < 2:
            raise ConfigError("n_points must be >= 2")
        if self.t_future < 1:
            raise ConfigError("t_future must be >= 1")
        if self.horizon_dt <= 0:
            raise ConfigError("horizon_dt must be positive")
        long_extent, lat_extent = self.perception_range
        if long_extent <= 0 or lat_extent <= 0:
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
        ks = k * s
        return ((1.0 - math.cos(ks)) / k + d * math.cos(ks), math.sin(ks) / k - d * math.sin(ks))

    def heading(self, s: float) -> float:
        return math.pi / 2.0 - self.curvature * s

    def arc_rate(self, d: float) -> float:
        """ds (centerline) per meter traveled along the offset-d lane."""
        return 1.0 / (1.0 - d * self.curvature)

    def polyline(self, d: float, s_lo: float, s_hi: float, n: int) -> Polyline:
        ss = np.linspace(s_lo, s_hi, n)
        return Polyline([self.point(float(s), d) for s in ss])


def _fit_extent(road: _RoadFrame, offsets: Sequence[float], cfg: GeneratorConfig) -> float:
    """Largest arc-length half-extent whose sampled points stay in the box."""
    long_half = cfg.perception_range[0] / 2.0
    lat_half = cfg.perception_range[1] / 2.0
    s_max = long_half
    for _ in range(200):
        ok = True
        for d in offsets:
            for s in np.linspace(-s_max, s_max, cfg.n_points):
                x, y = road.point(float(s), d)
                if abs(x) > lat_half or abs(y) > long_half:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return s_max
        s_max *= 0.95
    raise ConfigError("road geometry cannot fit the perception range")


def _lane_follow_track(
    road: _RoadFrame, s0: float, d: float, speed: float, dt: float, steps: int
) -> np.ndarray:
    """Ground-truth future of a lane-following mover, shape (steps, 2)."""
    out = np.empty((steps, 2), dtype=np.float64)
    s = s0
    for t in range(steps):
        s += speed * dt * road.arc_rate(d)
        out[t] = road.point(s, d)
    return out


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


def _swept_track(track: np.ndarray, start: Point2) -> np.ndarray:
    """(T + 1, 2) positions of a mover: `start`, then its (T, 2) track."""
    out = np.empty((track.shape[0] + 1, 2))
    out[0] = (start.x, start.y)
    out[1:] = track
    return out


def _swept_headings(track: np.ndarray, start: Point2, heading: float) -> list[float]:
    """Headings of a mover at `start` and along its track (see `pose_track`)."""
    return [heading] + [h for _, h in pose_track(track, start, heading)]


def generate_scenario(seed: int, config: GeneratorConfig = GeneratorConfig()) -> Scenario:
    """Procedurally build one scenario; bit-identical for a given seed."""
    rng = np.random.default_rng(seed)
    t_f = config.t_future
    dt = config.horizon_dt
    n_lanes = config.lane_count
    w = config.lane_width

    curvature = float(rng.uniform(*config.curvature_range))
    road = _RoadFrame(curvature)
    ego_lane = int(rng.integers(0, n_lanes))

    lane_offsets = [(i - ego_lane) * w for i in range(n_lanes)]
    left_bd = lane_offsets[0] - w / 2.0
    right_bd = lane_offsets[-1] + w / 2.0
    divider_offsets = [lane_offsets[i] + w / 2.0 for i in range(n_lanes - 1)]

    s_max = _fit_extent(road, [left_bd, right_bd], config)

    map_vectors: list[MapVector] = []
    # boundaries first: polylines run along the travel direction, so the
    # drivable area is right of the left boundary and left of the right one
    for d, side in ((left_bd, "right"), (right_bd, "left")):
        conf = float(rng.uniform(*config.map_confidence_range))
        map_vectors.append(
            MapVector(
                kind=MapClass.ROAD_BOUNDARY,
                points=road.polyline(d, -s_max, s_max, config.n_points),
                confidence=conf,
                drivable_side=side,
            )
        )
    for d in divider_offsets:
        conf = float(rng.uniform(*config.map_confidence_range))
        map_vectors.append(
            MapVector(
                kind=MapClass.LANE_DIVIDER,
                points=road.polyline(d, -s_max, s_max, config.n_points),
                confidence=conf,
            )
        )
    if rng.uniform() < config.crossing_probability:
        s_c = float(rng.uniform(0.3 * s_max, 0.8 * s_max))
        conf = float(rng.uniform(*config.map_confidence_range))
        ds = np.linspace(left_bd, right_bd, config.n_points)
        map_vectors.append(
            MapVector(
                kind=MapClass.PEDESTRIAN_CROSSING,
                points=Polyline([road.point(s_c, float(d)) for d in ds]),
                confidence=conf,
            )
        )

    # expert: follow the ego lane, or ease into the adjacent lane on a
    # turn command (+x is right, so a left turn targets a negative offset)
    can_left = ego_lane > 0
    can_right = ego_lane < n_lanes - 1
    command = Command.GO_STRAIGHT
    if (can_left or can_right) and rng.uniform() < config.lane_change_probability:
        if can_left and can_right:
            command = Command.TURN_LEFT if rng.uniform() < 0.5 else Command.TURN_RIGHT
        elif can_left:
            command = Command.TURN_LEFT
        else:
            command = Command.TURN_RIGHT
    d_target = {-1.0: -w, 0.0: 0.0, 1.0: w}[
        {Command.TURN_LEFT: -1.0, Command.GO_STRAIGHT: 0.0, Command.TURN_RIGHT: 1.0}[command]
    ]

    ego_speed = float(rng.uniform(*config.speed_range))
    # the executed speed may deviate from what the ego status reports
    executed_speed = ego_speed * (1.0 + float(rng.uniform(-1.0, 1.0)) * config.speed_jitter)
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

    agents: list[AgentPrediction] = []
    gt_futures: list[np.ndarray] = []
    n_agents = int(rng.integers(config.agent_count_range[0], config.agent_count_range[1] + 1))
    want_lead = rng.uniform() < config.lead_vehicle_probability
    n_slots = n_agents + int(want_lead)

    # boxes swept over ticks 0..t_f that a new agent must clear: row 0 is the
    # expert's, inflated by the clearance, and row 1 + i is placed agent i's
    box_xy = np.empty((1 + n_slots, t_f + 1, 2))
    box_heading = np.empty((1 + n_slots, t_f + 1))
    box_dims = np.empty((1 + n_slots, 1, 2))
    box_xy[0] = _swept_track(expert, ego.position)
    box_heading[0] = _swept_headings(expert, ego.position, ego.heading)
    box_dims[0, 0] = (
        config.ego_dims[0] + 2.0 * config.min_agent_clearance,
        config.ego_dims[1] + 2.0 * config.min_agent_clearance,
    )
    placed = 1
    for k in range(n_slots):
        is_lead = want_lead and k == 0
        for _attempt in range(30):
            size = (float(rng.uniform(4.2, 4.9)), float(rng.uniform(1.7, 2.0)))
            if is_lead:
                # slower vehicle ahead in the ego lane; the initial gap covers
                # the closure over the horizon plus a sampled safety margin
                lane = ego_lane
                d = float(rng.uniform(-0.2, 0.2))
                speed = executed_speed * float(rng.uniform(0.55, 0.9))
                closure = (executed_speed - speed) * t_f * dt
                s0 = (
                    (config.ego_dims[0] + size[0]) / 2.0
                    + config.min_agent_clearance
                    + closure
                    + float(rng.uniform(*config.lead_gap_slack))
                )
            else:
                lane = int(rng.integers(0, n_lanes))
                d = lane_offsets[lane] + float(rng.uniform(-0.3, 0.3))
                s0 = float(rng.uniform(-0.5, 0.9)) * s_max
                speed = float(rng.uniform(*config.agent_speed_range))

            start = Point2(*road.point(s0, d))
            heading = road.heading(s0)
            future = _lane_follow_track(road, s0, d, speed, dt, t_f)
            xy = _swept_track(future, start)
            headings = _swept_headings(future, start, heading)

            if oriented_rect_overlap(
                xy, headings, size, box_xy[:placed], box_heading[:placed], box_dims[:placed]
            ):
                continue

            n_k = config.mode_count
            modes = np.empty((n_k, t_f, 2), dtype=np.float64)
            scores = np.empty(n_k, dtype=np.float64)
            modes[0] = future
            scores[0] = 1.0
            for m in range(1, n_k):
                drift = rng.normal(0.0, config.mode_noise_std, size=(t_f, 2)).cumsum(axis=0)
                modes[m] = future + drift
                scores[m] = float(rng.uniform(0.05, 0.95))
            conf = float(rng.uniform(*config.agent_confidence_range))
            agents.append(
                AgentPrediction(
                    position=start,
                    heading=heading,
                    size=size,
                    confidence=conf,
                    modes=modes,
                    mode_scores=scores,
                )
            )
            gt_futures.append(future)
            box_xy[placed] = xy
            box_heading[placed] = headings
            box_dims[placed, 0] = size
            placed += 1
            break

    return Scenario(
        map=map_vectors,
        agents=agents,
        agent_gt_futures=gt_futures,
        ego=ego,
        expert=expert,
        horizon_dt=dt,
        perception_range=config.perception_range,
    )


# ---------------------------------------------------------------------------
# scenario file I/O
#
# Scenario files are JSON with an explicit schema version.  Floats pass
# through Python's repr, which round-trips float64 exactly, and key order is
# fixed so re-saving a loaded scenario is byte-identical.


def scenario_to_dict(s: Scenario) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "t_future": s.t_future,
        "horizon_dt": s.horizon_dt,
        "perception_range": list(s.perception_range),
        "map": [
            {
                "kind": mv.kind.value,
                "confidence": mv.confidence,
                "drivable_side": mv.drivable_side,
                "points": [[p.x, p.y] for p in mv.points.points],
            }
            for mv in s.map
        ],
        "agents": [
            {
                "position": [a.position.x, a.position.y],
                "heading": a.heading,
                "size": list(a.size),
                "confidence": a.confidence,
                "mode_scores": a.mode_scores.tolist(),
                "modes": a.modes.tolist(),
            }
            for a in s.agents
        ],
        "agent_gt_futures": [f.tolist() for f in s.agent_gt_futures],
        "ego": {
            "position": [s.ego.position.x, s.ego.position.y],
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


def _field(data, key: str, where: str, decode):
    """A required field passed through `decode`; a value of the wrong type or
    form is a ScenarioFormatError that names the field's path."""
    value = _require(data, key, where)
    try:
        return decode(value)
    except (TypeError, ValueError, GeometryError) as e:
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
    return np.asarray(value, dtype=np.float64)


def scenario_from_dict(data: dict) -> Scenario:
    version = _require(data, "schema_version", "")
    if version != SCHEMA_VERSION:
        raise ScenarioFormatError(
            f"unsupported schema_version {version!r}, expected {SCHEMA_VERSION}"
        )
    t_f = _require(data, "t_future", "")

    map_vectors = []
    for i, mv in enumerate(_field(data, "map", "", _list)):
        where = f"map[{i}]."
        map_vectors.append(
            MapVector(
                kind=_field(mv, "kind", where, MapClass),
                points=_field(mv, "points", where, lambda v: Polyline(map(_pair, _list(v)))),
                confidence=_field(mv, "confidence", where, float),
                drivable_side=mv.get("drivable_side"),
            )
        )

    agents = []
    for i, a in enumerate(_field(data, "agents", "", _list)):
        where = f"agents[{i}]."
        agents.append(
            AgentPrediction(
                position=_field(a, "position", where, _point),
                heading=_field(a, "heading", where, float),
                size=_field(a, "size", where, _pair),
                confidence=_field(a, "confidence", where, float),
                modes=_field(a, "modes", where, _array),
                mode_scores=_field(a, "mode_scores", where, _array),
            )
        )

    ego_data = _require(data, "ego", "")
    ego = EgoState(
        position=_field(ego_data, "position", "ego.", _point),
        heading=_field(ego_data, "heading", "ego.", float),
        velocity=_field(ego_data, "velocity", "ego.", float),
        acceleration=_field(ego_data, "acceleration", "ego.", float),
        steering_angle=_field(ego_data, "steering_angle", "ego.", float),
        command=_field(ego_data, "command", "ego.", Command),
    )

    scenario = Scenario(
        map=map_vectors,
        agents=agents,
        agent_gt_futures=_field(
            data, "agent_gt_futures", "", lambda v: [_array(f) for f in _list(v)]
        ),
        ego=ego,
        expert=_field(data, "expert", "", _array),
        horizon_dt=_field(data, "horizon_dt", "", float),
        perception_range=_field(data, "perception_range", "", _pair),
    )
    if scenario.t_future != t_f:
        raise ScenarioFormatError(
            f"header t_future {t_f} does not match expert length {scenario.t_future}"
        )
    return scenario


def scenario_to_json(s: Scenario) -> str:
    return json.dumps(scenario_to_dict(s), indent=1, allow_nan=False)


def save_scenario(s: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(scenario_to_json(s))
        f.write("\n")


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ScenarioFormatError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}") from e
    if not isinstance(data, dict):
        raise ScenarioFormatError(f"{path}: top level must be an object")
    try:
        return scenario_from_dict(data)
    except ScenarioFormatError as e:
        raise ScenarioFormatError(f"{path}: {e}") from e
