"""Closed-loop rollout harness.

The planner replans every tick while scripted agents follow their
ground-truth futures.  Execution is teleport-to-first-waypoint (the planner
outputs waypoints, not controls), after which the whole scene is re-expressed
in the new ego frame for the next replan.  The frame of the initial scenario
acts as the world frame; per-tick collision and boundary-overstep flags are
evaluated there.

Also provides a learning-free baseline planner: projected gradient descent of
the constraint objective over the waypoints, with the imitation term replaced
by a second-difference smoothness prior since no expert is available at test
time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Protocol

import numpy as np

from .constraints import (
    ConstraintParams,
    LossResult,
    LossWeights,
    total_planning_loss,
)
from .errors import SimulationError
from .geometry import Point2, Polyline, oriented_rect_overlap
from .interact import InteractionParams, forward_plan
from .metrics import DEFAULT_EGO_DIMS, agent_pose_track, pose_oversteps_boundary
from .scene import (
    AgentPrediction,
    EgoState,
    MapClass,
    MapVector,
    PlanTrajectory,
    Scenario,
)


def _rotation(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def world_to_ego(points: np.ndarray, position: Point2, heading: float) -> np.ndarray:
    """Express world points in the ego frame anchored at (position, heading)."""
    rot = _rotation(math.pi / 2 - heading)
    return (np.atleast_2d(points) - [position.x, position.y]) @ rot.T


def ego_to_world(points: np.ndarray, position: Point2, heading: float) -> np.ndarray:
    rot = _rotation(heading - math.pi / 2)
    return np.atleast_2d(points) @ rot.T + [position.x, position.y]


def _heading_to_ego(world_heading: float, ego_heading: float) -> float:
    return math.atan2(
        math.sin(world_heading + math.pi / 2 - ego_heading),
        math.cos(world_heading + math.pi / 2 - ego_heading),
    )


class Planner(Protocol):
    def plan(self, scenario: Scenario) -> PlanTrajectory: ...


@dataclass
class SimState:
    """World pose of the ego plus the scene re-expressed in its frame."""

    scenario: Scenario  # world-frame source of truth
    tick: int
    ego_position: Point2
    ego_heading: float
    ego_velocity: float
    ego_acceleration: float
    ego_dims: tuple[float, float]
    view: Scenario  # current ego-frame scenario for the planner
    agent_positions: list[Point2]
    agent_headings: list[float]
    # each agent's world-frame (position, heading) per scripted tick; the
    # scripts never change during a rollout, so these are built once
    agent_tracks: list[list[tuple[Point2, float]]]

    @property
    def remaining_horizon(self) -> int:
        return self.scenario.t_future - self.tick

    @classmethod
    def initial(cls, scenario: Scenario, ego_dims: tuple[float, float] = DEFAULT_EGO_DIMS):
        return cls(
            scenario=scenario,
            tick=0,
            ego_position=scenario.ego.position,
            ego_heading=scenario.ego.heading,
            ego_velocity=scenario.ego.velocity,
            ego_acceleration=scenario.ego.acceleration,
            ego_dims=ego_dims,
            view=scenario,
            agent_positions=[a.position for a in scenario.agents],
            agent_headings=[a.heading for a in scenario.agents],
            agent_tracks=[agent_pose_track(scenario, i) for i in range(len(scenario.agents))],
        )


def _pad_future(track: np.ndarray, start_tick: int, t_f: int) -> np.ndarray:
    """Remaining ticks of a world-frame track, held at the last point."""
    remaining = track[start_tick:]
    if remaining.shape[0] == 0:
        remaining = track[-1:]
    pad = t_f - remaining.shape[0]
    if pad > 0:
        remaining = np.vstack([remaining, np.tile(remaining[-1], (pad, 1))])
    return remaining


def _build_view(
    scenario: Scenario,
    agent_tracks: list[list[tuple[Point2, float]]],
    tick: int,
    position: Point2,
    heading: float,
    velocity: float,
    acceleration: float,
    steering: float,
) -> Scenario:
    """Re-express the world scenario in the ego frame at the given pose."""
    t_f = scenario.t_future
    new_map = [
        MapVector(
            kind=mv.kind,
            points=Polyline(world_to_ego(mv.points.xy(), position, heading)),
            confidence=mv.confidence,
            drivable_side=mv.drivable_side,
        )
        for mv in scenario.map
    ]
    new_agents = []
    new_futures = []
    for i, (agent, track) in enumerate(zip(scenario.agents, agent_tracks)):
        if tick == 0:
            apos, aheading = agent.position, agent.heading
        else:
            apos, aheading = track[tick - 1]
        local_pos = world_to_ego(np.array([[apos.x, apos.y]]), position, heading)[0]
        modes = np.stack(
            [
                world_to_ego(_pad_future(mode, tick, t_f), position, heading)
                for mode in agent.modes
            ]
        )
        future = world_to_ego(
            _pad_future(scenario.agent_gt_futures[i], tick, t_f), position, heading
        )
        new_agents.append(
            AgentPrediction(
                position=Point2(float(local_pos[0]), float(local_pos[1])),
                heading=_heading_to_ego(aheading, heading),
                size=agent.size,
                confidence=agent.confidence,
                modes=modes,
                mode_scores=agent.mode_scores.copy(),
            )
        )
        new_futures.append(future)
    expert = world_to_ego(_pad_future(scenario.expert, tick, t_f), position, heading)
    ego = EgoState(
        position=Point2(0.0, 0.0),
        heading=math.pi / 2,
        velocity=velocity,
        acceleration=acceleration,
        steering_angle=steering,
        command=scenario.ego.command,
    )
    return Scenario(
        map=new_map,
        agents=new_agents,
        agent_gt_futures=new_futures,
        ego=ego,
        expert=expert,
        horizon_dt=scenario.horizon_dt,
        perception_range=scenario.perception_range,
    )


def step(state: SimState, executed_plan: PlanTrajectory) -> SimState:
    """Advance one tick: ego jumps to the plan's first waypoint, agents follow
    their scripts, and the scene is re-expressed in the new ego frame."""
    if state.remaining_horizon <= 0:
        raise SimulationError(f"horizon exhausted at tick {state.tick}")
    scenario = state.scenario
    dt = scenario.horizon_dt
    first = executed_plan.waypoints[0]
    new_pos_arr = ego_to_world(first[None, :], state.ego_position, state.ego_heading)[0]
    new_pos = Point2(float(new_pos_arr[0]), float(new_pos_arr[1]))
    step_world = new_pos_arr - [state.ego_position.x, state.ego_position.y]
    if step_world[0] != 0.0 or step_world[1] != 0.0:
        new_heading = math.atan2(step_world[1], step_world[0])
    else:
        new_heading = state.ego_heading
    new_velocity = float(math.hypot(step_world[0], step_world[1]) / dt)
    new_accel = (new_velocity - state.ego_velocity) / dt
    yaw_rate = math.atan2(
        math.sin(new_heading - state.ego_heading), math.cos(new_heading - state.ego_heading)
    )

    new_tick = state.tick + 1
    poses = [track[new_tick - 1] for track in state.agent_tracks]
    view = _build_view(
        scenario, state.agent_tracks, new_tick,
        new_pos, new_heading, new_velocity, new_accel, yaw_rate,
    )
    return SimState(
        scenario=scenario,
        tick=new_tick,
        ego_position=new_pos,
        ego_heading=new_heading,
        ego_velocity=new_velocity,
        ego_acceleration=new_accel,
        ego_dims=state.ego_dims,
        view=view,
        agent_positions=[pos for pos, _ in poses],
        agent_headings=[heading for _, heading in poses],
        agent_tracks=state.agent_tracks,
    )


# ---------------------------------------------------------------------------
# planners


def constant_velocity_plan(scenario: Scenario) -> PlanTrajectory:
    """Straight-ahead plan at the current ego speed."""
    t_f = scenario.t_future
    ys = np.arange(1, t_f + 1) * scenario.ego.velocity * scenario.horizon_dt
    return PlanTrajectory(np.column_stack([np.zeros(t_f), ys]))


class ConstantVelocityPlanner:
    def plan(self, scenario: Scenario) -> PlanTrajectory:
        return constant_velocity_plan(scenario)


class ExpertPlanner:
    """Returns the scenario's expert trajectory (debug / pass-through)."""

    def plan(self, scenario: Scenario) -> PlanTrajectory:
        return PlanTrajectory(scenario.expert.copy())


class ModelPlanner:
    """Wraps a trained interaction network."""

    def __init__(self, params: InteractionParams):
        self.params = params

    def plan(self, scenario: Scenario) -> PlanTrajectory:
        return forward_plan(scenario, self.params).plan


@dataclass
class RefinePlanner:
    """Learning-free baseline: refine a constant-velocity seed plan by
    projected gradient descent on the constraint objective."""

    params: ConstraintParams = field(default_factory=ConstraintParams)
    weights: LossWeights = field(default_factory=LossWeights)
    steps: int = 60
    step_size: float = 0.2

    def plan(self, scenario: Scenario) -> PlanTrajectory:
        return refine_trajectory(
            constant_velocity_plan(scenario),
            scenario,
            self.params,
            self.weights,
            self.steps,
            self.step_size,
        )


def smoothness_loss(plan: PlanTrajectory) -> LossResult:
    """Mean squared second difference of the waypoints (origin prepended).

    Stands in for the imitation term when refining without an expert.
    """
    w = plan.waypoints
    t_f = w.shape[0]
    q = np.vstack([np.zeros((1, 2)), w])
    grad = np.zeros_like(w)
    if t_f < 2:
        return LossResult(0.0, grad)
    second = q[2:] - 2.0 * q[1:-1] + q[:-2]
    n = second.shape[0]
    value = float((second**2).sum() / n)
    coeff = 2.0 * second / n
    # second difference k is w[k+1] - 2 w[k] + w[k-1], with w[-1] the fixed
    # origin; each waypoint sums its +1/-2/+1 shares in order of k
    grad[1:] += coeff
    grad[:-1] -= 2.0 * coeff
    grad[:-2] += coeff[1:]
    return LossResult(value, grad)


def refine_trajectory(
    seed_plan: PlanTrajectory,
    scenario: Scenario,
    params: ConstraintParams,
    weights: LossWeights,
    steps: int,
    step_size: float,
) -> PlanTrajectory:
    """Projected gradient descent on the planning constraints.

    The imitation weight is applied to the smoothness prior instead of the
    expert term.  Waypoints are clamped to the perception range after every
    step, and the best iterate seen (by objective value) is returned, so the
    result never scores worse than the seed.  The objective runs once per
    iterate: the evaluation that scores an iterate also gives the gradient
    of the next step.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if step_size <= 0.0:
        raise ValueError(f"step_size must be positive, got {step_size}")
    long_half = scenario.perception_range[0] / 2.0
    lat_half = scenario.perception_range[1] / 2.0
    no_imitation = LossWeights(
        map=weights.map,
        motion=weights.motion,
        collision=weights.collision,
        boundary=weights.boundary,
        direction=weights.direction,
        imitation=0.0,
    )

    def objective(plan: PlanTrajectory) -> LossResult:
        res = total_planning_loss(plan, scenario, params, no_imitation)
        smooth = smoothness_loss(plan)
        return LossResult(
            res.value + weights.imitation * smooth.value,
            res.grad + weights.imitation * smooth.grad,
        )

    current = seed_plan.waypoints.copy()
    res = objective(PlanTrajectory(current))
    best_value = res.value
    best = current.copy()
    for _ in range(steps):
        current = current - step_size * res.grad
        current[:, 0] = np.clip(current[:, 0], -lat_half, lat_half)
        current[:, 1] = np.clip(current[:, 1], -long_half, long_half)
        res = objective(PlanTrajectory(current))
        if res.value < best_value:
            best_value = res.value
            best = current.copy()
    return PlanTrajectory(best)


# ---------------------------------------------------------------------------
# rollout logging


@dataclass
class TickRecord:
    tick: int
    plan: np.ndarray  # (T_f, 2) in the frame it was planned in
    ego_position: Point2  # world frame
    ego_heading: float
    agent_positions: list[Point2]
    agent_headings: list[float]
    collision: bool
    boundary_overstep: bool
    losses: dict[str, float]


ROLLOUT_COLUMNS = [
    "tick", "ego_x", "ego_y", "ego_heading", "collision", "boundary_overstep",
    "loss_collision", "loss_boundary", "loss_direction", "loss_imitation",
]


@dataclass
class RolloutLog:
    records: list[TickRecord] = field(default_factory=list)

    @property
    def collision_count(self) -> int:
        return sum(r.collision for r in self.records)

    @property
    def overstep_count(self) -> int:
        return sum(r.boundary_overstep for r in self.records)

    def to_table(self) -> str:
        lines = [",".join(ROLLOUT_COLUMNS)]
        for r in self.records:
            lines.append(
                ",".join(
                    [
                        str(r.tick),
                        repr(r.ego_position.x),
                        repr(r.ego_position.y),
                        repr(r.ego_heading),
                        str(int(r.collision)),
                        str(int(r.boundary_overstep)),
                        repr(r.losses["collision"]),
                        repr(r.losses["boundary"]),
                        repr(r.losses["direction"]),
                        repr(r.losses["imitation"]),
                    ]
                )
            )
        return "\n".join(lines) + "\n"


def run_closed_loop(
    scenario: Scenario,
    planner: Planner,
    ticks: int,
    ego_dims: tuple[float, float] = DEFAULT_EGO_DIMS,
    constraint_params: Optional[ConstraintParams] = None,
) -> RolloutLog:
    """Replan-execute loop over `ticks` steps of the scripted scene."""
    if ticks > scenario.t_future:
        raise SimulationError(
            f"requested {ticks} ticks but the scenario scripts only {scenario.t_future}"
        )
    cparams = constraint_params if constraint_params is not None else ConstraintParams()
    state = SimState.initial(scenario, ego_dims)
    log = RolloutLog()
    for _ in range(ticks):
        plan = planner.plan(state.view)
        losses = total_planning_loss(plan, state.view, cparams, LossWeights()).breakdown
        state = step(state, plan)

        collision = oriented_rect_overlap(
            state.ego_position, state.ego_heading, state.ego_dims,
            np.array([(p.x, p.y) for p in state.agent_positions]).reshape(-1, 2),
            state.agent_headings,
            np.array([a.size for a in scenario.agents]).reshape(-1, 2),
        )
        boundaries = [m for m in scenario.map if m.kind == MapClass.ROAD_BOUNDARY]
        overstep = pose_oversteps_boundary(
            boundaries, [(state.ego_position, state.ego_heading)], state.ego_dims
        )

        log.records.append(
            TickRecord(
                tick=state.tick,
                plan=plan.waypoints.copy(),
                ego_position=state.ego_position,
                ego_heading=state.ego_heading,
                agent_positions=list(state.agent_positions),
                agent_headings=list(state.agent_headings),
                collision=collision,
                boundary_overstep=overstep,
                losses=losses,
            )
        )
    return log
