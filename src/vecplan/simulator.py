"""Closed-loop rollout harness.

The planner replans every tick while scripted agents follow their
ground-truth futures.  Execution is teleport-to-first-waypoint (the planner
outputs waypoints, not controls), after which the whole scene is re-expressed
in the new ego frame for the next replan.  The frame of the initial scenario
acts as the world frame, where `run_closed_loop` scores the executed ego
track with the open-loop metric kernels.

Also provides a learning-free baseline planner: projected gradient descent of
the constraint objective over the waypoints, with the imitation term replaced
by a second-difference smoothness prior since no expert is available at test
time.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Optional, Protocol

import numpy as np

from .constraints import (
    ConstraintParams,
    LossResult,
    LossWeights,
    constraint_terms,
    total_planning_loss,
    weighted_sum,
)
from .errors import CheckpointError, ScenarioFormatError, SimulationError
from .geometry import Point2, Poses, pose_track
from .interact import InteractionParams, forward_plan
from .metrics import DEFAULT_EGO_DIMS, agent_pose_track, boundary_overstep, collision_ticks
from .scene import EgoState, PackedScene, PlanTrajectory, Scenario, pack


def _rotation(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def world_to_ego(points: np.ndarray, position: Point2, heading: float) -> np.ndarray:
    """Express world points in the ego frame anchored at (position, heading)."""
    rot = _rotation(math.pi / 2 - heading)
    return (np.atleast_2d(points) - position) @ rot.T


def ego_to_world(points: np.ndarray, position: Point2, heading: float) -> np.ndarray:
    rot = _rotation(heading - math.pi / 2)
    return np.atleast_2d(points) @ rot.T + position


def _wrap_angle(angle: float) -> float:
    """`angle` wrapped to [-pi, pi]."""
    return math.atan2(math.sin(angle), math.cos(angle))


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
    view: Scenario  # current ego-frame scenario for the planner
    # each agent's world-frame pose at ticks 0..T, (A, T + 1, 2) positions and
    # (A, T + 1) headings, row 0 its current pose and then its ground-truth
    # future; the scripts never change during a rollout, so this is built once
    agent_poses: Poses

    @property
    def remaining_horizon(self) -> int:
        return self.scenario.t_future - self.tick

    @property
    def agent_positions(self) -> np.ndarray:  # (A, 2), world frame
        return self.agent_poses.xy[:, self.tick]

    @property
    def agent_headings(self) -> np.ndarray:  # (A,), world frame
        return self.agent_poses.heading[:, self.tick]

    @classmethod
    def initial(cls, scenario: Scenario):
        future = agent_pose_track([scenario], scenario.t_future)
        poses = Poses(np.concatenate([scenario.agent_xy[:, None], future.xy], axis=1),
                      np.concatenate([scenario.agent_heading[:, None], future.heading], axis=1))
        return cls(
            scenario=scenario,
            tick=0,
            ego_position=scenario.ego.position,
            ego_heading=scenario.ego.heading,
            ego_velocity=scenario.ego.velocity,
            ego_acceleration=scenario.ego.acceleration,
            view=scenario,
            agent_poses=poses,
        )


def _build_view(
    scenario: Scenario,
    agent_poses: Poses,
    tick: int,
    position: Point2,
    heading: float,
    velocity: float,
    acceleration: float,
    steering: float,
) -> Scenario:
    """Re-express the world scenario in the ego frame at the given pose.

    Each track (agent modes and futures, the expert) keeps its ticks from
    `tick` on, held at its last point.  One `world_to_ego` call each moves
    the stacked tracks, the map and the agent positions: a stacked matmul
    gives each row block the bits of a call of its own.  The view is built
    like any scene, from the moved arrays and the rest of the scenario's.
    """
    t_f = scenario.t_future
    ticks = np.minimum(np.arange(tick, tick + t_f), t_f - 1)
    # the modes, then the ground-truth futures and the expert
    k = len(scenario.agent_modes)
    tracks = np.concatenate([scenario.agent_modes, scenario.agent_future, scenario.expert[None]])
    tracks = world_to_ego(tracks[:, ticks], position, heading)
    ego = EgoState(Point2(0.0, 0.0), math.pi / 2, velocity, acceleration, steering,
                   scenario.ego.command)
    return dataclasses.replace(
        scenario,
        ego=ego,
        expert=tracks[-1],
        agent_xy=world_to_ego(agent_poses.xy[:, tick, None], position, heading)[:, 0],
        # the scalar wrap, one `math.atan2` per agent: numpy's rounds differently
        agent_heading=[
            _wrap_angle(h + math.pi / 2 - heading) for h in agent_poses.heading[:, tick].tolist()
        ],
        agent_future=tracks[k:-1],
        agent_modes=tracks[:k],
        map_xy=world_to_ego(scenario.map_xy, position, heading),
    )


def step(state: SimState, executed_plan: PlanTrajectory) -> SimState:
    """Advance one tick: ego jumps to the plan's first waypoint, agents follow
    their scripts, and the scene is re-expressed in the new ego frame."""
    if state.remaining_horizon <= 0:
        raise SimulationError(f"horizon exhausted at tick {state.tick}")
    scenario = state.scenario
    dt = scenario.horizon_dt
    new_xy = ego_to_world(executed_plan.waypoints[:1], state.ego_position, state.ego_heading)
    new_pos = Point2(*new_xy[0].tolist())
    new_heading = float(pose_track(new_xy, state.ego_position, state.ego_heading).heading[0])
    step_world = new_xy[0] - state.ego_position
    new_velocity = float(math.hypot(step_world[0], step_world[1]) / dt)
    new_accel = (new_velocity - state.ego_velocity) / dt
    yaw_rate = _wrap_angle(new_heading - state.ego_heading)

    new_tick = state.tick + 1
    view = _build_view(
        scenario, state.agent_poses, new_tick,
        new_pos, new_heading, new_velocity, new_accel, yaw_rate,
    )
    # the scenario and the agents' pose arrays carry over
    return dataclasses.replace(
        state, tick=new_tick, ego_position=new_pos, ego_heading=new_heading,
        ego_velocity=new_velocity, ego_acceleration=new_accel, view=view,
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
        try:
            return forward_plan(scenario, self.params).plan
        except ScenarioFormatError as e:
            # the scene's inputs are finite: the parameters overflow the network
            raise CheckpointError(f"the model's parameters give {e}") from e


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
            pack(scenario, self.params),
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
    if t_f < 2:
        return LossResult(0.0, np.zeros(w.shape))
    # 2 x is taken as x + x throughout: the same bits, with no scalar
    # operand for numpy to convert
    q = np.zeros((t_f + 1, 2))
    q[1:] = w
    second = q[2:] - (q[1:-1] + q[1:-1])
    second += q[:-2]
    n = t_f - 1
    value = float(np.add.reduce(second * second, axis=None) / n)
    # second difference k is w[k+1] - 2 w[k] + w[k-1], with w[-1] the fixed
    # origin; each waypoint sums its +1/-2/+1 shares in order of k, from
    # the coefficients 2 second / n padded with zeros, one before, two after
    coeff = np.zeros((t_f + 2, 2))
    np.add(second, second, out=coeff[1:-2])
    coeff /= n
    grad = coeff[:-2] + 0.0
    grad -= coeff[1:-1] + coeff[1:-1]
    grad += coeff[2:]
    return LossResult(value, grad)


def refine_trajectory(
    seed_plan: PlanTrajectory,
    packed: PackedScene,
    weights: LossWeights,
    steps: int,
    step_size: float,
) -> PlanTrajectory:
    """Projected gradient descent on the planning constraints.

    The objective is collision + boundary + direction + the imitation
    weight times the smoothness prior, which stands in for the expert term,
    on the packed scene under the parameters it was packed with.  Waypoints
    are clamped to the perception range after every step, and the best
    iterate seen (by objective value) is returned, so the result never
    scores worse than the seed.  The objective runs once per iterate: the
    evaluation that scores an iterate also gives the gradient of the next
    step.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if not 0.0 < step_size < math.inf:
        raise ValueError(f"step_size must be positive and finite, got {step_size}")
    # (lateral, longitudinal) half extents of the perception range, one row
    # a waypoint: a clamp of whole arrays is cheaper than one broadcast
    long_extent, lat_extent = packed.scenario.perception_range
    high = np.tile((lat_extent / 2.0, long_extent / 2.0), (seed_plan.horizon, 1))
    low = -high

    # Each iterate is a new array, so its plan adopts it, checked in place
    # rather than copied; a plan is read-only, so an iterate is kept as its
    # plan.
    #
    # The expert term has no place here, not even at weight 0: 0 x its
    # gradient is a signed zero, and adding it could only flip the sign of a
    # zero gradient entry.  Such a sign moves an iterate only where a
    # waypoint is -0.0, and the descent never makes one: x - x is +0.0 and
    # the clamps are non-zero, so a -0.0 can only come from the seed plan,
    # and a constant-velocity seed has one only at an ego velocity of -0.0.
    plan = seed_plan
    for step in range(steps + 1):
        if step:
            current = plan.waypoints - step_size * res.grad
            np.minimum(np.maximum(current, low, out=current), high, out=current)
            plan = PlanTrajectory.adopt(current)
        col, bd, dr = constraint_terms(plan, packed)
        res = weighted_sum(((weights.collision, col), (weights.boundary, bd),
                            (weights.direction, dr), (weights.imitation, smoothness_loss(plan))))
        if not step or res.value < best_value:
            best_value, best = res.value, plan
    return best


# ---------------------------------------------------------------------------
# rollout logging


@dataclass
class TickRecord:
    tick: int
    plan: np.ndarray  # (T_f, 2) in the frame it was planned in
    ego_position: Point2  # world frame
    ego_heading: float
    agent_positions: np.ndarray  # (A, 2) world frame
    agent_headings: np.ndarray  # (A,)
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

    def to_table(self) -> str:
        lines = [",".join(ROLLOUT_COLUMNS)]
        for r in self.records:
            pose = [repr(v) for v in (r.ego_position.x, r.ego_position.y, r.ego_heading)]
            flags = [str(int(r.collision)), str(int(r.boundary_overstep))]
            losses = [repr(r.losses[c.removeprefix("loss_")]) for c in ROLLOUT_COLUMNS[6:]]
            lines.append(",".join([str(r.tick), *pose, *flags, *losses]))
        return "\n".join(lines) + "\n"


def run_closed_loop(
    scenario: Scenario,
    planner: Planner,
    ticks: int,
    ego_dims: tuple[float, float] = DEFAULT_EGO_DIMS,
    constraint_params: Optional[ConstraintParams] = None,
) -> RolloutLog:
    """Replan-execute loop over `ticks` steps of the scripted scene.  The
    executed ego track, a one-scene pose track in the world frame, is then
    scored by one `collision_ticks` call, against the agents' poses the
    rollout tracked once, and one `boundary_overstep` call."""
    if ticks > scenario.t_future:
        raise SimulationError(
            f"requested {ticks} ticks but the scenario scripts only {scenario.t_future}"
        )
    cparams = constraint_params if constraint_params is not None else ConstraintParams()
    state = SimState.initial(scenario)
    ticked = []
    for _ in range(ticks):
        plan = planner.plan(state.view)
        losses = total_planning_loss(plan, pack(state.view, cparams), LossWeights()).breakdown
        state = step(state, plan)
        ticked.append((state, plan, losses))
    executed = Poses(np.array([s.ego_position for s, _, _ in ticked]).reshape(1, ticks, 2),
                     np.array([s.ego_heading for s, _, _ in ticked]).reshape(1, ticks))
    # the agents at ticks 1..ticks, laid out as `agent_pose_track` lays them
    agents = Poses(*(np.ascontiguousarray(a[:, 1 : ticks + 1]) for a in state.agent_poses))
    collisions = collision_ticks([scenario], executed, ego_dims, agents)[0].tolist()
    oversteps = boundary_overstep([scenario], executed, ego_dims)[0].tolist()
    return RolloutLog([
        TickRecord(
            tick=state.tick,
            plan=plan.waypoints.copy(),
            ego_position=state.ego_position,
            ego_heading=state.ego_heading,
            agent_positions=state.agent_positions.copy(),
            agent_headings=state.agent_headings.copy(),
            collision=collision,
            boundary_overstep=overstep,
            losses=losses,
        )
        for (state, plan, losses), collision, overstep in zip(ticked, collisions, oversteps)
    ])
