"""Open-loop planning metrics and the constraint/interaction ablation sweep.

Displacement error compares planned and expert waypoints at fixed horizons;
the collision rate is cumulative and box-aware: a sample counts as colliding
at horizon h if the ego footprint placed on any planned waypoint up to h
overlaps any agent's ground-truth box at the same tick.  These are artifact
protocol numbers for synthetic scenes, not comparable to published benchmark
absolutes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError
from .geometry import (
    Poses,
    PolylineSet,
    box_frame,
    closest_polyline,
    oriented_rect_margin,
    pose_track,
    rect_corners,
)
from .scene import MapClass, PlanTrajectory, Scenario

DEFAULT_HORIZONS = (1.0, 2.0, 3.0)
DEFAULT_EGO_DIMS = (4.0, 1.85)


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
            f"horizon {h} s needs tick {tick}, but the plan covers 1..{t_f}"
        )
    return tick


def displacement_error(
    plan: PlanTrajectory,
    expert: np.ndarray,
    horizon_dt: float,
    horizons: Sequence[float] = DEFAULT_HORIZONS,
) -> HorizonStats:
    """L2 distance between planned and expert waypoints at each horizon."""
    expert = np.asarray(expert, dtype=np.float64)
    t_f = plan.horizon
    values = []
    for h in horizons:
        tick = _horizon_tick(h, horizon_dt, t_f)
        d = plan.waypoints[tick - 1] - expert[tick - 1]
        values.append(float(math.hypot(d[0], d[1])))
    return HorizonStats(tuple(horizons), tuple(values), float(np.mean(values)))


def plan_pose_track(plan: PlanTrajectory) -> Poses:
    """Pose of the ego at each planned tick, leaving the origin heading +y."""
    return pose_track(plan.waypoints, (0.0, 0.0), math.pi / 2)


def agent_pose_track(scenario: Scenario, agent_index: int) -> Poses:
    """Pose of an agent along its ground-truth future."""
    agent = scenario.agents[agent_index]
    return pose_track(scenario.agent_gt_futures[agent_index], agent.position, agent.heading)


def agent_boxes(scenario: Scenario) -> tuple[Poses, np.ndarray]:
    """Every agent's box at ticks 0..T: (A, T + 1, 2) positions and
    (A, T + 1) headings, row 0 its current pose and then its ground-truth
    future, and the (A, 2) box sizes."""
    shape = (len(scenario.agents), scenario.t_future + 1)
    poses = Poses(np.empty(shape + (2,)), np.empty(shape))
    sizes = np.empty((shape[0], 2))
    for i, agent in enumerate(scenario.agents):
        poses.xy[i, 0] = agent.position
        poses.heading[i, 0] = agent.heading
        poses.xy[i, 1:], poses.heading[i, 1:] = agent_pose_track(scenario, i)
        sizes[i] = agent.size
    return poses, sizes


def collision_ticks(
    scenario: Scenario,
    plan: PlanTrajectory,
    ego_dims: tuple[float, float] = DEFAULT_EGO_DIMS,
) -> list[bool]:
    """Per-tick flags: does the ego box on the plan hit any agent's gt box?"""
    ego = plan_pose_track(plan)
    ticks = slice(1, plan.horizon + 1)
    agents, sizes = agent_boxes(scenario)
    # one margin per (agent, tick) pair: the ego's box at each tick against
    # every agent's box at the same tick
    margin = oriented_rect_margin(
        box_frame(ego.xy, ego.heading, ego_dims),
        box_frame(agents.xy[:, ticks], agents.heading[:, ticks], sizes[:, None]),
    )
    return (margin >= 0.0).any(axis=0).tolist()


def collision_rate(
    scenarios: Sequence[Scenario],
    plans: Sequence[PlanTrajectory],
    ego_dims: tuple[float, float] = DEFAULT_EGO_DIMS,
    horizons: Sequence[float] = DEFAULT_HORIZONS,
) -> HorizonStats:
    """Cumulative open-loop collision rate (percent) at each horizon."""
    if len(scenarios) != len(plans):
        raise ConfigError(f"{len(scenarios)} scenarios vs {len(plans)} plans")
    flags = [collision_ticks(s, p, ego_dims) for s, p in zip(scenarios, plans)]
    return _cumulative_rate(scenarios, plans, flags, horizons)


def _cumulative_rate(scenarios, plans, flags, horizons) -> HorizonStats:
    """Percent of scenarios whose per-tick flags hold by each horizon."""
    if not scenarios:
        return HorizonStats(tuple(horizons), tuple(0.0 for _ in horizons), 0.0)
    counts = np.zeros(len(horizons))
    for scenario, plan, hits in zip(scenarios, plans, flags):
        for i, h in enumerate(horizons):
            tick = _horizon_tick(h, scenario.horizon_dt, plan.horizon)
            if any(hits[:tick]):
                counts[i] += 1
    rates = tuple(float(c) * 100.0 / len(scenarios) for c in counts)
    return HorizonStats(tuple(horizons), rates, float(np.mean(rates)))


def pose_oversteps_boundary(
    boundaries: Sequence,
    xy,
    heading,
    ego_dims: tuple[float, float],
) -> bool:
    """Does any corner of the ego box at any pose, (..., 2) positions and
    (...) headings, sit on the non-drivable side of its nearest labeled
    boundary?

    A corner exactly on the boundary line counts as on the drivable side.
    """
    labeled = [m for m in boundaries if m.drivable_side]
    if not labeled:
        return False
    corners = rect_corners(xy, heading, ego_dims).reshape(-1, 2)
    hit = closest_polyline(corners, PolylineSet([m.points for m in labeled]))
    a, b = hit.start, hit.end
    cross = (b[:, 0] - a[:, 0]) * (corners[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (
        corners[:, 0] - a[:, 0]
    )
    drivable_left = np.array([m.drivable_side == "left" for m in labeled])[hit.poly]
    return bool(np.where(drivable_left, cross < 0.0, cross > 0.0).any())


def boundary_overstep(
    scenario: Scenario,
    plan: PlanTrajectory,
    ego_dims: tuple[float, float] = DEFAULT_EGO_DIMS,
    max_tick: Optional[int] = None,
) -> bool:
    """Does the planned ego footprint cross a boundary at any tick?

    Uses the generator-provided side labels; boundaries without a label are
    skipped.
    """
    boundaries = [m for m in scenario.map if m.kind == MapClass.ROAD_BOUNDARY]
    ego = plan_pose_track(plan)
    return pose_oversteps_boundary(
        boundaries, ego.xy[:max_tick], ego.heading[:max_tick], ego_dims
    )


def plan_metrics(
    scenarios: Sequence[Scenario],
    plans: Sequence[PlanTrajectory],
    ego_dims: tuple[float, float] = DEFAULT_EGO_DIMS,
    horizons: Sequence[float] = DEFAULT_HORIZONS,
) -> PlanMetrics:
    """Aggregate the full open-loop metric set over a scenario/plan pairing."""
    if len(scenarios) != len(plans):
        raise ConfigError(f"{len(scenarios)} scenarios vs {len(plans)} plans")
    per_horizon = []
    for scenario, plan in zip(scenarios, plans):
        per_horizon.append(
            displacement_error(plan, scenario.expert, scenario.horizon_dt, horizons).values
        )
    if per_horizon:
        l2_values = tuple(float(v) for v in np.mean(per_horizon, axis=0))
    else:
        l2_values = tuple(0.0 for _ in horizons)
    l2 = HorizonStats(tuple(horizons), l2_values, float(np.mean(l2_values)) if l2_values else 0.0)
    flags = [collision_ticks(s, p, ego_dims) for s, p in zip(scenarios, plans)]
    collision = _cumulative_rate(scenarios, plans, flags, horizons)
    if scenarios:
        max_tick = _horizon_tick(max(horizons), scenarios[0].horizon_dt, plans[0].horizon)
        oversteps = sum(
            boundary_overstep(s, p, ego_dims, max_tick) for s, p in zip(scenarios, plans)
        )
        overstep_rate = oversteps * 100.0 / len(scenarios)
    else:
        overstep_rate = 0.0
    return PlanMetrics(l2=l2, collision=collision, boundary_overstep_rate=overstep_rate)


# ---------------------------------------------------------------------------
# ablation sweep


@dataclass(frozen=True)
class AblationArm:
    """One row of the ablation: interaction and constraint toggles."""

    name: str
    agent_interaction: bool = True
    map_interaction: bool = True
    collision_constraint: bool = True
    boundary_constraint: bool = True
    direction_constraint: bool = True


@dataclass
class AblationRow:
    arm: AblationArm
    metrics: PlanMetrics
    collision_count_3s: int


@dataclass
class AblationReport:
    rows: list[AblationRow]
    eval_count: int

    CSV_COLUMNS = [
        "arm", "agent_inter", "map_inter", "col_const", "bd_const", "dir_const",
        "l2_1s", "l2_2s", "l2_3s", "l2_avg",
        "cr_1s", "cr_2s", "cr_3s", "cr_avg",
    ]

    def to_csv(self) -> str:
        lines = [",".join(self.CSV_COLUMNS)]
        for row in self.rows:
            arm, m = row.arm, row.metrics
            toggles = (arm.agent_interaction, arm.map_interaction, arm.collision_constraint,
                       arm.boundary_constraint, arm.direction_constraint)
            values = [*m.l2.values, m.l2.avg, *m.collision.values, m.collision.avg]
            lines.append(",".join([arm.name, *(str(int(t)) for t in toggles), *map(repr, values)]))
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        header = (
            f"{'arm':<18}{'AgI':>4}{'MapI':>5}{'Col':>4}{'Bd':>4}{'Dir':>4}"
            f"{'L2@1s':>8}{'L2@2s':>8}{'L2@3s':>8}{'L2avg':>8}"
            f"{'CR@1s':>8}{'CR@2s':>8}{'CR@3s':>8}{'CRavg':>8}"
        )
        mark = lambda b: "x" if b else "-"
        lines = [header, "-" * len(header)]
        for row in self.rows:
            arm = row.arm
            m = row.metrics
            lines.append(
                f"{arm.name:<18}{mark(arm.agent_interaction):>4}{mark(arm.map_interaction):>5}"
                f"{mark(arm.collision_constraint):>4}{mark(arm.boundary_constraint):>4}"
                f"{mark(arm.direction_constraint):>4}"
                + "".join(f"{v:8.3f}" for v in m.l2.values)
                + f"{m.l2.avg:8.3f}"
                + "".join(f"{v:8.2f}" for v in m.collision.values)
                + f"{m.collision.avg:8.2f}"
            )
        lines.append(f"(open-loop over {self.eval_count} synthetic scenarios; artifact protocol)")
        return "\n".join(lines) + "\n"


def ablation_report(
    arms: Sequence[AblationArm],
    train_config,
    gen_config,
    interact_config=None,
    constraint_params=None,
    eval_count: int = 200,
    eval_seed_offset: int = 900_000,
    ego_dims: tuple[float, float] = DEFAULT_EGO_DIMS,
    progress=None,
) -> AblationReport:
    """Train one model per arm (identical except toggles) and evaluate all
    arms open-loop on the same seeded scenario set."""
    from dataclasses import replace as dc_replace

    from .interact import InteractionConfig, forward_plan
    from .learning import train
    from .scene import generate_scenario

    if interact_config is None:
        interact_config = InteractionConfig(t_future=gen_config.t_future)

    eval_set = [
        generate_scenario(eval_seed_offset + i, gen_config) for i in range(eval_count)
    ]
    rows = []
    for arm in arms:
        arm_interact = dc_replace(
            interact_config,
            use_agent_interaction=arm.agent_interaction,
            use_map_interaction=arm.map_interaction,
        )
        arm_weights = dc_replace(
            train_config.weights,
            collision=train_config.weights.collision if arm.collision_constraint else 0.0,
            boundary=train_config.weights.boundary if arm.boundary_constraint else 0.0,
            direction=train_config.weights.direction if arm.direction_constraint else 0.0,
        )
        arm_train = dc_replace(train_config, weights=arm_weights)
        params, _log = train(arm_train, gen_config, arm_interact, constraint_params)
        plans = [forward_plan(s, params).plan for s in eval_set]
        metrics = plan_metrics(eval_set, plans, ego_dims)
        # the 3 s rate is count * 100 / eval_count; round back to the count
        rate_3s = metrics.collision.values[DEFAULT_HORIZONS.index(3.0)]
        count_3s = round(rate_3s * eval_count / 100.0)
        rows.append(AblationRow(arm=arm, metrics=metrics, collision_count_3s=count_3s))
        if progress is not None:
            progress(rows[-1])
    return AblationReport(rows=rows, eval_count=eval_count)
