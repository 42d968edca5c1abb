"""Instance-level planning constraints with analytic plan gradients.

Three hinge constraints regularize a planned trajectory against the
vectorized scene: keep a per-axis safety margin to nearby agents, keep clear
of road boundaries, and align per-step motion with the nearest lane divider.
Together with an L1 imitation term they form the planning objective.  Every
loss returns its value and the exact subgradient with respect to the (T_f, 2)
plan waypoints, treating the discrete nearest-element assignments as fixed
(the losses are piecewise smooth; at hinge boundaries the inactive branch is
used and at L1/abs kinks the subgradient is zero).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ShapeError
from .geometry import (
    Point2,
    angular_difference,
    closest_polyline,
    closest_polyline_within,
)
from .scene import (
    AgentPrediction,
    MapClass,
    MapVector,
    PlanTrajectory,
    Scenario,
    best_mode,
    ego_vectors,
    filter_agents,
    filter_map,
)

COLLISION_MODES = ("per_axis", "single_nearest")


@dataclass(frozen=True)
class ConstraintParams:
    """Confidence thresholds and distance margins for the constraints.

    Distances are meters.  `agent_search_range` gates which agents are
    considered at each timestep; `lateral_safety` / `longitudinal_safety` are
    the per-axis margins below which the collision hinge activates;
    `boundary_clearance` and `divider_search_range` play the analogous roles
    for the boundary and direction constraints.
    """

    agent_min_confidence: float = 0.5
    map_min_confidence: float = 0.5
    agent_search_range: float = 3.0
    boundary_clearance: float = 1.0
    divider_search_range: float = 2.0
    lateral_safety: float = 1.5
    longitudinal_safety: float = 3.0
    # divergence knob (see module docs): "per_axis" takes independent
    # per-direction minima over the in-radius candidates, "single_nearest"
    # reduces to the Euclidean-nearest candidate alone
    collision_mode: str = "per_axis"

    def __post_init__(self):
        for name in (
            "agent_search_range",
            "boundary_clearance",
            "divider_search_range",
            "lateral_safety",
            "longitudinal_safety",
        ):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise ValueError(f"{name} must be a positive finite distance, got {v}")
        for name in ("agent_min_confidence", "map_min_confidence"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0,1], got {v}")
        if self.collision_mode not in COLLISION_MODES:
            raise ValueError(f"collision_mode must be one of {COLLISION_MODES}")
        if self.agent_search_range < max(self.lateral_safety, self.longitudinal_safety):
            warnings.warn(
                "agent_search_range is below the safety margins; parts of the "
                "collision hinge can never activate",
                stacklevel=2,
            )


@dataclass(frozen=True)
class LossWeights:
    """Weights of the six loss terms in the overall training objective."""

    map: float = 1.0
    motion: float = 1.0
    collision: float = 1.0
    boundary: float = 1.0
    direction: float = 1.0
    imitation: float = 1.0

    def __post_init__(self):
        for name in ("map", "motion", "collision", "boundary", "direction", "imitation"):
            v = getattr(self, name)
            if not (v >= 0.0 and math.isfinite(v)):
                raise ValueError(f"loss weight {name} must be non-negative and finite, got {v}")


@dataclass
class LossResult:
    value: float
    grad: np.ndarray  # (T_f, 2), d value / d waypoint


@dataclass
class TotalLossResult(LossResult):
    breakdown: dict[str, float]  # unweighted per-term values


def collision_loss(
    plan: PlanTrajectory, agents: Sequence[AgentPrediction], params: ConstraintParams
) -> LossResult:
    """Per-axis safety hinge against the agents' best-mode positions.

    At each timestep, agents whose best-mode position lies within Euclidean
    radius `agent_search_range` of the waypoint form the candidate set (a
    car a lane over or a distant lead outside the radius exerts no pull).
    Within the candidates, the minimum |dx| defines the lateral distance and
    the minimum |dy| the longitudinal one, independently; each direction
    contributes (margin - d) when d falls below its safety margin.  The
    result is the mean over the horizon of the summed X and Y terms.  Agents
    must be pre-filtered by confidence; the best-scoring mode of each is used.
    """
    w = plan.waypoints
    t_f = w.shape[0]
    grad = np.zeros_like(w)
    if not agents:
        return LossResult(0.0, grad)

    # (N_a, T_f, 2) best-mode positions minus waypoints
    delta = np.stack([best_mode(a) for a in agents]) - w
    dist = np.hypot(delta[..., 0], delta[..., 1])
    candidate = dist <= params.agent_search_range
    if params.collision_mode == "single_nearest":
        nearest = np.argmin(np.where(candidate, dist, np.inf), axis=0)
        candidate &= np.arange(len(agents))[:, None] == nearest
    steps = np.arange(t_f)
    total = 0.0
    for axis, margin in enumerate((params.lateral_safety, params.longitudinal_safety)):
        gap = np.where(candidate, np.abs(delta[..., axis]), np.inf)
        j = np.argmin(gap, axis=0)  # lowest agent index on ties
        d = gap[j, steps]
        active = d < margin
        total += float((margin - d[active]).sum())
        # d = |a.axis - w.axis|, so d(margin - d)/dw = sign(a.axis - w.axis)
        grad[active, axis] = np.sign(delta[j, steps, axis][active])
    return LossResult(total / t_f, grad / t_f)


def boundary_loss(
    plan: PlanTrajectory, boundaries: Sequence[MapVector], params: ConstraintParams
) -> LossResult:
    """Clearance hinge against the closest road-boundary polyline.

    Per timestep, if the waypoint is closer than `boundary_clearance` to the
    nearest boundary the hinge contributes (clearance - distance); mean over
    the horizon.  The gradient points along the foot-point direction of the
    winning segment and is zero exactly on a boundary.
    """
    w = plan.waypoints
    t_f = w.shape[0]
    grad = np.zeros_like(w)
    if not boundaries:
        return LossResult(0.0, grad)

    hit = closest_polyline(w, [mv.points for mv in boundaries])
    active = hit.dist < params.boundary_clearance
    total = float((params.boundary_clearance - hit.dist[active]).sum())
    pull = active & (hit.dist > 0.0)
    grad[pull] = -(w[pull] - hit.foot[pull]) / hit.dist[pull, None]
    return LossResult(total / t_f, grad / t_f)


def direction_loss(
    plan: PlanTrajectory,
    dividers: Sequence[MapVector],
    params: ConstraintParams,
    origin: Point2 = Point2(0.0, 0.0),
) -> LossResult:
    """Angular misalignment between per-step motion and the nearest divider.

    Per timestep, the lane-divider polyline within `divider_search_range` of
    the waypoint supplies a direction (its winning segment, point order runs
    along travel direction); the term is the unsigned angle between it and
    the step's motion vector, zero when no divider is in range or the step
    has zero length.  Mean over the horizon.
    """
    w = plan.waypoints
    t_f = w.shape[0]
    grad = np.zeros_like(w)
    if not dividers:
        return LossResult(0.0, grad)

    hit = closest_polyline_within(w, [mv.points for mv in dividers], params.divider_search_range)
    vectors = ego_vectors(plan, origin)
    moving = (vectors[:, 0] != 0.0) | (vectors[:, 1] != 0.0)
    active = np.flatnonzero((hit.poly >= 0) & moving)
    if active.size == 0:
        return LossResult(0.0, grad)
    lane_dir = hit.end[active] - hit.start[active]
    v = vectors[active]
    total = float(angular_difference(lane_dir, v).sum())

    # d angle / d v for the unsigned angle: sign comes from the 2-D cross
    # product, magnitude from the perpendicular of v; zero subgradient at
    # exactly parallel/antiparallel configurations
    cross = lane_dir[:, 0] * v[:, 1] - lane_dir[:, 1] * v[:, 0]
    norm_sq = v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1]
    g_v = np.zeros_like(w)
    g_v[active] = np.sign(cross)[:, None] * np.column_stack([-v[:, 1], v[:, 0]]) / norm_sq[:, None]
    # v_t = w_t - w_{t-1}: each step's gradient enters w_t and leaves w_{t-1}
    grad += g_v
    grad[:-1] -= g_v[1:]
    return LossResult(total / t_f, grad / t_f)


def imitation_loss(plan: PlanTrajectory, expert: np.ndarray) -> LossResult:
    """Mean per-step L1 distance between the plan and the expert trajectory."""
    expert = np.asarray(expert, dtype=np.float64)
    w = plan.waypoints
    if expert.shape != w.shape:
        raise ShapeError(f"expert shape {expert.shape} does not match plan {w.shape}")
    t_f = w.shape[0]
    diff = w - expert
    value = float(np.abs(diff).sum() / t_f)
    grad = np.sign(diff) / t_f
    return LossResult(value, grad)


def total_planning_loss(
    plan: PlanTrajectory,
    scenario: Scenario,
    params: ConstraintParams,
    weights: LossWeights,
    expert: Optional[np.ndarray] = None,
) -> TotalLossResult:
    """Weighted planning objective: collision + boundary + direction + imitation.

    Filters the scene by the confidence thresholds, evaluates the four
    plan-dependent terms, and returns the weighted total with its gradient
    plus the unweighted per-term breakdown.  (The scene-learning terms enter
    the training objective elsewhere; they do not depend on the plan.)
    """
    agents = filter_agents(scenario.agents, params.agent_min_confidence)
    boundaries = filter_map(scenario.map, params.map_min_confidence, MapClass.ROAD_BOUNDARY)
    dividers = filter_map(scenario.map, params.map_min_confidence, MapClass.LANE_DIVIDER)

    col = collision_loss(plan, agents, params)
    bd = boundary_loss(plan, boundaries, params)
    dr = direction_loss(plan, dividers, params)
    imi = imitation_loss(plan, scenario.expert if expert is None else expert)

    value = (
        weights.collision * col.value
        + weights.boundary * bd.value
        + weights.direction * dr.value
        + weights.imitation * imi.value
    )
    grad = (
        weights.collision * col.grad
        + weights.boundary * bd.grad
        + weights.direction * dr.grad
        + weights.imitation * imi.grad
    )
    return TotalLossResult(
        value=value,
        grad=grad,
        breakdown={
            "collision": col.value,
            "boundary": bd.value,
            "direction": dr.value,
            "imitation": imi.value,
        },
    )
