"""Instance-level planning constraints with analytic plan gradients.

Three hinge constraints regularize a planned trajectory against the
vectorized scene: keep a per-axis safety margin to nearby agents, keep clear
of road boundaries, and align per-step motion with the nearest lane divider.
Together with an L1 imitation term they form the planning objective.  Every
loss returns its value and the exact subgradient with respect to the (T_f, 2)
plan waypoints, treating the discrete nearest-element assignments as fixed
(the losses are piecewise smooth; at hinge boundaries the inactive branch is
used and at L1/abs kinks the subgradient is zero).

The losses read a scene packed into arrays once (`scene.pack`), however many
times a planner or a training run evaluates them on it: the agents as their
(A, T_f, 2) best-mode tracks and the map elements as one PolylineSet whose
two rows are the road boundaries and the lane dividers.  An evaluation of the
constraints (`constraint_terms`, shared by `total_planning_loss` and the
refine planner) searches that set once, and the boundary and direction
losses each read their own row of that one `map_search`.

Each input is checked once.  A plan's waypoints were checked when the frozen
`PlanTrajectory` was made, so the losses hand them, and the arrays they
derive from them, down the geometry chain as `geometry.Checked`.  A track or
expert array is checked on entry unless it comes as `Checked`, as
`total_planning_loss` passes the read-only arrays of a packed scene.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ShapeError
from .geometry import (
    Checked,
    Nearest,
    PolylineSet,
    angular_difference,
    checked,
    closest_polyline_within,
)
from .scene import MAP_ROWS, MapClass, PackedScene, PlanTrajectory, Scenario, ego_vectors, pack

_BOUNDARY_ROW = MAP_ROWS.index(MapClass.ROAD_BOUNDARY)
_DIVIDER_ROW = MAP_ROWS.index(MapClass.LANE_DIVIDER)

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


def collision_loss(plan: PlanTrajectory, tracks, params: ConstraintParams) -> LossResult:
    """Per-axis safety hinge against the agents' best-mode positions.

    At each timestep, agents whose best-mode position lies within Euclidean
    radius `agent_search_range` of the waypoint form the candidate set (a
    car a lane over or a distant lead outside the radius exerts no pull).
    Within the candidates, the minimum |dx| defines the lateral distance and
    the minimum |dy| the longitudinal one, independently; each direction
    contributes (margin - d) when d falls below its safety margin.  The
    result is the mean over the horizon of the summed X and Y terms.  `tracks`
    are the (N_a, T_f, 2) best-mode tracks of the agents that passed the
    confidence threshold, as `scene.pack` stacks them.

    Raises:
        GeometryError: on tracks of another rank or with a non-finite point.
        ShapeError: on tracks of another horizon than the plan.
    """
    w = plan.waypoints
    tracks = checked(tracks, "track point", ndim=3)
    if tracks.shape[1:] != w.shape:
        raise ShapeError(f"tracks {tracks.shape} do not match plan {w.shape}")
    t_f = w.shape[0]
    if not len(tracks):
        return LossResult(0.0, np.zeros(w.shape))

    # (N_a, T_f, 2) best-mode positions minus waypoints
    delta = tracks - w
    dist = np.hypot(delta[..., 0], delta[..., 1])
    candidate = dist <= params.agent_search_range
    if params.collision_mode == "single_nearest":
        nearest = np.argmin(np.where(candidate, dist, np.inf), axis=0)
        candidate &= np.arange(len(tracks))[:, None] == nearest
    # per-axis distances to the candidates, both axes at once; the nearest
    # candidate per step and axis is the lowest agent index on ties
    gap = np.where(candidate[..., None], np.abs(delta), np.inf)
    winner = (gap.argmin(axis=0), np.arange(t_f)[:, None], (0, 1))
    short = np.array([params.lateral_safety, params.longitudinal_safety]) - gap[winner]
    # each axis's hinge terms summed in step order (the bits of a sum over
    # the active steps alone while T_f < 8), then the two axes
    lateral, longitudinal = np.add.reduce(np.maximum(short, 0.0), axis=0).tolist()
    # d = |a.axis - w.axis|, so d(margin - d)/dw = sign(a.axis - w.axis)
    grad = np.where(short > 0.0, np.sign(delta[winner]), 0.0)
    grad /= t_f
    return LossResult((lateral + longitudinal) / t_f, grad)


def map_search(plan: PlanTrajectory, packed_map: PolylineSet,
               params: ConstraintParams) -> Optional[Nearest]:
    """Each waypoint's nearest road boundary and lane divider of a packed map
    (`PackedScene.map`) in one search: a (2, T_f) `Nearest`, `found` within
    `divider_search_range`, or None for an empty map.  A row with no element
    finds only padding, at distance inf."""
    return closest_polyline_within(Checked(plan.waypoints), packed_map,
                                   params.divider_search_range)


def boundary_loss(
    plan: PlanTrajectory, near: Optional[Nearest], params: ConstraintParams
) -> LossResult:
    """Clearance hinge against the closest road-boundary polyline.

    Per timestep, if the waypoint is closer than `boundary_clearance` to the
    nearest boundary the hinge contributes (clearance - distance); mean over
    the horizon.  The gradient points along the foot-point direction of the
    winning segment and is zero exactly on a boundary.  `near` is the
    `map_search` of the plan; the loss reads its boundary row.
    """
    w = plan.waypoints
    t_f = w.shape[0]
    grad = np.zeros(w.shape)
    if near is None:
        return LossResult(0.0, grad)

    # no boundary: every distance is inf, so no step is active
    dist, foot = near.dist[_BOUNDARY_ROW], near.foot[_BOUNDARY_ROW]
    active = dist < params.boundary_clearance
    total = float(np.add.reduce(params.boundary_clearance - dist[active]))
    pull = active & (dist > 0.0)
    np.divide(-(w - foot), dist[:, None], out=grad, where=pull[:, None])
    grad /= t_f
    return LossResult(total / t_f, grad)


def direction_loss(
    plan: PlanTrajectory, near: Optional[Nearest], params: ConstraintParams
) -> LossResult:
    """Angular misalignment between per-step motion and the nearest divider.

    Per timestep, the lane-divider polyline within `divider_search_range` of
    the waypoint supplies a direction (its winning segment, point order runs
    along travel direction); the term is the unsigned angle between it and
    the step's motion vector (the first step leaves the ego origin), zero
    when no divider is in range or the step has zero length.  Mean over the
    horizon.  `near` is the `map_search` of the plan; the loss reads its
    divider row.
    """
    w = plan.waypoints
    t_f = w.shape[0]
    if near is None:
        return LossResult(0.0, np.zeros(w.shape))

    vectors = ego_vectors(plan)
    moving = np.logical_or.reduce(vectors != 0.0, axis=1)
    active = (near.found[_DIVIDER_ROW] & moving).nonzero()[0]
    if active.size == 0:
        return LossResult(0.0, np.zeros(w.shape))
    # the winning segment's step, end - start
    lane_dir = near.segments.step.reshape(-1, 2).take(
        near.index[_DIVIDER_ROW].take(active), axis=0)
    v = vectors.take(active, axis=0)
    total = float(np.add.reduce(angular_difference(Checked(lane_dir), Checked(v))))

    # d angle / d v for the unsigned angle: sign comes from the 2-D cross
    # product, magnitude from the perpendicular of v; zero subgradient at
    # exactly parallel/antiparallel configurations
    vx, vy = v[:, 0], v[:, 1]
    cross = lane_dir[:, 0] * vy - lane_dir[:, 1] * vx
    norm_sq = vx * vx + vy * vy
    # sign * (-vy, vx) / |v|^2, rounded in that order
    turn = np.sign(cross)
    g_v = np.zeros(w.shape)
    g_v[active, 0] = turn * -vy / norm_sq
    g_v[active, 1] = turn * vx / norm_sq
    # v_t = w_t - w_{t-1}: each step's gradient enters w_t and leaves w_{t-1}
    grad = g_v + 0.0
    grad[:-1] -= g_v[1:]
    grad /= t_f
    return LossResult(total / t_f, grad)


def imitation_loss(plan: PlanTrajectory, expert) -> LossResult:
    """Mean per-step L1 distance between the plan and the expert trajectory.

    Raises:
        GeometryError: on an expert that is not a (T_f, 2) array of finite points.
        ShapeError: on an expert of another horizon than the plan.
    """
    expert = checked(expert, "expert point")
    w = plan.waypoints
    if expert.shape != w.shape:
        raise ShapeError(f"expert shape {expert.shape} does not match plan {w.shape}")
    t_f = w.shape[0]
    diff = w - expert
    value = float(np.add.reduce(np.abs(diff), axis=None) / t_f)
    grad = np.sign(diff)
    grad /= t_f
    return LossResult(value, grad)


def constraint_terms(
    plan: PlanTrajectory, packed: PackedScene, params: ConstraintParams
) -> tuple[LossResult, LossResult, LossResult]:
    """The collision, boundary and direction terms of `plan` on a scene
    packed under `params`, the map searched once for both map terms."""
    near = map_search(plan, packed.map, params)
    return (collision_loss(plan, Checked(packed.agent_tracks), params),
            boundary_loss(plan, near, params), direction_loss(plan, near, params))


def weighted_sum(terms) -> LossResult:
    """The sum of weight x term over (weight, LossResult) pairs, values and
    gradients each summed in the order given."""
    (weight, first), *rest = terms
    value, grad = weight * first.value, weight * first.grad
    for weight, term in rest:
        value = value + weight * term.value
        grad += weight * term.grad
    return LossResult(value, grad)


def total_planning_loss(
    plan: PlanTrajectory,
    scene: Scenario | PackedScene,
    params: ConstraintParams,
    weights: LossWeights,
) -> TotalLossResult:
    """Weighted planning objective: collision + boundary + direction + imitation.

    Evaluates the four plan-dependent terms on the scene packed under the
    confidence thresholds of `params` (a Scenario is packed here) and returns
    the weighted total with its gradient plus the unweighted per-term
    breakdown.  (The scene-learning terms enter the training objective
    elsewhere; they do not depend on the plan.)
    """
    packed = scene if isinstance(scene, PackedScene) else pack(scene, params)
    if packed.thresholds != (params.agent_min_confidence, params.map_min_confidence):
        raise ValueError(f"scene was packed under other confidence thresholds {packed.thresholds}")

    col, bd, dr = constraint_terms(plan, packed, params)
    imi = imitation_loss(plan, Checked(packed.scenario.expert))
    total = weighted_sum(((weights.collision, col), (weights.boundary, bd),
                          (weights.direction, dr), (weights.imitation, imi)))
    breakdown = {"collision": col.value, "boundary": bd.value, "direction": dr.value,
                 "imitation": imi.value}
    return TotalLossResult(total.value, total.grad, breakdown)
