"""Instance-level planning constraints with analytic plan gradients.

Three hinge constraints regularize a planned trajectory against the
vectorized scene: keep a per-axis safety margin to nearby agents, keep clear
of road boundaries, and align per-step motion with the nearest lane divider.
Together with an L1 imitation term they form the planning objective.  Every
loss returns its value and the exact subgradient with respect to the (T_f, 2)
plan waypoints, treating the discrete nearest-element assignments as fixed
(the losses are piecewise smooth; at hinge boundaries the inactive branch is
used and at L1/abs kinks the subgradient is zero).

The objective takes one input, a scene packed into arrays once
(`scene.pack`) however many times a planner or a training run evaluates it:
the agents as their (A, T_f, 2) best-mode tracks, the map elements as one
PolylineSet whose two rows are the road boundaries and the lane dividers,
and the `ConstraintParams` it was packed under, which the losses read.  An
evaluation of the constraints (`constraint_terms`, shared by
`total_planning_loss` and the refine planner) searches that set once, and
the boundary and direction losses each read their own row of that one
`map_search`.

Each input is checked once.  A plan's waypoints were checked when the frozen
`PlanTrajectory` was made, so the losses hand them, and the arrays they
derive from them, down the geometry chain as `geometry.Checked`.  A track or
expert array is checked on entry unless it comes as `Checked`, as
`total_planning_loss` passes the read-only arrays of a packed scene.  The
margins were checked against the scene's horizon when it was packed
(`ConstraintParams.check_horizon`), so no hinge sum overflows.

An evaluation makes as few calls as the paths it takes allow, and each
shortcut keeps every operand and the order of every sum, so its bits are
those of the full computation: the collision loss returns once no agent
is in range and otherwise reads each step and axis's nearest candidate
off one `argmin`; the boundary loss returns before any gather when no
step is within clearance; the direction loss takes whole rows when every
step is active and gathers and scatters the active ones otherwise; and
`weighted_sum` adds a term of weight 1.0 without the product.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, ShapeError
from .geometry import (
    Checked,
    Nearest,
    PolylineSet,
    angular_difference,
    checked,
    closest_polyline_within,
    count_nonzero,
)
from .scene import MAP_ROWS, MapClass, PackedScene, PlanTrajectory, ego_vectors

_BOUNDARY_ROW = MAP_ROWS.index(MapClass.ROAD_BOUNDARY)
_DIVIDER_ROW = MAP_ROWS.index(MapClass.LANE_DIVIDER)

COLLISION_MODES = ("per_axis", "single_nearest")
_PERPENDICULAR = np.array((-1.0, 1.0))  # (y, x) x this is the left perpendicular (-y, x)


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
    # comparison knob (see README's design notes): "per_axis" takes independent
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

    def check_horizon(self, t_future: int) -> None:
        """Refuse a margin whose hinge, summed over the `t_future` steps of a
        plan, could overflow to inf.  A step adds at most its margin to a
        hinge sum, and the collision loss adds its two axes' sums, so a
        margin passes while 4 x `t_future` x margin is finite, which leaves
        room for both axes and for rounding.  `scene.pack` checks each
        scene's horizon, so the losses add no check of their own.

        Raises:
            ConfigError: naming the config key of the first such margin.
        """
        for name in ("lateral_safety", "longitudinal_safety", "boundary_clearance"):
            margin = getattr(self, name)
            if not math.isfinite(4.0 * t_future * margin):
                raise ConfigError(f"constraints.{name} {margin!r} overflows its hinge summed "
                                  f"over a {t_future}-step plan")


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
    tracks = tracks.xy if type(tracks) is Checked else checked(tracks, "track point", ndim=3)
    if tracks.shape[1:] != w.shape:
        raise ShapeError(f"tracks {tracks.shape} do not match plan {w.shape}")
    t_f = w.shape[0]
    if not len(tracks):
        return LossResult(0.0, np.zeros(w.shape))

    # (N_a, T_f, 2) best-mode positions minus waypoints
    delta = tracks - w
    dist = np.hypot(delta[..., 0], delta[..., 1])
    candidate = dist <= params.agent_search_range
    if not count_nonzero(candidate):  # the common case: no agent is in range
        return LossResult(0.0, np.zeros(w.shape))
    if params.collision_mode == "single_nearest":
        nearest = np.argmin(np.where(candidate, dist, np.inf), axis=0)
        candidate &= np.arange(len(tracks))[:, None] == nearest
    # per-axis distances to the candidates, inf elsewhere, and each step and
    # axis's nearest candidate, the lowest agent index on ties, at its place
    # agent * 2 T_f + column in the flattened (N_a, T_f, 2) arrays; its
    # distance is the minimum, inf where there is no candidate
    gap = np.where(candidate[..., None], np.abs(delta), np.inf)
    place = gap.argmin(axis=0)
    place *= 2 * t_f
    place += np.arange(2 * t_f).reshape(t_f, 2)
    short = np.subtract((params.lateral_safety, params.longitudinal_safety), gap.take(place))
    active = short > 0.0
    if not count_nonzero(active):  # no hinge is active
        return LossResult(0.0, np.zeros(w.shape))
    # each axis's hinge terms summed in step order (the bits of a sum over
    # the active steps alone while T_f < 8), then the two axes
    lateral, longitudinal = np.add.reduce(np.maximum(short, 0.0), axis=0).tolist()
    # d = |a.axis - w.axis|, so d(margin - d)/dw = sign(a.axis - w.axis) of
    # the nearest candidate
    grad = np.where(active, np.sign(delta.take(place)), 0.0)
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
    dist = near.dist[_BOUNDARY_ROW]
    active = dist < params.boundary_clearance
    if not count_nonzero(active):  # the common case: no step is near one
        return LossResult(0.0, grad)
    total = float(np.add.reduce(params.boundary_clearance - dist[active]))
    pull = active & (dist > 0.0)
    np.divide(-(w - near.foot[_BOUNDARY_ROW]), dist[:, None], out=grad, where=pull[:, None])
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
    when no divider is in range or the step's squared length is zero (a
    step of under about 1e-154 m underflows to that).  Mean over the
    horizon.  `near` is the `map_search` of the plan; the loss reads its
    divider row.
    """
    w = plan.waypoints
    t_f = w.shape[0]
    if near is None:
        return LossResult(0.0, np.zeros(w.shape))

    vectors = ego_vectors(plan)
    # the gradient divides by it, so a step moves only where it is not 0
    norm_sq = vectors * vectors
    norm_sq = norm_sq[:, 0] + norm_sq[:, 1]
    moving = near.found[_DIVIDER_ROW] & (norm_sq > 0.0)
    count = count_nonzero(moving)
    if not count:
        return LossResult(0.0, np.zeros(w.shape))
    # the winning segment's step, end - start
    lane_dir = near.segments.step.reshape(-1, 2).take(near.index[_DIVIDER_ROW], axis=0)
    v = vectors
    if count < t_f:  # otherwise, the common case, every step is active
        active = moving.nonzero()[0]
        lane_dir = lane_dir.take(active, axis=0)
        v = v.take(active, axis=0)
        norm_sq = norm_sq.take(active)
    total = float(np.add.reduce(angular_difference(Checked(lane_dir), Checked(v))))

    # d angle / d v for the unsigned angle: sign comes from the 2-D cross
    # product, magnitude from the perpendicular of v; zero subgradient at
    # exactly parallel/antiparallel configurations
    swapped = v[:, ::-1]
    cross = lane_dir * swapped
    turn = np.sign(cross[:, 0] - cross[:, 1])
    # sign * (-vy, vx) / |v|^2, rounded in that order, for the active steps
    g_v = swapped * _PERPENDICULAR
    g_v *= turn[:, None]
    g_v /= norm_sq[:, None]
    # v_t = w_t - w_{t-1}: each step's gradient enters w_t (+ 0.0, so that a
    # -0.0 enters as +0.0) and leaves w_{t-1}; a step that is not active
    # has a zero gradient, so every step's is scattered into a zero-padded
    # plan unless all are active
    if count < t_f:
        padded = np.zeros((t_f + 1, 2))
        padded[active] = g_v
        grad = padded[:-1] + 0.0
        grad -= padded[1:]
    else:
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
    plan: PlanTrajectory, packed: PackedScene
) -> tuple[LossResult, LossResult, LossResult]:
    """The collision, boundary and direction terms of `plan` on a packed
    scene under its parameters, the map searched once for both map terms."""
    near = map_search(plan, packed.map, packed.params)
    return (collision_loss(plan, Checked(packed.agent_tracks), packed.params),
            boundary_loss(plan, near, packed.params), direction_loss(plan, near, packed.params))


def weighted_sum(terms) -> LossResult:
    """The sum of weight x term over (weight, LossResult) pairs, values and
    gradients each summed in the order given.  A term of weight exactly 1.0
    goes in without the product, which is the term itself for every double,
    -0.0 included.  The terms' gradients are not written."""
    (weight, first), *rest = terms
    if weight == 1.0:
        value, grad = first.value, first.grad.copy()
    else:
        value, grad = weight * first.value, weight * first.grad
    for weight, term in rest:
        if weight == 1.0:
            value = value + term.value
            grad += term.grad
        else:
            value = value + weight * term.value
            grad += weight * term.grad
    return LossResult(value, grad)


def total_planning_loss(
    plan: PlanTrajectory, packed: PackedScene, weights: LossWeights
) -> TotalLossResult:
    """Weighted planning objective: collision + boundary + direction + imitation.

    Evaluates the four plan-dependent terms on a packed scene under the
    parameters it was packed with, and returns the weighted total with its
    gradient plus the unweighted per-term breakdown.  (The scene-learning
    terms enter the training objective elsewhere; they do not depend on the
    plan.)
    """
    col, bd, dr = constraint_terms(plan, packed)
    imi = imitation_loss(plan, Checked(packed.scenario.expert))
    total = weighted_sum(((weights.collision, col), (weights.boundary, bd),
                          (weights.direction, dr), (weights.imitation, imi)))
    breakdown = {"collision": col.value, "boundary": bd.value, "direction": dr.value,
                 "imitation": imi.value}
    return TotalLossResult(total.value, total.grad, breakdown)
