"""The refine planner's bits.

The refine objective searches the packed map once per evaluation, for the
nearest boundary and the nearest divider of every waypoint at once, and
leaves out the expert term that the training objective weighs in.  Neither
may change a bit of a plan: the digests below were computed before either
change, on the `refine_rollout` ticks of the benchmark's seeds 0-3 (the two
scenes `perfbench/workloads.py` derives from each seed, rolled out for their
whole horizon with the 60-step refine planner), and the edge scenes are
checked against the reference that packs nothing and searches each map
class on its own (`_support.unpacked_planning_loss`).
"""

import functools
import hashlib

import numpy as np
import pytest
from _support import (
    scene_of_kind,
    take_map,
    unpacked_planning_loss,
    unpacked_refine,
    with_repeated_map_points,
)

from vecplan import simulator
from vecplan.constraints import ConstraintParams, LossWeights, total_planning_loss
from vecplan.scene import MAP_CLASSES, GeneratorConfig, MapClass, PlanTrajectory, generate_scenario

SEEDS = range(4)
WEIGHTS = (LossWeights(), LossWeights(collision=0.7, boundary=1.3, direction=0.4, imitation=2.1))

# sha256 of (every replan's waypoints, every rollout table) and of the
# objective's value, gradient and breakdown on every view planned, per seed
DIGESTS = {
    0: (
        "cc073109f49d4aaf1712de70ea5f72bf0f1846a20829caf90d73e8538097b0a6",
        "f0ac324bf4d79e5bacab227c2b4d8c2d74b35a7984d5131da1b52d438e13a819",
        "92ffa9c655d1d28c56106a1415c70b4de537b099e8f847ee99d2b10829516f86",
    ),
    1: (
        "2fd2c85b5096e3be55e3a6a987607361e99809dbe611c53b00d86b2f159846c5",
        "64fe0bf89b90c92615e461c021578eeb3d48582e342fef766a799ca9c92f34c7",
        "0b1b241e6ea8bdae96098baf612dca19fb0388f12dfc62db60b05e9f548961fa",
    ),
    2: (
        "78fbb7e758ce54cb71ca9da038f57c9f9efcab1a0bac827531f5d32ae3ad9145",
        "54a5ede7ac36c9598f3c4c397767ae07f4c19aa9d138dbbad63a0f5525ae16af",
        "f35ae21fe1635c151bb47a392b3a1604ded292fde1f1f0b161a1552d3ca39d2c",
    ),
    3: (
        "b31e819f52dacf725e4d55ccd13e1c6884a305ac0fe85c061ce02819d2e7821d",
        "9dd8f4c4291da0eaa8e88e0a7c2449b4dffa4847d01093436e73a9af6a82c8af",
        "8eaef9821dfe2d14fc7313c0428d93113548c2b8e2fb32ab7387a137a1ccf3a5",
    ),
}


def scene_seeds(seed: int) -> list[int]:
    """The seeds of the two scenes of a `refine_rollout` benchmark seed."""
    return [int(v) for v in np.random.SeedSequence((seed, 2)).generate_state(2)]


class Recording:
    """A refine planner that keeps each view it plans on and each plan."""

    def __init__(self):
        self.inner = simulator.RefinePlanner(steps=60)
        self.views, self.plans = [], []

    def plan(self, view):
        plan = self.inner.plan(view)
        self.views.append(view)
        self.plans.append(plan)
        return plan


@functools.lru_cache(maxsize=None)
def rollouts(seed: int):
    """The views, plans and rollout tables of a benchmark seed's rollouts."""
    views, plans, tables = [], [], []
    for s in scene_seeds(seed):
        scenario = generate_scenario(s)
        planner = Recording()
        log = simulator.run_closed_loop(scenario, planner, scenario.t_future)
        views += planner.views
        plans += planner.plans
        tables.append(log.to_table())
    return views, plans, tables


def digests(seed: int) -> tuple[str, str, str]:
    views, plans, tables = rollouts(seed)
    replans = hashlib.sha256(b"".join(p.waypoints.tobytes() for p in plans))
    table = hashlib.sha256("".join(tables).encode())
    objective = hashlib.sha256()
    params = ConstraintParams()
    for view, replan in zip(views, plans):
        for plan in (simulator.constant_velocity_plan(view), replan):
            for weights in WEIGHTS:
                res = total_planning_loss(plan, view, params, weights)
                objective.update(np.float64(res.value).tobytes() + res.grad.tobytes())
                for name, value in res.breakdown.items():
                    objective.update(name.encode() + np.float64(value).tobytes())
    return replans.hexdigest(), table.hexdigest(), objective.hexdigest()


@pytest.mark.parametrize("seed", SEEDS)
def test_refine_rollout_bits_are_pinned(seed):
    assert digests(seed) == DIGESTS[seed]


def _only(scenario, kinds):
    """`scenario` with only its map elements of the given classes."""
    codes = [MAP_CLASSES.index(k) for k in kinds]
    return take_map(scenario, np.flatnonzero(np.isin(scenario.map_kind, codes)))


def edge_scenes():
    """Scenes whose packed map has an empty row, padding rows or degenerate
    segments, and scenes with no agent or no map."""
    wide = generate_scenario(5, GeneratorConfig(lane_count=4))
    kinds = [MAP_CLASSES[k] for k in wide.map_kind]
    # one boundary and three dividers: the boundary row is padded
    dividers = [i for i, k in enumerate(kinds) if k == MapClass.LANE_DIVIDER]
    one_boundary = take_map(wide, [kinds.index(MapClass.ROAD_BOUNDARY)] + dividers)
    rng = np.random.default_rng(17)
    return {
        "agent_free": scene_of_kind("agent_free", 3),
        "map_free": scene_of_kind("map_free", 3),
        "boundary_only": _only(generate_scenario(6), [MapClass.ROAD_BOUNDARY]),
        "divider_only": _only(generate_scenario(7), [MapClass.LANE_DIVIDER]),
        "more_dividers_than_boundaries": one_boundary,
        "repeated_map_points": with_repeated_map_points(generate_scenario(8), rng),
    }


@pytest.mark.parametrize("kind", ["agent_free", "map_free", "boundary_only", "divider_only",
                                  "more_dividers_than_boundaries", "repeated_map_points"])
def test_edge_scenes_match_the_unpacked_reference(kind):
    s = edge_scenes()[kind]
    params = ConstraintParams(map_min_confidence=0.0)
    rng = np.random.default_rng(len(kind))
    for weights in WEIGHTS:
        for offset in (0.0, 0.6, 1.5):
            plan = PlanTrajectory(s.expert + rng.normal(0.0, offset, s.expert.shape))
            got = total_planning_loss(plan, s, params, weights)
            want = unpacked_planning_loss(plan, s, params, weights)
            assert got.value == want["total"][0]
            assert got.grad.tobytes() == want["total"][1].tobytes()
            for name, value in got.breakdown.items():
                assert value == want[name][0], name
        seed_plan = simulator.constant_velocity_plan(s)
        got = simulator.refine_trajectory(seed_plan, s, params, weights, 60, 0.2)
        want = unpacked_refine(seed_plan, s, params, weights, 60, 0.2)
        assert got.waypoints.tobytes() == want.waypoints.tobytes()


def test_edge_scenes_have_the_map_rows_they_test():
    from vecplan.scene import pack

    rows = {kind: pack(s, ConstraintParams(map_min_confidence=0.0)).map
            for kind, s in edge_scenes().items()}
    assert len(rows["map_free"]) == 0 and len(rows["agent_free"]) > 0
    real = {kind: m.live.reshape(2, -1).any(axis=1).tolist() for kind, m in rows.items()
            if len(m)}
    assert real["boundary_only"] == [True, False]
    assert real["divider_only"] == [False, True]
    # one boundary row and padding against three divider rows
    assert len(rows["more_dividers_than_boundaries"]) == 4
    assert not rows["more_dividers_than_boundaries"].all_live
    assert not rows["repeated_map_points"].all_live


@pytest.mark.parametrize("seed", SEEDS)
def test_descent_never_makes_a_negative_zero(seed, monkeypatch):
    # the refine objective leaves out the expert term at weight 0, whose only
    # trace on the gradient is the sign of a zero entry; that sign can move
    # an iterate only where a waypoint is -0.0, and no iterate has one
    iterates = []

    def recorded(waypoints):
        plan = PlanTrajectory(waypoints)
        iterates.append(plan.waypoints)
        return plan

    views, _, _ = rollouts(seed)
    monkeypatch.setattr(simulator, "PlanTrajectory", recorded)
    for view in views:
        simulator.RefinePlanner(steps=60).plan(view)
    assert len(iterates) == len(views) * 61  # each seed plan and its 60 steps
    stacked = np.stack(iterates)
    assert not (np.signbit(stacked) & (stacked == 0.0)).any()
    assert (stacked == 0.0).any()  # the seed plans' lateral zeros are +0.0
