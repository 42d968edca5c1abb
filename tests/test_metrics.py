import math
import tracemalloc

import numpy as np
import pytest
from _support import map_arrays, one_mode_agents, scene

from vecplan import metrics
from vecplan.errors import ConfigError
from vecplan.geometry import Point2, box_frame, oriented_rect_overlap, pose_track
from vecplan.metrics import (
    DEFAULT_EGO_DIMS,
    DEFAULT_HORIZONS,
    HorizonStats,
    PlanMetrics,
    agent_pose_track,
    boundary_overstep,
    collision_rate,
    collision_ticks,
    displacement_error,
    plan_metrics,
    plan_pose_track,
)
from vecplan.scene import (
    Command,
    EgoState,
    MapClass,
    GeneratorConfig,
    PlanTrajectory,
    generate_scenario,
)
from vecplan.simulator import SimState, constant_velocity_plan


def straight_plan(speed=4.0, t_f=6, dt=0.5):
    ys = np.arange(1, t_f + 1) * speed * dt
    return PlanTrajectory(np.column_stack([np.zeros(t_f), ys]))


def P(x, y):
    return Point2(float(x), float(y))


MOVING_EGO = EgoState(Point2(0, 0), math.pi / 2, 4.0, 0.0, 0.0, Command.GO_STRAIGHT)


def scenario_with_agent(track, size=(4.5, 1.9), t_f=6):
    track = np.asarray(track, dtype=np.float64)
    start = [(track[0][0], track[0][1] - 2.0)]
    return scene(straight_plan(t_f=t_f).waypoints, ego=MOVING_EGO,
                 agents=one_mode_agents(start, track[None], size=size))


def empty_scenario(t_f=6):
    return scene(straight_plan(t_f=t_f).waypoints, ego=MOVING_EGO)


def scene_with_expert(expert, dt=0.5):
    """An empty scene whose expert drives `expert` in ticks of `dt`."""
    return scene(expert, ego=MOVING_EGO, horizon_dt=dt)


def l2(plan, expert, dt=0.5) -> list[float]:
    errors = displacement_error([scene_with_expert(expert, dt)], [plan])
    assert errors.shape == (1, len(DEFAULT_HORIZONS))
    return errors[0].tolist()


class TestDisplacementError:
    def test_exact_match_is_zero(self):
        plan = straight_plan()
        assert l2(plan, plan.waypoints.copy()) == [0.0, 0.0, 0.0]
        assert plan_metrics([scene_with_expert(plan.waypoints)], [plan]).l2.avg == 0.0

    def test_constant_offset(self):
        plan = straight_plan()
        expert = plan.waypoints + np.array([0.0, 0.3])
        assert l2(plan, expert) == pytest.approx((0.3, 0.3, 0.3), abs=1e-12)

    def test_avg_is_mean_of_horizons(self):
        rng = np.random.default_rng(0)
        plan = straight_plan()
        expert = plan.waypoints + rng.uniform(-1, 1, plan.waypoints.shape)
        m = plan_metrics([scene_with_expert(expert)], [plan])
        assert m.l2.values == tuple(l2(plan, expert))
        assert m.l2.avg == pytest.approx(sum(m.l2.values) / 3, abs=1e-12)

    def test_translation_invariance(self):
        plan = straight_plan()
        expert = plan.waypoints + np.array([0.4, -0.2])
        shift = np.array([10.0, -5.0])
        a = l2(plan, expert)
        b = l2(PlanTrajectory(plan.waypoints + shift), expert + shift)
        assert a == pytest.approx(b, abs=1e-12)

    def test_each_scene_at_its_own_ticks(self):
        # one row per scene, each at its own tick length and plan horizon,
        # and each the bits of a call for that scene alone
        rng = np.random.default_rng(1)
        coarse, fine = straight_plan(), straight_plan(t_f=12, dt=0.25)
        scenes = [scene_with_expert(coarse.waypoints + rng.uniform(-1, 1, (6, 2))),
                  scene_with_expert(fine.waypoints + rng.uniform(-1, 1, (12, 2)), 0.25)]
        both = displacement_error(scenes, [coarse, fine])
        assert both.tolist() == [l2(coarse, scenes[0].expert),
                                 l2(fine, scenes[1].expert, 0.25)]
        d = fine.waypoints[7] - scenes[1].expert[7]  # 2 s is tick 8 of 0.25 s
        assert both[1, 1] == math.hypot(d[0], d[1])
        assert displacement_error([], []).shape == (0, 3)

    def test_horizon_beyond_plan_rejected(self):
        plan = straight_plan(t_f=4)  # 2 s of plan
        with pytest.raises(ConfigError):
            l2(plan, plan.waypoints)

    def test_plan_longer_than_scene_future_rejected(self):
        # a plan has no expert waypoint or agent pose to meet past the
        # scene's future, so no metric scores it
        plan = straight_plan(t_f=8)
        scenes = [scene_with_expert(plan.waypoints[:6])]
        for metric in (displacement_error, collision_rate, plan_metrics):
            with pytest.raises(ConfigError, match="a plan of 8 ticks for a scene of 6"):
                metric(scenes, [plan])

    def test_horizon_between_ticks_rejected(self):
        plan = straight_plan(t_f=10)
        # 1 s is 3.33 ticks of 0.3 s: no tick reports it
        with pytest.raises(ConfigError, match="whole number"):
            l2(plan, plan.waypoints, 0.3)
        # 0.1 s ticks give 10.000000000000002 for 1 s, within the tolerance
        plan = straight_plan(t_f=30, dt=0.1)
        expert = plan.waypoints + np.arange(30)[:, None] * np.array([0.0, 0.01])
        assert l2(plan, expert, 0.1) == pytest.approx((0.09, 0.19, 0.29), abs=1e-12)


class TestCollisionRate:
    def test_empty_scenes_zero_everywhere(self):
        scenarios = [empty_scenario() for _ in range(5)]
        plans = [straight_plan() for _ in range(5)]
        cr = collision_rate(scenarios, plans)
        assert cr.values == (0.0, 0.0, 0.0)
        assert cr.avg == 0.0

    def test_agent_parked_on_first_second_waypoint(self):
        plan = straight_plan(speed=4.0)
        # park the agent exactly on the 1 s waypoint (tick 2) forever
        parked = np.tile(plan.waypoints[1], (6, 1))
        s = scenario_with_agent(parked)
        cr = collision_rate([s], [plan])
        assert cr.values == (100.0, 100.0, 100.0)

    def test_rates_monotone_in_horizon(self):
        scenarios = [generate_scenario(seed) for seed in range(30)]
        rng = np.random.default_rng(1)
        plans = [
            PlanTrajectory(s.expert + rng.uniform(-2.5, 2.5, s.expert.shape))
            for s in scenarios
        ]
        cr = collision_rate(scenarios, plans)
        assert cr.values[0] <= cr.values[1] <= cr.values[2]

    def test_matches_brute_force_oracle(self):
        # independent oracle: plain loops over ticks and agents with
        # freshly computed poses
        scenarios = [generate_scenario(seed) for seed in range(100)]
        rng = np.random.default_rng(2)
        plans = [
            PlanTrajectory(s.expert + rng.uniform(-2.0, 2.0, s.expert.shape))
            for s in scenarios
        ]
        got = collision_rate(scenarios, plans)

        def poses_of(track, start, heading0):
            out, prev, heading = [], np.asarray(start, dtype=float), heading0
            for p in track:
                d = p - prev
                if d[0] != 0 or d[1] != 0:
                    heading = math.atan2(d[1], d[0])
                out.append((Point2(float(p[0]), float(p[1])), heading))
                prev = p
            return out

        for hi, horizon in enumerate((1.0, 2.0, 3.0)):
            count = 0
            for s, plan in zip(scenarios, plans):
                tick_limit = round(horizon / s.horizon_dt)
                ego_poses = poses_of(plan.waypoints, (0.0, 0.0), math.pi / 2)
                hit = False
                for t in range(tick_limit):
                    for ai in range(len(s.agent_xy)):
                        track = poses_of(
                            s.agent_future[ai],
                            tuple(s.agent_xy[ai].tolist()),
                            float(s.agent_heading[ai]),
                        )
                        if oriented_rect_overlap(
                            box_frame(ego_poses[t][0], ego_poses[t][1], DEFAULT_EGO_DIMS),
                            box_frame(track[t][0], track[t][1], tuple(s.agent_size[ai].tolist())),
                        ):
                            hit = True
                if hit:
                    count += 1
            assert got.values[hi] == pytest.approx(count * 100.0 / len(scenarios), abs=1e-12)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ConfigError):
            collision_rate([empty_scenario()], [])


class TestPoseTracks:
    def test_plan_pose_heading_follows_motion(self):
        plan = PlanTrajectory(np.array([[0.0, 1.0], [1.0, 1.0]]))
        poses = plan_pose_track([plan])
        assert poses.heading[0, 0] == pytest.approx(math.pi / 2)
        assert poses.heading[0, 1] == pytest.approx(0.0)

    def test_zero_step_keeps_previous_heading(self):
        plan = PlanTrajectory(np.array([[0.0, 1.0], [0.0, 1.0]]))
        poses = plan_pose_track([plan])
        assert poses.heading[0, 1] == poses.heading[0, 0]

    def test_shorter_plans_hold_their_last_pose(self):
        short = PlanTrajectory(np.array([[0.0, 1.0], [1.0, 1.0]]))
        poses = plan_pose_track([short, straight_plan(t_f=4)])
        assert poses.xy.shape == (2, 4, 2) and poses.heading.shape == (2, 4)
        assert poses.xy[0].tolist() == [[0.0, 1.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0]]
        assert poses.heading[0, 1:].tolist() == [0.0, 0.0, 0.0]
        assert plan_pose_track([]).xy.shape == (0, 0, 2)

    def test_agent_pose_track_uses_gt_future(self):
        track = np.array([[0.0, 2.0], [0.0, 4.0], [2.0, 4.0], [2.0, 4.0], [2.0, 4.0], [2.0, 4.0]])
        s = scenario_with_agent(track)
        poses = agent_pose_track([s], 6)
        assert poses.xy[0, 0].tolist() == [0.0, 2.0]
        assert poses.heading[0, 2] == pytest.approx(0.0)  # moved +x
        assert poses.heading[0, 3] == pytest.approx(0.0)  # parked keeps heading

    def test_agent_pose_track_runs_over_every_agent_of_every_scene(self):
        scenes = [generate_scenario(seed) for seed in (3, 4)]
        poses = agent_pose_track(scenes, 6)
        assert poses.xy.shape == (sum(len(s.agent_xy) for s in scenes), 6, 2)
        # agents in scene order, each the pose track of its own future
        i = 0
        for s in scenes:
            for xy, heading, future in zip(s.agent_xy, s.agent_heading, s.agent_future):
                one = pose_track(future, xy, heading)
                assert poses.xy[i].tobytes() == one.xy.tobytes()
                assert poses.heading[i].tobytes() == one.heading.tobytes()
                i += 1
        # cut to fewer ticks, or held at the last point past the future's end
        assert agent_pose_track(scenes, 2).heading.tolist() == poses.heading[:, :2].tolist()
        longer = agent_pose_track(scenes, 8)
        assert longer.xy[:, 6:].tolist() == poses.xy[:, 5:6].repeat(2, axis=1).tolist()
        assert agent_pose_track([], 6).xy.shape == (0, 6, 2)


    def test_agent_boxes_prepend_the_current_pose(self):
        # a rollout's agent poses: the current pose, then the ground truth
        track = np.array([[0.0, 2.0], [0.0, 4.0], [2.0, 4.0], [2.0, 4.0], [2.0, 4.0], [2.0, 4.0]])
        s = scenario_with_agent(track)
        poses = SimState.initial(s).agent_poses
        assert poses.xy.shape == (1, 7, 2) and poses.heading.shape == (1, 7)
        assert poses.xy[0, 0].tolist() == [0.0, 0.0]
        assert poses.heading[0, 0] == math.pi / 2
        gt = agent_pose_track([s], 6)
        assert poses.xy[0, 1:].tolist() == gt.xy[0].tolist()
        assert poses.heading[0, 1:].tolist() == gt.heading[0].tolist()

    def test_agent_free_scene(self):
        poses = SimState.initial(empty_scenario()).agent_poses
        assert poses.xy.shape == (0, 7, 2) and poses.heading.shape == (0, 7)
        flags = collision_ticks([empty_scenario()], plan_pose_track([straight_plan()]))
        assert flags.tolist() == [[False] * 6]


def overstep(scenario, plan) -> bool:
    flags = boundary_overstep([scenario], plan_pose_track([plan]))
    assert flags.shape == (1, plan.horizon)
    return bool(flags.any())


class TestBoundaryOverstep:
    def _scenario_with_boundary(self, x, drivable_side):
        boundary = map_arrays([[(x, -20.0), (x, 20.0)]], [MapClass.ROAD_BOUNDARY],
                              sides=[drivable_side])
        return scene(straight_plan().waypoints, ego=MOVING_EGO, map=boundary)

    def test_inside_corridor_is_clean(self):
        # boundary 5 m right of a straight-up plan; polyline runs +y so the
        # drivable area is on its left
        s = self._scenario_with_boundary(5.0, "left")
        assert not overstep(s, straight_plan())

    def test_crossing_is_flagged(self):
        s = self._scenario_with_boundary(5.0, "left")
        drifting = PlanTrajectory(straight_plan().waypoints + np.array([7.0, 0.0]))
        assert overstep(s, drifting)

    def test_corner_graze_is_flagged(self):
        # center stays inside but the right half of the 1.85 m wide box pokes out
        s = self._scenario_with_boundary(5.0, "left")
        graze = PlanTrajectory(straight_plan().waypoints + np.array([4.5, 0.0]))
        assert overstep(s, graze)


class TestPlanMetrics:
    def test_aggregates_over_scenarios(self):
        scenarios = [generate_scenario(seed) for seed in range(10)]
        plans = [PlanTrajectory(s.expert.copy()) for s in scenarios]
        m = plan_metrics(scenarios, plans)
        assert m.l2.values == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)
        assert m.collision.values == (0.0, 0.0, 0.0)  # experts are clearance-checked
        assert m.boundary_overstep_rate == 0.0

    def test_avg_columns_exact(self):
        scenarios = [generate_scenario(seed) for seed in range(20)]
        rng = np.random.default_rng(5)
        plans = [
            PlanTrajectory(s.expert + rng.uniform(-2, 2, s.expert.shape)) for s in scenarios
        ]
        m = plan_metrics(scenarios, plans)
        assert m.l2.avg == pytest.approx(sum(m.l2.values) / 3, abs=1e-12)
        assert m.collision.avg == pytest.approx(sum(m.collision.values) / 3, abs=1e-12)


def _perturbed(scenarios, seed=7, spread=2.0):
    rng = np.random.default_rng(seed)
    return [PlanTrajectory(s.expert + rng.uniform(-spread, spread, s.expert.shape))
            for s in scenarios]


def _mixed_horizon_pair():
    """Scene A, 6 ticks of 0.5 s driven straight, and scene B, 12 ticks of
    0.25 s, whose plan drifts 10 m right after 1.5 s (tick 6)."""
    a = generate_scenario(1)
    b = generate_scenario(2, GeneratorConfig(horizon_dt=0.25, t_future=12))
    drift = constant_velocity_plan(b).waypoints.copy()
    drift[6:, 0] += 10.0
    return (a, constant_velocity_plan(a)), (b, PlanTrajectory(drift))


class TestBlocks:
    """The box and boundary metrics run over blocks of scenes; blocks, scene
    order and mixed horizons must not change a scene's flags."""

    def test_each_scene_oversteps_to_its_own_horizon(self):
        (a, plan_a), (b, plan_b) = _mixed_horizon_pair()
        # per-tick flags: B crosses from its drift on, A never
        flags = boundary_overstep([a, b], plan_pose_track([plan_a, plan_b]))
        assert flags.tolist() == [[False] * 12, [False] * 6 + [True] * 6]
        assert plan_metrics([b], [plan_b]).boundary_overstep_rate == 100.0
        assert plan_metrics([a], [plan_a]).boundary_overstep_rate == 0.0
        # B's 3 s tick is 12; the first scene's (6) once cut B's check short
        assert plan_metrics([a, b], [plan_a, plan_b]).boundary_overstep_rate == 50.0
        assert plan_metrics([b, a], [plan_b, plan_a]).boundary_overstep_rate == 50.0

    def test_mixed_horizons_keep_each_scenes_flags(self):
        (a, plan_a), (b, plan_b) = _mixed_horizon_pair()
        ego = plan_pose_track([plan_a, plan_b])
        assert ego.xy.shape == (2, 12, 2)
        both = collision_ticks([a, b], ego)
        assert both[0, :6].tolist() == collision_ticks([a], plan_pose_track([plan_a]))[0].tolist()
        assert both[1].tolist() == collision_ticks([b], plan_pose_track([plan_b]))[0].tolist()
        alone = [plan_metrics([s], [p]) for s, p in ((a, plan_a), (b, plan_b))]
        mixed = plan_metrics([a, b], [plan_a, plan_b])
        assert mixed.collision.values == tuple(
            (x + y) / 2 for x, y in zip(alone[0].collision.values, alone[1].collision.values)
        )

    def test_block_size_does_not_change_a_bit(self, monkeypatch):
        scenarios = [generate_scenario(seed) for seed in range(40)]
        plans = _perturbed(scenarios)
        ego = plan_pose_track(plans)
        flags = collision_ticks(scenarios, ego)
        oversteps = boundary_overstep(scenarios, ego)
        whole = plan_metrics(scenarios, plans)
        rate = collision_rate(scenarios, plans)
        for size in (1, 3, 8, 16, 32, len(scenarios), 64):
            monkeypatch.setattr(metrics, "BLOCK_SCENES", size)
            assert plan_metrics(scenarios, plans) == whole
            assert collision_rate(scenarios, plans) == rate
        # one scene at a time gives the same flags as the whole list
        for i, (s, p) in enumerate(zip(scenarios, plans)):
            one = plan_pose_track([p])
            assert collision_ticks([s], one).tolist() == flags[i : i + 1].tolist()
            assert boundary_overstep([s], one).tolist() == oversteps[i : i + 1].tolist()
        assert flags.any() and oversteps.any() and not oversteps.any(axis=1).all()

    def test_a_dense_block_boundary_query_stays_near_a_megabyte(self):
        # a 32-scene block of 8-12 agent scenes makes (32, 24, 38) float64
        # arrays of corners x segments, 233 KB each; the nearest-segment
        # chain peaks at 1.01 MB holding four of them at once (1.18 MB when
        # it held five), which keeps `BLOCK_SCENES` at 32 cheap
        dense = GeneratorConfig(agent_count_range=(8, 12))
        scenarios = [generate_scenario(seed, dense) for seed in range(metrics.BLOCK_SCENES)]
        ego = plan_pose_track(_perturbed(scenarios))
        boundaries = metrics.labeled_boundaries(scenarios)
        tracemalloc.start()
        try:
            metrics.pose_oversteps_boundary(boundaries, ego.xy, ego.heading, DEFAULT_EGO_DIMS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert boundaries[0].sx.shape == (32, 1, 38)
        assert peak <= 1.1e6

    def test_permuted_scenes_permute_the_flags(self):
        scenarios = [generate_scenario(seed) for seed in range(20)]
        plans = _perturbed(scenarios, seed=8)
        order = np.random.default_rng(9).permutation(len(scenarios))
        ego = plan_pose_track(plans)
        shuffled = [scenarios[i] for i in order], [plans[i] for i in order]
        shuffled_ego = plan_pose_track(shuffled[1])
        assert np.array_equal(collision_ticks(shuffled[0], shuffled_ego),
                              collision_ticks(scenarios, ego)[order])
        assert np.array_equal(boundary_overstep(shuffled[0], shuffled_ego),
                              boundary_overstep(scenarios, ego)[order])
        whole = plan_metrics(scenarios, plans)
        again = plan_metrics(*shuffled)
        assert again.collision == whole.collision
        assert again.boundary_overstep_rate == whole.boundary_overstep_rate
        assert again.l2.values == pytest.approx(whole.l2.values, rel=1e-12)

    def test_empty_agent_free_and_unlabeled_scenes(self):
        assert plan_metrics([], []) == PlanMetrics(
            l2=HorizonStats(DEFAULT_HORIZONS, (0.0, 0.0, 0.0), 0.0),
            collision=HorizonStats(DEFAULT_HORIZONS, (0.0, 0.0, 0.0), 0.0),
            boundary_overstep_rate=0.0,
        )
        none = plan_pose_track([])
        assert collision_ticks([], none).shape == (0, 0)
        assert boundary_overstep([], none).shape == (0, 0)
        # no agents and no map: nothing to hit, nothing to cross, alone or
        # next to a scene that has both
        bare, busy = empty_scenario(), generate_scenario(5)
        wild = PlanTrajectory(straight_plan().waypoints + np.array([30.0, 0.0]))
        ego = plan_pose_track([wild, wild])
        assert collision_ticks([bare, bare], ego).tolist() == [[False] * 6] * 2
        assert boundary_overstep([bare, busy], ego).any(axis=1).tolist() == [False, True]
        assert boundary_overstep([busy, bare], ego).any(axis=1).tolist() == [True, False]
        # a boundary without a drivable-side label is skipped
        unlabeled = scene(
            straight_plan().waypoints, ego=MOVING_EGO,
            map=map_arrays([[P(5.0, -20.0), P(5.0, 20.0)]], [MapClass.ROAD_BOUNDARY], sides=[None]),
        )
        assert boundary_overstep([unlabeled, busy], ego).any(axis=1).tolist() == [False, True]

    def test_plan_count_must_match(self):
        scenarios = [generate_scenario(seed) for seed in range(2)]
        with pytest.raises(ConfigError):
            collision_ticks(scenarios, plan_pose_track(_perturbed(scenarios[:1])))
        with pytest.raises(ConfigError):
            boundary_overstep(scenarios, plan_pose_track(_perturbed(scenarios[:1])))
