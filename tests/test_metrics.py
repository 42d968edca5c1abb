import math

import numpy as np
import pytest

from vecplan.errors import ConfigError
from vecplan.geometry import Point2, Polyline, box_frame, oriented_rect_overlap
from vecplan.metrics import (
    DEFAULT_EGO_DIMS,
    agent_boxes,
    agent_pose_track,
    boundary_overstep,
    collision_rate,
    collision_ticks,
    displacement_error,
    plan_metrics,
    plan_pose_track,
)
from vecplan.scene import (
    AgentPrediction,
    Command,
    EgoState,
    MapClass,
    MapVector,
    PlanTrajectory,
    Scenario,
    generate_scenario,
)


def straight_plan(speed=4.0, t_f=6, dt=0.5):
    ys = np.arange(1, t_f + 1) * speed * dt
    return PlanTrajectory(np.column_stack([np.zeros(t_f), ys]))


def scenario_with_agent(track, size=(4.5, 1.9), t_f=6):
    agent = AgentPrediction(
        position=Point2(float(track[0][0]), float(track[0][1] - 2.0)),
        heading=math.pi / 2,
        size=size,
        confidence=1.0,
        modes=np.asarray(track, dtype=np.float64)[None],
        mode_scores=np.array([1.0]),
    )
    return Scenario(
        map=[],
        agents=[agent],
        agent_gt_futures=[np.asarray(track, dtype=np.float64)],
        ego=EgoState(Point2(0, 0), math.pi / 2, 4.0, 0.0, 0.0, Command.GO_STRAIGHT),
        expert=straight_plan(t_f=t_f).waypoints,
        horizon_dt=0.5,
        perception_range=(60.0, 30.0),
    )


def empty_scenario(t_f=6):
    return Scenario(
        map=[],
        agents=[],
        agent_gt_futures=[],
        ego=EgoState(Point2(0, 0), math.pi / 2, 4.0, 0.0, 0.0, Command.GO_STRAIGHT),
        expert=straight_plan(t_f=t_f).waypoints,
        horizon_dt=0.5,
        perception_range=(60.0, 30.0),
    )


class TestDisplacementError:
    def test_exact_match_is_zero(self):
        plan = straight_plan()
        de = displacement_error(plan, plan.waypoints.copy(), 0.5)
        assert de.values == (0.0, 0.0, 0.0)
        assert de.avg == 0.0

    def test_constant_offset(self):
        plan = straight_plan()
        expert = plan.waypoints + np.array([0.0, 0.3])
        de = displacement_error(plan, expert, 0.5)
        assert de.values == pytest.approx((0.3, 0.3, 0.3), abs=1e-12)
        assert de.avg == pytest.approx(0.3, abs=1e-12)

    def test_avg_is_mean_of_horizons(self):
        rng = np.random.default_rng(0)
        plan = straight_plan()
        expert = plan.waypoints + rng.uniform(-1, 1, plan.waypoints.shape)
        de = displacement_error(plan, expert, 0.5)
        assert de.avg == pytest.approx(sum(de.values) / 3, abs=1e-12)

    def test_translation_invariance(self):
        plan = straight_plan()
        expert = plan.waypoints + np.array([0.4, -0.2])
        shift = np.array([10.0, -5.0])
        a = displacement_error(plan, expert, 0.5)
        b = displacement_error(
            PlanTrajectory(plan.waypoints + shift), expert + shift, 0.5
        )
        assert a.values == pytest.approx(b.values, abs=1e-12)

    def test_horizon_beyond_plan_rejected(self):
        plan = straight_plan(t_f=4)  # 2 s of plan
        with pytest.raises(ConfigError):
            displacement_error(plan, plan.waypoints, 0.5)

    def test_horizon_between_ticks_rejected(self):
        plan = straight_plan(t_f=10)
        # 1 s is 3.33 ticks of 0.3 s: no tick reports it
        with pytest.raises(ConfigError, match="whole number"):
            displacement_error(plan, plan.waypoints, 0.3)
        # 0.1 s ticks give 10.000000000000002 for 1 s, within the tolerance
        plan = straight_plan(t_f=30, dt=0.1)
        expert = plan.waypoints + np.arange(30)[:, None] * np.array([0.0, 0.01])
        de = displacement_error(plan, expert, 0.1)
        assert de.values == pytest.approx((0.09, 0.19, 0.29), abs=1e-12)


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
                    for ai, agent in enumerate(s.agents):
                        track = poses_of(
                            s.agent_gt_futures[ai],
                            (agent.position.x, agent.position.y),
                            agent.heading,
                        )
                        if oriented_rect_overlap(
                            box_frame(ego_poses[t][0], ego_poses[t][1], DEFAULT_EGO_DIMS),
                            box_frame(track[t][0], track[t][1], agent.size),
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
        poses = plan_pose_track(plan)
        assert poses.heading[0] == pytest.approx(math.pi / 2)
        assert poses.heading[1] == pytest.approx(0.0)

    def test_zero_step_keeps_previous_heading(self):
        plan = PlanTrajectory(np.array([[0.0, 1.0], [0.0, 1.0]]))
        poses = plan_pose_track(plan)
        assert poses.heading[1] == poses.heading[0]

    def test_agent_pose_track_uses_gt_future(self):
        track = np.array([[0.0, 2.0], [0.0, 4.0], [2.0, 4.0], [2.0, 4.0], [2.0, 4.0], [2.0, 4.0]])
        s = scenario_with_agent(track)
        poses = agent_pose_track(s, 0)
        assert poses.xy[0].tolist() == [0.0, 2.0]
        assert poses.heading[2] == pytest.approx(0.0)  # moved +x
        assert poses.heading[3] == pytest.approx(0.0)  # parked keeps heading


    def test_agent_boxes_prepend_the_current_pose(self):
        track = np.array([[0.0, 2.0], [0.0, 4.0], [2.0, 4.0], [2.0, 4.0], [2.0, 4.0], [2.0, 4.0]])
        s = scenario_with_agent(track)
        poses, sizes = agent_boxes(s)
        assert poses.xy.shape == (1, 7, 2) and poses.heading.shape == (1, 7)
        assert poses.xy[0, 0].tolist() == [0.0, 0.0]
        assert poses.heading[0, 0] == math.pi / 2
        gt = agent_pose_track(s, 0)
        assert poses.xy[0, 1:].tolist() == gt.xy.tolist()
        assert poses.heading[0, 1:].tolist() == gt.heading.tolist()
        assert sizes.tolist() == [[4.5, 1.9]]

    def test_agent_free_scene(self):
        poses, sizes = agent_boxes(empty_scenario())
        assert poses.xy.shape == (0, 7, 2) and poses.heading.shape == (0, 7)
        assert sizes.shape == (0, 2)
        assert collision_ticks(empty_scenario(), straight_plan()) == [False] * 6


class TestBoundaryOverstep:
    def _scenario_with_boundary(self, x, drivable_side):
        bd = MapVector(
            MapClass.ROAD_BOUNDARY,
            Polyline([Point2(x, -20.0), Point2(x, 20.0)]),
            1.0,
            drivable_side,
        )
        return Scenario(
            map=[bd],
            agents=[],
            agent_gt_futures=[],
            ego=EgoState(Point2(0, 0), math.pi / 2, 4.0, 0.0, 0.0, Command.GO_STRAIGHT),
            expert=straight_plan().waypoints,
            horizon_dt=0.5,
            perception_range=(60.0, 30.0),
        )

    def test_inside_corridor_is_clean(self):
        # boundary 5 m right of a straight-up plan; polyline runs +y so the
        # drivable area is on its left
        s = self._scenario_with_boundary(5.0, "left")
        assert not boundary_overstep(s, straight_plan())

    def test_crossing_is_flagged(self):
        s = self._scenario_with_boundary(5.0, "left")
        drifting = PlanTrajectory(straight_plan().waypoints + np.array([7.0, 0.0]))
        assert boundary_overstep(s, drifting)

    def test_corner_graze_is_flagged(self):
        # center stays inside but the right half of the 1.85 m wide box pokes out
        s = self._scenario_with_boundary(5.0, "left")
        graze = PlanTrajectory(straight_plan().waypoints + np.array([4.5, 0.0]))
        assert boundary_overstep(s, graze)


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
