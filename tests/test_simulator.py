import math

import numpy as np
import pytest

from vecplan.constraints import ConstraintParams, LossWeights, boundary_loss, total_planning_loss
from vecplan.errors import SimulationError
from vecplan.geometry import Point2, Polyline
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
from vecplan.simulator import (
    ConstantVelocityPlanner,
    ExpertPlanner,
    RefinePlanner,
    SimState,
    constant_velocity_plan,
    ego_to_world,
    refine_trajectory,
    run_closed_loop,
    smoothness_loss,
    step,
    world_to_ego,
)

PARAMS = ConstraintParams()


def empty_scenario(speed=4.0, t_f=6):
    ys = np.arange(1, t_f + 1) * speed * 0.5
    return Scenario(
        map=[],
        agents=[],
        agent_gt_futures=[],
        ego=EgoState(Point2(0, 0), math.pi / 2, speed, 0.0, 0.0, Command.GO_STRAIGHT),
        expert=np.column_stack([np.zeros(t_f), ys]),
        horizon_dt=0.5,
        perception_range=(60.0, 30.0),
    )


class TestFrameTransforms:
    def test_round_trip_is_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            pts = rng.uniform(-20, 20, (7, 2))
            pos = Point2(*rng.uniform(-10, 10, 2))
            heading = float(rng.uniform(-math.pi, math.pi))
            back = ego_to_world(world_to_ego(pts, pos, heading), pos, heading)
            np.testing.assert_allclose(back, pts, atol=1e-9)

    def test_forward_point_maps_to_plus_y(self):
        pos = Point2(3.0, 4.0)
        heading = 0.3
        ahead = np.array([[pos.x + 2 * math.cos(heading), pos.y + 2 * math.sin(heading)]])
        local = world_to_ego(ahead, pos, heading)
        np.testing.assert_allclose(local, [[0.0, 2.0]], atol=1e-12)


class TestStep:
    def test_zero_plan_keeps_pose(self):
        s = empty_scenario()
        state = SimState.initial(s)
        new = step(state, PlanTrajectory(np.zeros((6, 2))))
        assert new.ego_position == Point2(0.0, 0.0)
        assert new.ego_heading == math.pi / 2
        assert new.tick == 1

    def test_agents_advance_along_ground_truth(self):
        s = generate_scenario(3)
        state = SimState.initial(s)
        plan = PlanTrajectory(s.expert.copy())
        new = step(state, plan)
        # agent world positions equal their gt tick-1 positions, and the
        # view re-expresses them with a hand-checkable transform
        for i, fut in enumerate(s.agent_gt_futures):
            assert new.agent_positions[i] == Point2(float(fut[0][0]), float(fut[0][1]))
            expected_local = world_to_ego(
                fut[0][None], new.ego_position, new.ego_heading
            )[0]
            got = new.view.agents[i].position
            np.testing.assert_allclose((got.x, got.y), expected_local, atol=1e-9)

    def test_horizon_exhausted(self):
        s = empty_scenario(t_f=2)
        state = SimState.initial(s)
        plan = PlanTrajectory(np.ones((2, 2)))
        state = step(state, plan)
        state = step(state, plan)
        with pytest.raises(SimulationError):
            step(state, plan)

    def test_view_expert_is_remainder_in_new_frame(self):
        s = empty_scenario(speed=4.0)
        state = SimState.initial(s)
        new = step(state, PlanTrajectory(s.expert.copy()))
        # ego sits on expert waypoint 1 heading +y, so the remaining expert
        # is 2 m spaced along +y ahead
        np.testing.assert_allclose(
            new.view.expert[:-1], s.expert[1:] - s.expert[0], atol=1e-9
        )


class TestPlanners:
    def test_constant_velocity_straight_line(self):
        s = empty_scenario(speed=6.0)
        plan = ConstantVelocityPlanner().plan(s)
        np.testing.assert_allclose(plan.waypoints[:, 0], np.zeros(6))
        np.testing.assert_allclose(np.diff(plan.waypoints[:, 1]), np.full(5, 3.0))

    def test_deterministic(self):
        s = generate_scenario(9)
        planner = RefinePlanner(steps=20)
        a = planner.plan(s).waypoints
        b = planner.plan(s).waypoints
        np.testing.assert_array_equal(a, b)


class TestSmoothness:
    def test_uniform_motion_is_smooth(self):
        assert smoothness_loss(constant_velocity_plan(empty_scenario())).value == pytest.approx(0.0)

    def test_gradient_matches_finite_differences(self):
        from _support import fd_plan_gradient, max_rel_err

        rng = np.random.default_rng(4)
        for _ in range(10):
            w = rng.uniform(-5, 5, (6, 2))
            res = smoothness_loss(PlanTrajectory(w))
            fd = fd_plan_gradient(lambda x: smoothness_loss(PlanTrajectory(x)).value, w)
            assert max_rel_err(res.grad, fd) < 1e-6

    def test_gradient_equals_per_difference_loop(self):
        rng = np.random.default_rng(8)
        for t_f in (1, 2, 3, 6):
            w = rng.uniform(-5, 5, (t_f, 2))
            q = np.vstack([np.zeros((1, 2)), w])
            second = q[2:] - 2.0 * q[1:-1] + q[:-2]
            coeff = 2.0 * second / max(len(second), 1)
            # q row k + 1 is waypoint k; q row 0 is the fixed origin
            expected = np.zeros_like(w)
            for k in range(len(second)):
                expected[k + 1] += coeff[k]
                expected[k] -= 2.0 * coeff[k]
                if k >= 1:
                    expected[k - 1] += coeff[k]
            np.testing.assert_array_equal(smoothness_loss(PlanTrajectory(w)).grad, expected)


class TestRefineTrajectory:
    def test_zero_steps_returns_seed(self):
        s = generate_scenario(10)
        seed_plan = constant_velocity_plan(s)
        out = refine_trajectory(seed_plan, s, PARAMS, LossWeights(), 0, 0.1)
        np.testing.assert_array_equal(out.waypoints, seed_plan.waypoints)

    def test_boundary_violation_is_reduced(self):
        bd = MapVector(
            MapClass.ROAD_BOUNDARY,
            Polyline([Point2(1.5, -20.0), Point2(1.5, 20.0)]),
            1.0,
            "left",
        )
        s = empty_scenario()
        s = Scenario(
            map=[bd], agents=[], agent_gt_futures=[], ego=s.ego, expert=s.expert,
            horizon_dt=s.horizon_dt, perception_range=s.perception_range,
        )
        # seed plan hugs the boundary: 0.5 m violation of the 1.0 m clearance
        seed_plan = PlanTrajectory(constant_velocity_plan(s).waypoints + [1.0, 0.0])
        before = boundary_loss(seed_plan, [bd], PARAMS).value
        weights = LossWeights(collision=0, direction=0, imitation=0.05)
        out = refine_trajectory(seed_plan, s, PARAMS, weights, 80, 0.2)
        after = boundary_loss(out, [bd], PARAMS).value
        assert before > 0
        assert after < before

    def test_never_worse_than_seed(self):
        weights = LossWeights(imitation=0.1)
        for seed in range(10):
            s = generate_scenario(seed)
            seed_plan = constant_velocity_plan(s)

            def objective(plan):
                from vecplan.simulator import smoothness_loss as sm

                res = total_planning_loss(
                    plan, s, PARAMS,
                    LossWeights(collision=1, boundary=1, direction=1, imitation=0),
                )
                return res.value + 0.1 * sm(plan).value

            out = refine_trajectory(seed_plan, s, PARAMS, weights, 30, 0.2)
            assert objective(out) <= objective(seed_plan) + 1e-12

    def test_waypoints_stay_in_perception_range(self):
        s = generate_scenario(11)
        wild = PlanTrajectory(np.full((6, 2), 100.0))
        out = refine_trajectory(wild, s, PARAMS, LossWeights(), 3, 5.0)
        assert np.all(np.abs(out.waypoints[:, 0]) <= 15.0)
        assert np.all(np.abs(out.waypoints[:, 1]) <= 30.0)

    def test_one_objective_evaluation_per_iterate(self, monkeypatch):
        from vecplan import simulator

        s = generate_scenario(3)
        weights = LossWeights(imitation=0.5)
        no_imitation = LossWeights(imitation=0.0)
        steps, step_size = 25, 0.2
        seed_plan = constant_velocity_plan(s)

        def objective(w):
            plan = PlanTrajectory(w)
            res = total_planning_loss(plan, s, PARAMS, no_imitation)
            smooth = smoothness_loss(plan)
            return res.value + 0.5 * smooth.value, res.grad + 0.5 * smooth.grad

        # reference: the gradient at the top of each step, then a second
        # evaluation to score the new iterate
        long_half, lat_half = s.perception_range[0] / 2.0, s.perception_range[1] / 2.0
        current = seed_plan.waypoints.copy()
        best_value, best = objective(current)[0], current.copy()
        for _ in range(steps):
            current = current - step_size * objective(current)[1]
            current[:, 0] = np.clip(current[:, 0], -lat_half, lat_half)
            current[:, 1] = np.clip(current[:, 1], -long_half, long_half)
            value = objective(current)[0]
            if value < best_value:
                best_value, best = value, current.copy()

        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return total_planning_loss(*args, **kwargs)

        monkeypatch.setattr(simulator, "total_planning_loss", counted)
        out = refine_trajectory(seed_plan, s, PARAMS, weights, steps, step_size)
        assert len(calls) == steps + 1
        np.testing.assert_array_equal(out.waypoints, best)
        assert not np.array_equal(best, seed_plan.waypoints)

    def test_rejects_bad_arguments(self):
        s = generate_scenario(12)
        plan = constant_velocity_plan(s)
        with pytest.raises(ValueError):
            refine_trajectory(plan, s, PARAMS, LossWeights(), -1, 0.1)
        with pytest.raises(ValueError):
            refine_trajectory(plan, s, PARAMS, LossWeights(), 5, 0.0)


class TestClosedLoop:
    def test_empty_scene_clean_flags(self):
        s = empty_scenario()
        log = run_closed_loop(s, ConstantVelocityPlanner(), ticks=6)
        assert len(log.records) == 6
        assert log.collision_count == 0
        assert log.overstep_count == 0

    def test_log_length_matches_ticks(self):
        s = generate_scenario(13)
        log = run_closed_loop(s, ConstantVelocityPlanner(), ticks=4)
        assert [r.tick for r in log.records] == [1, 2, 3, 4]

    def test_too_many_ticks_rejected(self):
        s = generate_scenario(14)
        with pytest.raises(SimulationError):
            run_closed_loop(s, ConstantVelocityPlanner(), ticks=s.t_future + 1)

    def test_determinism(self):
        s = generate_scenario(15)
        a = run_closed_loop(s, RefinePlanner(steps=15), ticks=6)
        b = run_closed_loop(s, RefinePlanner(steps=15), ticks=6)
        assert a.to_table() == b.to_table()

    def test_pure_imitation_pass_through(self):
        # expert-following planner with zero constraint weights: executed ego
        # positions must replay the expert trajectory exactly
        for seed in range(10):
            s = generate_scenario(seed)
            log = run_closed_loop(s, ExpertPlanner(), ticks=s.t_future)
            executed = np.array([[r.ego_position.x, r.ego_position.y] for r in log.records])
            np.testing.assert_allclose(executed, s.expert, atol=1e-9)

    def test_scripted_crossing_agent_hits_blind_planner(self):
        # agent crosses the ego path at tick 3 while the planner drives
        # straight ignoring agents
        t_f = 6
        crossing = np.column_stack([np.linspace(4.0, -6.0, t_f), np.full(t_f, 6.0)])
        agent = AgentPrediction(
            position=Point2(6.0, 6.0),
            heading=math.pi,
            size=(4.5, 1.9),
            confidence=1.0,
            modes=crossing[None],
            mode_scores=np.array([1.0]),
        )
        s = empty_scenario(speed=4.0)
        s = Scenario(
            map=[], agents=[agent], agent_gt_futures=[crossing], ego=s.ego,
            expert=s.expert, horizon_dt=s.horizon_dt, perception_range=s.perception_range,
        )
        log = run_closed_loop(s, ConstantVelocityPlanner(), ticks=t_f)
        assert log.collision_count >= 1

    def test_rollout_table_shape(self):
        s = generate_scenario(16)
        log = run_closed_loop(s, ConstantVelocityPlanner(), ticks=3)
        lines = log.to_table().strip().splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("tick,ego_x,ego_y")
