import dataclasses
import math

import numpy as np
import pytest
from _support import (
    SCENE_KINDS,
    boundary_term,
    looped_tick_flags,
    looped_view,
    map_arrays,
    one_mode_agents,
    package_calls,
    scene,
    scene_of_kind,
    with_mixed_modes,
)

from vecplan.constraints import ConstraintParams, LossWeights, total_planning_loss
from vecplan.errors import ScenarioFormatError, SimulationError
from vecplan.interact import InteractionConfig, InteractionParams, forward_plan
from vecplan.metrics import plan_metrics
from vecplan.geometry import Point2
from vecplan.scene import (
    Command,
    EgoState,
    MapClass,
    PlanTrajectory,
    GeneratorConfig,
    generate_scenario,
    pack,
    scenario_to_json,
)
from vecplan.simulator import (
    ConstantVelocityPlanner,
    ExpertPlanner,
    ModelPlanner,
    RefinePlanner,
    SimState,
    _build_view,
    constant_velocity_plan,
    ego_to_world,
    refine_trajectory,
    run_closed_loop,
    smoothness_loss,
    step,
    world_to_ego,
)

PARAMS = ConstraintParams()


def empty_scenario(speed=4.0, t_f=6, **arrays):
    """A scene of the given agent and map arrays, none where left out, with
    an expert that drives straight on at `speed`."""
    ys = np.arange(1, t_f + 1) * speed * 0.5
    ego = EgoState(Point2(0, 0), math.pi / 2, speed, 0.0, 0.0, Command.GO_STRAIGHT)
    return scene(np.column_stack([np.zeros(t_f), ys]), ego=ego, **arrays)


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


class TestView:
    def test_bit_equal_to_one_transform_per_element(self):
        # the stacked transforms give every view the bytes of the
        # per-element calls, for every tick, horizon and mode count
        rng = np.random.default_rng(4)
        scenes = [scene_of_kind(kind, 17 * seed + 2) for kind in SCENE_KINDS for seed in range(6)]
        scenes += [with_mixed_modes(scene_of_kind("dense", seed), rng) for seed in range(6)]
        short = GeneratorConfig(t_future=1, agent_count_range=(2, 5))
        scenes += [generate_scenario(seed, short) for seed in range(4)]
        for s in scenes:
            state = SimState.initial(s)
            for tick in range(s.t_future + 1):
                position = Point2(*rng.uniform(-3.0, 3.0, 2))
                heading = float(rng.uniform(-math.pi, math.pi))
                args = (s, state.agent_poses, tick, position, heading, 4.0, 0.5, 0.1)
                assert scenario_to_json(_build_view(*args)) == scenario_to_json(looped_view(*args))

    def test_fixed_arrays_pass_through(self):
        # the arrays that do not move with the ego are the scenario's own
        s = scene_of_kind("dense", 3)
        state = step(SimState.initial(s), constant_velocity_plan(s))
        for name in ("agent_size", "agent_confidence", "agent_mode_scores",
                     "agent_mode_count", "map_kind", "map_confidence", "map_side"):
            assert getattr(state.view, name) is getattr(s, name), name
        assert not np.shares_memory(state.view.map_xy, s.map_xy)

    def test_best_modes_pass_through(self, monkeypatch):
        # a view takes its source's best rows and finds none of its own;
        # they are the rows a scene built afresh from its arrays finds
        from vecplan import scene as scene_module

        s = with_mixed_modes(scene_of_kind("dense", 5), np.random.default_rng(3))
        assert len(set(s.agent_best - np.cumsum(s.agent_mode_count))) > 1
        state = SimState.initial(s)

        def unexpected(scores):
            raise AssertionError("a view looked for its best modes")

        with monkeypatch.context() as patch:
            patch.setattr(scene_module, "best_mode_index", unexpected)
            views = [state.view]
            for _ in range(s.t_future):
                state = step(state, constant_velocity_plan(state.view))
                views.append(state.view)
        for view in views[1:]:
            assert view.agent_best is s.agent_best
            fresh = dataclasses.replace(view, agent_mode_count=list(view.agent_mode_count))
            assert fresh.agent_best.tobytes() == view.agent_best.tobytes()
            assert fresh.agent_track.tobytes() == view.agent_track.tobytes()

    def test_best_modes_pass_only_with_their_scores_and_counts(self):
        s = scene_of_kind("dense", 6)
        with pytest.raises(ScenarioFormatError, match="source_best"):
            dataclasses.replace(s, source_best=s.agent_best)


class TestMixedModeCounts:
    def test_scene_runs_every_path(self):
        # agents with 1 to 6 modes each, best modes anywhere in the list
        s = with_mixed_modes(generate_scenario(5, GeneratorConfig(agent_count_range=(6, 6))),
                             np.random.default_rng(1))
        counts = s.agent_mode_count.tolist()
        assert len(set(counts)) > 1
        packed = pack(s, PARAMS)
        assert np.array_equal(packed.agent_tracks, s.agent_track)
        params = InteractionParams.initialize(InteractionConfig(t_future=s.t_future), seed=0)
        plan = forward_plan(s, params).plan
        metrics = plan_metrics([s], [plan])
        assert all(math.isfinite(v) for v in metrics.l2.values + metrics.collision.values)
        state = SimState.initial(s)
        for _ in range(2):
            state = step(state, plan)
            assert state.view.agent_mode_count.tolist() == counts
            plan = forward_plan(state.view, params).plan
        log = run_closed_loop(s, ModelPlanner(params), 2)
        assert [r.tick for r in log.records] == [1, 2]


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
        for i, fut in enumerate(s.agent_future):
            assert new.agent_positions[i].tolist() == [float(fut[0][0]), float(fut[0][1])]
            expected_local = world_to_ego(
                fut[0][None], new.ego_position, new.ego_heading
            )[0]
            np.testing.assert_allclose(new.view.agent_xy[i], expected_local, atol=1e-9)

    def test_agent_free_scene(self):
        state = SimState.initial(empty_scenario())
        assert state.agent_positions.shape == (0, 2)
        assert state.agent_headings.shape == (0,)
        new = step(state, constant_velocity_plan(state.view))
        assert new.agent_positions.shape == (0, 2) and new.view.agent_xy.shape == (0, 2)

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
    # a bound on the Python frames of one 60-step replan (61 evaluations) on
    # the first scene of the benchmark's refine rollouts (seed 0): 1,479
    # here, where a per-descent objective closure and a search chain that
    # sized its set through `__len__` made 1,540
    REPLAN_FRAMES = 1479

    def test_a_replan_stays_within_its_frame_budget(self):
        s = generate_scenario(int(np.random.SeedSequence((0, 2)).generate_state(2)[0]))
        planner = RefinePlanner(steps=60)
        want = planner.plan(s)  # warm: nothing below imports or compiles
        got, frames = package_calls(lambda: planner.plan(s))
        assert got == want
        assert frames <= self.REPLAN_FRAMES

    def test_zero_steps_returns_seed(self):
        s = generate_scenario(10)
        seed_plan = constant_velocity_plan(s)
        out = refine_trajectory(seed_plan, s, PARAMS, LossWeights(), 0, 0.1)
        np.testing.assert_array_equal(out.waypoints, seed_plan.waypoints)

    def test_boundary_violation_is_reduced(self):
        bd = np.array([Point2(1.5, -20.0), Point2(1.5, 20.0)])
        s = empty_scenario(map=map_arrays([bd], [MapClass.ROAD_BOUNDARY], sides=["left"]))
        # seed plan hugs the boundary: 0.5 m violation of the 1.0 m clearance
        seed_plan = PlanTrajectory(constant_velocity_plan(s).waypoints + [1.0, 0.0])
        before = boundary_term(seed_plan, [bd], PARAMS).value
        weights = LossWeights(collision=0, direction=0, imitation=0.05)
        out = refine_trajectory(seed_plan, s, PARAMS, weights, 80, 0.2)
        after = boundary_term(out, [bd], PARAMS).value
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

        from vecplan import constraints

        calls = {"total_planning_loss": 0, "constraint_terms": 0, "map_search": 0}
        for module, name in ((simulator, "total_planning_loss"),
                             (simulator, "constraint_terms"), (constraints, "map_search")):
            def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        out = refine_trajectory(seed_plan, s, PARAMS, weights, steps, step_size)
        # one evaluation of its own terms per iterate, one map search each,
        # and no training objective
        assert calls == {"total_planning_loss": 0, "constraint_terms": steps + 1,
                         "map_search": steps + 1}
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
        assert not any(r.collision for r in log.records)
        assert not any(r.boundary_overstep for r in log.records)

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
        agent = one_mode_agents([(6.0, 6.0)], crossing[None], heading=math.pi)
        s = empty_scenario(speed=4.0, agents=agent)
        log = run_closed_loop(s, ConstantVelocityPlanner(), ticks=t_f)
        assert any(r.collision for r in log.records)

    def test_flags_are_the_per_tick_scoring(self):
        # one collision_ticks and one boundary_overstep call over the executed
        # track flag each tick as scoring that tick's poses alone did, on
        # closed loops that collide and overstep
        dense = GeneratorConfig(agent_count_range=(8, 12))
        runs = [(generate_scenario(1450481485), RefinePlanner(), None),
                (generate_scenario(2, dense), RefinePlanner(), None)]
        runs += [(generate_scenario(seed, dense), planner, ticks)
                 for seed in (2, 5, 10, 11) for ticks in (None, 3)
                 for planner in (ConstantVelocityPlanner(), ExpertPlanner())]
        collided, overstepped = set(), set()
        for s, planner, ticks in runs:
            log = run_closed_loop(s, planner, s.t_future if ticks is None else ticks)
            flags = [(r.collision, r.boundary_overstep) for r in log.records]
            assert all(type(f) is bool for pair in flags for f in pair)
            assert flags == looped_tick_flags(s, log)
            if any(c for c, _ in flags):
                collided.add(type(planner))
            if any(o for _, o in flags):
                overstepped.add(type(planner))
        assert {RefinePlanner, ConstantVelocityPlanner} <= collided & overstepped

    def test_the_rollout_tracks_its_agents_once(self, monkeypatch):
        # the final collision_ticks call reads the poses SimState.initial
        # tracked; test_flags_are_the_per_tick_scoring checks its flags
        from vecplan import metrics, simulator

        track, calls = metrics.agent_pose_track, []

        def counted(*args, **kwargs):
            calls.append(args)
            return track(*args, **kwargs)

        monkeypatch.setattr(metrics, "agent_pose_track", counted)
        monkeypatch.setattr(simulator, "agent_pose_track", counted)
        s = generate_scenario(2, GeneratorConfig(agent_count_range=(8, 12)))
        for ticks in (s.t_future, 3):
            calls.clear()
            log = run_closed_loop(s, ConstantVelocityPlanner(), ticks)
            assert len(log.records) == ticks and len(calls) == 1

    def test_zero_ticks_give_an_empty_log(self):
        for s in (generate_scenario(5), empty_scenario()):
            log = run_closed_loop(s, ConstantVelocityPlanner(), ticks=0)
            assert log.records == []
            assert len(log.to_table().splitlines()) == 1  # the header alone

    def test_rollout_table_shape(self):
        s = generate_scenario(16)
        log = run_closed_loop(s, ConstantVelocityPlanner(), ticks=3)
        lines = log.to_table().strip().splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("tick,ego_x,ego_y")
