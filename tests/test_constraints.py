import dataclasses
import math

import numpy as np
import pytest
from _support import (
    boundary_term,
    direction_term,
    fd_plan_gradient,
    looped_collision_loss,
    max_rel_err,
    sample_boundary_config,
    sample_collision_config,
    sample_direction_config,
    sample_imitation_config,
    take_map,
    unpacked_planning_loss,
)

from vecplan.constraints import (
    COLLISION_MODES,
    ConstraintParams,
    LossWeights,
    boundary_loss,
    collision_loss,
    direction_loss,
    imitation_loss,
    map_search,
    total_planning_loss,
)
from vecplan.errors import GeometryError, ShapeError
from vecplan.geometry import Point2, PolylineSet
from vecplan.scene import (
    GeneratorConfig,
    PlanTrajectory,
    generate_scenario,
    pack,
)

PAPER_PARAMS = ConstraintParams()  # thresholds 0.5/0.5, 3.0, 1.0, 2.0, 1.5, 3.0


def agent_at(x, y, t_f=1):
    """The track of an agent that stays at (x, y) for `t_f` steps."""
    return np.tile([x, y], (t_f, 1)).astype(np.float64)


def boundary_line(x, lo=-10.0, hi=10.0):
    return np.array([Point2(x, lo), Point2(x, hi)])


def divider_line(x, lo=-10.0, hi=10.0):
    return np.array([Point2(x, lo), Point2(x, hi)])


class TestCollisionLoss:
    def test_no_agent_in_range(self):
        plan = PlanTrajectory(np.zeros((1, 2)))
        res = collision_loss(plan, np.array([agent_at(20.0, 20.0)]), PAPER_PARAMS)
        assert res.value == 0.0
        assert not res.grad.any()

    def test_lateral_hinge_only(self):
        # per-axis distances (1.0, 3.5) with a wide search radius: lateral
        # hinge gives 1.5 - 1.0 = 0.5, longitudinal 3.5 >= 3.0 contributes 0
        params = ConstraintParams(agent_search_range=100.0)
        plan = PlanTrajectory(np.zeros((1, 2)))
        res = collision_loss(plan, np.array([agent_at(1.0, 3.5)]), params)
        assert res.value == pytest.approx(0.5, abs=1e-12)

    def test_search_radius_gates_candidates(self):
        # same agent at Euclidean distance 3.64 > 3.0: not a candidate
        plan = PlanTrajectory(np.zeros((1, 2)))
        res = collision_loss(plan, np.array([agent_at(1.0, 3.5)]), PAPER_PARAMS)
        assert res.value == 0.0
        assert not res.grad.any()

    def test_both_hinges_active(self):
        # per-axis distances (1.0, 2.0), Euclidean 2.24 < 3.0:
        # 0.5 lateral + 1.0 longitudinal
        plan = PlanTrajectory(np.zeros((1, 2)))
        res = collision_loss(plan, np.array([agent_at(1.0, 2.0)]), PAPER_PARAMS)
        assert res.value == pytest.approx(1.5, abs=1e-12)

    def test_hinge_boundary_uses_zero_branch(self):
        params = ConstraintParams(agent_search_range=100.0)
        plan = PlanTrajectory(np.zeros((1, 2)))
        res = collision_loss(plan, np.array([agent_at(1.5, 3.0)]), params)
        assert res.value == 0.0

    def test_empty_agent_list(self):
        plan = PlanTrajectory(np.zeros((3, 2)))
        res = collision_loss(plan, np.zeros((0, 3, 2)), PAPER_PARAMS)
        assert res.value == 0.0

    def test_mean_over_horizon(self):
        plan = PlanTrajectory(np.zeros((2, 2)))
        res = collision_loss(plan, np.array([agent_at(1.0, 2.0, t_f=2)]), PAPER_PARAMS)
        assert res.value == pytest.approx(1.5, abs=1e-12)  # same term both steps

    def test_per_axis_minima_can_come_from_different_agents(self):
        params = ConstraintParams(agent_search_range=10.0)
        plan = PlanTrajectory(np.zeros((1, 2)))
        agents = [agent_at(1.0, 2.9), agent_at(2.9, 2.0)]
        res = collision_loss(plan, np.array(agents), params)
        # lateral min 1.0 from agent 0, longitudinal min 2.0 from agent 1
        assert res.value == pytest.approx(0.5 + 1.0, abs=1e-12)

    def test_single_nearest_mode(self):
        params = ConstraintParams(collision_mode="single_nearest")
        plan = PlanTrajectory(np.zeros((1, 2)))
        agents = [agent_at(1.0, 2.0), agent_at(0.5, 2.8)]
        # Euclidean nearest is agent 0 at sqrt(5)=2.24 (< 2.84), its per-axis
        # distances (1.0, 2.0) drive both hinges
        res = collision_loss(plan, np.array(agents), params)
        assert res.value == pytest.approx(1.5, abs=1e-12)

    @pytest.mark.parametrize("mode", COLLISION_MODES)
    def test_matches_the_per_axis_loop(self, mode):
        # both axes in one pass give the loop's bits while T_f < 8: a sum of
        # at most 7 hinge terms adds in step order, with or without the
        # inactive steps' zeros; from 8 terms on numpy groups the loop's sum
        # pairwise.  Half-metre grids make ties in distance, in per-axis gap
        # and at the margins.
        params = ConstraintParams(collision_mode=mode)
        rng = np.random.default_rng(11)
        for t_f in range(1, 13):
            for trial in range(30):
                n_a = int(rng.integers(1, 6))
                w = rng.uniform(-3.0, 3.0, (t_f, 2))
                offsets = rng.uniform(-4.0, 4.0, (n_a, t_f, 2))
                grid = trial % 2 == 0
                if grid:
                    w, offsets = np.round(w * 2.0) / 2.0, np.round(offsets * 2.0) / 2.0
                tracks = w + offsets
                res = collision_loss(PlanTrajectory(w), tracks, params)
                value, grad = looped_collision_loss(w, tracks, params)
                assert np.array_equal(res.grad, grad), (t_f, trial)
                if grid or t_f < 8:
                    assert res.value == value, (t_f, trial)
                else:
                    assert res.value == pytest.approx(value, rel=1e-12, abs=1e-15)

    def test_monotone_in_active_agent_distance(self):
        plan = PlanTrajectory(np.zeros((1, 2)))
        prev = math.inf
        for dx in np.linspace(0.1, 3.5, 30):
            value = collision_loss(plan, np.array([agent_at(dx, 0.5)]), PAPER_PARAMS).value
            assert value <= prev + 1e-12
            prev = value

    def test_translation_invariance(self):
        rng = np.random.default_rng(0)
        plan, agents = sample_collision_config(rng, PAPER_PARAMS)
        shift = np.array([3.7, -2.1])
        moved_agents = agents + shift
        moved_plan = PlanTrajectory(plan.waypoints + shift)
        moved = collision_loss(moved_plan, moved_agents, PAPER_PARAMS).value
        assert moved == pytest.approx(
            collision_loss(plan, agents, PAPER_PARAMS).value, abs=1e-12
        )

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            plan, agents = sample_collision_config(rng, PAPER_PARAMS)
            tracks = agents
            res = collision_loss(plan, tracks, PAPER_PARAMS)
            fd = fd_plan_gradient(
                lambda w: collision_loss(PlanTrajectory(w), tracks, PAPER_PARAMS).value,
                plan.waypoints,
            )
            assert max_rel_err(res.grad, fd) < 1e-6

    def test_gradient_matches_fd_single_nearest(self):
        params = ConstraintParams(collision_mode="single_nearest")
        rng = np.random.default_rng(43)
        for _ in range(10):
            plan, agents = sample_collision_config(rng, params)
            tracks = agents
            res = collision_loss(plan, tracks, params)
            fd = fd_plan_gradient(
                lambda w: collision_loss(PlanTrajectory(w), tracks, params).value,
                plan.waypoints,
            )
            assert max_rel_err(res.grad, fd) < 1e-6


class TestBoundaryLoss:
    def test_all_waypoints_clear(self):
        plan = PlanTrajectory(np.zeros((2, 2)))
        res = boundary_term(plan, [boundary_line(5.0)], PAPER_PARAMS)
        assert res.value == 0.0

    def test_hand_case(self):
        # waypoint 0.4 m from the boundary, clearance 1.0 -> penalty 0.6
        plan = PlanTrajectory(np.array([[4.6, 0.0]]))
        res = boundary_term(plan, [boundary_line(5.0)], PAPER_PARAMS)
        assert res.value == pytest.approx(0.6, abs=1e-12)

    def test_waypoint_on_boundary_gets_max_penalty(self):
        plan = PlanTrajectory(np.array([[5.0, 0.0]]))
        res = boundary_term(plan, [boundary_line(5.0)], PAPER_PARAMS)
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert not res.grad.any()  # zero subgradient exactly on the line

    def test_no_boundaries(self):
        plan = PlanTrajectory(np.zeros((2, 2)))
        assert boundary_term(plan, [], PAPER_PARAMS).value == 0.0

    def test_translation_invariance(self):
        rng = np.random.default_rng(1)
        plan, boundaries = sample_boundary_config(rng, PAPER_PARAMS)
        shift = np.array([-1.3, 4.2])
        moved = [b + shift for b in boundaries]
        moved_plan = PlanTrajectory(plan.waypoints + shift)
        assert boundary_term(moved_plan, moved, PAPER_PARAMS).value == pytest.approx(
            boundary_term(plan, boundaries, PAPER_PARAMS).value, abs=1e-12
        )

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(44)
        active = 0
        for _ in range(25):
            plan, boundaries = sample_boundary_config(rng, PAPER_PARAMS)
            res = boundary_term(plan, boundaries, PAPER_PARAMS)
            if res.value > 0:
                active += 1
            fd = fd_plan_gradient(
                lambda w: boundary_term(PlanTrajectory(w), boundaries, PAPER_PARAMS).value,
                plan.waypoints,
            )
            assert max_rel_err(res.grad, fd) < 1e-6
        assert active > 5  # the check must exercise active hinges


class TestDirectionLoss:
    def test_parallel_to_divider(self):
        # plan runs straight up from the origin, divider is 0.5 m to the side
        plan = PlanTrajectory(np.array([[0.0, 1.0], [0.0, 2.0]]))
        res = direction_term(plan, [divider_line(0.5)], PAPER_PARAMS)
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_motion_hand_case(self):
        # divider along +y, single step (1, 1): angle pi/4
        plan = PlanTrajectory(np.array([[1.0, 1.0]]))
        res = direction_term(plan, [divider_line(0.0)], PAPER_PARAMS)
        assert res.value == pytest.approx(math.pi / 4, abs=1e-12)

    def test_out_of_range_divider_contributes_nothing(self):
        plan = PlanTrajectory(np.array([[0.0, 1.0]]))
        res = direction_term(plan, [divider_line(2.5)], PAPER_PARAMS)
        assert res.value == 0.0

    def test_zero_step_contributes_nothing(self):
        plan = PlanTrajectory(np.zeros((2, 2)))
        res = direction_term(plan, [divider_line(0.5)], PAPER_PARAMS)
        assert res.value == 0.0

    def test_no_dividers(self):
        plan = PlanTrajectory(np.ones((2, 2)))
        assert direction_term(plan, [], PAPER_PARAMS).value == 0.0

    def test_rotation_invariance(self):
        rng = np.random.default_rng(2)
        plan, dividers = sample_direction_config(rng, PAPER_PARAMS)
        base = direction_term(plan, dividers, PAPER_PARAMS).value
        phi = 0.7
        c, s = math.cos(phi), math.sin(phi)
        rot = np.array([[c, -s], [s, c]])
        rplan = PlanTrajectory(plan.waypoints @ rot.T)
        rdividers = [np.array([rot @ p for p in d]) for d in dividers]
        assert direction_term(rplan, rdividers, PAPER_PARAMS).value == pytest.approx(
            base, abs=1e-9
        )

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(45)
        active = 0
        for _ in range(25):
            plan, dividers = sample_direction_config(rng, PAPER_PARAMS)
            res = direction_term(plan, dividers, PAPER_PARAMS)
            if res.value > 0:
                active += 1
            fd = fd_plan_gradient(
                lambda w: direction_term(PlanTrajectory(w), dividers, PAPER_PARAMS).value,
                plan.waypoints,
            )
            assert max_rel_err(res.grad, fd) < 1e-6
        assert active > 5


class TestImitationLoss:
    def test_exact_match(self):
        plan = PlanTrajectory(np.ones((3, 2)))
        res = imitation_loss(plan, np.ones((3, 2)))
        assert res.value == 0.0
        assert not res.grad.any()

    def test_single_step_hand_case(self):
        plan = PlanTrajectory(np.zeros((1, 2)))
        res = imitation_loss(plan, np.array([[1.0, 2.0]]))
        assert res.value == pytest.approx(3.0, abs=1e-12)

    def test_two_step_hand_case(self):
        plan = PlanTrajectory(np.zeros((2, 2)))
        expert = np.array([[1.0, 0.0], [0.0, 1.0]])
        res = imitation_loss(plan, expert)
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            imitation_loss(PlanTrajectory(np.zeros((2, 2))), np.zeros((3, 2)))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(46)
        for _ in range(25):
            plan, expert = sample_imitation_config(rng)
            res = imitation_loss(plan, expert)
            fd = fd_plan_gradient(
                lambda w: imitation_loss(PlanTrajectory(w), expert).value, plan.waypoints
            )
            assert max_rel_err(res.grad, fd) < 1e-6


class TestRawInputsAreChecked:
    """The losses take a plan's waypoints as checked; every raw array a
    caller hands them is still checked where it enters."""

    PLAN = PlanTrajectory(np.zeros((3, 2)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_tracks_and_expert_rejected(self, bad):
        tracks = np.ones((2, 3, 2))
        tracks[1, 2, 0] = bad
        with pytest.raises(GeometryError):
            collision_loss(self.PLAN, tracks, PAPER_PARAMS)
        expert = np.ones((3, 2))
        expert[0, 1] = bad
        with pytest.raises(GeometryError):
            imitation_loss(self.PLAN, expert)

    def test_mis_shaped_tracks_and_expert_rejected(self):
        with pytest.raises(ShapeError):
            collision_loss(self.PLAN, np.ones((2, 4, 2)), PAPER_PARAMS)
        for tracks in (np.ones((3, 2)), np.ones((2, 3, 3))):
            with pytest.raises(GeometryError):
                collision_loss(self.PLAN, tracks, PAPER_PARAMS)
        with pytest.raises(ShapeError):
            imitation_loss(self.PLAN, np.ones((2, 2)))
        for expert in (np.ones(6), np.ones((3, 3))):
            with pytest.raises(GeometryError):
                imitation_loss(self.PLAN, expert)

    @pytest.mark.parametrize("loss", [boundary_loss, direction_loss])
    @pytest.mark.parametrize("bad", [
        [[0.0, math.nan], [0.0, 1.0]], [[math.inf, 0.0], [0.0, 1.0]], [[0.0, 0.0, 1.0]],
    ])
    def test_map_sets_only_hold_checked_polylines(self, loss, bad):
        # the map a loss reads is a PolylineSet, whose rows are checked
        # when it is made
        with pytest.raises(GeometryError):
            loss(self.PLAN,
                 map_search(self.PLAN, PolylineSet.of_scenes([[bad], [bad]], [[True], [True]]),
                            PAPER_PARAMS),
                 PAPER_PARAMS)


class TestTotalPlanningLoss:
    def test_zero_weights(self):
        s = generate_scenario(0)
        plan = PlanTrajectory(s.expert + 0.5)
        weights = LossWeights(collision=0, boundary=0, direction=0, imitation=0)
        res = total_planning_loss(plan, s, PAPER_PARAMS, weights)
        assert res.value == 0.0
        assert not res.grad.any()

    def test_single_active_term_equals_standalone(self):
        s = generate_scenario(1)
        plan = PlanTrajectory(s.expert + np.array([0.7, -0.4]))
        weights = LossWeights(collision=0, boundary=0, direction=0, imitation=2.5)
        res = total_planning_loss(plan, s, PAPER_PARAMS, weights)
        standalone = imitation_loss(plan, s.expert)
        assert res.value == pytest.approx(2.5 * standalone.value, abs=1e-12)
        np.testing.assert_allclose(res.grad, 2.5 * standalone.grad, atol=1e-12)

    def test_value_equals_weighted_breakdown(self):
        rng = np.random.default_rng(9)
        for seed in range(20):
            s = generate_scenario(seed)
            plan = PlanTrajectory(s.expert + rng.uniform(-2, 2, size=s.expert.shape))
            weights = LossWeights(
                collision=rng.uniform(0, 3),
                boundary=rng.uniform(0, 3),
                direction=rng.uniform(0, 3),
                imitation=rng.uniform(0, 3),
            )
            res = total_planning_loss(plan, s, PAPER_PARAMS, weights)
            hand = (
                weights.collision * res.breakdown["collision"]
                + weights.boundary * res.breakdown["boundary"]
                + weights.direction * res.breakdown["direction"]
                + weights.imitation * res.breakdown["imitation"]
            )
            assert res.value == pytest.approx(hand, abs=1e-12)

    def test_linear_in_weights(self):
        s = generate_scenario(5)
        plan = PlanTrajectory(s.expert + 1.0)
        base = total_planning_loss(plan, s, PAPER_PARAMS, LossWeights())
        doubled = total_planning_loss(
            plan, s, PAPER_PARAMS, LossWeights(collision=2.0)
        )
        assert doubled.value - base.value == pytest.approx(
            base.breakdown["collision"], abs=1e-12
        )

    def test_respects_confidence_filters(self):
        s = generate_scenario(6)
        s2 = dataclasses.replace(
            s,
            agent_confidence=np.full(len(s.agent_xy), 0.1),
            map_confidence=np.full(len(s.map_xy), 0.1),
        )
        plan = PlanTrajectory(s.expert + 0.8)
        res = total_planning_loss(plan, s2, PAPER_PARAMS, LossWeights())
        assert res.breakdown["collision"] == 0.0
        assert res.breakdown["boundary"] == 0.0
        assert res.breakdown["direction"] == 0.0


def _packed_terms(plan, scenario, params, weights):
    """{term: (value, grad)} of the losses on the packed scene, as the
    reference `unpacked_planning_loss` returns them."""
    packed = pack(scenario, params)
    total = total_planning_loss(plan, packed, params, weights)
    near = map_search(plan, packed.map, params)
    terms = {
        "collision": collision_loss(plan, packed.agent_tracks, params),
        "boundary": boundary_loss(plan, near, params),
        "direction": direction_loss(plan, near, params),
        "imitation": imitation_loss(plan, packed.scenario.expert),
        "total": total,
    }
    for name in ("collision", "boundary", "direction", "imitation"):
        assert total.breakdown[name] == terms[name].value
    return {name: (res.value, res.grad) for name, res in terms.items()}


class TestPackedScene:
    # confidences spread over [0, 1) so the 0.5 threshold keeps some of the
    # scene and the 1.0 threshold none of it
    SPREAD = dict(agent_confidence_range=(0.0, 0.99), map_confidence_range=(0.0, 0.99))
    CONFIGS = {
        "default": GeneratorConfig(**SPREAD),
        "dense": GeneratorConfig(agent_count_range=(8, 12), **SPREAD),
        "agent_free": GeneratorConfig(agent_count_range=(0, 0), **SPREAD),
        "map_free": GeneratorConfig(**SPREAD),
    }

    @staticmethod
    def _scene(kind, seed):
        s = generate_scenario(seed, TestPackedScene.CONFIGS[kind])
        return take_map(s, []) if kind == "map_free" else s

    def test_bit_equal_to_unpacked_reference(self):
        rng = np.random.default_rng(2024)
        thresholds = (0.0, 0.5, 1.0)
        scenes = 0
        for kind in self.CONFIGS:
            for seed in range(52):
                s = self._scene(kind, 100 * seed + 7)
                scenes += 1
                for i, threshold in enumerate(thresholds):
                    # every (agent, map) pair of thresholds over three seeds
                    params = ConstraintParams(
                        agent_min_confidence=threshold,
                        map_min_confidence=thresholds[(i + seed) % 3],
                        collision_mode=COLLISION_MODES[seed % 2],
                    )
                    weights = LossWeights(*rng.uniform(0.0, 2.0, size=6))
                    # plans near the expert, where the hinges fire
                    plan = PlanTrajectory(s.expert + rng.normal(0.0, 1.5, s.expert.shape))
                    want = unpacked_planning_loss(plan, s, params, weights)
                    got = _packed_terms(plan, s, params, weights)
                    # a plain scenario is packed on entry, by the same code
                    plain = total_planning_loss(plan, s, params, weights)
                    got["plain"] = (plain.value, plain.grad)
                    want["plain"] = want["total"]
                    for name, (value, grad) in want.items():
                        assert got[name][0] == value, (kind, seed, params, name)
                        assert np.array_equal(got[name][1], grad), (kind, seed, params, name)
        assert scenes >= 200

    @pytest.mark.parametrize("kind", ["agent_free", "map_free", "filtered_out"])
    def test_empty_parts_are_no_term(self, kind):
        threshold = 1.0 if kind == "filtered_out" else 0.0
        params = ConstraintParams(agent_min_confidence=threshold, map_min_confidence=threshold)
        s = self._scene("default" if kind == "filtered_out" else kind, 3)
        packed = pack(s, params)
        plan = PlanTrajectory(s.expert + 0.3)
        empty = []
        if kind != "map_free":
            assert len(packed.agent_tracks) == 0
            empty.append(collision_loss(plan, packed.agent_tracks, params))
        if kind != "agent_free":
            assert len(packed.map) == 0
            near = map_search(plan, packed.map, params)
            empty.append(boundary_loss(plan, near, params))
            empty.append(direction_loss(plan, near, params))
        for res in empty:
            assert res.value == 0.0
            assert np.array_equal(res.grad, np.zeros_like(plan.waypoints))
        res = total_planning_loss(plan, packed, params, LossWeights())
        zero = {
            "agent_free": ["collision"],
            "map_free": ["boundary", "direction"],
            "filtered_out": ["collision", "boundary", "direction"],
        }[kind]
        assert all(res.breakdown[name] == 0.0 for name in zero)

    def test_pack_is_read_only(self):
        packed = pack(generate_scenario(4), PAPER_PARAMS)
        assert packed.agent_tracks.shape == (len(packed.scenario.agent_xy), 6, 2)
        for a in (packed.agent_tracks, packed.map.start, packed.map.end):
            with pytest.raises(ValueError):
                a[...] = 0.0
        with pytest.raises(AttributeError):
            packed.agent_tracks = np.zeros((0, 6, 2))

    def test_thresholds_must_match(self):
        s = generate_scenario(8)
        packed = pack(s, PAPER_PARAMS)
        plan = PlanTrajectory(s.expert)
        with pytest.raises(ValueError, match="confidence thresholds"):
            other = ConstraintParams(map_min_confidence=0.2)
            total_planning_loss(plan, packed, other, LossWeights())


class TestConstraintParams:
    def test_rejects_non_positive_distances(self):
        with pytest.raises(ValueError):
            ConstraintParams(boundary_clearance=0.0)

    def test_warns_when_search_range_below_safety(self):
        with pytest.warns(UserWarning):
            ConstraintParams(agent_search_range=1.0)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            ConstraintParams(collision_mode="fancy")
