"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavy criteria (the
toggle ablation and the 60-epoch training run) take a few minutes combined.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from _support import (
    boundary_term,
    direction_term,
    fd_param_gradient,
    fd_plan_gradient,
    max_rel_err,
    polyline_set,
    sample_boundary_config,
    sample_collision_config,
    sample_direction_config,
    sample_imitation_config,
    scene0,
    segment_distance,
    take_agents,
    take_map,
)

from vecplan import autodiff as ad
from vecplan.cli import main as cli_main
from vecplan.constraints import (
    ConstraintParams,
    collision_loss,
    imitation_loss,
)
from vecplan.geometry import (
    Point2,
    angular_difference,
    box_frame,
    oriented_rect_overlap,
)
from vecplan.interact import InteractionConfig, InteractionParams, forward_plan
from vecplan.learning import TrainConfig, minfde_select, train
from vecplan.metrics import AblationArm, ablation_report, collision_rate
from vecplan.scene import (
    GeneratorConfig,
    PlanTrajectory,
    best_mode_index,
    generate_scenario,
)

PAPER_PARAMS = ConstraintParams()


def report(criterion: int, detail: str):
    print(f"\n[criterion {criterion}] PASS {detail}")


class TestCriterion1GradientFidelity:
    def test_analytic_gradients_match_finite_differences(self):
        """100 seeded non-degenerate configs per loss, rel err < 1e-6, < 10 s."""
        t0 = time.time()
        worst = 0.0
        rng = np.random.default_rng(1001)
        for _ in range(100):
            plan, tracks = sample_collision_config(rng, PAPER_PARAMS)
            res = collision_loss(plan, tracks, PAPER_PARAMS)
            fd = fd_plan_gradient(
                lambda w: collision_loss(PlanTrajectory(w), tracks, PAPER_PARAMS).value,
                plan.waypoints,
            )
            worst = max(worst, max_rel_err(res.grad, fd))
        rng = np.random.default_rng(1002)
        for _ in range(100):
            plan, boundaries = sample_boundary_config(rng, PAPER_PARAMS)
            res = boundary_term(plan, boundaries, PAPER_PARAMS)
            fd = fd_plan_gradient(
                lambda w: boundary_term(PlanTrajectory(w), boundaries, PAPER_PARAMS).value,
                plan.waypoints,
            )
            worst = max(worst, max_rel_err(res.grad, fd))
        rng = np.random.default_rng(1003)
        for _ in range(100):
            plan, dividers = sample_direction_config(rng, PAPER_PARAMS)
            res = direction_term(plan, dividers, PAPER_PARAMS)
            fd = fd_plan_gradient(
                lambda w: direction_term(PlanTrajectory(w), dividers, PAPER_PARAMS).value,
                plan.waypoints,
            )
            worst = max(worst, max_rel_err(res.grad, fd))
        rng = np.random.default_rng(1004)
        for _ in range(100):
            plan, expert = sample_imitation_config(rng)
            res = imitation_loss(plan, expert)
            fd = fd_plan_gradient(
                lambda w: imitation_loss(PlanTrajectory(w), expert).value, plan.waypoints
            )
            worst = max(worst, max_rel_err(res.grad, fd))
        elapsed = time.time() - t0
        assert worst < 1e-6, f"worst rel err {worst}"
        assert elapsed < 10.0, f"gradient fidelity took {elapsed:.1f}s"
        report(1, f"gradient fidelity: worst rel err {worst:.2e} over 400 configs in {elapsed:.1f}s")


class TestCriterion2CollisionHandCases:
    def test_hand_cases_exact(self):
        """The three collision hand cases (0.0 / 0.5 / 1.5) at tolerance 1e-12.

        Safety margins are the published defaults (1.5 m lateral, 3.0 m
        longitudinal).  Case two keeps the agent at per-axis distances
        (1.0, 3.5), which is Euclidean 3.64 m from the waypoint, so per its
        definition it runs with a wide search radius; the spec module
        example states exactly that ('search range large'), and the default
        3.0 m radius is exercised by the other two cases.
        """

        def agent(x, y):
            # the (1, 1, 2) track of one agent at (x, y)
            return np.array([[[x, y]]], dtype=np.float64)

        plan = PlanTrajectory(np.zeros((1, 2)))
        wide = ConstraintParams(agent_search_range=100.0)

        case_a = collision_loss(plan, agent(10.0, 10.0), PAPER_PARAMS).value
        case_b = collision_loss(plan, agent(1.0, 3.5), wide).value
        case_c = collision_loss(plan, agent(1.0, 2.0), PAPER_PARAMS).value
        assert abs(case_a - 0.0) <= 1e-12
        assert abs(case_b - 0.5) <= 1e-12
        assert abs(case_c - 1.5) <= 1e-12
        report(2, f"collision hand cases: {case_a} / {case_b} / {case_c} == 0.0 / 0.5 / 1.5")


class TestCriterion3BoundaryDirectionHandCases:
    def test_boundary_and_direction_fixtures(self):
        bd = [Point2(5.0, -10.0), Point2(5.0, 10.0)]
        plan = PlanTrajectory(np.array([[4.6, 0.0]]))
        bd_value = boundary_term(plan, [bd], PAPER_PARAMS).value
        assert abs(bd_value - 0.6) <= 1e-12

        divider = [Point2(0.0, -10.0), Point2(0.0, 10.0)]
        diag = PlanTrajectory(np.array([[1.0, 1.0]]))
        dir_value = direction_term(diag, [divider], PAPER_PARAMS).value
        assert abs(dir_value - math.pi / 4) <= 1e-12
        report(3, f"boundary 0.6 fixture -> {bd_value}; direction pi/4 fixture -> {dir_value:.12f}")


class TestCriterion4Autodiff:
    def test_full_network_gradients_and_softmax(self):
        config = InteractionConfig(d_model=8, d_command=4)
        gen = GeneratorConfig(agent_count_range=(2, 3), mode_count=3)
        worst = 0.0
        for seed in range(5):
            scenario = generate_scenario(100 + seed, gen)
            params = InteractionParams.initialize(config, seed)

            def loss_value():
                res = forward_plan(scenario, params)
                return imitation_loss(res.plan, scenario.expert).value

            result = forward_plan(scenario, params)
            seed_grad = imitation_loss(result.plan, scenario.expert).grad.reshape(1, -1)
            grads = result.tape.backward_from([(result.plan_node, seed_grad)])
            for name in params.tensors:
                fd = fd_param_gradient(loss_value, params.tensors[name])
                worst = max(worst, max_rel_err(grads[result.params[name]], fd))
        assert worst < 1e-4, f"worst parameter rel err {worst}"

        rng = np.random.default_rng(7)
        tape = ad.Tape()
        soft = ad.softmax_rows(tape.leaf(rng.uniform(-50, 50, size=(40, 9))))
        sums = soft.data.sum(axis=1)
        assert np.all(np.abs(sums - 1.0) <= 1e-12)
        report(4, f"full-network gradients: worst rel err {worst:.2e} over 5 seeds; "
                  f"softmax row sums within {np.max(np.abs(sums-1.0)):.1e}")


class TestCriterion5OracleEquivalence:
    def test_closest_polyline_within_oracle(self):
        from vecplan.geometry import closest_polyline_within

        rng = np.random.default_rng(501)
        checked = 0
        for _ in range(120):
            pls = []
            for _ in range(int(rng.integers(1, 11))):
                pts = rng.uniform(-20, 20, size=(int(rng.integers(2, 21)), 2))
                if pts.shape[0] == 2 and np.allclose(pts[0], pts[1]):
                    pts[1] += 1.0
                pls.append(pts)
            p = rng.uniform(-25, 25, size=2)
            within = float(rng.uniform(0.5, 30.0))
            best = None
            for i, pl in enumerate(pls):
                pts = pl.tolist()
                for s in range(len(pts) - 1):
                    if pts[s] == pts[s + 1]:
                        continue
                    d, _ = segment_distance(p, pts[s], pts[s + 1])
                    if best is None or d < best[1]:
                        best = (i, d)
            expected = best if best is not None and best[1] <= within else None
            got = scene0(closest_polyline_within(p[None], polyline_set(pls), within))
            if expected is None:
                assert (got.poly[0], got.found[0]) == (-1, False)
            else:
                assert got.poly[0] == expected[0] and abs(got.dist[0] - expected[1]) <= 1e-12
            checked += 1
        assert checked >= 100

    def test_best_mode_and_minfde_oracles(self):
        rng = np.random.default_rng(502)
        for _ in range(150):
            n_k = int(rng.integers(1, 8))
            scores = np.round(rng.uniform(0, 1, n_k), 2)
            modes = rng.uniform(-5, 5, (n_k, 4, 2))
            best_score, best_i = -1.0, 0
            for i, sc in enumerate(scores):
                if sc > best_score:
                    best_score, best_i = float(sc), i
            assert best_mode_index(scores) == best_i

            gt = rng.uniform(-5, 5, (4, 2))
            best_fde, best_k = math.inf, 0
            for k in range(n_k):
                fde = math.dist(modes[k, -1], gt[-1])
                if fde < best_fde:
                    best_fde, best_k = fde, k
            assert minfde_select(modes, gt) == best_k

    def test_collision_rate_oracle(self):
        scenarios = [generate_scenario(s) for s in range(100)]
        rng = np.random.default_rng(503)
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
                ticks = round(horizon / s.horizon_dt)
                ego = poses_of(plan.waypoints, (0.0, 0.0), math.pi / 2)
                hit = False
                for t in range(ticks):
                    for ai in range(len(s.agent_xy)):
                        track = poses_of(
                            s.agent_future[ai],
                            tuple(s.agent_xy[ai].tolist()),
                            float(s.agent_heading[ai]),
                        )
                        if oriented_rect_overlap(
                            box_frame(ego[t][0], ego[t][1], (4.0, 1.85)),
                            box_frame(track[t][0], track[t][1], tuple(s.agent_size[ai])),
                        ):
                            hit = True
                if hit:
                    count += 1
            assert got.values[hi] == pytest.approx(count * 100.0 / 100, abs=1e-12)
        report(5, "oracle equivalence: closest_polyline_within (120), best_mode/minFDE (150), "
                  "collision_rate (100 scenarios x 3 horizons)")


# the toggle-ablation experiment: lead vehicles and speed jitter create
# imitation-irreducible collision pressure, sparse scenes keep road curvature
# readable only through the map queries, and the collision margins cover the
# synthetic box footprints so the hinge can express box avoidance
ABLATION_GEN = GeneratorConfig(
    agent_count_range=(0, 5),
    min_agent_clearance=0.15,
    lane_change_probability=0.0,
    curvature_range=(-0.035, 0.035),
    speed_jitter=0.08,
    lead_vehicle_probability=0.5,
    lead_gap_slack=(0.1, 0.8),
)
ABLATION_CONSTRAINTS = ConstraintParams(
    agent_search_range=6.0, lateral_safety=2.2, longitudinal_safety=5.0
)
ABLATION_TRAIN = TrainConfig(epochs=50, train_scenarios=512, val_scenarios=16, seed=0)


@pytest.mark.slow
class TestCriterion6AblationDirection:
    def test_constraints_and_map_interaction_help(self):
        """Table-2-shaped directional check over 200 seeded scenarios."""
        t0 = time.time()
        arms = [
            AblationArm("full"),
            AblationArm(
                "no_constraints",
                collision_constraint=False,
                boundary_constraint=False,
                direction_constraint=False,
            ),
            AblationArm("no_map_inter", map_interaction=False),
        ]
        rep = ablation_report(
            arms,
            ABLATION_TRAIN,
            ABLATION_GEN,
            constraint_params=ABLATION_CONSTRAINTS,
            eval_count=200,
        )
        elapsed = time.time() - t0
        by_name = {row.arm.name: row for row in rep.rows}
        full = by_name["full"]
        bare = by_name["no_constraints"]
        no_map = by_name["no_map_inter"]

        assert full.collision_count_3s < bare.collision_count_3s, (
            f"constraints did not reduce collisions: "
            f"{full.collision_count_3s} vs {bare.collision_count_3s}"
        )
        assert full.metrics.l2.avg < no_map.metrics.l2.avg, (
            f"map interaction did not reduce L2: "
            f"{full.metrics.l2.avg} vs {no_map.metrics.l2.avg}"
        )
        assert elapsed < 1800.0, f"ablation took {elapsed:.0f}s"
        report(6, f"ablation direction: collisions {full.collision_count_3s} (full) < "
                  f"{bare.collision_count_3s} (no constraints); L2 avg {full.metrics.l2.avg:.3f} "
                  f"(full) < {no_map.metrics.l2.avg:.3f} (no map inter); {elapsed:.0f}s")


@pytest.mark.slow
class TestCriterion7TrainingProgress:
    def test_sixty_epoch_run_halves_validation_l2(self):
        """Threshold frozen at the stated halving after the calibration run
        (which reached a ratio of ~0.03)."""
        config = TrainConfig(epochs=60, train_scenarios=512, val_scenarios=64, seed=0)
        params, log = train(config, GeneratorConfig())
        first = log.epochs[0].val_l2_avg
        final = log.epochs[-1].val_l2_avg
        assert final < 0.5 * first, f"val L2 {first:.3f} -> {final:.3f} did not halve"

        # positional sensitivity with the trained model: translating all
        # agents longitudinally must change the plan
        s = generate_scenario(424242, GeneratorConfig(agent_count_range=(3, 5)))
        base = forward_plan(s, params).plan.waypoints
        moved = dataclasses.replace(
            s,
            agent_xy=s.agent_xy + [0.0, 10.0],
            agent_modes=s.agent_modes + [0.0, 10.0],
            agent_future=s.agent_future + [0.0, 10.0],
        )
        shifted = forward_plan(moved, params).plan.waypoints
        assert np.linalg.norm(shifted - base) > 0.0
        report(7, f"training progress: val L2 {first:.3f} -> {final:.3f} "
                  f"(ratio {final/first:.3f} < 0.5); trained model is position-sensitive")


class TestCriterion8Determinism:
    def test_commands_byte_identical_across_reruns(self, tmp_path):
        import json

        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "seed": 11,
            "output_dir": str(tmp_path / "out"),
            "generator": {"agent_count_range": [1, 3], "mode_count": 3},
            "interact": {"d_model": 8, "d_command": 4},
            "train": {"epochs": 2, "train_scenarios": 6, "val_scenarios": 3},
            "simulator": {"refine_steps": 8},
            "metrics": {"eval_count": 3},
        }))
        cfg = str(config_path)

        assert cli_main(["generate", "--config", cfg, "--count", "3"]) == 0
        assert cli_main(["train", "--config", cfg]) == 0
        scenario_dir = str(tmp_path / "out" / "scenarios")
        assert cli_main([
            "simulate", "--config", cfg, "--scenario", scenario_dir,
            "--planner", "model", "--checkpoint", str(tmp_path / "out" / "checkpoint.txt"),
        ]) == 0
        assert cli_main(["evaluate", "--config", cfg, "--planner", "refine", "--count", "3"]) == 0

        # second pass in --check mode recomputes everything and verifies bytes
        assert cli_main(["generate", "--config", cfg, "--count", "3", "--check"]) == 0
        assert cli_main(["train", "--config", cfg, "--check"]) == 0
        assert cli_main([
            "simulate", "--config", cfg, "--scenario", scenario_dir,
            "--planner", "model", "--checkpoint", str(tmp_path / "out" / "checkpoint.txt"),
            "--check",
        ]) == 0
        assert cli_main([
            "evaluate", "--config", cfg, "--planner", "refine", "--count", "3", "--check",
        ]) == 0
        report(8, "determinism: generate/train/simulate/evaluate byte-identical on rerun")


class TestCriterion9InvarianceSuite:
    def test_invariances(self):
        rng = np.random.default_rng(901)
        shift = np.array([4.2, -7.7])

        # translation invariance of collision loss
        plan, tracks = sample_collision_config(rng, PAPER_PARAMS)
        base = collision_loss(plan, tracks, PAPER_PARAMS).value
        moved = collision_loss(
            PlanTrajectory(plan.waypoints + shift), tracks + shift, PAPER_PARAMS
        ).value
        assert abs(base - moved) <= 1e-12

        # translation invariance of boundary loss
        plan, boundaries = sample_boundary_config(rng, PAPER_PARAMS)
        moved_bd = [b + shift for b in boundaries]
        base = boundary_term(plan, boundaries, PAPER_PARAMS).value
        moved = boundary_term(
            PlanTrajectory(plan.waypoints + shift), moved_bd, PAPER_PARAMS
        ).value
        assert abs(base - moved) <= 1e-12

        # rotation invariance of direction loss
        plan, dividers = sample_direction_config(rng, PAPER_PARAMS)
        phi = 1.1
        rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
        rot_dividers = [np.array([rot @ p for p in d]) for d in dividers]
        base = direction_term(plan, dividers, PAPER_PARAMS).value
        rotated = direction_term(
            PlanTrajectory(plan.waypoints @ rot.T), rot_dividers, PAPER_PARAMS
        ).value
        assert abs(base - rotated) <= 1e-9

        # permutation equivariance of the interaction network
        s = generate_scenario(99, GeneratorConfig(agent_count_range=(5, 5)))
        params = InteractionParams.initialize(InteractionConfig(), seed=3)
        base_plan = forward_plan(s, params).plan.waypoints
        aperm = rng.permutation(len(s.agent_xy))
        mperm = rng.permutation(len(s.map_xy))
        permuted = take_map(take_agents(s, aperm), mperm)
        perm_plan = forward_plan(permuted, params).plan.waypoints
        assert np.max(np.abs(perm_plan - base_plan)) <= 1e-10

        # scaling invariance of angular difference
        for _ in range(200):
            v1 = rng.uniform(-5, 5, 2)
            v2 = rng.uniform(-5, 5, 2)
            n1, n2 = np.linalg.norm(v1), np.linalg.norm(v2)
            sin_angle = abs(v1[0] * v2[1] - v1[1] * v2[0]) / (n1 * n2) if n1 * n2 else 0.0
            if n1 < 0.1 or n2 < 0.1 or sin_angle < 0.01:
                continue
            scale = float(rng.uniform(0.01, 80.0))
            base = angular_difference([v1], [v2])[0]
            assert abs(angular_difference([v1 * scale], [v2])[0] - base) <= 1e-9
            assert abs(angular_difference([v1], [v2 * scale])[0] - base) <= 1e-9

        report(9, "invariance suite: collision/boundary translation, direction rotation, "
                  "network permutation equivariance, angular scaling")
