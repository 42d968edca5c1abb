import dataclasses
import gc
import weakref

import numpy as np
import pytest
from _support import (
    SCENE_KINDS,
    fd_param_gradient,
    looped_scene_features,
    max_rel_err,
    scene_of_kind,
    take_agents,
    take_map,
    with_mixed_modes,
    with_repeated_map_points,
)

from vecplan import autodiff as ad
from vecplan.constraints import imitation_loss
from vecplan.errors import CheckpointError, ConfigError, ShapeError
from vecplan.interact import (
    OUTPUT_SCALE,
    InteractionConfig,
    InteractionParams,
    decoder_block,
    encode_queries,
    forward_plan,
    parameter_shapes,
    scene_features,
)
from vecplan.learning import AdamW
from vecplan.scene import GeneratorConfig, generate_scenario

SMALL = InteractionConfig(d_model=8, d_command=4)


def small_params(seed=0, config=SMALL):
    return InteractionParams.initialize(config, seed)


def scenario_with(seed=0, **gen_kwargs):
    return generate_scenario(seed, GeneratorConfig(**gen_kwargs))


class TestSceneFeatures:
    def test_rows_bit_equal_to_the_record_loop(self):
        rng = np.random.default_rng(11)
        scenes = [scene_of_kind(kind, 31 * seed + 5) for kind in SCENE_KINDS for seed in range(40)]
        base = [scene_of_kind("dense", 7 * seed + 1) for seed in range(40)]
        scenes += [with_mixed_modes(s, rng) for s in base]
        scenes += [with_repeated_map_points(s, rng) for s in base]
        for s in scenes:
            got, want = scene_features(s), looped_scene_features(s)
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.dtype == w.dtype
                assert np.array_equal(g, w)
        assert len(scenes) == 240

    def test_empty_scene_has_zero_rows(self):
        s = take_map(scenario_with(8, agent_count_range=(0, 0)), [])
        agent_rows, map_rows, centroids = scene_features(s)
        assert agent_rows.shape == (0, 6) and map_rows.shape == (0, 7)
        assert centroids.shape == (0, 2)


class TestConfig:
    def test_heads_must_divide_width(self):
        with pytest.raises(ConfigError):
            InteractionConfig(d_model=10, n_heads=3)

    def test_multi_head_allowed(self):
        InteractionConfig(d_model=8, n_heads=2)


class TestEncodeQueries:
    def test_shapes(self):
        s = scenario_with(3, agent_count_range=(3, 3))
        params = small_params()
        tape = ad.Tape()
        p = {n: tape.leaf(a) for n, a in params.tensors.items()}
        qf = encode_queries(s, p, tape)
        assert qf.agent_queries.shape == (3, SMALL.d_model)
        assert qf.map_queries.shape == (len(s.map_xy), SMALL.d_model)
        assert qf.agent_positions.shape == (3, 2)
        assert qf.map_positions.shape == (len(s.map_xy), 2)

    def test_identical_agents_get_identical_rows(self):
        s = scenario_with(3, agent_count_range=(1, 1))
        s2 = take_agents(s, [0, 0])
        params = small_params()
        tape = ad.Tape()
        p = {n: tape.leaf(a) for n, a in params.tensors.items()}
        qf = encode_queries(s2, p, tape)
        np.testing.assert_array_equal(qf.agent_queries.data[0], qf.agent_queries.data[1])

    def test_permuting_agents_permutes_rows(self):
        s = scenario_with(5, agent_count_range=(4, 4))
        perm = [2, 0, 3, 1]
        s2 = take_agents(s, perm)
        params = small_params()
        tape = ad.Tape()
        p = {n: tape.leaf(a) for n, a in params.tensors.items()}
        q1 = encode_queries(s, p, tape).agent_queries.data
        q2 = encode_queries(s2, p, tape).agent_queries.data
        np.testing.assert_array_equal(q2, q1[perm])


class TestDecoderBlock:
    def _leaves(self, tape, params, prefix="agent_block"):
        return {n: tape.leaf(a) for n, a in params.tensors.items()}

    def test_single_key_gets_full_attention(self):
        params = small_params()
        tape = ad.Tape()
        p = self._leaves(tape, params)
        rng = np.random.default_rng(0)
        q = tape.leaf(rng.uniform(-1, 1, (1, 8)))
        k = tape.leaf(rng.uniform(-1, 1, (1, 8)))
        zeros = tape.leaf(np.zeros((1, 8)))
        _, attn = decoder_block(q, k, k, zeros, zeros, p, "agent_block", 1)
        assert attn[0].shape == (1, 1)
        assert attn[0][0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_attention_rows_sum_to_one(self):
        params = small_params()
        tape = ad.Tape()
        p = self._leaves(tape, params)
        rng = np.random.default_rng(1)
        q = tape.leaf(rng.uniform(-1, 1, (1, 8)))
        k = tape.leaf(rng.uniform(-1, 1, (5, 8)))
        pos = tape.leaf(rng.uniform(-1, 1, (5, 8)))
        qpos = tape.leaf(rng.uniform(-1, 1, (1, 8)))
        _, attn = decoder_block(q, k, k, qpos, pos, p, "agent_block", 1)
        np.testing.assert_allclose(attn[0].sum(axis=1), np.ones(1), atol=1e-12)
        assert np.all(attn[0] >= 0)

    def test_joint_key_permutation_leaves_output_unchanged(self):
        params = small_params()
        rng = np.random.default_rng(2)
        k_arr = rng.uniform(-1, 1, (6, 8))
        pos_arr = rng.uniform(-1, 1, (6, 8))
        q_arr = rng.uniform(-1, 1, (1, 8))
        perm = rng.permutation(6)

        def run(k_in, pos_in):
            tape = ad.Tape()
            p = self._leaves(tape, params)
            out, _ = decoder_block(
                tape.leaf(q_arr),
                tape.leaf(k_in),
                tape.leaf(k_in),
                tape.leaf(np.zeros((1, 8))),
                tape.leaf(pos_in),
                p,
                "agent_block",
                1,
            )
            return out.data

        np.testing.assert_allclose(
            run(k_arr, pos_arr), run(k_arr[perm], pos_arr[perm]), atol=1e-12
        )

    def test_zero_rows_pass_through_feed_forward_only(self):
        params = small_params()
        tape = ad.Tape()
        p = self._leaves(tape, params)
        q = tape.leaf(np.ones((1, 8)))
        empty = tape.leaf(np.zeros((0, 8)))
        out, attn = decoder_block(q, empty, empty, q, empty, p, "agent_block", 1)
        assert attn == []
        assert out.shape == (1, 8)

    def test_zero_keys_skip_attention_bit_for_bit(self):
        params = small_params()
        q_arr = np.random.default_rng(4).uniform(-1, 1, (1, 8))
        probe = np.random.default_rng(5).uniform(-1, 1, (1, 8))
        results = []
        for skip in (True, False):
            tape = ad.Tape()
            p = self._leaves(tape, params)
            q = tape.leaf(q_arr)
            empty = tape.leaf(np.zeros((0, 8)))
            before = len(tape._records)
            if skip:
                out, attn = decoder_block(q, empty, empty, q, empty, p, "agent_block", 1)
            else:
                # what the skip branch is: only the feed-forward sublayer
                ffn = [p[f"agent_block.ffn.{n}"] for n in ("w1", "b1", "w2", "b2")]
                out, attn = ad.add(q, ad.mlp(q, *ffn)), []
            grads = tape.backward_from([(out, probe)])
            results.append((len(tape._records) - before, out.data, grads[q], attn))
        (n_skip, out_skip, g_skip, attn_skip), (n_ref, out_ref, g_ref, _) = results
        assert attn_skip == []
        assert n_skip == n_ref == 2
        assert out_skip.tobytes() == out_ref.tobytes()
        assert g_skip.tobytes() == g_ref.tobytes()

    def test_width_mismatch_rejected(self):
        params = small_params()
        tape = ad.Tape()
        p = self._leaves(tape, params)
        q = tape.leaf(np.ones((1, 8)))
        k = tape.leaf(np.ones((2, 4)))
        with pytest.raises(ConfigError, match="width"):
            decoder_block(q, k, k, q, k, p, "agent_block", 1)


class TestForwardPlan:
    def test_output_shape_and_determinism(self):
        s = scenario_with(7)
        params = small_params()
        r1 = forward_plan(s, params)
        r2 = forward_plan(s, params)
        assert r1.plan.waypoints.shape == (SMALL.t_future, 2)
        np.testing.assert_array_equal(r1.plan.waypoints, r2.plan.waypoints)

    def test_plans_bit_equal_to_record_loop_features(self, monkeypatch):
        # the rows read from the scene's arrays are the rows the records give
        from vecplan import interact

        params = small_params()
        scenes = [scenario_with(seed, agent_count_range=agents)
                  for seed, agents in ((10, (2, 8)), (11, (8, 12)), (12, (0, 0)))]
        want = [forward_plan(s, params) for s in scenes]
        monkeypatch.setattr(interact, "scene_features", looped_scene_features)
        for s, w in zip(scenes, want):
            got = forward_plan(s, params)
            assert got.plan == w.plan
            assert np.array_equal(got.features.agent_positions, w.features.agent_positions)
            assert np.array_equal(got.features.map_positions, w.features.map_positions)

    def test_empty_scene_still_plans(self):
        s = scenario_with(8, agent_count_range=(0, 0))
        empty = take_map(take_agents(s, []), [])
        result = forward_plan(empty, small_params())
        assert result.plan.waypoints.shape == (SMALL.t_future, 2)
        assert np.all(np.isfinite(result.plan.waypoints))

    def test_zeroed_head_gives_zero_trajectory(self):
        params = small_params()
        for name in ("head.l1.w1", "head.l1.b1", "head.w2", "head.b2", "head.w3", "head.b3"):
            params.tensors[name][...] = 0.0
        result = forward_plan(scenario_with(9), params)
        np.testing.assert_array_equal(result.plan.waypoints, np.zeros((SMALL.t_future, 2)))

    def test_command_changes_output(self):
        s = scenario_with(10)
        params = small_params()
        from vecplan.scene import Command, EgoState

        outs = {}
        for cmd in Command:
            ego = EgoState(
                s.ego.position, s.ego.heading, s.ego.velocity,
                s.ego.acceleration, s.ego.steering_angle, cmd,
            )
            s2 = dataclasses.replace(s, ego=ego)
            outs[cmd] = forward_plan(s2, params).plan.waypoints
        assert not np.array_equal(outs[Command.TURN_LEFT], outs[Command.TURN_RIGHT])

    def test_agent_map_permutation_equivariance(self):
        s = scenario_with(11, agent_count_range=(5, 5))
        params = small_params()
        base = forward_plan(s, params).plan.waypoints
        rng = np.random.default_rng(0)
        aperm = rng.permutation(len(s.agent_xy))
        mperm = rng.permutation(len(s.map_xy))
        s2 = take_map(take_agents(s, aperm), mperm)
        permuted = forward_plan(s2, params).plan.waypoints
        np.testing.assert_allclose(permuted, base, atol=1e-10)

    def test_attention_rows_are_distributions(self):
        s = scenario_with(12, agent_count_range=(4, 4))
        result = forward_plan(s, small_params())
        for mats in result.attention.values():
            for m in mats:
                np.testing.assert_allclose(m.sum(axis=1), np.ones(m.shape[0]), atol=1e-12)
                assert np.all(m >= 0)

    def test_translating_agents_changes_output(self):
        s = scenario_with(13, agent_count_range=(4, 4))
        params = small_params()
        base = forward_plan(s, params).plan.waypoints
        s2 = dataclasses.replace(
            s,
            agent_xy=s.agent_xy + [0.0, 10.0],
            agent_modes=s.agent_modes + [0.0, 10.0],
            agent_future=s.agent_future + [0.0, 10.0],
        )
        moved = forward_plan(s2, params).plan.waypoints
        assert np.linalg.norm(moved - base) > 0.0

    def test_interaction_toggles(self):
        s = scenario_with(14)
        seed = 3
        full = forward_plan(s, small_params(seed)).plan.waypoints
        no_agent_cfg = InteractionConfig(
            d_model=8, d_command=4, use_agent_interaction=False
        )
        no_agent = forward_plan(s, InteractionParams.initialize(no_agent_cfg, seed))
        assert "agent" not in no_agent.attention
        assert not np.array_equal(no_agent.plan.waypoints, full)

    def test_horizon_mismatch_rejected(self):
        s = scenario_with(15)
        bad = InteractionParams.initialize(
            InteractionConfig(d_model=8, d_command=4, t_future=9), 0
        )
        with pytest.raises(ConfigError, match="t_future"):
            forward_plan(s, bad)

    def test_default_forward_records_twenty_ops(self):
        # the agent and map encoders, two positional encoders and one fused
        # attention, feed-forward and residual per block, the status encoder,
        # the command embedding and six head ops
        params = InteractionParams.initialize(InteractionConfig(), 0)
        result = forward_plan(scenario_with(3), params)
        assert len(result.tape._records) == 20

    def test_a_dropped_forward_frees_its_tape_without_the_cycle_collector(self):
        s = scenario_with(6, agent_count_range=(4, 4))
        params = small_params()

        def dropped_tape():
            result = forward_plan(s, params)
            grads = result.tape.backward_from([(result.plan_node, np.ones((1, 12)))])
            assert grads[result.params["ego_query"]].any()
            return weakref.ref(result.tape)

        enabled = gc.isenabled()
        gc.disable()
        try:
            assert dropped_tape()() is None
        finally:
            if enabled:
                gc.enable()

    def test_multi_head_forward_runs(self):
        cfg = InteractionConfig(d_model=8, n_heads=2, d_command=4)
        result = forward_plan(scenario_with(16), InteractionParams.initialize(cfg, 0))
        assert result.plan.waypoints.shape == (cfg.t_future, 2)
        assert len(result.attention["agent"]) == 2


class TestGradientsThroughNetwork:
    def test_imitation_gradient_matches_finite_differences(self):
        # full-graph check: d(imitation)/d(theta) via the tape vs central
        # differences of the re-run forward, for every parameter
        s = scenario_with(20, agent_count_range=(2, 2))
        params = small_params(seed=1)

        def loss_value():
            res = forward_plan(s, params)
            return imitation_loss(res.plan, s.expert).value

        result = forward_plan(s, params)
        analytic_seed = imitation_loss(result.plan, s.expert).grad.reshape(1, -1)
        grads = result.tape.backward_from([(result.plan_node, analytic_seed)])

        worst = 0.0
        for name in params.tensors:
            fd = fd_param_gradient(loss_value, params.tensors[name])
            err = max_rel_err(grads[result.params[name]], fd)
            worst = max(worst, err)
        assert worst < 1e-4

    def test_on_tape_imitation_matches_constraints_value(self):
        s = scenario_with(21)
        params = small_params(seed=2)
        result = forward_plan(s, params)
        on_tape = ad.scalar_mul(
            ad.l1_to_target(result.plan_node, s.expert.reshape(1, -1)),
            1.0 / s.t_future,
        )
        off_tape = imitation_loss(result.plan, s.expert).value
        assert on_tape.data[0, 0] == pytest.approx(off_tape, abs=1e-12)


class TestFlatParams:
    def test_tensors_are_views_of_flat(self):
        params = small_params()
        sizes = [a.size for a in params.tensors.values()]
        assert params.flat.shape == (sum(sizes),)
        offset = 0
        for name, arr in params.tensors.items():
            assert np.shares_memory(arr, params.flat), name
            np.testing.assert_array_equal(arr.reshape(-1), params.flat[offset : offset + arr.size])
            offset += arr.size

    def test_replacing_a_tensor_raises(self):
        params = small_params()
        with pytest.raises(TypeError):
            params.tensors["head.w3"] = np.zeros_like(params.tensors["head.w3"])
        with pytest.raises(TypeError):
            del params.tensors["head.w3"]

    def test_non_finite_parameter_rejected_by_forward(self):
        s = scenario_with(9)
        for value in (np.nan, np.inf):
            params = small_params()
            params.tensors["map_block.ffn.b2"][0, 1] = value
            with pytest.raises(ShapeError, match="non-finite values in tensor"):
                forward_plan(s, params)

    def test_parameter_leaves_are_read_only_views(self):
        params = small_params()
        result = forward_plan(scenario_with(9), params)
        assert list(result.params) == list(params.tensors)
        for name, leaf in result.params.items():
            assert np.shares_memory(leaf.data, params.flat), name
            assert not leaf.data.flags.writeable
            with pytest.raises(ValueError):
                leaf.data[0, 0] = 1.0
        # the parameters themselves stay writable
        params.tensors["head.b3"][0, 0] = 1.0
        assert result.params["head.b3"].data[0, 0] == 1.0

    def test_next_forward_sees_updated_parameters(self):
        s = scenario_with(9)
        params = small_params()
        first = forward_plan(s, params)
        grads = first.tape.backward_from([(first.plan_node, np.ones((1, 12)))])
        optimizer = AdamW(params.flat.size, weight_decay=0.01)
        flat_grad = np.concatenate([grads[leaf].reshape(-1) for leaf in first.params.values()])
        optimizer.step(params.flat, flat_grad, 1e-2)
        after_step = forward_plan(s, params)
        params.tensors["head.b3"][0, :] += 1.0
        after_write = forward_plan(s, params)
        for result in (after_step, after_write):
            for name, leaf in result.params.items():
                np.testing.assert_array_equal(leaf.data, params.tensors[name])
        # each forward equals one on fresh parameters with the same values
        fresh = forward_plan(s, params.copy())
        assert after_write.plan_node.data.tobytes() == fresh.plan_node.data.tobytes()
        assert not np.array_equal(after_step.plan_node.data, first.plan_node.data)
        np.testing.assert_allclose(
            after_write.plan_node.data, after_step.plan_node.data + OUTPUT_SCALE, rtol=1e-12
        )

    def test_extended_parameters_enter_the_tape_as_read_only_views(self):
        params = small_params()
        params.extend([("extra.w", (3, 2), 3)], seed=5)
        result = forward_plan(scenario_with(9), params)
        assert list(result.params) == list(params.tensors)
        assert list(result.params)[-1] == "extra.w"
        for name, leaf in result.params.items():
            assert np.shares_memory(leaf.data, params.flat), name
            assert not leaf.data.flags.writeable, name
        params.tensors["extra.w"][...] = 2.0
        assert (result.params["extra.w"].data == 2.0).all()

    def test_copy_and_extend_rebuild_the_vector(self):
        params = small_params()
        dup = params.copy()
        assert not np.shares_memory(dup.flat, params.flat)
        np.testing.assert_array_equal(dup.flat, params.flat)
        before = params.flat.copy()
        params.extend([("extra.w", (3, 2), 3), ("head.w3", (1, 1), 1)], seed=5)
        assert list(params.tensors)[-1] == "extra.w"
        assert params.tensors["head.w3"].shape == dup.tensors["head.w3"].shape
        assert params.flat.size == before.size + 6
        np.testing.assert_array_equal(params.flat[: before.size], before)
        assert np.shares_memory(params.tensors["extra.w"], params.flat)


class TestParamsIO:
    def test_checkpoint_round_trip(self, tmp_path):
        params = small_params(seed=4)
        path = tmp_path / "ckpt.txt"
        params.save(path)
        loaded = InteractionParams.load(path, SMALL)
        assert set(loaded.tensors) == set(params.tensors)
        for name, arr in params.tensors.items():
            np.testing.assert_array_equal(loaded.tensors[name], arr)

    def test_mismatched_config_rejected(self, tmp_path):
        params = small_params(seed=4)
        path = tmp_path / "ckpt.txt"
        params.save(path)
        other = InteractionConfig(d_model=16, d_command=4)
        with pytest.raises(CheckpointError, match="mismatch|missing"):
            InteractionParams.load(path, other)

    def test_parameter_shape_table_consistent(self):
        shapes = {n: s for n, s, _ in parameter_shapes(SMALL)}
        params = small_params()
        assert {n: a.shape for n, a in params.tensors.items()} == shapes
