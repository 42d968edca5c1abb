import dataclasses
import gc
import weakref

import numpy as np
import pytest
from _support import (
    EGO_AT_REST,
    SCENE_KINDS,
    dict_backward_flat,
    fd_param_gradient,
    looped_scene_features,
    map_arrays,
    max_rel_err,
    one_mode_agents,
    package_calls,
    scene,
    scene_of_kind,
    take_agents,
    take_map,
    unfolded_forward_plan,
    with_mixed_modes,
    with_repeated_map_points,
)

from vecplan import autodiff as ad
from vecplan.constraints import LossWeights, imitation_loss
from vecplan.errors import CheckpointError, ConfigError, ShapeError
from vecplan.interact import (
    OUTPUT_SCALE,
    InteractionConfig,
    InteractionParams,
    encode_queries,
    forward_plan,
    parameter_shapes,
    scene_features,
)
from vecplan.learning import AdamW, _aux_losses, aux_head_shapes
from vecplan.scene import GeneratorConfig, MapClass, generate_scenario

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


def _stage_params(p, prefix="agent_block", pe="pe1"):
    """The positional encoder's weights, then the attention and feed-forward
    weights of a decoder block, in the order `ad.decoder_block` takes them."""
    names = [f"{pe}.{n}" for n in ("w1", "b1", "w2", "b2")]
    names += [f"{prefix}.{n}" for n in ("wq", "wk", "wv", "wo")]
    names += [f"{prefix}.ffn.{n}" for n in ("w1", "b1", "w2", "b2")]
    return [p[n] for n in names]


class TestDecoderBlock:
    def _leaves(self, tape, params):
        return {n: tape.leaf(a) for n, a in params.tensors.items()}

    def test_single_key_gets_full_attention(self):
        params = small_params()
        tape = ad.Tape()
        p = self._leaves(tape, params)
        rng = np.random.default_rng(0)
        q = tape.leaf(rng.uniform(-1, 1, (1, 8)))
        k = tape.leaf(rng.uniform(-1, 1, (1, 8)))
        _, attn = ad.decoder_block(q, np.zeros((1, 2)), k, np.zeros((1, 2)), k,
                                   *_stage_params(p), 1)
        assert attn[0].shape == (1, 1)
        assert attn[0][0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_attention_rows_sum_to_one(self):
        params = small_params()
        tape = ad.Tape()
        p = self._leaves(tape, params)
        rng = np.random.default_rng(1)
        q = tape.leaf(rng.uniform(-1, 1, (1, 8)))
        k = tape.leaf(rng.uniform(-1, 1, (5, 8)))
        pos = rng.uniform(-1, 1, (5, 2))
        qpos = rng.uniform(-1, 1, (1, 2))
        _, attn = ad.decoder_block(q, qpos, k, pos, k, *_stage_params(p), 1)
        np.testing.assert_allclose(attn[0].sum(axis=1), np.ones(1), atol=1e-12)
        assert np.all(attn[0] >= 0)

    def test_joint_key_permutation_leaves_output_unchanged(self):
        params = small_params()
        rng = np.random.default_rng(2)
        k_arr = rng.uniform(-1, 1, (6, 8))
        pos_arr = rng.uniform(-1, 1, (6, 2))
        q_arr = rng.uniform(-1, 1, (1, 8))
        perm = rng.permutation(6)

        def run(k_in, pos_in):
            tape = ad.Tape()
            p = self._leaves(tape, params)
            k = tape.leaf(k_in)
            out, _ = ad.decoder_block(
                tape.leaf(q_arr), np.zeros((1, 2)), k, pos_in.copy(), k, *_stage_params(p), 1,
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
        out, attn = ad.decoder_block(q, np.zeros((1, 2)), empty, np.zeros((0, 2)), empty,
                                     *_stage_params(p), 1)
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
                out, attn = ad.decoder_block(q, np.zeros((1, 2)), empty, np.zeros((0, 2)), empty,
                                             *_stage_params(p), 1)
            else:
                # what the skip branch is: only the feed-forward sublayer
                ffn = [p[f"agent_block.ffn.{n}"] for n in ("w1", "b1", "w2", "b2")]
                out, attn = ad.add(q, ad.mlp(q, *ffn)), []
            grads = tape.backward_from([(out, probe)])
            results.append((len(tape._records) - before, out.data, grads[q], attn))
        (n_skip, out_skip, g_skip, attn_skip), (n_ref, out_ref, g_ref, _) = results
        assert attn_skip == []
        assert (n_skip, n_ref) == (1, 2)  # one residual feed-forward record
        assert out_skip.tobytes() == out_ref.tobytes()
        assert g_skip.tobytes() == g_ref.tobytes()

    def test_width_mismatch_rejected(self):
        params = small_params()
        tape = ad.Tape()
        p = self._leaves(tape, params)
        q = tape.leaf(np.ones((1, 8)))
        k = tape.leaf(np.ones((2, 4)))
        with pytest.raises(ShapeError, match="attention"):
            ad.decoder_block(q, np.zeros((1, 2)), k, np.ones((2, 2)), k, *_stage_params(p), 1)


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

    def test_default_forward_records_six_ops(self):
        # the agent and map encoders, one record per stage (its positional
        # encodings and its block), the command embedding and the head with
        # its status encoder; the agent and map rows and the command are the
        # constants
        params = InteractionParams.initialize(InteractionConfig(), 0)
        result = forward_plan(scenario_with(3), params)
        assert len(result.tape._records) == 6
        assert len(result.tape._constants) == 3

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

    def test_finite_scene_whose_network_input_overflows_is_refused(self):
        # an agent whose first step overflows its speed, and a map polyline
        # whose centroid sum overflows: finite scenes, non-finite input rows
        params = small_params()
        fast = scene(np.zeros((6, 2)), agents=one_mode_agents(
            [[-1.7e308, 0.0]], np.tile([1.7e308, 0.0], (1, 6, 1))))
        far = scene(np.zeros((6, 2)), map=map_arrays(
            [np.array([[1.7e308, 0.0], [1.7e308, 1.0]])], [MapClass.LANE_DIVIDER]))
        with np.errstate(over="ignore"):
            assert not np.isfinite(scene_features(fast)[0]).all()
            assert not np.isfinite(scene_features(far)[1]).all()
            for s in (fast, far):
                with pytest.raises(ShapeError, match="non-finite values in tensor"):
                    forward_plan(s, params)

    def test_finite_ego_whose_status_row_overflows_is_refused(self):
        # a steering angle that the status row's scale overflows: the head
        # checks the row it encodes, as a constant's was checked
        from vecplan.scene import EgoState

        params = small_params()
        rest = EGO_AT_REST
        for steering in (1e308, -1e308):
            ego = EgoState(rest.position, rest.heading, rest.velocity, rest.acceleration,
                           steering, rest.command)
            with pytest.raises(ShapeError, match="non-finite values in tensor"):
                forward_plan(scene(np.zeros((6, 2)), ego=ego), params)

    def test_finite_parameters_whose_sum_overflows_are_accepted(self):
        params = small_params()
        params.extend([("extra.w", (1, 2), 1)], seed=0)
        params.tensors["extra.w"][...] = 1e308  # the forward reads no extra tensor
        with np.errstate(over="ignore"):
            assert not np.isfinite(params.flat.sum())
        assert forward_plan(scenario_with(9), params).plan == forward_plan(
            scenario_with(9), small_params()
        ).plan

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

    def test_forwards_read_one_set_of_parameter_tensors(self):
        params = small_params()
        first, second = (forward_plan(scenario_with(9), params) for _ in range(2))
        assert first.tape is not second.tape
        assert all(first.params[name] is leaf for name, leaf in second.params.items())
        # a parameter's gradient reads the same on either tape
        seed = [(first.plan_node, np.ones((1, 12)))]
        grads = first.tape.backward_from(seed)
        again = second.tape.backward_from([(second.plan_node, np.ones((1, 12)))])
        assert grads.flat.tobytes() == again.flat.tobytes()
        params.extend([("extra.w", (1, 1), 1)], seed=0)
        extended = forward_plan(scenario_with(9), params)
        assert extended.params["head.b3"] is not first.params["head.b3"]

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
        fresh = forward_plan(s, InteractionParams(params.config, params.tensors))
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
        dup = InteractionParams(params.config, params.tensors)
        assert not np.shares_memory(dup.flat, params.flat)
        np.testing.assert_array_equal(dup.flat, params.flat)
        before = params.flat.copy()
        params.extend([("extra.w", (3, 2), 3), ("head.w3", (1, 1), 1)], seed=5)
        assert list(params.tensors)[-1] == "extra.w"
        assert params.tensors["head.w3"].shape == dup.tensors["head.w3"].shape
        assert params.flat.size == before.size + 6
        np.testing.assert_array_equal(params.flat[: before.size], before)
        assert np.shares_memory(params.tensors["extra.w"], params.flat)


def _slot(params, name):
    """The slice of `params.flat` that holds the tensor `name`."""
    offset = 0
    for key, arr in params.tensors.items():
        if key == name:
            return slice(offset, offset + arr.size)
        offset += arr.size
    raise KeyError(name)


class TestFlatGradient:
    """`Gradients.flat` against the concatenated per-tensor gradients and
    against a dict-based reverse sweep, bit for bit."""

    def _check(self, result, seeds, params):
        grads = result.tape.backward_from(seeds)
        leaves = list(result.params.values())
        by_tensor = np.concatenate([grads[leaf].reshape(-1) for leaf in leaves])
        assert grads.flat.shape == params.flat.shape
        assert grads.flat.tobytes() == by_tensor.tobytes()
        assert grads.flat.tobytes() == dict_backward_flat(result.tape, seeds, leaves).tobytes()
        return grads.flat

    @pytest.mark.parametrize("seed", range(4))
    def test_dense_scene_and_parameters_read_by_two_records(self, seed):
        params = InteractionParams.initialize(InteractionConfig(), seed)
        s = scenario_with(seed, agent_count_range=(8, 12))
        result = forward_plan(s, params)
        # each positional encoder is read twice by its stage's record, whose
        # vjp gives it the keys' gradient and then the ego row's, as the two
        # records it folds did
        for name in ("pe1.w1", "pe2.b2"):
            index = result.params[name].index
            assert [inputs.count(index) for _, inputs, _ in result.tape._records
                    if index in inputs] == [2]
        probe = np.random.default_rng(seed).standard_normal((1, 12))
        flat = self._check(result, [(result.plan_node, probe)], params)
        for name in ("pe1.w1", "pe2.b2", "agent_block.wq", "map_block.wo"):
            assert flat[_slot(params, name)].any(), name

    @pytest.mark.parametrize(
        "drop, unreached",
        [
            ("agents", ("agent_enc", "pe1", "agent_block.wq", "agent_block.wk",
                        "agent_block.wv", "agent_block.wo")),
            ("map", ("map_enc", "pe2", "map_block.wq", "map_block.wk",
                     "map_block.wv", "map_block.wo")),
        ],
    )
    def test_unreached_block_parameters_are_zero(self, drop, unreached):
        params = InteractionParams.initialize(InteractionConfig(), 1)
        s = scenario_with(5, agent_count_range=(3, 5))
        s = take_agents(s, []) if drop == "agents" else take_map(s, [])
        result = forward_plan(s, params)
        flat = self._check(result, [(result.plan_node, np.ones((1, 12)))], params)
        for name in params.tensors:
            if name.startswith(unreached):
                assert not flat[_slot(params, name)].any(), name
        assert flat[_slot(params, "ego_query")].any()

    def test_parameters_extended_with_the_auxiliary_heads(self):
        config = InteractionConfig()
        gen_config = GeneratorConfig()
        params = InteractionParams.initialize(config, 2)
        params.extend(aux_head_shapes(config, gen_config), seed=3)
        s = generate_scenario(6, gen_config)
        result = forward_plan(s, params)
        _, _, aux_seeds = _aux_losses(result, s, LossWeights())
        seeds = [(result.plan_node, np.ones((1, 12))), *aux_seeds]
        flat = self._check(result, seeds, params)
        for name in ("aux.map_pts.w", "aux.map_cls.b", "aux.motion.w", "aux.mode_cls.b"):
            assert flat[_slot(params, name)].any(), name

    def test_a_seeded_parameter_and_a_repeated_seed_accumulate(self):
        params = small_params()
        result = forward_plan(scenario_with(9), params)
        b3 = result.params["head.b3"]
        rng = np.random.default_rng(7)
        seeds = [
            (result.plan_node, rng.standard_normal((1, 12))),
            (b3, rng.standard_normal(b3.shape)),
            (result.plan_node, rng.standard_normal((1, 12))),
        ]
        self._check(result, seeds, params)


class TestFoldedForward:
    """`forward_plan`, one record per stage and the status encoder inside the
    head, against the forward with those encoders as records of their own
    and the unfolded block and head: the same plan, attention weights and
    gradients, bit for bit."""

    CONFIGS = {
        "default": InteractionConfig(),
        "two_heads": InteractionConfig(n_heads=2),
        "no_agents": InteractionConfig(use_agent_interaction=False),
        "no_map": InteractionConfig(use_map_interaction=False),
        "neither": InteractionConfig(use_agent_interaction=False, use_map_interaction=False),
    }

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("aux", [False, True])
    def test_bit_equal_to_the_unfolded_forward(self, config, aux):
        config = self.CONFIGS[config]
        gen_config = GeneratorConfig()
        rng = np.random.default_rng(61)
        for kind in ("dense", "default", "agent_free", "map_free"):
            for seed in range(3):
                s = scene_of_kind(kind, 13 * seed + 2)
                params = InteractionParams.initialize(config, seed)
                if aux:
                    params.extend(aux_head_shapes(config, gen_config), seed=seed + 1)
                probe = rng.standard_normal((1, 2 * config.t_future))
                results = []
                for forward in (forward_plan, unfolded_forward_plan):
                    result = forward(s, params)
                    seeds = [(result.plan_node, probe)]
                    if aux:
                        # the auxiliary seeds reach the encoder outputs first
                        seeds += _aux_losses(result, s, LossWeights())[2]
                    grads = result.tape.backward_from(seeds)
                    encoded = [grads[result.features.agent_queries],
                               grads[result.features.map_queries]]
                    results.append((result, grads.flat, encoded))
                (got, flat, encoded), (want, want_flat, want_encoded) = results
                where = f"{kind} scene {seed}"
                assert got.plan_node.data.tobytes() == want.plan_node.data.tobytes(), where
                assert got.attention.keys() == want.attention.keys(), where
                for name, weights in got.attention.items():
                    assert [w.tobytes() for w in weights] == [
                        w.tobytes() for w in want.attention[name]], where
                assert flat.tobytes() == want_flat.tobytes(), where
                assert [g.tobytes() for g in encoded] == [g.tobytes() for g in want_encoded]
                assert flat.any(), where

    def test_a_dense_forward_makes_six_records_where_the_unfolded_makes_eleven(self):
        s = scene_of_kind("dense", 3)
        params = InteractionParams.initialize(InteractionConfig(), 0)
        got, want = forward_plan(s, params), unfolded_forward_plan(s, params)
        assert (len(got.tape._records), len(want.tape._records)) == (6, 11)
        assert (len(got.tape._constants), len(want.tape._constants)) == (3, 7)


class TestCallBudget:
    # bounds on the tape's bookkeeping per pass, on the first scene of the
    # benchmark's dense evaluation (seed 0): 60 frames a forward and 22 a
    # backward here, where 11 records (positional and status encoders of
    # their own) made 75 and 26, a node per parameter and copied constants
    # 90, wrappers around the decoder blocks 92, 20 records 101 and 29, and
    # per-op node, record and same-tape helpers 329 and 33
    FORWARD_FRAMES = 60
    BACKWARD_FRAMES = 22

    def test_forward_and_backward_stay_within_their_frame_budgets(self):
        gen_config = GeneratorConfig(agent_count_range=(8, 12))
        scene_seed = int(np.random.SeedSequence((0, 1)).generate_state(128)[0])
        s = generate_scenario(scene_seed, gen_config)
        params = InteractionParams.initialize(InteractionConfig(t_future=gen_config.t_future), 0)
        forward_plan(s, params)  # warm: nothing below imports or compiles
        result, forward_frames = package_calls(lambda: forward_plan(s, params))
        seeds = [(result.plan_node, np.ones((1, 12)))]
        _, backward_frames = package_calls(lambda: result.tape.backward_from(seeds))
        assert len(result.tape._records) == 6
        assert forward_frames <= self.FORWARD_FRAMES
        assert backward_frames <= self.BACKWARD_FRAMES


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
