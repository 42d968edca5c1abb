import gc
import math
import weakref

import numpy as np
import pytest
from _support import fd_param_gradient, max_rel_err, unfolded_decoder_block, unfolded_mlp_head

from vecplan import autodiff as ad
from vecplan.errors import CheckpointError, ShapeError
from vecplan.interact import InteractionConfig, InteractionParams


def rand(rng, rows, cols):
    return rng.uniform(-2.0, 2.0, size=(rows, cols))


class TestForwardValues:
    def test_matmul_hand_case(self):
        tape = ad.Tape()
        a = tape.leaf([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0]])
        b = tape.leaf([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        y = ad.matmul(a, b)
        np.testing.assert_array_equal(y.data, [[11.0, 14.0], [3.0, 4.0]])

    def test_softmax_uniform(self):
        tape = ad.Tape()
        y = ad.softmax_rows(tape.leaf([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(y.data, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)

    def test_softmax_rows_sum_to_one_and_stay_in_unit_interval(self):
        rng = np.random.default_rng(0)
        tape = ad.Tape()
        # row gaps stay small enough that no entry saturates to 0.0 or 1.0
        # in float64 (that happens past ~36 nats); huge inputs are covered
        # by the finiteness test below
        x = tape.leaf(rng.uniform(-15, 15, size=(12, 7)))
        y = ad.softmax_rows(x).data
        np.testing.assert_allclose(y.sum(axis=1), np.ones(12), atol=1e-12)
        assert np.all(y > 0.0)
        assert np.all(y < 1.0)

    def test_softmax_survives_huge_magnitudes(self):
        tape = ad.Tape()
        # stabilization by row-max subtraction must prevent overflow even
        # when the raw exp would be infinite
        y = ad.softmax_rows(tape.leaf([[1e4, -1e4, 0.0]])).data
        assert np.all(np.isfinite(y))
        np.testing.assert_allclose(y.sum(axis=1), [1.0], atol=1e-12)

    def test_shape_errors_name_the_primitive(self):
        tape = ad.Tape()
        a = tape.leaf(np.zeros((2, 3)))
        b = tape.leaf(np.zeros((2, 3)))
        with pytest.raises(ShapeError, match="matmul"):
            ad.matmul(a, b)
        with pytest.raises(ShapeError, match="add_bias_row"):
            ad.add_bias_row(a, tape.leaf(np.zeros((1, 2))))
        with pytest.raises(ShapeError, match="slice_cols"):
            ad.slice_cols(a, 2, 2)
        with pytest.raises(ShapeError, match="l1_to_target"):
            ad.l1_to_target(a, np.zeros((3, 2)))
        w1, b1 = tape.leaf(np.zeros((3, 4))), tape.leaf(np.zeros((1, 4)))
        w2, b2 = tape.leaf(np.zeros((4, 2))), tape.leaf(np.zeros((1, 2)))
        for args in ((w2, b1, w2, b2), (w1, b1, w1, b2), (w1, b2, w2, b2), (w1, b1, w2, b1)):
            with pytest.raises(ShapeError, match="mlp"):
                ad.mlp(a, *args)

    def test_cross_tape_operands_rejected(self):
        a = ad.Tape().leaf(np.zeros((2, 2)))
        b = ad.Tape().leaf(np.zeros((2, 2)))
        with pytest.raises(ShapeError, match="tape"):
            ad.add(a, b)

    def test_leaf_refuses_non_finite_values_only(self):
        tape = ad.Tape()
        # finite values whose sum overflows are accepted
        big = tape.leaf([[1e308, 1e308], [-1e308, 1e308]])
        assert big.data[1, 1] == 1e308
        for bad in ([[1.0, np.nan]], [[np.inf, 0.0]], [[np.inf, -np.inf]], [-np.inf, 1.0]):
            with pytest.raises(ShapeError, match="non-finite values in tensor"):
                tape.leaf(bad)
        for bad in (5.0, np.zeros((1, 2, 2))):
            with pytest.raises(ShapeError, match="2-D"):
                tape.leaf(bad)

    def test_leaf_is_a_read_only_c_contiguous_copy(self):
        tape = ad.Tape()
        fortran = np.asfortranarray(np.arange(6.0).reshape(2, 3))
        row = np.arange(3.0)
        for source, shape in ((fortran, (2, 3)), (row, (1, 3))):
            leaf = tape.leaf(source)
            assert leaf.shape == shape
            assert leaf.data.flags.c_contiguous and not leaf.data.flags.writeable
            assert not np.shares_memory(leaf.data, source)
            np.testing.assert_array_equal(leaf.data, source.reshape(shape))

    def test_tensor_data_is_immutable(self):
        t = ad.Tape().leaf(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            t.data[0, 0] = 1.0


class TestParamLeaves:
    def test_param_is_a_read_only_view(self):
        flat = np.arange(10.0)
        w = flat[4:10].reshape(2, 3)
        view = w.view()
        view.flags.writeable = False
        leaves = ad.Leaves({"w": view})
        tape = ad.Tape(leaves)
        x = tape.leaf(np.ones((1, 2)))
        leaf = leaves.tensors["w"]
        assert leaf.data is view
        assert np.shares_memory(leaf.data, flat)
        with pytest.raises(ValueError):
            leaf.data[0, 0] = 1.0
        assert w.flags.writeable
        w[0, 0] = -1.0
        assert leaf.data[0, 0] == -1.0
        # the parameters hold the first indices of every tape opened on them
        assert (leaf.index, x.index) == (0, 1)
        grads = tape.backward(ad.sum_all(ad.matmul(x, leaf)))
        np.testing.assert_array_equal(grads[leaf], np.ones((2, 3)))
        np.testing.assert_array_equal(grads[x], [[w[0].sum(), w[1].sum()]])

    def test_every_tape_opened_on_leaves_reads_the_same_parameter_tensors(self):
        view = np.ones((2, 2))
        view.flags.writeable = False
        leaves = ad.Leaves({"w": view, "v": view})
        w, v = leaves.tensors.values()
        firsts = []
        for _ in range(2):
            tape = ad.Tape(leaves)
            x = tape.leaf(np.eye(2))
            y = ad.matmul(x, w)
            firsts.append(x.index)
            grads = tape.backward_from([(y, np.ones((2, 2)))])
            assert grads[w].tolist() == [[1.0, 1.0], [1.0, 1.0]] and not grads[v].any()
        assert firsts == [2, 2] and leaves.tensors["w"] is w

    def test_parameters_alone_or_of_other_leaves_are_refused(self):
        view = np.ones((2, 2))
        view.flags.writeable = False
        leaves, other = ad.Leaves({"w": view}), ad.Leaves({"w": view})
        w = leaves.tensors["w"]
        tape = ad.Tape(leaves)
        x = tape.leaf(np.ones((2, 2)))
        for record in (lambda: ad.matmul(w, w), lambda: ad.scalar_mul(w, 2.0)):
            with pytest.raises(ShapeError, match="parameters alone"):
                record()
        foreign = other.tensors["w"]
        for record in (lambda: ad.matmul(x, foreign), lambda: ad.add(foreign, x),
                       lambda: ad.matmul(ad.Tape().leaf(np.ones((2, 2))), w)):
            with pytest.raises(ShapeError, match="different tapes"):
                record()
        with pytest.raises(ShapeError, match="another tape"):
            tape.backward_from([(x, np.ones((2, 2)))])[foreign]
        with pytest.raises(ShapeError, match="does not belong"):
            tape.backward_from([(foreign, np.ones((2, 2)))])
        # a parameter may come first: the record goes on its other operand's tape
        assert ad.matmul(w, x).tape is tape

    def test_a_dropped_set_and_its_tapes_are_freed_without_the_cycle_collector(self):
        view = np.ones((2, 2))
        view.flags.writeable = False
        enabled = gc.isenabled()
        gc.disable()
        try:
            leaves = ad.Leaves({"w": view})
            tape = ad.Tape(leaves)
            ad.matmul(tape.leaf(np.ones((2, 2))), leaves.tensors["w"])
            refs = weakref.ref(leaves), weakref.ref(tape)
            del leaves, tape
            assert [ref() for ref in refs] == [None, None]
        finally:
            if enabled:
                gc.enable()

    def test_param_needs_a_2d_float64_array(self):
        config = InteractionConfig()
        for bad in (np.zeros(3), np.zeros((1, 2, 2))):
            with pytest.raises(ShapeError, match="2-D"):
                InteractionParams(config, {"w": bad})
        params = InteractionParams(config, {"w": np.zeros((2, 2), dtype=np.float32)})
        assert params.leaves.tensors["w"].data.dtype == np.float64
        assert params.leaves.tensors["w"].data.flags.c_contiguous


def _mlp_by_parts(x, w1, b1, w2, b2):
    h = ad.relu(ad.add_bias_row(ad.matmul(x, w1), b1))
    return ad.add_bias_row(ad.matmul(h, w2), b2)


class TestFusedMlp:
    def test_bit_equal_to_the_unfused_ops(self):
        rng = np.random.default_rng(21)
        for trial in range(60):
            rows, d_in, d_hid, d_out = (int(v) for v in rng.integers(1, 9, size=4))
            arrays = [
                rng.standard_normal(shape)
                for shape in ((rows, d_in), (d_in, d_hid), (1, d_hid), (d_hid, d_out), (1, d_out))
            ]
            if trial % 3 == 0:
                arrays[2][0, 0] = -1e3  # a unit that is dead for every row
            probe = rng.standard_normal((rows, d_out))
            results = []
            for build in (ad.mlp, _mlp_by_parts):
                tape = ad.Tape()
                leaves = [tape.leaf(a) for a in arrays]
                out = build(*leaves)
                grads = tape.backward_from([(out, probe)])
                results.append((out.data, [grads[leaf] for leaf in leaves]))
            (fused, fused_grads), (parts, parts_grads) = results
            assert np.array_equal(fused, parts)
            for i, (a, b) in enumerate(zip(fused_grads, parts_grads)):
                assert np.array_equal(a, b), f"trial {trial} input {i}"

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        for trial in range(20):
            rows, d_in, d_hid, d_out = (int(v) for v in rng.integers(1, 6, size=4))
            shapes = ((rows, d_in), (d_in, d_hid), (1, d_hid), (d_hid, d_out), (1, d_out))
            # redraw until every pre-activation is clear of the relu kink
            while True:
                arrays = [rng.uniform(-1.5, 1.5, size=shape) for shape in shapes]
                if np.abs(arrays[0] @ arrays[1] + arrays[2]).min() > 0.05:
                    break
            probe = rng.uniform(-1, 1, size=(rows, d_out))

            def value():
                tape = ad.Tape()
                return float((ad.mlp(*(tape.leaf(a) for a in arrays)).data * probe).sum())

            tape = ad.Tape()
            leaves = [tape.leaf(a) for a in arrays]
            grads = tape.backward_from([(ad.mlp(*leaves), probe)])
            for i, arr in enumerate(arrays):
                err = max_rel_err(grads[leaves[i]], fd_param_gradient(value, arr))
                assert err < 1e-6, f"trial {trial} input {i}: rel err {err}"


def _attention_by_parts(q, q_pos, k, k_pos, v, wq, wk, wv, wo, n_heads):
    """The public-op chain of the attention in `unfolded_decoder_block`, op
    for op: multi-head cross-attention with output projection and residual."""
    qh = ad.matmul(ad.add(q, q_pos), wq)
    kh = ad.matmul(ad.add(k, k_pos), wk)
    vh = ad.matmul(v, wv)
    d_head = q.shape[1] // n_heads
    scale = 1.0 / math.sqrt(d_head)
    head_outs, weights = [], []
    for h in range(n_heads):
        lo, hi = h * d_head, (h + 1) * d_head
        logits = ad.scalar_mul(
            ad.matmul(ad.slice_cols(qh, lo, hi), ad.transpose(ad.slice_cols(kh, lo, hi))),
            scale,
        )
        w = ad.softmax_rows(logits)
        weights.append(w.data)
        head_outs.append(ad.matmul(w, ad.slice_cols(vh, lo, hi)))
    attended = head_outs[0] if n_heads == 1 else ad.concat_cols(head_outs)
    return ad.add(q, ad.matmul(attended, wo)), weights


def _attention_records(n_heads: int) -> int:
    """How many records `_attention_by_parts` makes."""
    return 5 + 8 * n_heads + (n_heads > 1) + 2


def _block_by_parts(q, q_pos, k, k_pos, v, wq, wk, wv, wo, w1, b1, w2, b2, n_heads):
    """The public-op chain that `unfolded_decoder_block` stands in for."""
    if k.shape[0]:
        x, weights = _attention_by_parts(q, q_pos, k, k_pos, v, wq, wk, wv, wo, n_heads)
    else:
        x, weights = q, []
    return ad.add(x, ad.mlp(x, w1, b1, w2, b2)), weights


def _attention_arrays(rng, rows, n_keys, d, spread=1.0):
    """q, q_pos, k, k_pos, v and the four (d, d) weights."""
    shapes = [(rows, d), (rows, d), (n_keys, d), (n_keys, d), (n_keys, d)] + [(d, d)] * 4
    return [rng.uniform(-spread, spread, size=shape) for shape in shapes]


def _block_arrays(rng, rows, n_keys, d, spread=1.0):
    """`_attention_arrays`, then the feed-forward's w1, b1, w2 and b2."""
    arrays = _attention_arrays(rng, rows, n_keys, d, spread)
    return arrays + [rng.uniform(-spread, spread, size=shape)
                     for shape in ((d, d), (1, d), (d, d), (1, d))]


def _fused_and_parts(arrays, n_heads, probes, shared):
    """For `unfolded_decoder_block` and `_block_by_parts` on leaves of
    `arrays` (the values the keys' leaf where `shared`): the records made,
    the output, the weights and every leaf's gradient.  q and k start with a
    gradient, as if read again downstream, so the order in which their paths
    add up shows in the bits."""
    results = []
    for build in (unfolded_decoder_block, _block_by_parts):
        tape = ad.Tape()
        leaves = [tape.leaf(a) for a in arrays]
        if shared:
            leaves[4] = leaves[2]
        out, weights = build(*leaves, n_heads)
        grads = tape.backward_from(zip((out, leaves[0], leaves[2]), probes))
        results.append((len(tape._records), out.data, weights,
                        [grads[leaf] for leaf in leaves]))
    return results


def _stage_arrays(rng, rows, n_keys, d, spread=1.0):
    """q, its (rows, 2) position rows, k, its position rows, v, a positional
    encoder (2 -> 3 -> d), the four (d, d) attention weights and the
    feed-forward's w1, b1, w2 and b2."""
    shapes = [(rows, d), (rows, 2), (n_keys, d), (n_keys, 2), (n_keys, d),
              (2, 3), (1, 3), (3, d), (1, d)] + [(d, d)] * 4 + [(d, d), (1, d), (d, d), (1, d)]
    return [rng.uniform(-spread, spread, size=shape) for shape in shapes]


def _stage(tape, tensors, q_rows, k_rows, n_heads, folded):
    """One stage over `tensors` (q, k, v, the encoder's four, the block's
    eight): `ad.decoder_block`, or, where not `folded`, the two positional
    `mlp` records over constants, the ego rows' first, then the oracle."""
    q, k, v, *weights = tensors
    pe, block = weights[:4], weights[4:]
    if folded:
        return ad.decoder_block(q, q_rows.copy(), k, k_rows.copy(), v, *pe, *block, n_heads)
    q_pos = ad.mlp(tape.constant(q_rows.copy()), *pe)
    k_pos = (ad.mlp(tape.constant(k_rows.copy()), *pe) if len(k_rows)
             else tape.constant(np.zeros(k.shape)))
    return unfolded_decoder_block(q, q_pos, k, k_pos, v, *block, n_heads)


class TestFusedAttention:
    """The attention of `unfolded_decoder_block` against its public-op
    chain, keys of at least one row, and of `ad.decoder_block` against
    finite differences."""

    def test_bit_equal_to_the_public_op_chain(self):
        rng = np.random.default_rng(31)
        for trial in range(60):
            n_heads = int(rng.choice([1, 2, 4]))
            d = n_heads * int(rng.integers(1, 5))
            rows, n_keys = int(rng.integers(1, 4)), int(rng.integers(1, 9))
            arrays = _block_arrays(rng, rows, n_keys, d, spread=2.0)
            probes = [rng.standard_normal(shape) for shape in ((rows, d), (rows, d), (n_keys, d))]
            # values are the keys, as in the network, in every other trial
            (n_fused, fused, fused_w, fused_g), (n_parts, parts, parts_w, parts_g) = (
                _fused_and_parts(arrays, n_heads, probes, shared=trial % 2 == 0))
            assert (n_fused, n_parts) == (1, 2 + _attention_records(n_heads)), f"trial {trial}"
            assert fused.tobytes() == parts.tobytes(), f"trial {trial}"
            assert [w.tobytes() for w in fused_w] == [w.tobytes() for w in parts_w]
            assert len(fused_w) == n_heads
            assert all(not w.flags.writeable for w in fused_w)
            for i, (a, b) in enumerate(zip(fused_g, parts_g)):
                assert a.tobytes() == b.tobytes(), f"trial {trial} input {i}"

    @pytest.mark.parametrize("n_heads", [1, 2])
    @pytest.mark.parametrize("n_keys", [1, 7])
    def test_matches_finite_differences(self, n_heads, n_keys):
        rng = np.random.default_rng(17 + 10 * n_heads + n_keys)
        for trial in range(3):
            q, q_rows, k, k_rows, *rest = _stage_arrays(rng, 2, n_keys, 4)
            arrays = [q, k, *rest]
            probe = rng.uniform(-1, 1, size=(2, 4))

            def value():
                tape = ad.Tape()
                out, _ = _stage(tape, [tape.leaf(a) for a in arrays], q_rows, k_rows, n_heads,
                                folded=True)
                return float((out.data * probe).sum())

            tape = ad.Tape()
            leaves = [tape.leaf(a) for a in arrays]
            out, _ = _stage(tape, leaves, q_rows, k_rows, n_heads, folded=True)
            grads = tape.backward_from([(out, probe)])
            for i, arr in enumerate(arrays):
                err = max_rel_err(grads[leaves[i]], fd_param_gradient(value, arr))
                assert err < 1e-6, f"trial {trial} input {i}: rel err {err}"

    def test_rejects_bad_shapes(self):
        rng = np.random.default_rng(3)
        tape = ad.Tape()
        q, q_rows, k, k_rows, v, *weights = _stage_arrays(rng, 1, 3, 4)
        q, k, v, *weights = [tape.leaf(a) for a in (q, k, v, *weights)]
        pe, attention, ffn = weights[:4], weights[4:8], weights[8:]
        with pytest.raises(ShapeError, match="heads"):
            ad.decoder_block(q, q_rows, k, k_rows, v, *weights, 3)
        with pytest.raises(ShapeError, match="attention"):
            ad.decoder_block(q, q_rows, k, k_rows[:2], v, *weights, 1)
        with pytest.raises(ShapeError, match="attention"):
            ad.decoder_block(q, q_rows, k, k_rows, q, *weights, 1)
        narrow = tape.leaf(np.zeros((3, 2)))
        with pytest.raises(ShapeError, match="attention"):
            ad.decoder_block(q, q_rows, narrow, k_rows, narrow, *weights, 1)
        with pytest.raises(ShapeError, match="mlp"):
            ad.decoder_block(q, q_rows, k, np.zeros((3, 3)), v, *weights, 1)
        with pytest.raises(ShapeError, match="mlp"):
            ad.decoder_block(q, q_rows, k, k_rows, v, *pe[:3], pe[1], *attention, *ffn, 1)
        with pytest.raises(ShapeError, match="2-D"):
            ad.decoder_block(q, np.zeros(2), k, k_rows, v, *weights, 1)
        with pytest.raises(ShapeError, match="2-D"):
            ad.decoder_block(q, q_rows, k, k_rows[None], v, *weights, 1)
        for bad in (np.nan, np.inf):
            rows = k_rows.copy()
            rows[1, 0] = bad
            with pytest.raises(ShapeError, match="non-finite values in tensor"):
                ad.decoder_block(q, q_rows, k, rows, v, *weights, 1)


class TestFusedBlock:
    def test_bit_equal_to_the_public_op_chain(self):
        rng = np.random.default_rng(41)
        for trial in range(60):
            n_heads = int(rng.choice([1, 2, 4]))
            d = n_heads * int(rng.integers(1, 5))
            rows, n_keys = int(rng.integers(1, 4)), int(rng.integers(0, 9))
            arrays = _attention_arrays(rng, rows, n_keys, d, spread=2.0)
            arrays += [rng.standard_normal(shape) for shape in ((d, d), (1, d), (d, d), (1, d))]
            if trial % 3 == 0:
                arrays[10][0, 0] = -1e3  # a feed-forward unit dead for every row
            probes = [rng.standard_normal(shape) for shape in ((rows, d), (rows, d), (n_keys, d))]
            # values are the keys, as in the network, in every other trial
            (n_fused, fused, fused_w, fused_g), (n_parts, parts, parts_w, parts_g) = (
                _fused_and_parts(arrays, n_heads, probes, shared=trial % 2 == 0))
            attention = _attention_records(n_heads) if n_keys else 0
            assert (n_fused, n_parts) == (1, 2 + attention), f"trial {trial}"
            assert fused.tobytes() == parts.tobytes(), f"trial {trial}"
            assert [w.tobytes() for w in fused_w] == [w.tobytes() for w in parts_w]
            assert len(fused_w) == (n_heads if n_keys else 0)
            for i, (a, b) in enumerate(zip(fused_g, parts_g)):
                assert a.tobytes() == b.tobytes(), f"trial {trial} input {i}"

    def test_rejects_a_feed_forward_of_another_width(self):
        rng = np.random.default_rng(5)
        tape = ad.Tape()
        q, q_rows, k, k_rows, v, *weights = _stage_arrays(rng, 1, 3, 4)
        q, k, v, *weights = [tape.leaf(a) for a in (q, k, v, *weights)]
        ffn = [tape.leaf(np.zeros(shape)) for shape in ((4, 4), (1, 4), (4, 3), (1, 3))]
        with pytest.raises(ShapeError, match="decoder_block"):
            ad.decoder_block(q, q_rows, k, k_rows, v, *weights[:8], *ffn, 1)
        ffn = [tape.leaf(np.zeros(shape)) for shape in ((3, 4), (1, 4), (4, 4), (1, 4))]
        with pytest.raises(ShapeError, match="mlp"):
            ad.decoder_block(q, q_rows, k, k_rows, v, *weights[:8], *ffn, 1)


class TestFoldedStage:
    """`ad.decoder_block` against its two positional `mlp` records and the
    unfolded block, bit for bit, in value and in every input gradient."""

    def test_bit_equal_to_the_positional_records_and_the_unfolded_block(self):
        rng = np.random.default_rng(47)
        for trial in range(80):
            n_heads = (1, 2)[trial % 2] if trial < 40 else int(rng.choice([1, 2, 4]))
            d = n_heads * int(rng.integers(1, 5))
            # zero keys, the skip branch, in every fifth trial
            rows, n_keys = int(rng.integers(1, 4)), 0 if trial % 5 == 0 else int(rng.integers(1, 9))
            q, q_rows, k, k_rows, v, *weights = _stage_arrays(rng, rows, n_keys, d, spread=2.0)
            if trial % 3 == 0:
                weights[1][0, 0] = -1e3  # an encoder unit dead for every row
            probes = [rng.standard_normal(shape) for shape in ((rows, d), (rows, d), (n_keys, d))]
            results = []
            for folded in (True, False):
                tape = ad.Tape()
                leaves = [tape.leaf(a) for a in (q, k, v, *weights)]
                if trial % 2 == 0:
                    leaves[2] = leaves[1]  # the values are the keys, as in the network
                out, attention = _stage(tape, leaves, q_rows, k_rows, n_heads, folded)
                # q and k start with a gradient, as if read again downstream
                grads = tape.backward_from(zip((out, leaves[0], leaves[1]), probes))
                results.append((len(tape._records), out.data, attention,
                                [grads[t] for t in leaves]))
            (n_folded, out, attention, grads), (n_unfolded, want, want_attention, want_grads) = (
                results)
            assert (n_folded, n_unfolded) == (1, 3 if n_keys else 2), f"trial {trial}"
            assert out.tobytes() == want.tobytes(), f"trial {trial}"
            assert [w.tobytes() for w in attention] == [w.tobytes() for w in want_attention]
            assert len(attention) == (n_heads if n_keys else 0)
            for i, (a, b) in enumerate(zip(grads, want_grads)):
                assert a.tobytes() == b.tobytes(), f"trial {trial} input {i}"

    def test_position_rows_are_kept_read_only_and_only_the_keys_scanned(self):
        rng = np.random.default_rng(2)
        q, q_rows, k, k_rows, v, *weights = _stage_arrays(rng, 1, 3, 4)
        tape = ad.Tape()
        ad.decoder_block(tape.leaf(q), q_rows, tape.leaf(k), k_rows, tape.leaf(v),
                         *[tape.leaf(w) for w in weights], 1)
        assert not q_rows.flags.writeable and not k_rows.flags.writeable
        # the query rows are the caller's own: not scanned, as the key rows are
        out, _ = ad.decoder_block(tape.leaf(q), np.full((1, 2), np.nan), tape.leaf(k),
                                  k_rows, tape.leaf(v), *[tape.leaf(w) for w in weights], 1)
        assert out.shape == (1, 4)


def _head_by_parts(parts, w1, b1, w2, b2, w3, b3, scale):
    """The public-op chain that `unfolded_mlp_head` stands in for, op for op."""
    h1 = ad.relu(ad.add_bias_row(ad.matmul(ad.concat_cols(parts), w1), b1))
    return ad.scalar_mul(ad.mlp(h1, w2, b2, w3, b3), scale)


class TestFusedHead:
    def test_bit_equal_to_the_public_op_chain(self):
        rng = np.random.default_rng(43)
        for trial in range(60):
            rows = int(rng.integers(1, 4))
            widths = [int(w) for w in rng.integers(1, 6, size=int(rng.integers(1, 5)))]
            d1, d2, d_out = (int(v) for v in rng.integers(1, 9, size=3))
            parts = [rng.standard_normal((rows, w)) for w in widths]
            layers = [rng.standard_normal(shape) for shape in (
                (sum(widths), d1), (1, d1), (d1, d2), (1, d2), (d2, d_out), (1, d_out))]
            if trial % 3 == 0:
                layers[1][0, 0] = -1e3  # a first-layer unit dead for every row
            probes = [rng.standard_normal((rows, d_out)), rng.standard_normal((rows, widths[0]))]
            results = []
            for build in (unfolded_mlp_head, _head_by_parts):
                tape = ad.Tape()
                part_leaves = [tape.leaf(a) for a in parts]
                if trial % 2 == 0 and len(parts) > 1 and widths[-1] == widths[0]:
                    part_leaves[-1] = part_leaves[0]  # one tensor read twice
                layer_leaves = [tape.leaf(a) for a in layers]
                out = build(part_leaves, *layer_leaves, 10.0)
                # the first part starts with a gradient of its own
                grads = tape.backward_from(zip((out, part_leaves[0]), probes))
                leaves = part_leaves + layer_leaves
                results.append((len(tape._records), out.data, [grads[t] for t in leaves]))
            (n_fused, fused, fused_g), (n_parts, by_parts, parts_g) = results
            assert (n_fused, n_parts) == (1, 6)
            assert fused.tobytes() == by_parts.tobytes(), f"trial {trial}"
            for i, (a, b) in enumerate(zip(fused_g, parts_g)):
                assert a.tobytes() == b.tobytes(), f"trial {trial} input {i}"

    def test_rejects_bad_shapes(self):
        tape = ad.Tape()
        query, command = tape.leaf(np.zeros((1, 2))), tape.leaf(np.zeros((1, 1)))
        status = np.zeros((1, 3))
        enc = [tape.leaf(np.zeros(shape)) for shape in ((3, 4), (1, 4), (4, 2), (1, 2))]
        layers = [tape.leaf(np.zeros(shape)) for shape in
                  ((5, 4), (1, 4), (4, 4), (1, 4), (4, 2), (1, 2))]
        with pytest.raises(ShapeError, match="mlp_head"):
            ad.mlp_head([], status, *enc, command, *layers, 10.0)
        with pytest.raises(ShapeError, match="mlp_head"):
            ad.mlp_head([tape.leaf(np.zeros((2, 2)))], status, *enc, command, *layers, 10.0)
        with pytest.raises(ShapeError, match="mlp_head"):
            ad.mlp_head([query], np.zeros((2, 3)), *enc, command, *layers, 10.0)
        with pytest.raises(ShapeError, match="mlp"):
            ad.mlp_head([query], np.zeros((1, 2)), *enc, command, *layers, 10.0)
        with pytest.raises(ShapeError, match="mlp"):
            ad.mlp_head([query], status, *enc, command, *layers[:4],
                        tape.leaf(np.zeros((3, 2))), layers[5], 10.0)
        with pytest.raises(ShapeError, match="tape"):
            ad.mlp_head([ad.Tape().leaf(np.zeros((1, 2)))], status, *enc, command, *layers, 10.0)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ShapeError, match="non-finite values in tensor"):
                ad.mlp_head([query], np.array([[0.0, bad, 0.0]]), *enc, command, *layers, 10.0)


class TestFoldedHead:
    def test_bit_equal_to_the_status_record_and_the_unfolded_head(self):
        rng = np.random.default_rng(53)
        for trial in range(60):
            # one row, as in the network, where the status part of the
            # feature's gradient is a C-contiguous view, and more, where the
            # sweep copies it
            rows = 1 if trial % 2 else int(rng.integers(2, 4))
            widths = [int(w) for w in rng.integers(1, 6, size=int(rng.integers(0, 4)))]
            d_enc, d_cmd, d1, d2, d_out = (int(v) for v in rng.integers(1, 9, size=5))
            queries = [rng.standard_normal((rows, w)) for w in widths]
            status = rng.standard_normal((rows, 3))
            enc = [rng.standard_normal(shape)
                   for shape in ((3, 5), (1, 5), (5, d_enc), (1, d_enc))]
            command = rng.standard_normal((rows, d_cmd))
            layers = [rng.standard_normal(shape) for shape in (
                (sum(widths) + d_enc + d_cmd, d1), (1, d1), (d1, d2), (1, d2), (d2, d_out),
                (1, d_out))]
            if trial % 3 == 0:
                enc[1][0, 0] = -1e3  # an encoder unit dead for every row
            probes = [rng.standard_normal((rows, d_out)), rng.standard_normal((rows, d_cmd))]
            results = []
            for folded in (True, False):
                tape = ad.Tape()
                query_leaves = [tape.leaf(a) for a in queries]
                if len(widths) > 1 and widths[1] == widths[0]:
                    query_leaves[1] = query_leaves[0]  # one tensor read twice
                enc_leaves = [tape.leaf(a) for a in enc]
                cmd = tape.leaf(command)
                layer_leaves = [tape.leaf(a) for a in layers]
                if folded:
                    out = ad.mlp_head(query_leaves, status.copy(), *enc_leaves, cmd,
                                      *layer_leaves, 10.0)
                else:
                    embed = ad.mlp(tape.constant(status.copy()), *enc_leaves)
                    out = unfolded_mlp_head([*query_leaves, embed, cmd], *layer_leaves, 10.0)
                # the command starts with a gradient of its own
                grads = tape.backward_from(zip((out, cmd), probes))
                leaves = query_leaves + enc_leaves + [cmd] + layer_leaves
                results.append((len(tape._records), out.data, [grads[t] for t in leaves]))
            (n_folded, out, grads), (n_unfolded, want, want_grads) = results
            assert (n_folded, n_unfolded) == (1, 2)
            assert out.tobytes() == want.tobytes(), f"trial {trial}"
            for i, (a, b) in enumerate(zip(grads, want_grads)):
                assert a.tobytes() == b.tobytes(), f"trial {trial} input {i}"


class TestConstants:
    def test_a_constant_is_the_checked_array_itself_and_receives_no_gradient(self):
        rng = np.random.default_rng(9)
        x_arr, w_arr = rng.standard_normal((3, 4)), rng.standard_normal((4, 2))
        mlp_arrays = [rng.standard_normal(shape) for shape in ((4, 5), (1, 5), (5, 2), (1, 2))]
        probe = rng.standard_normal((3, 2))
        results = []
        for enter in ("leaf", "constant"):
            tape = ad.Tape()
            x = getattr(tape, enter)(x_arr)
            w = tape.leaf(w_arr)
            layers = [tape.leaf(a) for a in mlp_arrays]
            outs = [ad.matmul(x, w), ad.mlp(x, *layers)]
            grads = tape.backward_from([(out, probe) for out in outs])
            results.append((x, grads, [grads[t] for t in [w, *layers]]))
        (leaf, leaf_grads, leaf_g), (const, const_grads, const_g) = results
        assert leaf_grads[leaf].any()
        assert const_grads[const].tobytes() == np.zeros((3, 4)).tobytes()
        assert const.data.tobytes() == leaf.data.tobytes()
        # no copy: the tape makes the array itself read-only
        assert const.data is x_arr and not x_arr.flags.writeable
        # the other inputs' gradients do not change by a bit
        for a, b in zip(leaf_g, const_g):
            assert a.tobytes() == b.tobytes()
        # finite values whose sum overflows are accepted, as by `leaf`
        assert ad.Tape().constant(np.array([[1e308, 1e308]])).data[0, 1] == 1e308
        for bad in ([[1.0, np.nan]], [[np.inf, 0.0]], [[-np.inf, 1.0]]):
            with pytest.raises(ShapeError, match="non-finite values in tensor"):
                ad.Tape().constant(np.array(bad))
        with pytest.raises(ShapeError, match="2-D"):
            ad.Tape().constant(np.zeros(3))

    def test_matmul_and_mlp_skip_the_product_for_a_constant(self):
        tape = ad.Tape()
        x = tape.constant(np.ones((2, 3)))
        w = tape.constant(np.ones((3, 3)))
        layers = [tape.leaf(np.ones(shape)) for shape in ((3, 2), (1, 2), (2, 1), (1, 1))]
        outs = [ad.matmul(x, w), ad.mlp(x, *layers)]
        (_, _, matmul_vjp), (_, _, mlp_vjp) = tape._records
        assert matmul_vjp(np.ones(outs[0].shape)) == (None, None)
        g = mlp_vjp(np.ones(outs[1].shape))
        assert g[0] is None and all(part is not None for part in g[1:])


class TestGradientsLookup:
    @staticmethod
    def _graph():
        """A tape whose records deliver shared arrays (`add`), transposed
        views (`transpose`) and column slices (`concat_cols`)."""
        rng = np.random.default_rng(3)
        view = rng.standard_normal((3, 2))
        view.flags.writeable = False
        leaves = ad.Leaves({"w": view})
        tape = ad.Tape(leaves)
        x = tape.leaf(rng.standard_normal((2, 3)))
        c = tape.constant(rng.standard_normal((2, 3)))
        w = leaves.tensors["w"]
        y = ad.add(x, c)
        t = ad.transpose(ad.matmul(y, w))
        z = ad.concat_cols([ad.transpose(t), x, y])
        tensors = [x, c, w, y, t, z]
        return tape, tensors, tape.backward_from([(z, rng.standard_normal(z.shape))])

    def test_a_lookup_is_read_only(self):
        _, tensors, grads = self._graph()
        for tensor in tensors:
            g = grads[tensor]
            with pytest.raises(ValueError):
                g[0, 0] = 1.0
        # a write into the flat vector is not one into a lookup
        assert grads.flat.flags.writeable

    def test_a_parameter_reads_a_view_of_flat_and_a_constant_zeros(self):
        _, (x, c, w, y, _, _), grads = self._graph()
        assert np.shares_memory(grads[w], grads.flat)
        assert grads[w].tobytes() == grads.flat.tobytes()
        assert grads[c].tobytes() == np.zeros(c.shape).tobytes()
        # the add's one gradient array reached x and c, and y's is x's part
        assert grads[x].any() and grads[y].any()

    def test_every_stored_gradient_is_c_contiguous(self):
        tape, tensors, grads = self._graph()
        assert all(g.flags.c_contiguous for g in grads._by_index.values())
        assert all(grads[t].flags.c_contiguous for t in tensors)
        # the vjps delivered views that are not: a transpose's and slices
        delivered = [g for out, _, vjp in tape._records if out in grads._by_index
                     for g in vjp(grads._by_index[out]) if g is not None]
        assert not all(g.flags.c_contiguous for g in delivered)


class TestBackward:
    def test_sum_of_leaf_gives_ones(self):
        tape = ad.Tape()
        x = tape.leaf(np.arange(6.0).reshape(2, 3))
        grads = tape.backward(ad.sum_all(x))
        np.testing.assert_array_equal(grads[x], np.ones((2, 3)))

    def test_diamond_graph_sums_both_paths(self):
        # loss = sum(x + x): each use contributes ones, so grad is 2
        tape = ad.Tape()
        x = tape.leaf(np.ones((2, 2)))
        loss = ad.sum_all(ad.add(x, x))
        grads = tape.backward(loss)
        np.testing.assert_array_equal(grads[x], 2 * np.ones((2, 2)))

    def test_non_scalar_loss_rejected(self):
        tape = ad.Tape()
        x = tape.leaf(np.ones((2, 2)))
        with pytest.raises(ShapeError, match="1x1"):
            tape.backward(x)

    def test_unreached_leaf_gets_zero_gradient(self):
        tape = ad.Tape()
        x = tape.leaf(np.ones((2, 2)))
        y = tape.leaf(np.ones((2, 2)))
        grads = tape.backward(ad.sum_all(x))
        np.testing.assert_array_equal(grads[y], np.zeros((2, 2)))

    def test_first_gradient_keeps_its_sign_of_zero(self):
        # -0.0 survives as it is but 0.0 + -0.0 is 0.0: a node's first
        # gradient, a parameter's in the flat vector included, is held as
        # it is, not added to zeros
        view = np.ones((1, 2))
        view.flags.writeable = False
        leaves = ad.Leaves({"w": view, "v": view})
        tape = ad.Tape(leaves)
        x = tape.leaf(np.ones((1, 2)))
        w, v = leaves.tensors.values()
        # the add hands its one gradient array to v as it is
        outs = [ad.scalar_mul(x, -1.0), ad.scalar_mul(ad.add(v, tape.constant(view)), -1.0)]
        grads = tape.backward_from([(out, np.zeros((1, 2))) for out in outs])
        assert np.signbit(grads[x]).all() and np.signbit(grads[v]).all()
        # w is unreached: plain zeros, laid out before v
        assert grads.flat.tobytes() == np.array([0.0, 0.0, -0.0, -0.0]).tobytes()

    def test_deterministic_bit_identical(self):
        def run():
            rng = np.random.default_rng(5)
            tape = ad.Tape()
            w = tape.leaf(rand(rng, 4, 4))
            x = tape.leaf(rand(rng, 3, 4))
            loss = ad.mean_all(ad.tanh(ad.matmul(x, w)))
            return tape.backward(loss)[w]

        a, b = run(), run()
        assert np.array_equal(a, b)

    def test_mean_of_relu_matmul_matches_fd(self):
        rng = np.random.default_rng(7)
        w_arr = rand(rng, 4, 3)
        x_arr = rand(rng, 2, 4)

        def value():
            tape = ad.Tape()
            w = tape.leaf(w_arr)
            x = tape.leaf(x_arr)
            return ad.mean_all(ad.relu(ad.matmul(x, w))).data[0, 0]

        tape = ad.Tape()
        w = tape.leaf(w_arr)
        x = tape.leaf(x_arr)
        loss = ad.mean_all(ad.relu(ad.matmul(x, w)))
        analytic = tape.backward(loss)[w]
        fd = fd_param_gradient(value, w_arr)
        assert max_rel_err(analytic, fd) < 1e-6


def _primitive_cases(rng):
    """(name, build(tape, leaves) -> output tensor, leaf arrays)."""
    r = lambda *s: rng.uniform(-1.5, 1.5, size=s)
    m, k, n = (int(v) for v in rng.integers(1, 6, size=3))
    cases = [
        ("matmul", lambda t, ls: ad.matmul(ls[0], ls[1]), [r(m, k), r(k, n)]),
        ("add", lambda t, ls: ad.add(ls[0], ls[1]), [r(m, n), r(m, n)]),
        ("add_bias_row", lambda t, ls: ad.add_bias_row(ls[0], ls[1]), [r(m, n), r(1, n)]),
        ("scalar_mul", lambda t, ls: ad.scalar_mul(ls[0], -1.7), [r(m, n)]),
        ("relu", lambda t, ls: ad.relu(ls[0]), [r(m, n) + 0.05]),
        ("tanh", lambda t, ls: ad.tanh(ls[0]), [r(m, n)]),
        ("softmax_rows", lambda t, ls: ad.softmax_rows(ls[0]), [r(m, max(n, 2))]),
        (
            "concat_cols",
            lambda t, ls: ad.concat_cols(list(ls)),
            [r(m, k), r(m, n), r(m, 1)],
        ),
        (
            "slice_cols",
            lambda t, ls: ad.slice_cols(ls[0], 1, 1 + n),
            [r(m, n + 2)],
        ),
        ("mean_all", lambda t, ls: ad.mean_all(ls[0]), [r(m, n)]),
        ("sum_all", lambda t, ls: ad.sum_all(ls[0]), [r(m, n)]),
        ("transpose", lambda t, ls: ad.transpose(ls[0]), [r(m, n)]),
    ]
    target = r(m, n)
    cases.append(
        ("l1_to_target", lambda t, ls: ad.l1_to_target(ls[0], target), [target + r(m, n) + 0.1])
    )
    return cases


class TestPrimitiveVJPs:
    def test_all_primitives_match_finite_differences(self):
        rng = np.random.default_rng(11)
        probe_rng = np.random.default_rng(12)
        for trial in range(20):
            for name, build, leaf_arrays in _primitive_cases(rng):
                # reduce the output to a scalar with a fixed random probe so
                # the FD check covers the full Jacobian structure
                def scalar_value(arrays=leaf_arrays, build=build, probe=None):
                    tape = ad.Tape()
                    leaves = [tape.leaf(a) for a in arrays]
                    out = build(tape, leaves)
                    return float((out.data * probe).sum())

                tape = ad.Tape()
                leaves = [tape.leaf(a) for a in leaf_arrays]
                out = build(tape, leaves)
                probe = probe_rng.uniform(-1, 1, size=out.shape)
                grads = tape.backward_from([(out, probe)])
                for i, arr in enumerate(leaf_arrays):
                    fd = fd_param_gradient(
                        lambda: scalar_value(probe=probe), leaf_arrays[i]
                    )
                    err = max_rel_err(grads[leaves[i]], fd)
                    assert err < 1e-6, f"{name} leaf {i}: rel err {err}"


class TestTapeLifecycle:
    def test_a_dropped_tape_is_freed_without_the_cycle_collector(self):
        rng = np.random.default_rng(8)

        def dropped_tape():
            view = np.ones((2, 2))
            view.flags.writeable = False
            leaves = ad.Leaves({"w": view})
            tape = ad.Tape(leaves)
            outs = []
            for _, build, arrays in _primitive_cases(rng):
                outs.append(build(tape, [tape.leaf(a) for a in arrays]))
            mlp_shapes = ((2, 3), (3, 4), (1, 4), (4, 2), (1, 2))
            outs.append(ad.mlp(*(tape.leaf(rand(rng, *shape)) for shape in mlp_shapes)))
            q, q_rows, k, k_rows, v, *weights = _stage_arrays(rng, 1, 3, 4)
            stage = [tape.leaf(a) for a in (q, k, v, *weights)]
            outs.append(_stage(tape, stage, q_rows, k_rows, 2, folded=True)[0])
            outs.append(leaves.tensors["w"])
            grads = tape.backward_from([(out, np.ones(out.shape)) for out in outs])
            assert grads[outs[0]].shape == outs[0].shape
            return weakref.ref(tape)

        enabled = gc.isenabled()
        gc.disable()
        try:
            assert dropped_tape()() is None
        finally:
            if enabled:
                gc.enable()


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        named = {
            "enc.w1": rng.standard_normal((4, 7)) * 1e-3,
            "enc.b1": rng.standard_normal((1, 7)) * 1e8,
            "query": rng.standard_normal((1, 4)),
        }
        path = tmp_path / "params.txt"
        ad.save_checkpoint(path, named)
        loaded = ad.load_checkpoint(path)
        assert list(loaded) == list(named)
        for name in named:
            assert np.array_equal(loaded[name], np.atleast_2d(named[name]))

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.txt"
        for text in (
            "not a checkpoint\n",
            # a header declaring a tensor larger than any address space
            "vecplan-checkpoint 1\n1\nw 2 9000000000000\n1 2\n",
            "vecplan-checkpoint 1\n1\nw 1 2\n1.0 nan\n",
        ):
            path.write_text(text)
            with pytest.raises(CheckpointError):
                ad.load_checkpoint(path)

    def test_rejects_truncated(self, tmp_path):
        path = tmp_path / "trunc.txt"
        ad.save_checkpoint(path, {"a": np.ones((2, 2))})
        text = path.read_text().splitlines()
        path.write_text("\n".join(text[:-1]))
        with pytest.raises(CheckpointError):
            ad.load_checkpoint(path)

    def test_rejects_spacey_names(self, tmp_path):
        with pytest.raises(CheckpointError):
            ad.save_checkpoint(tmp_path / "x.txt", {"bad name": np.ones((1, 1))})
