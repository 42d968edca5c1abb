import numpy as np
import pytest
from _support import fd_param_gradient, max_rel_err

from vecplan import autodiff as ad
from vecplan.errors import CheckpointError, ShapeError


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

    def test_cross_tape_operands_rejected(self):
        a = ad.Tape().leaf(np.zeros((2, 2)))
        b = ad.Tape().leaf(np.zeros((2, 2)))
        with pytest.raises(ShapeError, match="tape"):
            ad.add(a, b)

    def test_tensor_data_is_immutable(self):
        t = ad.Tape().leaf(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            t.data[0, 0] = 1.0


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
