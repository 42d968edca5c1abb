import math
from types import SimpleNamespace

import numpy as np
import pytest
from _support import adamw_per_tensor_step, map_arrays, map_regression_oracle, scene

from vecplan import autodiff as ad
from vecplan.constraints import LossWeights
from vecplan.errors import ConfigError, ShapeError, TrainingDivergedError
from vecplan.interact import InteractionConfig, InteractionParams, parameter_shapes
from vecplan.learning import (
    AdamW,
    EpochStats,
    TrainConfig,
    TrainLog,
    _aux_losses,
    cosine_lr,
    focal_loss,
    minfde_select,
    motion_regression_loss,
    train,
)
from vecplan.scene import GeneratorConfig, MapClass

TINY_GEN = GeneratorConfig(agent_count_range=(1, 3), mode_count=3)
TINY_NET = InteractionConfig(d_model=8, d_command=4)


def tiny_train_config(**kw):
    defaults = dict(epochs=2, train_scenarios=6, val_scenarios=3, seed=0)
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestMinFdeSelect:
    def test_exact_mode_wins(self):
        gt = np.array([[0.0, 1.0], [0.0, 2.0]])
        modes = np.stack([gt + 1.0, gt, gt + 2.0])
        assert minfde_select(modes, gt) == 1

    def test_final_distance_decides(self):
        gt = np.zeros((3, 2))
        modes = np.zeros((3, 3, 2))
        modes[0, -1] = (2.0, 0.0)
        modes[1, -1] = (0.5, 0.0)
        modes[2, -1] = (1.0, 0.0)
        assert minfde_select(modes, gt) == 1

    def test_all_identical_ties_to_zero(self):
        gt = np.ones((4, 2))
        modes = np.stack([gt, gt, gt])
        assert minfde_select(modes, gt) == 0

    def test_matches_scan_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n_k = int(rng.integers(1, 7))
            gt = rng.uniform(-5, 5, (4, 2))
            modes = rng.uniform(-5, 5, (n_k, 4, 2))
            best, best_i = math.inf, 0
            for i in range(n_k):
                fde = math.dist(modes[i, -1], gt[-1])
                if fde < best:
                    best, best_i = fde, i
            assert minfde_select(modes, gt) == best_i

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            minfde_select(np.zeros((2, 3, 2)), np.zeros((4, 2)))


class TestMotionRegression:
    def test_selected_mode_equals_gt(self):
        gt = np.array([[1.0, 2.0]])
        modes = np.stack([gt + 3.0, gt])
        res = motion_regression_loss(modes, gt)
        assert res.value == 0.0
        assert res.selected == 1

    def test_single_step_hand_case(self):
        gt = np.zeros((1, 2))
        modes = np.array([[[1.0, 1.0]]])
        res = motion_regression_loss(modes, gt)
        assert res.value == pytest.approx(2.0, abs=1e-12)

    def test_non_selected_modes_get_zero_gradient(self):
        gt = np.zeros((2, 2))
        modes = np.stack([np.full((2, 2), 0.5), np.full((2, 2), 3.0)])
        res = motion_regression_loss(modes, gt)
        assert res.selected == 0
        assert res.mode_grads[0].any()
        assert not res.mode_grads[1].any()

    @pytest.mark.parametrize("modes, gt", [
        (np.zeros((2, 3, 2)), np.zeros((4, 2))),  # horizons differ
        (np.zeros((3, 2)), np.zeros((3, 2))),  # modes lack the mode axis
        (np.zeros((2, 3, 2)), np.zeros((3, 3))),  # gt is not (T_f, 2)
    ])
    def test_modes_and_gt_shapes_validated(self, modes, gt):
        with pytest.raises(ShapeError):
            motion_regression_loss(modes, gt)


def aux_map_regression(pred, gt) -> tuple[float, np.ndarray]:
    """The auxiliary map regression term that `_aux_losses` records for a
    scene whose map vectors are `gt` (V, P, 2), from an identity map head
    whose queries are the predicted points `pred` (V, P', 2): its value and
    its gradient with respect to `pred`."""
    pred = np.asarray(pred, dtype=np.float64)
    v, d = len(pred), pred[0].size

    def read_only(a):
        a.setflags(write=False)
        return a

    leaves = ad.Leaves({
        "aux.map_pts.w": read_only(np.eye(d)),
        "aux.map_pts.b": read_only(np.zeros((1, d))),
        "aux.map_cls.w": read_only(np.zeros((d, 3))),
        "aux.map_cls.b": read_only(np.zeros((1, 3))),
    })
    tape = ad.Tape(leaves)
    params = leaves.tensors
    queries = tape.leaf(pred.reshape(v, d))
    result = SimpleNamespace(params=params, features=SimpleNamespace(map_queries=queries))
    kinds = [MapClass.LANE_DIVIDER] * len(gt)
    _, _, seeds = _aux_losses(result, scene(np.zeros((6, 2)), map=map_arrays(gt, kinds)),
                              LossWeights())
    reg, _ = seeds[0]
    grad = tape.backward_from([(reg, np.ones((1, 1)))])[queries]
    return float(reg.data[0, 0]), grad.reshape(pred.shape)


class TestMapRegression:
    """The auxiliary heads' map term: the mean Manhattan distance per point
    of each map vector, averaged over the vectors."""

    def test_exact_match(self):
        pts = np.random.default_rng(0).uniform(-5, 5, (1, 20, 2))
        value, grad = aux_map_regression(pts, pts.copy())
        assert value == 0.0
        assert not grad.any()

    def test_single_point_hand_case(self):
        # every point off by (0.5, -0.5): 1.0 per point, as for a single one
        gt = np.array([[[0.0, 0.0], [0.0, 1.0]]])
        value, _ = aux_map_regression(gt + [0.5, -0.5], gt)
        assert value == pytest.approx(1.0, abs=1e-12)
        assert map_regression_oracle(gt[0, :1] + [0.5, -0.5], gt[0, :1])[0] == 1.0

    def test_translation_invariance(self):
        rng = np.random.default_rng(1)
        pred = rng.uniform(-5, 5, (1, 20, 2))
        gt = rng.uniform(-5, 5, (1, 20, 2))
        base, _ = aux_map_regression(pred, gt)
        shifted, _ = aux_map_regression(pred + [3.0, -7.0], gt + [3.0, -7.0])
        assert shifted == pytest.approx(base, abs=1e-12)

    def test_count_mismatch_rejected(self):
        gt = np.random.default_rng(2).uniform(-5, 5, (1, 4, 2))
        with pytest.raises(ShapeError, match="l1_to_target"):
            aux_map_regression(np.zeros((1, 3, 2)), gt)

    def test_matches_the_oracle_over_several_vectors(self):
        rng = np.random.default_rng(3)
        pred = rng.uniform(-5, 5, (4, 20, 2))
        gt = rng.uniform(-5, 5, (4, 20, 2))
        pred[1] = gt[1]  # one exact match: zero value and zero subgradient
        value, grad = aux_map_regression(pred, gt)
        oracle = [map_regression_oracle(p, g) for p, g in zip(pred, gt)]
        assert value == pytest.approx(np.mean([v for v, _ in oracle]), rel=1e-12)
        np.testing.assert_allclose(grad, np.array([g for _, g in oracle]) / len(gt),
                                   rtol=1e-15, atol=0.0)


class TestFocalLoss:
    def test_confident_correct_is_near_zero(self):
        value, _ = focal_loss(1.0 - 1e-7, 1)
        assert value == pytest.approx(0.0, abs=1e-10)

    def test_hand_case(self):
        # -0.25 * 0.25 * log(0.5)
        value, _ = focal_loss(0.5, 1, gamma=2.0, alpha=0.25)
        assert value == pytest.approx(0.25 * 0.25 * math.log(2.0), abs=1e-12)
        assert value == pytest.approx(0.04332169878499658, abs=1e-12)

    def test_reduces_to_half_cross_entropy(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            p = float(rng.uniform(0.01, 0.99))
            target = int(rng.integers(0, 2))
            value, _ = focal_loss(p, target, gamma=0.0, alpha=0.5)
            ce = -math.log(p) if target == 1 else -math.log(1.0 - p)
            assert value == pytest.approx(0.5 * ce, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = float(rng.uniform(0.05, 0.95))
            target = int(rng.integers(0, 2))
            _, grad = focal_loss(p, target)
            h = 1e-7
            fd = (focal_loss(p + h, target)[0] - focal_loss(p - h, target)[0]) / (2 * h)
            assert grad == pytest.approx(fd, rel=1e-5)

    def test_out_of_range_probability_is_clamped(self):
        value, grad = focal_loss(1.5, 1)
        assert math.isfinite(value) and math.isfinite(grad)

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError):
            focal_loss(0.5, 2)


class TestOptimizer:
    def test_zero_lr_leaves_params_unchanged(self):
        theta = np.ones(4)
        opt = AdamW(4, weight_decay=0.01)
        before = theta.copy()
        for _ in range(5):
            opt.step(theta, np.full(4, 3.0), lr=0.0)
        np.testing.assert_array_equal(theta, before)

    def test_step_moves_against_gradient(self):
        theta = np.zeros(1)
        opt = AdamW(1, weight_decay=0.0)
        opt.step(theta, np.array([1.0]), lr=0.1)
        assert theta[0] < 0.0

    def test_flat_step_bit_equal_to_per_tensor_loop(self):
        # the 44 default parameter tensors, stepped 320 times with gradients
        # of varied scale (some exactly zero) and a cosine schedule
        params = InteractionParams.initialize(InteractionConfig(), seed=3)
        assert len(params.tensors) == 44
        ref = {n: a.copy() for n, a in params.tensors.items()}
        m = {n: np.zeros_like(a) for n, a in ref.items()}
        v = {n: np.zeros_like(a) for n, a in ref.items()}
        opt = AdamW(params.flat.size, weight_decay=0.01)
        rng = np.random.default_rng(0)
        steps = 320
        for k in range(1, steps + 1):
            grads = {
                n: rng.standard_normal(a.shape) * 10.0 ** rng.uniform(-6, 2)
                * (rng.uniform(size=a.shape) > 0.1)
                for n, a in ref.items()
            }
            lr = cosine_lr(2e-3, k, steps)
            adamw_per_tensor_step(ref, grads, m, v, k, lr, weight_decay=0.01)
            with params.writing():
                opt.step(params.flat, np.concatenate([g.reshape(-1) for g in grads.values()]), lr)
        for name, arr in ref.items():
            assert np.array_equal(params.tensors[name], arr), name
        assert np.array_equal(opt.m, np.concatenate([a.reshape(-1) for a in m.values()]))
        assert np.array_equal(opt.v, np.concatenate([a.reshape(-1) for a in v.values()]))

    def test_cosine_schedule_endpoints(self):
        assert cosine_lr(1e-3, 0, 60) == pytest.approx(1e-3)
        assert cosine_lr(1e-3, 59, 60) < 1e-5
        assert cosine_lr(1e-3, 30, 60) == pytest.approx(5e-4, rel=1e-6)


class TestTrainLoop:
    def test_zero_lr_keeps_initial_parameters(self):
        from vecplan.interact import InteractionParams

        config = tiny_train_config(learning_rate=0.0)
        params, _log = train(config, TINY_GEN, TINY_NET)
        init = InteractionParams.initialize(TINY_NET, seed=config.seed)
        for name, arr in init.tensors.items():
            np.testing.assert_array_equal(params.tensors[name], arr)

    def test_same_seed_bit_identical_logs(self):
        config = tiny_train_config()
        p1, log1 = train(config, TINY_GEN, TINY_NET)
        p2, log2 = train(config, TINY_GEN, TINY_NET)
        assert log1.to_table() == log2.to_table()
        for name in p1.tensors:
            assert np.array_equal(p1.tensors[name], p2.tensors[name])

    def test_loss_decreases_on_small_run(self):
        config = tiny_train_config(
            epochs=12, train_scenarios=24, val_scenarios=8, learning_rate=2e-3
        )
        _params, log = train(config, TINY_GEN, TINY_NET)
        first, last = log.epochs[0].loss_total, log.epochs[-1].loss_total
        assert last < first

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_divergence_guard_fires(self):
        config = tiny_train_config(learning_rate=1e12, epochs=50, train_scenarios=4)
        with pytest.raises(TrainingDivergedError, match="non-finite parameter ") as info:
            train(config, TINY_GEN, TINY_NET)
        name = str(info.value).split("non-finite parameter ")[1].split()[0]
        assert name in {n for n, _, _ in parameter_shapes(TINY_NET)}

    def test_a_training_step_scans_the_parameters_once(self, monkeypatch):
        size = sum(math.prod(shape) for _, shape, _ in parameter_shapes(TINY_NET))
        scans, at_step = [], []
        isfinite, step = np.isfinite, AdamW.step

        def spy(x, *args, **kwargs):
            if isinstance(x, np.ndarray) and x.size == size:
                scans.append(x.shape)
            return isfinite(x, *args, **kwargs)

        def counted_step(self, theta, grad, lr):
            at_step.append(len(scans))
            return step(self, theta, grad, lr)

        monkeypatch.setattr(np, "isfinite", spy)
        monkeypatch.setattr(AdamW, "step", counted_step)
        config = tiny_train_config(epochs=2, train_scenarios=4)
        train(config, TINY_GEN, TINY_NET)
        steps = config.epochs * config.train_scenarios
        # the first forward scans the initial parameters; then each step's
        # write scope scans them once, and no forward or validation again
        assert at_step == list(range(1, steps + 1))
        assert scans == [(size,)] * (steps + 1)

    def test_validation_set_must_be_non_empty(self):
        with pytest.raises(ConfigError, match="val_scenarios must be >= 1"):
            tiny_train_config(val_scenarios=0)

    def test_negative_seed_is_a_config_error_that_names_it(self):
        # numpy's seeding would refuse it with a ValueError, once training starts
        with pytest.raises(ConfigError, match=r"^seed must be >= 0, got -1$"):
            tiny_train_config(seed=-1)

    def test_aux_heads_train_and_log(self):
        config = tiny_train_config(enable_aux_heads=True, epochs=2)
        params, log = train(config, TINY_GEN, TINY_NET)
        assert "aux.map_pts.w" in params.tensors
        assert log.epochs[0].loss_map > 0.0
        assert log.epochs[0].loss_motion > 0.0

    def test_each_training_scene_packed_once(self, monkeypatch):
        from vecplan import learning

        packed = []
        pack = learning.pack

        def counted(scenario, params):
            packed.append(scenario)
            return pack(scenario, params)

        monkeypatch.setattr(learning, "pack", counted)
        config = tiny_train_config(epochs=3, train_scenarios=5)
        train(config, TINY_GEN, TINY_NET)
        # validation computes no loss, so its scenes are never packed
        assert len(packed) == config.train_scenarios
        assert len({id(s) for s in packed}) == config.train_scenarios

    def test_mismatched_horizons_rejected(self):
        with pytest.raises(ConfigError):
            train(tiny_train_config(), TINY_GEN, InteractionConfig(d_model=8, t_future=9))

    def test_log_table_shape(self):
        config = tiny_train_config(epochs=3)
        _params, log = train(config, TINY_GEN, TINY_NET)
        lines = log.to_table().strip().splitlines()
        assert len(lines) == 4  # header + 3 epochs
        assert lines[0].startswith("epoch,lr,loss_total")


class TestTrainLogFlags:
    def _log_from(self, totals):
        log = TrainLog()
        for i, v in enumerate(totals):
            log.epochs.append(
                EpochStats(i, 1e-4, v, v, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
            )
        return log

    def test_monotone_run_is_clean(self):
        log = self._log_from(list(np.linspace(10, 1, 30)))
        assert log.regression_epochs() == []

    def test_late_rise_is_flagged(self):
        totals = list(np.linspace(10, 1, 25)) + [5.0, 6.0, 7.0, 8.0, 9.0]
        log = self._log_from(totals)
        assert log.regression_epochs() != []
