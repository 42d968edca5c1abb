"""Training losses for vectorized scene learning and the end-to-end training
loop for the interaction planner.

The default objective is the weighted sum of the three planning constraints
and the imitation term, differentiated through the network tape by seeding
the plan node with the analytic constraint gradients.  Optional auxiliary
heads re-predict map points and agent futures from their queries, adding the
scene-learning regression/classification terms (winner-take-all by minimum
final displacement error, Manhattan map regression, focal classification);
they are off by default since the scene inputs are already ground truth.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields
from typing import Callable, Optional

import numpy as np

from . import autodiff as ad
from .constraints import ConstraintParams, LossWeights, total_planning_loss
from .errors import ConfigError, ScenarioFormatError, ShapeError, TrainingDivergedError
from .interact import (
    ForwardResult,
    InteractionConfig,
    InteractionParams,
    forward_plan,
    plan_gradient_seed,
    scene_features,
)
from .scene import GeneratorConfig, Scenario, generate_scenario, pack

PROB_CLAMP = 1e-7


def minfde_select(modes: np.ndarray, gt: np.ndarray) -> int:
    """Index of the mode with minimum final displacement error; first wins ties."""
    modes = np.asarray(modes, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if modes.ndim != 3 or modes.shape[1:] != gt.shape:
        raise ShapeError(f"modes {modes.shape} incompatible with gt {gt.shape}")
    fde = np.hypot(modes[:, -1, 0] - gt[-1, 0], modes[:, -1, 1] - gt[-1, 1])
    return int(np.argmin(fde))


@dataclass
class MotionRegression:
    value: float
    mode_grads: np.ndarray  # (N_k, T_f, 2); zero for non-selected modes
    selected: int


def motion_regression_loss(modes: np.ndarray, gt: np.ndarray) -> MotionRegression:
    """L1 regression on the minFDE-selected mode only.

    The selection is winner-take-all by final displacement error; the mode
    scores do not enter it (the paired mode-classification loss takes them).
    """
    modes = np.asarray(modes, dtype=np.float64)
    k = minfde_select(modes, gt)
    t_f = modes.shape[1]
    diff = modes[k] - gt
    grads = np.zeros_like(modes)
    grads[k] = np.sign(diff) / t_f
    return MotionRegression(float(np.abs(diff).sum() / t_f), grads, k)


def focal_loss(
    pred_prob: float, target: int, gamma: float = 2.0, alpha: float = 0.25
) -> tuple[float, float]:
    """Binary focal loss and its derivative w.r.t. the predicted probability.

    The probability is clamped to [1e-7, 1 - 1e-7] before evaluation.  With
    gamma=0 and alpha=0.5 this reduces to half the standard cross-entropy.
    """
    p = min(1.0 - PROB_CLAMP, max(PROB_CLAMP, float(pred_prob)))
    if target == 1:
        value = -alpha * (1.0 - p) ** gamma * math.log(p)
        grad = -alpha * (-gamma * (1.0 - p) ** (gamma - 1.0) * math.log(p) if gamma != 0.0 else 0.0)
        grad += -alpha * (1.0 - p) ** gamma / p
    elif target == 0:
        value = -(1.0 - alpha) * p**gamma * math.log(1.0 - p)
        grad = -(1.0 - alpha) * (gamma * p ** (gamma - 1.0) * math.log(1.0 - p) if gamma != 0.0 else 0.0)
        grad += (1.0 - alpha) * p**gamma / (1.0 - p)
    else:
        raise ValueError(f"target must be 0 or 1, got {target}")
    return value, grad


def _focal_array(probs: np.ndarray, targets: np.ndarray, gamma: float, alpha: float):
    """Mean focal loss over an array of probabilities plus d/d prob."""
    value = 0.0
    grads = np.zeros_like(probs)
    n = probs.size
    it = np.nditer(probs, flags=["multi_index"])
    for p in it:
        v, g = focal_loss(float(p), int(targets[it.multi_index]), gamma, alpha)
        value += v
        grads[it.multi_index] = g
    return value / n, grads / n


# ---------------------------------------------------------------------------
# optimizer and schedule


class AdamW:
    """Adaptive moments with decoupled weight decay over one flat parameter
    vector (or any array: every operation is elementwise), with the usual
    moment decays 0.9 and 0.999 and eps 1e-8."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, size: int, weight_decay: float):
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._scratch = (np.empty(size), np.empty(size))

    def step(self, theta: np.ndarray, grad: np.ndarray, lr: float) -> None:
        """Update `theta` in place from its gradient `grad`.

        The arithmetic of
            m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
            theta -= lr ((m / b1c) / (sqrt(v / b2c) + eps) + wd theta)
        operation by operation in that order, written into two scratch
        vectors instead of a fresh array per operation.
        """
        self.step_count += 1
        b1c = 1.0 - self.beta1**self.step_count
        b2c = 1.0 - self.beta2**self.step_count
        m, v = self.m, self.v
        tmp, update = self._scratch
        m *= self.beta1
        m += np.multiply(grad, 1.0 - self.beta1, out=tmp)
        v *= self.beta2
        np.multiply(grad, 1.0 - self.beta2, out=tmp)
        v += np.multiply(tmp, grad, out=tmp)
        np.divide(v, b2c, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += self.eps
        np.divide(m, b1c, out=update)
        update /= tmp
        np.multiply(theta, self.weight_decay, out=tmp)
        tmp += update
        tmp *= lr
        theta -= tmp


def cosine_lr(initial: float, epoch: int, total_epochs: int) -> float:
    """Cosine annealing from `initial` down to zero over the run."""
    if total_epochs <= 1:
        return initial
    return 0.5 * initial * (1.0 + math.cos(math.pi * epoch / total_epochs))


# ---------------------------------------------------------------------------
# training configuration and log


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 60
    learning_rate: float = 2e-4
    weight_decay: float = 0.01
    scheduler: str = "cosine"
    seed: int = 0
    weights: LossWeights = field(default_factory=LossWeights)
    train_scenarios: int = 512
    val_scenarios: int = 64
    enable_aux_heads: bool = False
    shuffle: bool = True

    def __post_init__(self):
        for name in ("epochs", "train_scenarios", "val_scenarios"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.learning_rate < 0:
            raise ConfigError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.scheduler not in ("cosine", "constant"):
            raise ConfigError(f"scheduler must be 'cosine' or 'constant', got {self.scheduler!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class EpochStats:
    epoch: int
    lr: float
    loss_total: float
    loss_imitation: float
    loss_collision: float
    loss_boundary: float
    loss_direction: float
    loss_map: float
    loss_motion: float
    val_l2_avg: float
    val_collision_rate: float


TRAIN_LOG_COLUMNS = [f.name for f in fields(EpochStats)]


@dataclass
class TrainLog:
    epochs: list[EpochStats] = field(default_factory=list)

    def to_table(self) -> str:
        lines = [",".join(TRAIN_LOG_COLUMNS)]
        for e in self.epochs:
            row = [str(e.epoch)] + [repr(getattr(e, c)) for c in TRAIN_LOG_COLUMNS[1:]]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    def regression_epochs(self) -> list[int]:
        """Epochs whose 5-epoch moving-average training loss rose.

        Used to flag runs that stop making progress after a 10-epoch warmup.
        """
        window = 5
        totals = [e.loss_total for e in self.epochs]
        flagged = []
        prev = None
        for i in range(10, len(totals)):
            avg = sum(totals[i + 1 - window : i + 1]) / window
            if prev is not None and avg > prev + 1e-9:
                flagged.append(self.epochs[i].epoch)
            prev = avg
        return flagged


# ---------------------------------------------------------------------------
# auxiliary scene-learning heads (optional)


def aux_head_shapes(config: InteractionConfig, gen_config: GeneratorConfig):
    d = config.d_model
    n_p, n_k, t_f = gen_config.n_points, gen_config.mode_count, config.t_future
    return [
        ("aux.map_pts.w", (d, 2 * n_p), d),
        ("aux.map_pts.b", (1, 2 * n_p), d),
        ("aux.map_cls.w", (d, 3), d),
        ("aux.map_cls.b", (1, 3), d),
        ("aux.motion.w", (d, n_k * 2 * t_f), d),
        ("aux.motion.b", (1, n_k * 2 * t_f), d),
        ("aux.mode_cls.w", (d, n_k), d),
        ("aux.mode_cls.b", (1, n_k), d),
    ]


def _sigmoid_on_tape(x):
    # sigmoid(z) = 0.5 * (tanh(z / 2) + 1), built from tape primitives
    half = ad.scalar_mul(ad.tanh(ad.scalar_mul(x, 0.5)), 0.5)
    ones = x.tape.leaf(np.full(x.shape, 0.5))
    return ad.add(half, ones)


def _aux_losses(result: ForwardResult, scenario: Scenario, weights: LossWeights):
    """Scene-learning terms on the tape; returns (value_map, value_motion, seeds)."""
    seeds = []
    p = result.params
    map_value = 0.0
    motion_value = 0.0

    n_m = len(scenario.map_xy)
    if n_m:
        gt_pts = scenario.map_xy.reshape(n_m, -1)
        pred = ad.add_bias_row(
            ad.matmul(result.features.map_queries, p["aux.map_pts.w"]), p["aux.map_pts.b"]
        )
        n_p = gt_pts.shape[1] // 2
        # l1_to_target averages over rows (map vectors); a further 1/N_p
        # yields the mean Manhattan distance per point
        reg = ad.scalar_mul(ad.l1_to_target(pred, gt_pts), 1.0 / n_p)
        map_value += float(reg.data[0, 0])
        seeds.append((reg, np.array([[weights.map]])))

        logits = ad.add_bias_row(
            ad.matmul(result.features.map_queries, p["aux.map_cls.w"]), p["aux.map_cls.b"]
        )
        probs = _sigmoid_on_tape(logits)
        # one class column per entry of scene.MAP_CLASSES, as map_kind indexes
        targets = np.zeros((n_m, 3), dtype=int)
        targets[np.arange(n_m), scenario.map_kind] = 1
        cls_value, dprobs = _focal_array(probs.data, targets, gamma=2.0, alpha=0.25)
        map_value += cls_value
        seeds.append((probs, weights.map * dprobs))

    n_a = len(scenario.agent_future)
    if n_a:
        t_f = scenario.t_future
        n_k = p["aux.mode_cls.w"].shape[1]
        pred = ad.add_bias_row(
            ad.matmul(result.features.agent_queries, p["aux.motion.w"]), p["aux.motion.b"]
        )
        logits = ad.add_bias_row(
            ad.matmul(result.features.agent_queries, p["aux.mode_cls.w"]), p["aux.mode_cls.b"]
        )
        probs = _sigmoid_on_tape(logits)
        pred_modes = pred.data.reshape(n_a, n_k, t_f, 2)
        dpred = np.zeros_like(pred_modes)
        selected = np.zeros(n_a, dtype=int)
        for i, gt in enumerate(scenario.agent_future):
            reg = motion_regression_loss(pred_modes[i], gt)
            motion_value += reg.value / n_a
            dpred[i] = reg.mode_grads / n_a
            selected[i] = reg.selected
        seeds.append((pred, weights.motion * dpred.reshape(n_a, -1)))

        targets = np.zeros((n_a, n_k), dtype=int)
        targets[np.arange(n_a), selected] = 1
        cls_value, dprobs = _focal_array(probs.data, targets, gamma=2.0, alpha=0.25)
        motion_value += cls_value
        seeds.append((probs, weights.motion * dprobs))

    return map_value, motion_value, seeds


# ---------------------------------------------------------------------------
# training loop


def _scenario_seeds(seed: int, train_count: int, val_count: int):
    ss = np.random.SeedSequence(seed)
    train_ss, val_ss, shuffle_ss = ss.spawn(3)
    train_seeds = [int(v) for v in train_ss.generate_state(train_count)]
    val_seeds = [int(v) for v in val_ss.generate_state(val_count)]
    return train_seeds, val_seeds, shuffle_ss


def _forward(scenario: Scenario, params: InteractionParams, epoch: int, seed: int,
             rows=None) -> ForwardResult:
    """`forward_plan`; a plan refused as non-finite from a finite scene means
    the parameters overflow the network, a divergence."""
    try:
        return forward_plan(scenario, params, rows)
    except ScenarioFormatError as e:
        message = f"non-finite plan at epoch {epoch}, scenario seed {seed}"
        raise TrainingDivergedError(message) from e


def train(
    config: TrainConfig,
    gen_config: GeneratorConfig,
    interact_config: Optional[InteractionConfig] = None,
    constraint_params: Optional[ConstraintParams] = None,
    progress: Optional[Callable[[EpochStats], None]] = None,
) -> tuple[InteractionParams, TrainLog]:
    """End-to-end training of the interaction planner on generated scenes.

    Deterministic for a given config: scenario seeds, parameter init, and the
    per-epoch shuffle all derive from `config.seed`.  Each training scene is
    packed, and each scene's network input rows built, once for the whole
    run.  Aborts with TrainingDivergedError if a plan, a loss or a parameter
    goes non-finite.
    """
    if interact_config is None:
        interact_config = InteractionConfig(t_future=gen_config.t_future)
    if interact_config.t_future != gen_config.t_future:
        raise ConfigError("interact t_future must match generator t_future")
    cparams = constraint_params if constraint_params is not None else ConstraintParams()
    weights = config.weights

    train_seeds, val_seeds, shuffle_ss = _scenario_seeds(
        config.seed, config.train_scenarios, config.val_scenarios
    )
    train_set = [pack(generate_scenario(s, gen_config), cparams) for s in train_seeds]
    train_rows = [scene_features(packed.scenario) for packed in train_set]
    val_set = [generate_scenario(s, gen_config) for s in val_seeds]
    val_rows = [scene_features(s) for s in val_set]

    params = InteractionParams.initialize(interact_config, seed=config.seed)
    if config.enable_aux_heads:
        params.extend(aux_head_shapes(interact_config, gen_config), seed=config.seed + 1)
    optimizer = AdamW(params.flat.size, weight_decay=config.weight_decay)
    shuffle_rng = np.random.default_rng(shuffle_ss.generate_state(1)[0])

    log = TrainLog()
    for epoch in range(config.epochs):
        lr = (
            cosine_lr(config.learning_rate, epoch, config.epochs)
            if config.scheduler == "cosine"
            else config.learning_rate
        )
        order = shuffle_rng.permutation(len(train_set)) if config.shuffle else np.arange(len(train_set))
        sums = {"total": 0.0, "imitation": 0.0, "collision": 0.0, "boundary": 0.0,
                "direction": 0.0, "map": 0.0, "motion": 0.0}
        for idx in order:
            packed = train_set[idx]
            result = _forward(packed.scenario, params, epoch, train_seeds[idx], train_rows[idx])
            plan_loss = total_planning_loss(result.plan, packed, cparams, weights)
            seeds = [(result.plan_node, plan_gradient_seed(plan_loss.grad))]
            step_total = plan_loss.value
            if config.enable_aux_heads:
                map_value, motion_value, aux_seeds = _aux_losses(result, packed.scenario, weights)
                seeds.extend(aux_seeds)
                step_total += weights.map * map_value + weights.motion * motion_value
                sums["map"] += map_value
                sums["motion"] += motion_value
            if not math.isfinite(step_total):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, scenario seed {train_seeds[idx]}"
                )
            sums["total"] += step_total
            for key in ("imitation", "collision", "boundary", "direction"):
                sums[key] += plan_loss.breakdown[key]
            # the tape was opened on params.leaves, so its flat gradient is laid out
            # like params.flat
            optimizer.step(params.flat, result.tape.backward_from(seeds).flat, lr)
            if not np.all(np.isfinite(params.flat)):
                name = next(n for n, a in params.tensors.items() if not np.all(np.isfinite(a)))
                raise TrainingDivergedError(
                    f"non-finite parameter {name} after epoch {epoch}, "
                    f"scenario seed {train_seeds[idx]}"
                )

        n = len(train_set)
        val_l2, val_cr = _validate(params, val_set, val_rows, val_seeds, epoch, gen_config)
        stats = EpochStats(
            epoch=epoch,
            lr=lr,
            loss_total=sums["total"] / n,
            loss_imitation=sums["imitation"] / n,
            loss_collision=sums["collision"] / n,
            loss_boundary=sums["boundary"] / n,
            loss_direction=sums["direction"] / n,
            loss_map=sums["map"] / n,
            loss_motion=sums["motion"] / n,
            val_l2_avg=val_l2,
            val_collision_rate=val_cr,
        )
        log.epochs.append(stats)
        if progress is not None:
            progress(stats)

    regressions = log.regression_epochs()
    if regressions:
        warnings.warn(
            f"training loss moving average rose at epochs {regressions}", stacklevel=2
        )
    return params, log


def _validate(params: InteractionParams, val_set: list[Scenario], val_rows: list,
              val_seeds: list[int], epoch: int, gen_config: GeneratorConfig):
    """Open-loop validation: average L2 over horizons and collision rate."""
    from .metrics import collision_rate, displacement_error

    plans = [_forward(s, params, epoch, seed, rows).plan
             for s, rows, seed in zip(val_set, val_rows, val_seeds)]
    # each scene's mean over the horizons, then their mean
    l2s = np.mean(displacement_error(val_set, plans), axis=1)
    cr = collision_rate(val_set, plans, ego_dims=gen_config.ego_dims).avg
    return float(np.mean(l2s)), cr
