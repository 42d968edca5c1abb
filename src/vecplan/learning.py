"""Training losses for vectorized scene learning and the end-to-end training
loop for the interaction planner.

The default objective is the weighted sum of the three planning constraints
and the imitation term, differentiated through the network tape by seeding
the plan node with the analytic constraint gradients.  Optional auxiliary
heads re-predict map points and agent futures from their queries, adding the
scene-learning regression/classification terms (winner-take-all by minimum
final displacement error, Manhattan map regression, focal classification);
they are off by default since the scene inputs are already ground truth.

The ablation sweep trains one model per arm of interaction and constraint
toggles and scores every arm on the same evaluation scenes.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass, field, fields
from typing import Callable, Optional, Sequence

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
from .metrics import (
    DEFAULT_HORIZONS,
    PlanMetrics,
    collision_rate,
    displacement_error,
    plan_metrics,
)
from .scene import GeneratorConfig, Scenario, generate_scenario, pack

PROB_CLAMP = 1e-7
EVAL_SEED_OFFSET = 900_000  # the first seed of the ablation's evaluation scenarios


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
    seed: int = 0
    weights: LossWeights = field(default_factory=LossWeights)
    train_scenarios: int = 512
    val_scenarios: int = 64
    enable_aux_heads: bool = False

    def __post_init__(self):
        # each comparison is written so that NaN fails it
        for name in ("epochs", "train_scenarios", "val_scenarios"):
            if not getattr(self, name) >= 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.learning_rate >= 0:
            raise ConfigError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if not math.isfinite(self.weight_decay):
            raise ConfigError(f"weight_decay must be finite, got {self.weight_decay}")
        if not self.seed >= 0:
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
    ones = x.tape.constant(np.full(x.shape, 0.5))
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


def _forward(scenario: Scenario, params: InteractionParams, where: str, seed: int,
             rows=None) -> ForwardResult:
    """`forward_plan`; a plan refused as non-finite from a finite scene means
    the parameters overflow the network, a divergence, reported as a
    "non-finite plan {where} seed {seed}"."""
    try:
        return forward_plan(scenario, params, rows)
    except ScenarioFormatError as e:
        raise TrainingDivergedError(f"non-finite plan {where} seed {seed}") from e


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
    run.  Each AdamW step writes the parameters in one `writing()` scope,
    whose check is the step's one finiteness scan.  Aborts with
    TrainingDivergedError if a plan, a loss or a parameter goes non-finite.
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
        lr = cosine_lr(config.learning_rate, epoch, config.epochs)
        order = shuffle_rng.permutation(len(train_set))
        where = f"at epoch {epoch}, scenario"
        sums = {"total": 0.0, "imitation": 0.0, "collision": 0.0, "boundary": 0.0,
                "direction": 0.0, "map": 0.0, "motion": 0.0}
        for idx in order:
            packed = train_set[idx]
            result = _forward(packed.scenario, params, where, train_seeds[idx], train_rows[idx])
            plan_loss = total_planning_loss(result.plan, packed, weights)
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
            grad = result.tape.backward_from(seeds).flat
            try:
                with params.writing():
                    optimizer.step(params.flat, grad, lr)
            except ShapeError as e:  # "non-finite parameter {name}", from the scope's check
                raise TrainingDivergedError(
                    f"{e} after epoch {epoch}, scenario seed {train_seeds[idx]}"
                ) from e

        n = len(train_set)
        val_l2, val_cr = _validate(params, val_set, val_rows, val_seeds, where, gen_config)
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
              val_seeds: list[int], where: str, gen_config: GeneratorConfig):
    """Open-loop validation: average L2 over horizons and collision rate."""
    plans = [_forward(s, params, where, seed, rows).plan
             for s, rows, seed in zip(val_set, val_rows, val_seeds)]
    # each scene's mean over the horizons, then their mean
    l2s = np.mean(displacement_error(val_set, plans), axis=1)
    cr = collision_rate(val_set, plans, ego_dims=gen_config.ego_dims).avg
    return float(np.mean(l2s)), cr


# ---------------------------------------------------------------------------
# ablation sweep


@dataclass(frozen=True)
class AblationArm:
    """One row of the ablation: interaction and constraint toggles."""

    name: str
    agent_interaction: bool = True
    map_interaction: bool = True
    collision_constraint: bool = True
    boundary_constraint: bool = True
    direction_constraint: bool = True


@dataclass
class AblationRow:
    arm: AblationArm
    metrics: PlanMetrics
    collision_count_3s: int


@dataclass
class AblationReport:
    rows: list[AblationRow]
    eval_count: int

    CSV_COLUMNS = [
        "arm", "agent_inter", "map_inter", "col_const", "bd_const", "dir_const",
        "l2_1s", "l2_2s", "l2_3s", "l2_avg",
        "cr_1s", "cr_2s", "cr_3s", "cr_avg",
    ]

    def to_csv(self) -> str:
        lines = [",".join(self.CSV_COLUMNS)]
        for row in self.rows:
            arm, m = row.arm, row.metrics
            toggles = (arm.agent_interaction, arm.map_interaction, arm.collision_constraint,
                       arm.boundary_constraint, arm.direction_constraint)
            values = [*m.l2.values, m.l2.avg, *m.collision.values, m.collision.avg]
            lines.append(",".join([arm.name, *(str(int(t)) for t in toggles), *map(repr, values)]))
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        header = (
            f"{'arm':<18}{'AgI':>4}{'MapI':>5}{'Col':>4}{'Bd':>4}{'Dir':>4}"
            f"{'L2@1s':>8}{'L2@2s':>8}{'L2@3s':>8}{'L2avg':>8}"
            f"{'CR@1s':>8}{'CR@2s':>8}{'CR@3s':>8}{'CRavg':>8}"
        )
        mark = lambda b: "x" if b else "-"
        lines = [header, "-" * len(header)]
        for row in self.rows:
            arm = row.arm
            m = row.metrics
            lines.append(
                f"{arm.name:<18}{mark(arm.agent_interaction):>4}{mark(arm.map_interaction):>5}"
                f"{mark(arm.collision_constraint):>4}{mark(arm.boundary_constraint):>4}"
                f"{mark(arm.direction_constraint):>4}"
                + "".join(f"{v:8.3f}" for v in m.l2.values)
                + f"{m.l2.avg:8.3f}"
                + "".join(f"{v:8.2f}" for v in m.collision.values)
                + f"{m.collision.avg:8.2f}"
            )
        lines.append(f"(open-loop over {self.eval_count} synthetic scenarios; artifact protocol)")
        return "\n".join(lines) + "\n"


def ablation_report(
    arms: Sequence[AblationArm],
    train_config: TrainConfig,
    gen_config: GeneratorConfig,
    interact_config: Optional[InteractionConfig] = None,
    constraint_params: Optional[ConstraintParams] = None,
    eval_count: int = 200,
    progress: Optional[Callable[[AblationRow], None]] = None,
) -> AblationReport:
    """Train one model per arm (identical except toggles) and evaluate all
    arms open-loop on the same seeded scenario set, the scenarios of seeds
    `EVAL_SEED_OFFSET` onwards, with the generator's ego box.  Trained
    parameters that overflow the network on an evaluation scene are a
    divergence of that arm."""
    if interact_config is None:
        interact_config = InteractionConfig(t_future=gen_config.t_future)

    eval_seeds = range(EVAL_SEED_OFFSET, EVAL_SEED_OFFSET + eval_count)
    eval_set = [generate_scenario(seed, gen_config) for seed in eval_seeds]
    rows = []
    for arm in arms:
        arm_interact = dataclasses.replace(
            interact_config,
            use_agent_interaction=arm.agent_interaction,
            use_map_interaction=arm.map_interaction,
        )
        arm_weights = dataclasses.replace(
            train_config.weights,
            collision=train_config.weights.collision if arm.collision_constraint else 0.0,
            boundary=train_config.weights.boundary if arm.boundary_constraint else 0.0,
            direction=train_config.weights.direction if arm.direction_constraint else 0.0,
        )
        arm_train = dataclasses.replace(train_config, weights=arm_weights)
        params, _log = train(arm_train, gen_config, arm_interact, constraint_params)
        where = f"of arm {arm.name!r} on evaluation scenario"
        plans = [_forward(s, params, where, seed).plan for s, seed in zip(eval_set, eval_seeds)]
        metrics = plan_metrics(eval_set, plans, gen_config.ego_dims)
        # the 3 s rate is count * 100 / eval_count; round back to the count
        rate_3s = metrics.collision.values[DEFAULT_HORIZONS.index(3.0)]
        count_3s = round(rate_3s * eval_count / 100.0)
        rows.append(AblationRow(arm=arm, metrics=metrics, collision_count_3s=count_3s))
        if progress is not None:
            progress(rows[-1])
    return AblationReport(rows=rows, eval_count=eval_count)
