"""Query-interaction planning network.

A learned ego query attends over agent queries, then over map queries (each a
transformer-decoder block with MLP positional encodings of the element
positions), and an MLP head decodes the updated ego features together with
the ego status and the driving command into T_f future waypoints.  Scene
elements are embedded directly from their ground-truth-derived attributes,
standing in for a full perception stack; this is the central simplification
of the artifact and keeps the network small enough for exact gradient checks.

All math runs on the autodiff tape so training can backpropagate through the
full forward pass.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from operator import itemgetter
from types import MappingProxyType
from typing import Mapping

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .errors import CheckpointError, ConfigError, ShapeError
from .scene import Command, PlanTrajectory, Scenario

# fixed input normalization so activations stay O(1) at scene scale
POSITION_SCALE = 1.0 / 30.0
SPEED_SCALE = 1.0 / 15.0
ACCEL_SCALE = 1.0 / 5.0
STEER_SCALE = 2.0
# the head predicts waypoints in units of 10 m
OUTPUT_SCALE = 10.0

COMMAND_INDEX = {Command.TURN_LEFT: 0, Command.GO_STRAIGHT: 1, Command.TURN_RIGHT: 2}

AGENT_FEATURE_DIM = 6  # x, y, cos/sin heading, speed, confidence
MAP_FEATURE_DIM = 7  # class one-hot, centroid, first-segment direction
STATUS_FEATURE_DIM = 3  # velocity, acceleration, steering


@dataclass(frozen=True)
class InteractionConfig:
    d_model: int = 32
    n_heads: int = 1
    t_future: int = 6
    d_command: int = 8
    use_agent_interaction: bool = True
    use_map_interaction: bool = True

    def __post_init__(self):
        if self.d_model < 1 or self.n_heads < 1:
            raise ConfigError("d_model and n_heads must be positive")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if self.t_future < 1:
            raise ConfigError("t_future must be >= 1")
        if self.d_command < 1:
            raise ConfigError("d_command must be >= 1")


_PERCEPTRON = ("w1", "b1", "w2", "b2")
_ATTENTION = ("wq", "wk", "wv", "wo")
# a decoder block's parameters, in the order `ad.decoder_block` takes them
_BLOCK = _ATTENTION + tuple(f"ffn.{part}" for part in _PERCEPTRON)


@functools.cache
def _layer(prefix: str, parts: tuple[str, ...] = _PERCEPTRON) -> itemgetter:
    """A getter of one layer's parameters from a tape's leaves, a
    perceptron's by default, in the order its record takes them; cached, so
    a forward formats no name."""
    return itemgetter(*(f"{prefix}.{part}" for part in parts))


def _mlp_shapes(d_in: int, d_hidden: int, d_out: int, prefix: str):
    # biases share the layer's fan_in bound; zero biases would leave the
    # (0, 0) ego position exactly on the relu kink
    w1, b1, w2, b2 = (f"{prefix}.{part}" for part in _PERCEPTRON)
    return [
        (w1, (d_in, d_hidden), d_in),
        (b1, (1, d_hidden), d_in),
        (w2, (d_hidden, d_out), d_hidden),
        (b2, (1, d_out), d_hidden),
    ]


def _block_shapes(d: int, prefix: str):
    shapes = [(f"{prefix}.{part}", (d, d), d) for part in _ATTENTION]
    shapes += _mlp_shapes(d, d, d, f"{prefix}.ffn")
    return shapes


def parameter_shapes(config: InteractionConfig) -> list[tuple[str, tuple[int, int], int]]:
    """(name, shape, fan_in) of every parameter."""
    d = config.d_model
    head_in = 3 * d + config.d_command
    shapes = []
    shapes += _mlp_shapes(2, d, d, "pe1")
    shapes += _mlp_shapes(2, d, d, "pe2")
    shapes += _mlp_shapes(AGENT_FEATURE_DIM, d, d, "agent_enc")
    shapes += _mlp_shapes(MAP_FEATURE_DIM, d, d, "map_enc")
    shapes += _mlp_shapes(STATUS_FEATURE_DIM, d, d, "status_enc")
    shapes.append(("cmd_embed", (3, config.d_command), 3))
    shapes.append(("ego_query", (1, d), d))
    shapes += _block_shapes(d, "agent_block")
    shapes += _block_shapes(d, "map_block")
    shapes += _mlp_shapes(head_in, d, d, "head.l1")[:2]
    shapes.append(("head.w2", (d, d), d))
    shapes.append(("head.b2", (1, d), d))
    shapes.append(("head.w3", (d, 2 * config.t_future), d))
    shapes.append(("head.b3", (1, 2 * config.t_future), d))
    return shapes


class InteractionParams:
    """Named parameter arrays for the interaction network, held in one
    contiguous float64 vector.

    `flat` holds every parameter, tensor after tensor in the order of
    `tensors`.
    `tensors` is a read-only mapping from each name to a reshaped view of
    `flat`: writing into a view (`tensors[name][...] = 0.0`) writes the
    parameter, while assigning a new array to a name raises, since it would
    leave `flat` stale.  `leaves` holds read-only views of the same memory,
    built once, which `forward_plan` enters on each tape.  `extend` rebuilds
    all three, so views taken before it no longer alias the parameters.
    """

    def __init__(self, config: InteractionConfig, tensors: Mapping[str, np.ndarray]):
        self.config = config
        self._pack(tensors)

    def _pack(self, tensors: Mapping[str, np.ndarray]) -> None:
        arrays = {name: np.asarray(arr, dtype=np.float64) for name, arr in tensors.items()}
        self.flat = np.concatenate([a.reshape(-1) for a in arrays.values()] or [np.zeros(0)])
        views = {}
        leaves = {}
        offset = 0
        for name, arr in arrays.items():
            if arr.ndim != 2:
                raise ShapeError(f"parameter {name} must be 2-D, got shape {arr.shape}")
            views[name] = self.flat[offset : offset + arr.size].reshape(arr.shape)
            leaves[name] = views[name].view()
            leaves[name].flags.writeable = False
            offset += arr.size
        self.tensors = MappingProxyType(views)
        self.leaves = MappingProxyType(leaves)

    @classmethod
    def initialize(cls, config: InteractionConfig, seed: int) -> "InteractionParams":
        """Seeded init: every tensor uniform in +-1/sqrt(fan_in) of its layer."""
        params = cls(config, {})
        params.extend(parameter_shapes(config), seed)
        return params

    def extend(self, extra_shapes, seed: int) -> None:
        """Draw the named tensors (e.g. auxiliary heads) with the init rule,
        skipping names already present."""
        rng = np.random.default_rng(seed)
        tensors = dict(self.tensors)
        for name, shape, fan_in in extra_shapes:
            if name not in tensors:
                bound = 1.0 / math.sqrt(fan_in)
                tensors[name] = rng.uniform(-bound, bound, size=shape)
        self._pack(tensors)

    def save(self, path) -> None:
        ad.save_checkpoint(path, self.tensors)

    @classmethod
    def load(cls, path, config: InteractionConfig) -> "InteractionParams":
        tensors = ad.load_checkpoint(path)
        expected = {name: shape for name, shape, _ in parameter_shapes(config)}
        missing = [n for n in expected if n not in tensors]
        if missing:
            raise CheckpointError(f"{path}: missing tensors for this config: {missing}")
        bad = [
            f"{n} has shape {tensors[n].shape}, config wants {expected[n]}"
            for n in expected
            if tensors[n].shape != expected[n]
        ]
        if bad:
            raise CheckpointError(f"{path}: checkpoint/config mismatch: {'; '.join(bad)}")
        return cls(config, tensors)


@dataclass
class QueryFeatures:
    """Per-element query embeddings and the raw positions that feed the
    positional encoders."""

    agent_queries: Tensor  # (N_a, d_model)
    map_queries: Tensor  # (N_m, d_model)
    agent_positions: np.ndarray  # (N_a, 2)
    map_positions: np.ndarray  # (N_m, 2)


@dataclass
class ForwardResult:
    plan: PlanTrajectory
    tape: Tape
    plan_node: Tensor  # (1, 2*T_f), row-major (x1, y1, x2, y2, ...)
    params: dict[str, Tensor]  # tape leaves by parameter name
    features: QueryFeatures
    attention: dict[str, list[np.ndarray]] = field(default_factory=dict)


def _agent_features(scenario: Scenario) -> np.ndarray:
    step = scenario.agent_track[:, 0] - scenario.agent_xy
    # one math.hypot a row: np.hypot differs from it in the last bit on some steps
    speed = np.array([math.hypot(x, y) for x, y in step.tolist()]) / scenario.horizon_dt
    # each column is copied in from a contiguous result: numpy does not
    # promise that cos and sin round alike into a strided `out`
    rows = np.empty((len(step), AGENT_FEATURE_DIM))
    rows[:, :2] = scenario.agent_xy * POSITION_SCALE
    rows[:, 2] = np.cos(scenario.agent_heading)
    rows[:, 3] = np.sin(scenario.agent_heading)
    rows[:, 4] = speed * SPEED_SCALE
    rows[:, 5] = scenario.agent_confidence
    return rows


def _map_features(scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    xy = scenario.map_xy
    rows = np.zeros((len(xy), MAP_FEATURE_DIM))
    if not len(xy):
        return rows, np.zeros((0, 2))
    centroids = xy.sum(axis=1) / xy.shape[1]  # the bits of xy.mean(axis=1), without its overhead
    # every polyline has a non-degenerate segment: the first gives the direction
    steps = xy[:, 1:] - xy[:, :-1]
    live = (steps[..., 0] != 0.0) | (steps[..., 1] != 0.0)
    first = steps[np.arange(len(xy)), live.argmax(axis=1)]
    norms = np.array([math.hypot(x, y) for x, y in first.tolist()])
    rows[np.arange(len(xy)), scenario.map_kind] = 1.0
    rows[:, 3:5] = centroids * POSITION_SCALE
    rows[:, 5:7] = first / norms[:, None]
    return rows, centroids


def scene_features(scenario: Scenario) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The network's input rows of the whole scene, read from the scenario's
    arrays: agent rows, map rows and map centroids."""
    return _agent_features(scenario), *_map_features(scenario)


def encode_queries(scenario: Scenario, p: dict[str, Tensor], tape: Tape) -> QueryFeatures:
    """Embed agents and map elements into query rows.

    Agents embed (position, heading, speed from the best mode, confidence);
    map elements embed (class one-hot, centroid, first-segment direction).
    Empty lists yield zero-row matrices that downstream blocks skip over.
    """
    agent_rows, map_rows, centroids = scene_features(scenario)
    agent_q, map_q = [
        ad.mlp(tape.constant(rows), *_layer(encoder)(p))
        if len(rows)
        else tape.constant(np.zeros((0, _layer(encoder)(p)[2].shape[1])))
        for rows, encoder in ((agent_rows, "agent_enc"), (map_rows, "map_enc"))
    ]
    return QueryFeatures(agent_q, map_q, agent_rows[:, :2] / POSITION_SCALE, centroids)


def forward_plan(scenario: Scenario, params: InteractionParams) -> ForwardResult:
    """Run the full interaction pipeline and return the plan plus its tape."""
    config = params.config
    if scenario.t_future != config.t_future:
        raise ConfigError(
            f"scenario horizon {scenario.t_future} does not match model t_future "
            f"{config.t_future}"
        )
    if np.count_nonzero(np.isfinite(params.flat)) != params.flat.size:
        raise ShapeError("non-finite values in tensor")
    tape = Tape()
    p = tape.params(params.leaves)

    features = encode_queries(scenario, p, tape)
    attention: dict[str, list[np.ndarray]] = {}

    ego_q = p["ego_query"]
    ego_row = tape.constant(np.zeros((1, 2)))  # the ego's position, the origin
    stages = (
        ("agent", config.use_agent_interaction, features.agent_queries,
         features.agent_positions, "pe1"),
        ("map", config.use_map_interaction, features.map_queries, features.map_positions, "pe2"),
    )
    q_after = []  # the ego query after each stage
    for name, used, keys, positions, pe in stages:
        if used:
            pe = _layer(pe)(p)
            q_pos = ad.mlp(ego_row, *pe)
            k_pos = (
                ad.mlp(tape.constant(positions * POSITION_SCALE), *pe)
                if len(positions)
                else tape.constant(np.zeros((0, config.d_model)))
            )
            # the ego query attends over the keys, which are also the values
            ego_q, attention[name] = ad.decoder_block(
                ego_q, q_pos, keys, k_pos, keys, *_layer(f"{name}_block", _BLOCK)(p),
                config.n_heads,
            )
        q_after.append(ego_q)

    ego = scenario.ego
    status = [[ego.velocity * SPEED_SCALE, ego.acceleration * ACCEL_SCALE,
               ego.steering_angle * STEER_SCALE]]
    status_embed = ad.mlp(tape.constant(status), *_layer("status_enc")(p))
    one_hot = np.zeros((1, 3))
    one_hot[0, COMMAND_INDEX[ego.command]] = 1.0
    cmd_embed = ad.matmul(tape.constant(one_hot), p["cmd_embed"])

    # the head decodes the concatenated planning feature into 2*T_f coordinates
    plan_node = ad.mlp_head(
        [*q_after, status_embed, cmd_embed], p["head.l1.w1"], p["head.l1.b1"],
        p["head.w2"], p["head.b2"], p["head.w3"], p["head.b3"], OUTPUT_SCALE,
    )
    plan = PlanTrajectory(plan_node.data.reshape(config.t_future, 2))
    return ForwardResult(plan, tape, plan_node, p, features, attention)


def plan_gradient_seed(grad_waypoints: np.ndarray) -> np.ndarray:
    """Reshape a (T_f, 2) waypoint gradient into the plan node's (1, 2*T_f)."""
    return np.asarray(grad_waypoints, dtype=np.float64).reshape(1, -1)
