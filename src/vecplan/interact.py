"""Query-interaction planning network.

A learned ego query attends over agent queries, then over map queries (each a
transformer-decoder block with MLP positional encodings of the element
positions), and an MLP head decodes the updated ego features together with
the ego status and the driving command into T_f future waypoints.  Scene
elements are embedded directly from their ground-truth-derived attributes,
standing in for a full perception stack; this is the central simplification
of the artifact and keeps the network small enough for exact gradient checks.

All math runs on the autodiff tape so training can backpropagate through the
full forward pass, and inference runs the same forward.  A forward opens its
tape on the parameters' `autodiff.Leaves`, built once with them, so it makes
no node for a parameter, and makes six records: the agent and map encoders,
one per interaction stage (`ad.decoder_block`, which encodes the stage's
position rows itself), the command embedding and the head (`ad.mlp_head`,
which encodes the status row itself).  The input rows it builds from the
scene enter as they are, the agent and map rows and the command row as
constants (`Tape.constant`), each checked for finiteness once.
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
from .scene import MAP_CLASSES, Command, PlanTrajectory, Scenario

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
    leave `flat` stale.  `leaves` holds read-only views of the same memory
    as an `autodiff.Leaves` set, built once, on which `forward_plan` opens
    each tape.  `extend` rebuilds all three, so views taken before it no
    longer alias the parameters.
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
        self.leaves = ad.Leaves(leaves)

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
    params: Mapping[str, Tensor]  # the parameters' `Leaves` tensors by name
    features: QueryFeatures
    attention: dict[str, list[np.ndarray]] = field(default_factory=dict)


_ONE_HOT = np.eye(len(MAP_CLASSES))  # a map row's class columns, by `map_kind`
_sum = np.add.reduce  # ndarray.sum's reduction, without its Python wrapper


def _hypot_rows(xy: np.ndarray) -> list[float]:
    # one math.hypot a row: np.hypot differs from it in the last bit on some rows
    return list(map(math.hypot, *xy.T.tolist()))


def _agent_features(scenario: Scenario) -> np.ndarray:
    xy = scenario.agent_xy
    speed = np.array(_hypot_rows(scenario.agent_track[:, 0] - xy)) / scenario.horizon_dt
    heading = scenario.agent_heading
    # each column is copied in from a contiguous result: numpy does not
    # promise that cos and sin round alike into a strided `out`
    rows = np.empty((len(xy), AGENT_FEATURE_DIM))
    rows[:, :2] = xy * POSITION_SCALE
    rows[:, 2:].T[...] = (np.cos(heading), np.sin(heading), speed * SPEED_SCALE,
                          scenario.agent_confidence)
    return rows


def _map_features(scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    xy = scenario.map_xy
    if not len(xy):
        return np.zeros((0, MAP_FEATURE_DIM)), np.zeros((0, 2))
    centroids = _sum(xy, axis=1) / xy.shape[1]  # the bits of xy.mean(axis=1)
    # the direction of each polyline's first non-degenerate segment, which
    # every polyline has; the first segment, unless one of them is degenerate
    first = xy[:, 1] - xy[:, 0]
    norms = _hypot_rows(first)
    if 0.0 in norms:
        steps = xy[:, 1:] - xy[:, :-1]
        first = steps[np.arange(len(xy)), (steps != 0.0).any(axis=2).argmax(axis=1)]
        norms = _hypot_rows(first)
    rows = np.concatenate(
        (_ONE_HOT[scenario.map_kind], centroids * POSITION_SCALE, first / np.array(norms)[:, None]),
        axis=1,
    )
    return rows, centroids


def scene_features(scenario: Scenario) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The network's input rows of the whole scene, read from the scenario's
    arrays: agent rows, map rows and map centroids."""
    return _agent_features(scenario), *_map_features(scenario)


def encode_queries(scenario: Scenario, p: dict[str, Tensor], tape: Tape,
                   rows: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None) -> QueryFeatures:
    """Embed agents and map elements into query rows.

    Agents embed (position, heading, speed from the best mode, confidence);
    map elements embed (class one-hot, centroid, first-segment direction).
    Empty lists yield zero-row matrices that downstream blocks skip over.
    `rows` are the scene's `scene_features`, where the caller holds them.
    """
    agent_rows, map_rows, centroids = scene_features(scenario) if rows is None else rows
    agent_q, map_q = [
        ad.mlp(tape.constant(rows), *_layer(encoder)(p))
        if len(rows)
        else tape.constant(np.zeros((0, _layer(encoder)(p)[2].shape[1])))
        for rows, encoder in ((agent_rows, "agent_enc"), (map_rows, "map_enc"))
    ]
    return QueryFeatures(agent_q, map_q, agent_rows[:, :2] / POSITION_SCALE, centroids)


def forward_plan(scenario: Scenario, params: InteractionParams,
                 rows: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None) -> ForwardResult:
    """Run the full interaction pipeline and return the plan plus its tape.
    `rows` are the scene's `scene_features`, where the caller holds them
    already: training builds each training scene's once for the run."""
    config = params.config
    if scenario.t_future != config.t_future:
        raise ConfigError(
            f"scenario horizon {scenario.t_future} does not match model t_future "
            f"{config.t_future}"
        )
    if np.count_nonzero(np.isfinite(params.flat)) != params.flat.size:
        raise ShapeError("non-finite values in tensor")
    tape = Tape(params.leaves)
    p = params.leaves.tensors

    features = encode_queries(scenario, p, tape, rows)
    attention: dict[str, list[np.ndarray]] = {}

    ego_q = p["ego_query"]
    ego_row = np.zeros((1, 2))  # the ego's position, the origin
    stages = (
        ("agent", config.use_agent_interaction, features.agent_queries,
         features.agent_positions, "pe1"),
        ("map", config.use_map_interaction, features.map_queries, features.map_positions, "pe2"),
    )
    q_after = []  # the ego query after each stage
    for name, used, keys, positions, pe in stages:
        if used:
            # the ego query attends over the keys, which are also the values,
            # each position encoded by the stage's perceptron
            ego_q, attention[name] = ad.decoder_block(
                ego_q, ego_row, keys, positions * POSITION_SCALE, keys, *_layer(pe)(p),
                *_layer(f"{name}_block", _BLOCK)(p), config.n_heads,
            )
        q_after.append(ego_q)

    ego = scenario.ego
    status = np.array([[ego.velocity * SPEED_SCALE, ego.acceleration * ACCEL_SCALE,
                        ego.steering_angle * STEER_SCALE]])
    one_hot = np.zeros((1, 3))
    one_hot[0, COMMAND_INDEX[ego.command]] = 1.0
    cmd_embed = ad.matmul(tape.constant(one_hot), p["cmd_embed"])

    # the head decodes the concatenated planning feature into 2*T_f coordinates
    plan_node = ad.mlp_head(
        q_after, status, *_layer("status_enc")(p), cmd_embed, p["head.l1.w1"], p["head.l1.b1"],
        p["head.w2"], p["head.b2"], p["head.w3"], p["head.b3"], OUTPUT_SCALE,
    )
    plan = PlanTrajectory(plan_node.data.reshape(config.t_future, 2))
    return ForwardResult(plan, tape, plan_node, p, features, attention)


def plan_gradient_seed(grad_waypoints: np.ndarray) -> np.ndarray:
    """Reshape a (T_f, 2) waypoint gradient into the plan node's (1, 2*T_f)."""
    return np.asarray(grad_waypoints, dtype=np.float64).reshape(1, -1)
